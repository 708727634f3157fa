"""Problem and probe files, and the bundled worked examples read from them.

Problem files are UTF-8 JSON objects with fields "n", "degree" and "coeffs",
the matrices A_0..A_degree row-major with explicit [re, im] pairs (README,
"Problem file format").  Probe files hold "u", "v" (n pairs each) and/or
"U", "V" (n rows of one width xi >= 1) in the same convention.

This module is the one reader of both formats and of the bundled data/
directory: data/<fixture>.json holds each fixture, data/probes/<stem>.json
probe vectors, and data/expected/<fixture>.json the golden checks, each
check naming its probe file by stem.
"""

import importlib.resources
import json
import math
from pathlib import Path

import numpy as np

from .matpoly import MatrixPolynomial

__all__ = [
    "diag_4x4",
    "ss_2x2",
    "multi_3x3",
    "quad_solvents_2x2",
    "infinite_family_3x3",
    "infinite_family_3x3_triangular",
    "residue_diag_2x2",
    "PROBLEMS",
    "ProblemFormatError",
    "parse_problem",
    "serialize_problem",
]


class ProblemFormatError(ValueError):
    """A problem or probe file does not match the documented format."""


def _pair_to_complex(value, where):
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        # type() rather than isinstance(): a JSON true or false is a bool, which subclasses int
        or not all(type(x) in (int, float) and math.isfinite(x) for x in value)
    ):
        raise ProblemFormatError(f"{where}: expected a finite [re, im] pair, got {value!r}")
    return complex(value[0], value[1])


def _parse_matrix(rows, n, where):
    if not isinstance(rows, list) or len(rows) != n:
        raise ProblemFormatError(f"{where}: expected {n} rows")
    out = np.empty((n, n), dtype=complex)
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ProblemFormatError(f"{where}, row {r}: expected {n} entries")
        for c, entry in enumerate(row):
            out[r, c] = _pair_to_complex(entry, f"{where}, row {r}, column {c}")
    return out


def _read_json_object(path):
    """The JSON object in a UTF-8 file; ProblemFormatError for invalid JSON or another top level."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError(f"{path}: top level must be an object")
    return doc


def parse_problem(path):
    """Load a MatrixPolynomial from a JSON problem file.

    Malformed files raise ProblemFormatError naming the offending
    coefficient, row and column.
    """
    doc = _read_json_object(path)
    for key in ("n", "degree", "coeffs"):
        if key not in doc:
            raise ProblemFormatError(f"{path}: missing field '{key}'")
    n, degree = doc["n"], doc["degree"]
    if not all(type(k) is int and k >= 1 for k in (n, degree)):
        raise ProblemFormatError(f"{path}: n and degree must be positive integers")
    coeffs = doc["coeffs"]
    if not isinstance(coeffs, list) or len(coeffs) != degree + 1:
        raise ProblemFormatError(
            f"{path}: expected {degree + 1} coefficient matrices A_0..A_{degree}, "
            f"got {len(coeffs) if isinstance(coeffs, list) else type(coeffs).__name__}"
        )
    mats = [_parse_matrix(mat, n, f"{path}: coefficient {j}") for j, mat in enumerate(coeffs)]
    try:
        return MatrixPolynomial(mats)
    except ValueError as exc:
        raise ProblemFormatError(f"{path}: {exc}") from exc


def _complex_pairs(a):
    """A complex array of any rank as nested lists with [re, im] pairs innermost."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def serialize_problem(P, name=None, description=None):
    """JSON text for a problem file; parse_problem round-trips it bit for bit."""
    doc = {}
    if name is not None:
        doc["name"] = name
    if description is not None:
        doc["description"] = description
    doc.update({
        "n": P.n,
        "degree": P.degree,
        "coeffs": _complex_pairs(P.coeffs),
    })
    return json.dumps(doc, indent=2) + "\n"


def _load_probes(path, n):
    """The probe vectors of a probe file: u, v of shape (n,) and U, V of shape (n, xi), complex."""
    doc = _read_json_object(path)
    out = {}
    for key in ("u", "v"):
        if key in doc:
            vec = doc[key]
            if not isinstance(vec, list) or len(vec) != n:
                raise ProblemFormatError(f"{path}: '{key}' must hold {n} [re, im] pairs")
            out[key] = np.array([_pair_to_complex(e, f"{path}: {key}[{i}]") for i, e in enumerate(vec)])
    for key in ("U", "V"):
        if key in doc:
            rows = doc[key]
            if not (isinstance(rows, list) and len(rows) == n and all(
                    isinstance(row, list) and row and len(row) == len(rows[0]) for row in rows)):
                raise ProblemFormatError(f"{path}: '{key}' must hold {n} rows of equal width xi >= 1")
            out[key] = np.array([[_pair_to_complex(e, f"{path}: {key}[{r}][{c}]") for c, e in enumerate(row)]
                                 for r, row in enumerate(rows)])
    if "U" in out and "V" in out and out["U"].shape != out["V"].shape:
        raise ProblemFormatError(f"{path}: 'U' and 'V' must have the same width xi")
    return out


def _data_path(*parts):
    return importlib.resources.files("invpairs").joinpath("data", *parts)


def _bundled(name):
    return parse_problem(_data_path(f"{name}.json"))


def diag_4x4():
    """Quadratic with eigenvalues 1/2, 1 (double each) and 2, 3 (single, triple)."""
    return _bundled("diag_4x4")


def ss_2x2():
    """2x2 quadratic with eigenvalue 0 (simple) and 1 (triple, one Jordan block)."""
    return _bundled("ss_2x2")


def multi_3x3():
    """3x3 quadratic whose eigenvalue 1 sits in two Jordan blocks (mult 2 + 3)."""
    return _bundled("multi_3x3")


def quad_solvents_2x2():
    """Monic 2x2 quadratic with eigenpairs (1,e1), (2,e2), (3,[1,1]), (4,[1,1]) and five solvents."""
    return _bundled("quad_solvents_2x2")


def infinite_family_3x3():
    """Monic 3x3 quadratic with infinitely many solvents (dense form)."""
    return _bundled("infinite_family_3x3")


def infinite_family_3x3_triangular():
    """Upper triangular form of infinite_family_3x3: one solvent family, one contradictory branch."""
    return _bundled("infinite_family_3x3_triangular")


def residue_diag_2x2():
    """Diagonal quadratic diag((l-1)(l-2), (l-1)(l-3)) with closed-form partial fractions."""
    return _bundled("residue_diag_2x2")


PROBLEMS = {ctor.__name__: ctor for ctor in (
    diag_4x4, ss_2x2, multi_3x3, quad_solvents_2x2,
    infinite_family_3x3, infinite_family_3x3_triangular, residue_diag_2x2,
)}


def _bundled_probes(stem, n):
    return _load_probes(_data_path("probes", f"{stem}.json"), n)


def _expected_documents():
    """The golden-check documents of data/expected, in file-name order."""
    paths = sorted(_data_path("expected").iterdir(), key=lambda p: p.name)
    return [_read_json_object(p) for p in paths if p.name.endswith(".json")]


# Contours and sizes of the worked examples, with the probe vectors of
# data/probes/<fixture>.json.  The reference Y-hat of the block example was
# computed with the alternative second probe V_yhat (recovered by a unique
# least-squares fit); the reference M_k and T belong to V.
GOLDEN_PROBES = {
    "diag_4x4": {"center": 0.75, "radius": 0.5, "m": 4, **_bundled_probes("diag_4x4", 4)},
    "ss_2x2": {"center": 1.0, "radius": 0.5, "m": 3, **_bundled_probes("ss_2x2", 2)},
    "multi_3x3": {
        "center": 1.0, "radius": 0.1, "m": 3, "m_block": 5, "xi": 2,
        **_bundled_probes("multi_3x3", 3), "V_yhat": _bundled_probes("multi_3x3_yhat", 3)["V"],
    },
}

"""Command line entry points, the benchmark harness and the golden checks.

The commands read problem and probe files through invpairs.problems, which
documents both formats and is also the one reader of the bundled data
directory (fixtures, probes and the data/expected golden checks that
`bench --verify` runs here).

Exit codes: 0 success, 1 usage error (bad flags or malformed files),
2 numerical failure, 3 verification mismatch.  JSON output is byte-identical
for identical argv, seed and fixtures; wall-clock times therefore appear
only in CSV and human-readable output, never in JSON.
"""

import cmath
import json
import math
import sys

import click
import numpy as np

from . import problems
from .problems import ProblemFormatError, _complex_pairs, parse_problem, serialize_problem
from .conditioning import pair_backward_error, pair_condition_number
from .contour import (
    Contour,
    block_moments,
    count_eigenvalues_inside,
    scalar_moments,
)
from .hankel import (
    build_hankel,
    companion_from_pencil,
    extract_block_invariant_pair,
    extract_invariant_pair,
    numerical_rank,
    pencil_eigenvalues,
)
from ._numeric import cluster_eigenvalues
from .matpoly import companion_linearization, eval_pair
from .refine import refine_pair
from .solvents import (
    enumerate_solvents,
    solvent_from_pair,
    triangular_solvent_solve,
    verify_solvent,
)

__all__ = [
    "ProblemFormatError",
    "VerificationMismatch",
    "parse_problem",
    "serialize_problem",
    "run_command",
    "main",
]


class VerificationMismatch(RuntimeError):
    """A golden-corpus check failed beyond its stated tolerance."""


# failures of the numerics (as opposed to failures to parse the request);
# ProblemFormatError and VerificationMismatch are handled before these.
# HankelRankError and EigenvalueOnContourError subclass RuntimeError, and
# SingularLeadingCoefficientError and np.linalg.LinAlgError subclass ValueError.
_NUMERICAL_ERRORS = (RuntimeError, ValueError)


# ---------------------------------------------------------------------------
# output formatting


def _fmt_complex(z):
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _json_default(obj):
    """json.dumps hook: complex as [re, im], arrays as nested lists, numpy scalars as Python ones."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return _complex_pairs(obj) if np.iscomplexobj(obj) else obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _matrix_rows(lead, M):
    """CSV rows lead + [r] + the entries of row r, one per row of the matrix M."""
    return [[*lead, r] + [_fmt_complex(z) for z in row] for r, row in enumerate(M)]


def _emit(data, csv_rows, fmt, out):
    """Write either the JSON document or the CSV rows (header first)."""
    if fmt == "json":
        text = json.dumps(data, indent=2, default=_json_default) + "\n"
    else:
        text = "\n".join(",".join(str(c) for c in row) for row in csv_rows) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


class _ComplexParam(click.ParamType):
    """Accepts '0.75' or 're,im' like '1,-0.5', both parts finite."""

    name = "complex"

    def convert(self, value, param, ctx):
        try:
            z = value if isinstance(value, complex) else complex(*map(float, str(value).split(",")))
        except (TypeError, ValueError):  # TypeError: more than two parts
            z = None
        if z is None or not cmath.isfinite(z):
            self.fail(f"{value!r} is not a finite complex number (use re or re,im)", param, ctx)
        return z


COMPLEX = _ComplexParam()


def _finite(ctx, param, value):
    """Option callback that rejects nan and inf."""
    if not math.isfinite(value):
        raise click.BadParameter(f"{value!r} is not a finite number", ctx, param)
    return value


def _contour_options(fn):
    fn = click.option("--center", type=COMPLEX, default="0,0", show_default=True,
                      help="Contour center as re or re,im.")(fn)
    fn = click.option("--radius", type=click.FloatRange(min=0, min_open=True), callback=_finite, default=1.0,
                      show_default=True, help="Contour radius.")(fn)
    fn = click.option("--nodes", type=click.IntRange(min=4), default=64, show_default=True,
                      help="Quadrature node count N.")(fn)
    return fn


def _extraction_options(fn):
    """Problem file, contour, probe file and seed: the inputs of an extraction."""
    fn = click.option("--seed", type=int, default=0, show_default=True)(fn)
    fn = click.option("--probe-file", type=click.Path(exists=True, dir_okay=False), default=None)(fn)
    fn = _contour_options(fn)
    return click.argument("problem", type=click.Path(exists=True, dir_okay=False))(fn)


_size_option = click.option("--m", "size", type=click.IntRange(min=1), default=None,
                            help="Pair size (default: eigenvalue count).")
_tol_option = click.option("--tol", type=click.FloatRange(min=0, min_open=True), callback=_finite,
                           default=1e-12, show_default=True)
_maxit_option = click.option("--maxit", type=click.IntRange(min=0), default=500, show_default=True)


def _output_options(fn):
    fn = click.option("--out", type=click.Path(dir_okay=False), default=None,
                      help="Write output to a file instead of stdout.")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
                      show_default=True, help="Output format.")(fn)
    return fn


def _file_probes(P, probe_file, keys):
    """The two probes named by keys ("uv" or "UV") in the --probe-file; (None, None) without one."""
    if not probe_file:
        return None, None
    probes = problems._load_probes(probe_file, P.n)
    if not all(key in probes for key in keys):
        kind = "scalar" if keys == "uv" else "block"
        raise ProblemFormatError(f"{probe_file}: {kind} probes need fields '{keys[0]}' and '{keys[1]}'")
    return probes[keys[0]], probes[keys[1]]


def _extract(P, center, radius, nodes, probe_file, seed, m):
    """Scalar invariant pair of P inside the contour, from the command's options."""
    u, v = _file_probes(P, probe_file, "uv")
    return extract_invariant_pair(P, Contour(center, radius, nodes), u, v, m=m, seed=seed)


def _block_probes(P, xi, probe_file, seed):
    if probe_file:
        return _file_probes(P, probe_file, "UV")
    if xi > P.n:
        raise click.BadParameter(f"xi = {xi} exceeds n = {P.n}; a probe block has at most n columns",
                                 param_hint="'--xi'")
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((P.n, xi)) + 1j * rng.standard_normal((P.n, xi))
    V = rng.standard_normal((P.n, xi)) + 1j * rng.standard_normal((P.n, xi))
    return U, V


# ---------------------------------------------------------------------------
# commands


@click.group()
def cli():
    """Invariant pairs and solvents of matrix polynomials via contour moments."""


@cli.command()
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@_contour_options
@_output_options
def count(problem, center, radius, nodes, out, fmt):
    """Count the eigenvalues enclosed by the contour."""
    P = parse_problem(problem)
    result = count_eigenvalues_inside(P, Contour(center, radius, nodes))
    data = {"count": result.count, "quality": result.quality}
    rows = [["count", "quality"], [result.count, repr(float(result.quality))]]
    _emit(data, rows, fmt, out)


@cli.command()
@_extraction_options
@click.option("--count", "nmoments", type=click.IntRange(min=1), default=8, show_default=True,
              help="Moments to compute.")
@_output_options
def moments(problem, center, radius, nodes, nmoments, probe_file, seed, out, fmt):
    """Scalar moments mu_0..mu_{K-1} of u^H P(z)^{-1} v."""
    P = parse_problem(problem)
    u, v = _file_probes(P, probe_file, "uv")
    moms = scalar_moments(P, Contour(center, radius, nodes), u, v, count=nmoments, seed=seed)
    data = {"moments": list(moms.mu)}
    rows = [["k", "mu"]] + [[k, _fmt_complex(m)] for k, m in enumerate(moms.mu)]
    _emit(data, rows, fmt, out)


def _relative_residual(P, pair):
    """||P(X, S)||_F / ||X||_F of an invariant pair."""
    return float(np.linalg.norm(eval_pair(P, pair), "fro") / np.linalg.norm(pair.X, "fro"))


def _pair_output(P, pair, fmt, out):
    res = _relative_residual(P, pair)
    data = {"X": pair.X, "S": pair.S, "relative_residual": res}
    rows = [["matrix", "row", "entries"], *_matrix_rows(["X"], pair.X), *_matrix_rows(["S"], pair.S),
            ["relative_residual", "", repr(res)]]
    _emit(data, rows, fmt, out)


@cli.command()
@_extraction_options
@_size_option
@_output_options
def pair(problem, center, radius, nodes, size, probe_file, seed, out, fmt):
    """Extract an invariant pair from scalar moments."""
    P = parse_problem(problem)
    _pair_output(P, _extract(P, center, radius, nodes, probe_file, seed, size), fmt, out)


@cli.command("block-pair")
@_extraction_options
@_size_option
@click.option("--xi", type=click.IntRange(min=1), default=2, show_default=True, help="Probe block width.")
@_output_options
def block_pair(problem, center, radius, nodes, size, xi, probe_file, seed, out, fmt):
    """Extract an invariant pair from block moments."""
    P = parse_problem(problem)
    U, V = _block_probes(P, xi, probe_file, seed)
    result = extract_block_invariant_pair(P, Contour(center, radius, nodes), U, V, m=size)
    _pair_output(P, result, fmt, out)


@cli.command()
@_extraction_options
@_size_option
@click.option("--perturb", type=float, callback=_finite, default=0.0, show_default=True,
              help="Seeded relative noise injected before refining.")
@_tol_option
@_maxit_option
@click.option("--no-line-search", is_flag=True, default=False, help="Plain Newton steps (t = 1).")
@_output_options
def refine(problem, center, radius, nodes, size, probe_file, seed, perturb, tol, maxit,
           no_line_search, out, fmt):
    """Extract a pair, optionally perturb it, and refine it by Newton."""
    P = parse_problem(problem)
    start = _extract(P, center, radius, nodes, probe_file, seed, size)
    X, S = start.X, start.S
    if perturb:
        rng = np.random.default_rng(seed)
        X, S = _perturbed(rng, perturb, X), _perturbed(rng, perturb, S)
    refined, report = refine_pair(P, X, S, tol=tol, maxit=maxit, line_search=not no_line_search)
    data = {
        "iterations": report.iterations,
        "converged": report.converged,
        "residual_history": list(report.residual_history),
        "step_lengths": list(report.step_lengths),
        "final_residual": report.residual_history[-1],
    }
    rows = [["iteration", "relative_residual", "step_length"]]
    for i, res in enumerate(report.residual_history):
        step = repr(float(report.step_lengths[i - 1])) if i else ""
        rows.append([i, repr(float(res)), step])
    _emit(data, rows, fmt, out)


def _perturbed(rng, scale, M):
    """A copy of M plus scale * ||M||_F times seeded complex noise of unit norm."""
    M = np.array(M, dtype=complex)
    noise = rng.standard_normal(M.shape) + 1j * rng.standard_normal(M.shape)
    M += scale * np.linalg.norm(M) * (noise / np.linalg.norm(noise))
    return M


@cli.command()
@_extraction_options
@_size_option
@_output_options
def cond(problem, center, radius, nodes, size, probe_file, seed, out, fmt):
    """Condition number of the extracted invariant pair."""
    P = parse_problem(problem)
    result = _extract(P, center, radius, nodes, probe_file, seed, size)
    kappa = pair_condition_number(P, result.X, result.S)
    _emit({"kappa": kappa}, [["kappa"], [repr(kappa)]], fmt, out)


@cli.command()
@_extraction_options
@_size_option
@_output_options
def berr(problem, center, radius, nodes, size, probe_file, seed, out, fmt):
    """Backward error (lower bound, eta, upper bound) of the extracted pair."""
    P = parse_problem(problem)
    result = _extract(P, center, radius, nodes, probe_file, seed, size)
    rep = pair_backward_error(P, result.X, result.S)
    data = {"lower": rep.lower, "eta": rep.eta, "upper": rep.upper}
    rows = [["lower", "eta", "upper"],
            [repr(rep.lower), "" if rep.eta is None else repr(rep.eta), repr(rep.upper)]]
    _emit(data, rows, fmt, out)


@cli.command()
@_extraction_options
@click.option("--tol", type=click.FloatRange(min=0, min_open=True), callback=_finite, default=1e-8,
              show_default=True)
@_output_options
def solvent(problem, center, radius, nodes, probe_file, seed, tol, out, fmt):
    """Solvent from an n-by-n invariant pair enclosed by the contour."""
    P = parse_problem(problem)
    sol = solvent_from_pair(P, _extract(P, center, radius, nodes, probe_file, seed, P.n))
    check = verify_solvent(P, sol.S, tol=tol)
    data = {
        "S": sol.S,
        "residual": sol.residual,
        "relative_residual": check.residual,
        "eigenpair_residuals": list(check.eigenpair_residuals),
        "certified": check.certified,
    }
    rows = [["row", "entries"], *_matrix_rows([], sol.S),
            ["residual", repr(sol.residual)], ["certified", check.certified]]
    _emit(data, rows, fmt, out)


def _companion_eigenpairs(P):
    """Companion-linearization eigenpairs (mu, top n entries of the vector), sorted by (re, im)."""
    vals, vecs = np.linalg.eig(companion_linearization(P))
    return [(vals[i], vecs[: P.n, i]) for i in np.lexsort((vals.imag, vals.real))]


@cli.command("enumerate")
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@_output_options
def enumerate_cmd(problem, out, fmt):
    """All solvents from n-subsets of the companion-linearization eigenpairs."""
    P = parse_problem(problem)
    eigpairs = _companion_eigenpairs(P)
    solvents, rejected = enumerate_solvents(P, eigpairs)
    data = {
        "eigenvalues": [lam for lam, _ in eigpairs],
        "solvents": [{"S": s.S, "residual": s.residual} for s in solvents],
        "rejected_subsets": [list(r) for r in rejected],
    }
    rows = [["solvent", "row", "entries"]]
    for i, s in enumerate(solvents):
        rows += _matrix_rows([i], s.S)
    for r in rejected:
        rows.append(["rejected", "", " ".join(str(i) for i in r)])
    _emit(data, rows, fmt, out)


@cli.command()
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@_output_options
def triangular(problem, out, fmt):
    """Solvent families of an upper triangular matrix polynomial."""
    P = parse_problem(problem)
    families = triangular_solvent_solve(P)
    data = {"families": []}
    rows = [["branch", "kind", "diagonal", "matrix", "row", "entries"]]
    for b, fam in enumerate(families):
        entry = {"kind": fam.kind, "diagonal": list(fam.diagonal)}
        if fam.base is not None:
            entry["base"] = fam.base
            entry["directions"] = list(fam.directions)
        data["families"].append(entry)
        diag_txt = " ".join(_fmt_complex(d) for d in fam.diagonal)
        if fam.base is None:
            rows.append([b, fam.kind, diag_txt, "", "", ""])
            continue
        rows += _matrix_rows([b, fam.kind, diag_txt, "base"], fam.base)
        for d, D in enumerate(fam.directions):
            rows += _matrix_rows([b, fam.kind, diag_txt, f"direction{d}"], D)
    _emit(data, rows, fmt, out)


# ---------------------------------------------------------------------------
# benchmark harness


def _bench_corpus(seed):
    """Perturbed golden pairs: (name, polynomial, X0, S0) rows, fixed order."""
    rng = np.random.default_rng(seed)
    rows = []

    def perturbed(name, P, X, S, scale):
        rows.append((name, P, _perturbed(rng, scale, X), _perturbed(rng, scale, S)))

    g = problems.GOLDEN_PROBES
    for fixture, scales in (("diag_4x4", ("1e-3", "5e-2")), ("ss_2x2", ("1e-3", "1e-1"))):
        P, spec = problems.PROBLEMS[fixture](), g[fixture]
        pair = extract_invariant_pair(P, Contour(spec["center"], spec["radius"]), spec["u"], spec["v"],
                                      m=spec["m"])
        for eps in scales:
            perturbed(f"{fixture}_eps{eps}", P, pair.X, pair.S, float(eps))

    P3, spec3 = problems.multi_3x3(), g["multi_3x3"]
    pair3 = extract_block_invariant_pair(P3, Contour(spec3["center"], spec3["radius"]), spec3["U"], spec3["V"],
                                         m=spec3["m_block"])
    perturbed("multi_3x3_block_eps1e-4", P3, pair3.X, pair3.S, 1e-4)

    Pq = problems.quad_solvents_2x2()
    Xq = np.eye(2, dtype=complex)
    Sq = np.diag([1.0 + 0j, 2.0 + 0j])
    perturbed("quad_2x2_eps1e-2", Pq, Xq, Sq, 1e-2)
    perturbed("quad_2x2_eps2e-1", Pq, Xq, Sq, 2e-1)

    Pr = problems.residue_diag_2x2()
    pairr = extract_invariant_pair(Pr, Contour(2.0, 2.5), m=3, seed=seed)
    perturbed("residue_diag_2x2_eps1e-3", Pr, pairr.X, pairr.S, 1e-3)
    return rows


def _run_bench(seed, tol, maxit):
    records = []
    for name, P, X0, S0 in _bench_corpus(seed):
        _, plain = refine_pair(P, X0, S0, tol=tol, maxit=maxit, line_search=False)
        _, ls = refine_pair(P, X0, S0, tol=tol, maxit=maxit, line_search=True)
        records.append({
            "problem": name,
            "n": X0.shape[0],
            "k": X0.shape[1],
            "newton_iterations": plain.iterations,
            "newton_converged": plain.converged,
            "newton_final_residual": plain.residual_history[-1],
            "newton_time": plain.wall_time,
            "line_search_iterations": ls.iterations,
            "line_search_converged": ls.converged,
            "line_search_final_residual": ls.residual_history[-1],
            "line_search_time": ls.wall_time,
        })
    return records


@cli.command()
@click.option("--seed", type=int, default=7, show_default=True)
@_tol_option
@_maxit_option
@click.option("--verify", is_flag=True, default=False,
              help="Check every bundled golden fixture against its expected output.")
@_output_options
def bench(seed, tol, maxit, verify, out, fmt):
    """Newton vs line-search comparison over the bundled perturbed corpus.

    With --verify, runs the golden-example checks instead and fails (exit 3)
    on any mismatch beyond the stated tolerances.
    """
    if verify:
        failures, lines = run_golden_checks()
        rows = [["check", "status"]] + [[desc, status] for desc, status in lines]
        data = {"checks": [{"name": d, "status": s} for d, s in lines]}
        _emit(data, rows, fmt, out)
        if failures:
            raise VerificationMismatch(f"{failures} golden check(s) failed")
        return
    records = _run_bench(seed, tol, maxit)
    # CSV leaves out the final residuals; wall times stay out of the JSON
    # document so that identical inputs give byte-identical output
    header = [key for key in records[0] if not key.endswith("_final_residual")]
    rows = [header] + [[f"{rec[key]:.4f}" if key.endswith("_time") else rec[key] for key in header]
                       for rec in records]
    json_records = [{k: v for k, v in rec.items() if not k.endswith("_time")} for rec in records]
    _emit({"records": json_records}, rows, fmt, out)


# ---------------------------------------------------------------------------
# golden verification


def _check_allclose(actual, expected, atol, desc):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    if actual.shape != expected.shape:
        return desc, f"FAIL shape {actual.shape} != {expected.shape}"
    err = float(np.abs(actual - expected).max()) if actual.size else 0.0
    return desc, "ok" if err <= atol else f"FAIL max error {err:.3e} > {atol:g}"


def _first_failure(desc, checks):
    """The first (desc, status) of `checks` whose status is not ok, else (desc, "ok")."""
    return next((c for c in checks if c[1] != "ok"), (desc, "ok"))


def _check_clusters(got, expected, atol, desc):
    """(desc, status) of (value, multiplicity) clusters against expected [[re, im], multiplicity] rows."""
    if len(got) != len(expected):
        return desc, f"FAIL {len(got)} clusters, expected {len(expected)}"
    for (val, mult), ((re, im), emult) in zip(got, expected):
        if mult != emult or abs(val - complex(re, im)) > atol:
            return desc, f"FAIL cluster ({val:.6g},{mult}) vs ({complex(re, im):.6g},{emult})"
    return desc, "ok"


def _complex(entry):
    """Nested [re, im] pairs (a vector, a matrix or a stack of them) as a complex array."""
    return np.ascontiguousarray(entry, dtype=float).view(complex)[..., 0]


def run_golden_checks():
    """Run all data/expected checks; returns (failure count, [(name, status)])."""
    lines = []
    for doc in problems._expected_documents():
        P = problems.PROBLEMS[doc["fixture"]]()
        for check in doc["checks"]:
            lines.append(_run_single_check(P, doc["fixture"], check))
    failures = sum(1 for _, status in lines if status != "ok")
    return failures, lines


def _run_single_check(P, fixture, check):
    kind = check["kind"]
    desc = f"{fixture}:{check.get('name', kind)}"
    atol = float(check.get("atol", 1e-8))
    contour = None
    if "center" in check:
        contour = Contour(complex(*check["center"]), check["radius"], check.get("nodes", 64))
    if "probes" in check:
        probes = problems._bundled_probes(check["probes"], P.n)
        u, v, U, V = (probes.get(key) for key in ("u", "v", "U", "V"))
    if kind in ("companion_last_column", "pencil_clusters", "hankel_rank"):
        hp = build_hankel(scalar_moments(P, contour, u, v, count=2 * check["m"]), check["m"])
    if kind == "moments":
        moms = scalar_moments(P, contour, u, v, count=len(check["expected"]))
        return _check_allclose(moms.mu, _complex(check["expected"]), atol, desc)
    if kind == "count":
        result = count_eigenvalues_inside(P, contour)
        ok = result.count == check["expected"] and result.quality <= atol
        return desc, "ok" if ok else f"FAIL count {result.count} quality {result.quality:.2e}"
    if kind == "companion_last_column":
        C = companion_from_pencil(hp)
        return _check_allclose(C[:, -1], _complex(check["expected"]), atol, desc)
    if kind == "pencil_clusters":
        return _check_clusters(pencil_eigenvalues(hp), check["expected"], atol, desc)
    if kind == "pair":
        result = extract_invariant_pair(P, contour, u, v, m=check["m"])
        res = _relative_residual(P, result)
        return _first_failure(desc, [
            _check_allclose(result.X, _complex(check["X"]), atol, desc + ":X"),
            _check_allclose(result.S, _complex(check["S"]), atol, desc + ":S"),
            (desc, "ok" if res <= atol else f"FAIL residual {res:.3e}"),
        ])
    if kind == "hankel_rank":
        rank = numerical_rank(hp.H0)
        return desc, "ok" if rank == check["expected"] else f"FAIL rank {rank}"
    if kind == "block_moments":
        bmoms = block_moments(P, contour, U, V, count=len(check["expected"]))
        return _first_failure(desc, [
            _check_allclose(M, _complex(exp), atol, f"{desc}:M{k}")
            for k, (M, exp) in enumerate(zip(bmoms.moments, check["expected"]))
        ])
    if kind == "block_pair":
        result = extract_block_invariant_pair(P, contour, U, V, m=check["m"])
        res = float(np.linalg.norm(eval_pair(P, result), "fro"))
        vals = np.linalg.eigvals(result.S)
        got = cluster_eigenvalues(vals, scale=max(1.0, float(np.linalg.norm(result.S, "fro"))))
        return _first_failure(desc, [
            *(_check_allclose(block, _complex(check[key]), atol, f"{desc}:{key}")
              for key, block in (("Y", result.X), ("T", result.S)) if key in check),
            (desc, f"FAIL residual {res:.3e}" if res > atol else "ok"),
            _check_clusters(got, check["eig_clusters"], float(check.get("cluster_atol", 1e-6)), desc),
        ])
    if kind == "solvent_set":
        sols, rejected = enumerate_solvents(P, _companion_eigenpairs(P))
        expected = [_complex(s) for s in check["expected"]]
        if len(sols) != len(expected):
            return desc, f"FAIL {len(sols)} solvents, expected {len(expected)}"
        unused = list(range(len(sols)))
        for exp in expected:
            match = next((i for i in unused if np.abs(sols[i].S - exp).max() <= atol), None)
            if match is None:
                return desc, "FAIL a reference solvent was not produced"
            unused.remove(match)
        got_rejected = [list(r) for r in rejected]
        if got_rejected != check["rejected"]:
            return desc, f"FAIL rejected subsets {got_rejected}"
        return desc, "ok"
    if kind == "triangular_branches":
        families = triangular_solvent_solve(P)
        expected = check["expected"]
        if len(families) != len(expected):
            return desc, f"FAIL {len(families)} branches, expected {len(expected)}"
        for fam, exp in zip(families, expected):
            if fam.kind != exp["kind"]:
                return desc, f"FAIL branch kind {fam.kind} != {exp['kind']}"
            if np.abs(np.array(fam.diagonal) - _complex(exp["diagonal"])).max() > atol:
                return desc, "FAIL branch diagonal"
            if fam.kind != "none":
                directions = exp.get("directions", [])
                failed = _first_failure(desc, [
                    _check_allclose(fam.base, _complex(exp["base"]), atol, desc),
                    (desc, "ok" if len(fam.directions) == len(directions)
                     else f"FAIL {len(fam.directions)} directions"),
                    *(_check_allclose(D, _complex(E), atol, desc) for D, E in zip(fam.directions, directions)),
                ])
                if failed[1] != "ok":
                    return failed
        return desc, "ok"
    return desc, f"FAIL unknown check kind {kind!r}"


# ---------------------------------------------------------------------------
# entry point


def run_command(argv):
    """Run the CLI on an argv list; returns the process exit code."""
    try:
        cli.main(args=list(argv), standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except ProblemFormatError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except VerificationMismatch as exc:
        click.echo(f"verification failed: {exc}", err=True)
        return 3
    except _NUMERICAL_ERRORS as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return 2


def main():
    sys.exit(run_command(sys.argv[1:]))

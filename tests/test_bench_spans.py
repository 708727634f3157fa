"""The traced benchmark run (bench/spans.py) wraps library functions by name.

It looks each name up in its invpairs module and rebinds the wrapper under
every module attribute that holds the original, so the names must exist and
the refine loop must reach the line search, the extractors the contour
functions, and the condition numbers the Jacobians, through the module
attribute.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from invpairs import conditioning, hankel, problems, refine

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists():
    spans = _load_spans()
    wanted = [(f"invpairs.{layer}", name) for layer, names in spans.SPANNED.items() for name in names]
    wanted += [("invpairs.matpoly", name) for name in spans.AGGREGATED]
    missing = [f"{module}.{name}" for module, name in wanted
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert not missing


def test_refine_loops_call_the_module_line_search(monkeypatch, quad_2x2):
    calls = []
    original = refine.line_search_poly

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(refine, "line_search_poly", counted)
    S0 = np.diag([1.0, 2.0]) + 1e-2
    _, pair_report = refine.refine_pair(quad_2x2, np.eye(2), S0, maxit=30)
    _, solvent_report = refine.refine_solvent(quad_2x2, S0, maxit=30)
    assert len(calls) == pair_report.iterations + solvent_report.iterations > 0


def test_extractors_call_the_module_contour_functions(monkeypatch, multi_3x3, golden_contours):
    calls = []
    for name in ("_winding_count", "count_eigenvalues_inside", "scalar_moments", "block_moments"):
        original = getattr(hankel, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(hankel, name, counted)
    contour = golden_contours["multi_3x3"]
    probes = problems.GOLDEN_PROBES["multi_3x3"]
    # the scalar pencil is truncated to rank 3 on the same moments
    with pytest.warns(UserWarning, match="truncating"):
        hankel.extract_invariant_pair(multi_3x3, contour, probes["u"], probes["v"])
    assert calls == ["_winding_count", "scalar_moments"]
    calls.clear()
    hankel.extract_block_invariant_pair(multi_3x3, contour, np.array(probes["U"]), np.array(probes["V"]))
    assert calls == ["_winding_count", "block_moments"]
    # where the winding gives up, the trace count makes a pass of its own
    calls.clear()
    monkeypatch.setattr(hankel, "_winding_count", lambda P, nodes: calls.append("_winding_count"))
    hankel.extract_block_invariant_pair(multi_3x3, contour, np.array(probes["U"]), np.array(probes["V"]))
    assert calls == ["_winding_count", "count_eigenvalues_inside", "block_moments"]


def test_condition_numbers_call_the_module_jacobians(monkeypatch, quad_2x2):
    calls = []
    for name in ("pair_jacobian", "solvent_jacobian"):
        original = getattr(conditioning, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(conditioning, name, counted)
    S = np.diag([1.0, 2.0])
    conditioning.pair_condition_number(quad_2x2, np.eye(2), S)
    conditioning.solvent_condition_number(quad_2x2, S)
    assert calls == ["pair_jacobian", "solvent_jacobian"]

"""The traced benchmark run (bench/spans.py) wraps library functions by name.

It looks each name up in its invpairs module and rebinds the wrapper under
every module attribute that holds the original, so the names must exist and
the refine loop must reach the line search through the module attribute.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from invpairs import refine

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

"""The same-answers check (tools/same_answers.py): its result digest, how it
runs a job, and its comparison on made-up records."""

import importlib.util
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from invpairs import InvariantPair
from invpairs.refine import RefinementReport

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_answers.py"


def _load():
    spec = importlib.util.spec_from_file_location("same_answers", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(wall_time, last=1e-13):
    return RefinementReport(iterations=1, residual_history=(1e-3, last), step_lengths=(1.0,),
                            converged=True, wall_time=wall_time)


def test_digest_tells_signed_zeros_apart():
    sa = _load()
    assert sa.digest(0.0) != sa.digest(-0.0)
    assert sa.digest(np.array([0.0])) != sa.digest(np.array([-0.0]))
    assert sa.digest(complex(1.0, 0.0)) != sa.digest(complex(1.0, -0.0))


def test_digest_sees_one_ulp():
    sa = _load()
    x = 0.1
    assert sa.digest(x) != sa.digest(np.nextafter(x, 1.0).item())
    S = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex)
    T = S.copy()
    T[0, 1] = np.nextafter(2.0, 3.0)
    assert sa.digest(S) != sa.digest(T)
    pair = InvariantPair(np.eye(2), S)
    assert sa.digest((pair, _report(0.1))) != sa.digest((InvariantPair(np.eye(2), T), _report(0.1)))


def test_digest_ignores_wall_time_only():
    sa = _load()
    assert sa.digest(_report(0.1)) == sa.digest(_report(7.0))
    assert sa.digest(_report(0.1)) != sa.digest(_report(0.1, last=np.nextafter(1e-13, 1.0)))


def test_digest_keeps_shape_dtype_and_structure():
    sa = _load()
    a = np.arange(4.0)
    assert sa.digest(a) != sa.digest(a.reshape(2, 2))
    assert sa.digest(a) != sa.digest(a.astype(complex))
    assert sa.digest([1, 2]) != sa.digest((1, 2))
    assert sa.digest({"a": 1}) != sa.digest({"b": 1})
    assert sa.digest(None) != sa.digest(0)
    assert sa.digest(True) != sa.digest(1)


def _fake_run():
    """A run module whose run_job flags a call that raises or warns, as bench/run.py does."""
    def run_job(job, call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                call()
            except ValueError:
                return "flagged", 0.0, {}
        return ("flagged" if caught else "ok"), 0.0, {"calls": 1}
    return types.SimpleNamespace(run_job=run_job)


def _job(call, label="job"):
    return types.SimpleNamespace(label=label, call=call)


def test_run_once_passes_warnings_on_to_run_job():
    sa = _load()

    def warns():
        warnings.warn("truncating to rank 2")
        return np.ones(2)

    record = sa.run_once(_fake_run(), _job(warns))
    assert record["status"] == "flagged"
    assert record["warnings"] == ["truncating to rank 2"]
    assert record["digest"] == sa.digest(np.ones(2))

    record = sa.run_once(_fake_run(), _job(lambda: 1.0))
    assert (record["status"], record["counters"], record["warnings"]) == ("ok", {"calls": 1}, [])


def test_run_once_records_the_raised_error():
    sa = _load()

    def raises():
        raise ValueError("S_t is not a solvent")

    record = sa.run_once(_fake_run(), _job(raises))
    assert record["status"] == "flagged"
    assert record["error"] == ["ValueError", "S_t is not a solvent"]
    assert record["digest"] == sa.digest(None)


def _record(seed, index, **changes):
    base = {"seed": seed, "index": index, "label": f"certify pair n={index}", "status": "ok",
            "counters": {"c": 1}, "error": None, "warnings": [], "digest": "d" * 64}
    return {**base, **changes}


def test_compare_reports_each_differing_job_once():
    sa = _load()
    parent = [_record(1, 0), _record(1, 1), _record(2, 0), _record(2, 1)]
    assert sa.compare(parent, [dict(r) for r in parent]) == []

    child = [_record(1, 0), _record(1, 1, status="flagged", warnings=["w"]),
             _record(2, 0, digest="e" * 64)]
    lines = sa.compare(parent, child)
    assert len(lines) == 3
    assert lines[0].startswith("seed 1 job 1 (certify pair n=1): status 'ok' -> 'flagged'; warnings")
    assert lines[1].startswith("seed 2 job 0 (certify pair n=0): digest")
    assert lines[2] == "seed 2 job 1 (certify pair n=1): missing on the child side"


def test_refuses_to_run_with_uncommitted_source(monkeypatch):
    sa = _load()
    monkeypatch.setattr(sa.ab, "_git", lambda *args: " M src/invpairs/solvents.py")

    def no_subprocess(*args, **kwargs):
        raise AssertionError("nothing may be exported or run")

    monkeypatch.setattr(sa.ab.subprocess, "run", no_subprocess)
    monkeypatch.setattr(sa.subprocess, "run", no_subprocess)
    with pytest.raises(SystemExit, match="src/ or bench/ has uncommitted changes"):
        sa.main(["--parent", "HEAD~1", "--seeds", "1"])


@pytest.mark.parametrize("argv, want", [
    ([], ["extract", "refine", "certify"]),
    (["--workload", "certify"], ["certify"]),
    (["--workload", "certify", "--workload", "extract", "--workload", "certify"], ["extract", "certify"]),
], ids=["default", "one", "repeated"])
def test_workload_option_picks_what_runs(monkeypatch, tmp_path, argv, want):
    sa = _load()
    ran = []
    monkeypatch.setattr(sa.ab, "refuse_dirty", lambda: None)
    monkeypatch.setattr(sa.ab, "_git", lambda *args: "0" * 40)
    monkeypatch.setattr(sa.ab, "export", lambda rev, dest: dest)
    monkeypatch.setattr(sa, "collect", lambda tree, workload, seeds: ran.append((tree.name, workload)) or [])
    assert sa.main(["--seeds", "1", *argv]) == 0
    assert ran == [(side, w) for w in want for side in ("parent", "child")]

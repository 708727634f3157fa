"""The same-answers check (tools/same_answers.py): its result digest, how it
runs a job, and its comparison on made-up records."""

import importlib.util
import itertools
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


def _cli_record(case, exit=0, stdout='{\n  "count": 3\n}\n'):
    return {"case": case, "exit": exit, "stdout": stdout}


def test_compare_cli_reports_a_stdout_difference():
    sa = _load()
    parent = [_cli_record("count a.json"), _cli_record("pair a.json"), _cli_record("cond a.json", exit=2, stdout="")]
    assert sa.compare_cli(parent, [dict(r) for r in parent]) == []

    child = [_cli_record("count a.json", stdout='{\n  "count": 4\n}\n'), _cli_record("pair a.json", exit=1),
             _cli_record("cond a.json", exit=2, stdout="")]
    assert sa.compare_cli(parent, child) == [
        "count a.json: stdout line 2 '  \"count\": 3' -> '  \"count\": 4'",
        "pair a.json: exit 0 -> 1",
    ]
    longer = [_cli_record("count a.json", stdout='{\n  "count": 3\n}\n\n')]
    assert sa.compare_cli(parent[:1], longer) == ["count a.json: stdout line 5 '<end>' -> ''"]
    assert sa.compare_cli(parent[:1], []) == ["count a.json: missing on the child side"]


def test_mask_times_hides_only_the_time_columns():
    sa = _load()
    csv = "problem,newton_time,k,line_search_time\nx,0.0123,4,0.0456\ny,0.0789,2,0.0012\n"
    assert sa.mask_times(csv) == "problem,newton_time,k,line_search_time\nx,*,4,*\ny,*,2,*\n"
    for text in ('{\n  "newton_time": 1\n}\n', "k,mu\n0,1+0i\n"):
        assert sa.mask_times(text) == text


def test_cli_cases_cover_every_command_fixture_and_probe_file():
    sa = _load()
    root = TOOL.parents[1]
    cases = sa.cli_cases(root)
    assert len(cases) == len({tuple(c) for c in cases})
    data = root / "src" / "invpairs" / "data"
    fixtures = sorted(p.stem for p in data.glob("*.json"))
    assert sorted(sa.FIXTURE_CIRCLES) == fixtures
    commands = {"count", "moments", "pair", "block-pair", "refine", "cond", "berr", "solvent", "enumerate",
                "triangular"}
    for fixture in fixtures:
        for fmt in ("json", "csv"):
            ran = {c[0] for c in cases if c[1] == f"src/invpairs/data/{fixture}.json" and c[-1] == fmt}
            assert ran == commands, (fixture, fmt)
    for probes in data.glob("probes/*.json"):
        used = {c[0] for c in cases if f"src/invpairs/data/probes/{probes.name}" in c}
        assert used == {"pair", "block-pair", "moments", "refine"}, probes.name
    assert sum("--perturb" in c for c in cases) == 6 * len(fixtures)
    shapes = (("block-pair", "--xi", "1"), ("block-pair", "--xi", "3"), ("pair", "--m", "1"),
              ("refine", "--perturb", "1e-3", "--seed", "3"), ("refine", "--perturb", "1e-1", "--seed", "3"),
              ("refine", "--perturb", "1e-2", "--no-line-search", "--seed", "3"))
    for fixture, (center, radius) in sa.FIXTURE_CIRCLES.items():
        contour = [f"src/invpairs/data/{fixture}.json", "--center", center, "--radius", radius]
        for (cmd, *option), fmt in itertools.product(shapes, ("json", "csv")):
            assert [cmd, *contour, *option, "--format", fmt] in cases, (fixture, cmd, option, fmt)
    assert [c[:-2] for c in cases if c[0] == "bench"] == [["bench"], ["bench", "--seed", "3"],
                                                          ["bench", "--verify"]] * 2


def test_cli_option_compares_the_cli_cases(monkeypatch, capsys):
    sa = _load()
    monkeypatch.setattr(sa.ab, "refuse_dirty", lambda: None)
    monkeypatch.setattr(sa.ab, "_git", lambda *args: "0" * 40)
    monkeypatch.setattr(sa.ab, "export", lambda rev, dest: dest)
    outputs = {"parent": '{"count": 3}\n', "child": '{"count": 4}\n'}
    monkeypatch.setattr(sa, "collect", lambda tree, workload, seeds: [_cli_record("count a.json",
                                                                                  stdout=outputs[tree.name])])
    assert sa.main(["--cli"]) == 1
    out = capsys.readouterr().out
    assert "cli count a.json: stdout line 1" in out
    assert "cli: 1 of 1 cases differ" in out
    outputs["child"] = outputs["parent"]
    assert sa.main(["--cli"]) == 0

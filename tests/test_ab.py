"""The A/B runner (tools/ab.py): its summarising step on made-up runs, and how
it exports the two sides."""

import importlib.util
import json
from pathlib import Path

import pytest

AB = Path(__file__).resolve().parents[1] / "tools" / "ab.py"

DEFINITIONS = [
    {"name": "ok_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "job_ms.p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ok_frac", "unit": "ratio", "better": "higher", "bound": 0.01},
]


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(parent, child, statuses=None):
    """Runs as run_pairs records them; `statuses` gives (parent, child) (attempted, failed) per run."""
    statuses = statuses or [((1, 0), (1, 0))] * len(parent)
    return [{"seed": i + 1, "first": "parent" if i % 2 == 0 else "child",
             "parent": p, "child": c,
             **{f"{side}_status": {"correct": True, "attempted": a, "failed": f}
                for side, (a, f) in zip(("parent", "child"), st)}}
            for i, (p, c, st) in enumerate(zip(parent, child, statuses))]


def test_summary_counts_wins_in_each_metrics_direction():
    ab = _load_ab()
    parent = [{"ok_per_s": v, "job_ms.p50": 100.0 / v, "ok_frac": 0.8} for v in (2.0, 3.0, 4.0, 5.0, 6.0)]
    child = [{"ok_per_s": v, "job_ms.p50": 100.0 / v, "ok_frac": 0.8} for v in (4.0, 6.0, 3.0, 9.0, 10.0)]
    summary = ab.summarize(_runs(parent, child), DEFINITIONS)

    speed = summary["ok_per_s"]
    assert (speed["pairs"], speed["wins"], speed["ties"]) == (5, 4, 0)
    assert speed["parent"] == {"median": 4.0, "q1": 2.5, "q3": 5.5}
    assert speed["child"] == {"median": 6.0, "q1": 3.5, "q3": 9.5}
    assert speed["change"] == pytest.approx(0.5)
    # 6 - 4 = 2 does not beat the parent's interquartile range 3
    assert not speed["clear"]

    # lower is better: the same four pairs are wins
    latency = summary["job_ms.p50"]
    assert (latency["wins"], latency["ties"]) == (4, 0)
    assert latency["parent"]["median"] == 25.0

    frac = summary["ok_frac"]
    assert (frac["wins"], frac["ties"], frac["change"]) == (0, 5, 0.0)
    assert not frac["clear"]


def test_clear_gain_beats_the_parents_quartile_distance():
    ab = _load_ab()
    parent = [{"ok_per_s": v, "job_ms.p50": 10.0, "ok_frac": 1.0} for v in (2.0, 2.1, 2.2, 2.3)]
    child = [{"ok_per_s": v, "job_ms.p50": 12.0, "ok_frac": 1.0} for v in (3.0, 3.1, 3.2, 3.3)]
    summary = ab.summarize(_runs(parent, child), DEFINITIONS)
    assert summary["ok_per_s"]["wins"] == 4 and summary["ok_per_s"]["clear"]
    # a loss on a lower-is-better metric is neither a win nor clear
    assert summary["job_ms.p50"]["wins"] == 0 and not summary["job_ms.p50"]["clear"]


def test_single_pair_and_seed_lists():
    ab = _load_ab()
    summary = ab.summarize(_runs([{"ok_per_s": 2.0, "job_ms.p50": 5.0, "ok_frac": 1.0}],
                                 [{"ok_per_s": 3.0, "job_ms.p50": 4.0, "ok_frac": 1.0}]), DEFINITIONS)
    assert summary["ok_per_s"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert summary["job_ms.p50"]["wins"] == 1
    assert ab.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert ab.parse_seeds("11") == [11]


def test_failure_shares_name_the_seeds_where_the_child_fails_more():
    ab = _load_ab()
    values = {"ok_per_s": 2.0, "job_ms.p50": 5.0, "ok_frac": 0.8}
    # equal medians of every metric, as in a run where only the failure share moved
    runs = _runs([values] * 4, [values] * 4,
                 [((60, 10), (60, 10)), ((120, 20), (120, 21)), ((60, 10), (60, 9)), ((90, 15), (60, 11))])
    failures = ab.failure_shares(runs)
    assert [(r["seed"], r["parent"], r["child"]) for r in failures["runs"]] == [
        (1, 10 / 60, 10 / 60), (2, 20 / 120, 21 / 120), (3, 10 / 60, 9 / 60), (4, 15 / 90, 11 / 60)]
    assert failures["median"] == {"parent": pytest.approx(1 / 6),
                                  "child": pytest.approx((10 / 60 + 21 / 120) / 2)}
    assert failures["child_higher"] == [2, 4]
    assert ab.failure_shares(runs[:1])["child_higher"] == []


def test_machine_reads_the_run_environment():
    ab = _load_ab()
    env = {"nproc": 2, "cpus_usable": 2, "thread_env": {"OPENBLAS_NUM_THREADS": "1"},
           "blas": [{"library": "a.so", "threads": 1}, {"library": "b.so", "threads": 1}],
           "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}
    info = ab.machine(env)
    assert (info["cores"], info["blas_threads"], info["numpy"], info["scipy"]) == (2, [1], "2.4.6", "1.17.1")


def _fake_git(status):
    def git(*args):
        if args[0] == "status":
            return status
        return {"HEAD": "c" * 40}.get(args[-1], "p" * 40)
    return git


def test_refuses_to_run_with_uncommitted_source(monkeypatch):
    ab = _load_ab()
    monkeypatch.setattr(ab, "_git", _fake_git(" M src/invpairs/conditioning.py"))

    def no_subprocess(*args, **kwargs):
        raise AssertionError("nothing may be exported or run")

    monkeypatch.setattr(ab.subprocess, "run", no_subprocess)
    with pytest.raises(SystemExit, match="src/ or bench/ has uncommitted changes") as exc:
        ab.main(["--workload", "certify", "--seeds", "1"])
    assert "src/invpairs/conditioning.py" in str(exc.value)


def test_both_sides_run_from_exports_in_one_directory(monkeypatch, tmp_path, capsys):
    ab = _load_ab()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": DEFINITIONS}))
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    monkeypatch.setattr(ab, "_git", _fake_git(""))
    exported, seen = {}, {}

    def export(rev, dest):
        dest.mkdir()
        exported[rev] = dest
        return dest

    def run_pairs(trees, workload, seeds, seconds, start=0):
        seen.update(trees)
        values = {"ok_per_s": 2.0, "job_ms.p50": 5.0, "ok_frac": 1.0}
        env = {"nproc": 2, "cpus_usable": 2, "thread_env": {}, "blas": [], "python": "3",
               "numpy": "2", "scipy": "1"}
        return _runs([values] * len(seeds), [values] * len(seeds), [((6, 1), (6, 2))] * len(seeds)), env

    monkeypatch.setattr(ab, "export", export)
    monkeypatch.setattr(ab, "run_pairs", run_pairs)
    ab.main(["--workload", "certify", "--seeds", "1-2"])

    assert "seeds [1, 2]" in capsys.readouterr().err
    assert set(exported) == {"p" * 40, "c" * 40}
    assert seen["parent"] == exported["p" * 40] and seen["child"] == exported["c" * 40]
    assert seen["parent"].parent == seen["child"].parent != tmp_path
    doc = json.loads((tmp_path / "BENCH_certify.json").read_text())
    assert (doc["parent"], doc["child"]) == ("p" * 40, "c" * 40)
    assert doc["failures"]["median"] == {"parent": 1 / 6, "child": 2 / 6}


def test_beyond_bound_flags_a_median_worse_by_more_than_the_metrics_bound(monkeypatch, tmp_path, capsys):
    ab = _load_ab()
    parent = [{"ok_per_s": v, "job_ms.p50": v, "ok_frac": 1.0} for v in (9.0, 10.0, 11.0)]
    # ok_per_s 10 -> 7.4 (-26 %), job_ms.p50 10 -> 12.6 (+26 %), ok_frac 1 -> 0.98 (-2 %)
    child = [{"ok_per_s": v - 2.6, "job_ms.p50": v + 2.6, "ok_frac": 0.98} for v in (9.0, 10.0, 11.0)]
    summary = ab.summarize(_runs(parent, child), DEFINITIONS)
    assert [summary[d["name"]]["beyond_bound"] for d in DEFINITIONS] == [True, True, True]
    # within the bound, or better by any amount, is not flagged
    near = [{"ok_per_s": v - 2.4, "job_ms.p50": v + 2.4, "ok_frac": 0.995} for v in (9.0, 10.0, 11.0)]
    far_better = [{"ok_per_s": 3 * v, "job_ms.p50": v / 3, "ok_frac": 1.0} for v in (9.0, 10.0, 11.0)]
    for other in (near, far_better):
        summary = ab.summarize(_runs(parent, other), DEFINITIONS)
        assert not any(summary[d["name"]]["beyond_bound"] for d in DEFINITIONS)
    zero = [{"ok_per_s": 0.0, "job_ms.p50": 0.0, "ok_frac": 0.0}]
    assert not ab.summarize(_runs(zero, zero), DEFINITIONS)["job_ms.p50"]["beyond_bound"]

    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": DEFINITIONS}))
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    monkeypatch.setattr(ab, "_git", _fake_git(""))
    monkeypatch.setattr(ab, "export", lambda rev, dest: dest)
    env = {"nproc": 2, "cpus_usable": 2, "thread_env": {}, "blas": [], "python": "3", "numpy": "2", "scipy": "1"}
    slower = [{"ok_per_s": 10.0, "job_ms.p50": 13.0, "ok_frac": 1.0}]
    monkeypatch.setattr(ab, "run_pairs", lambda trees, workload, seeds, seconds, start=0:
                        (_runs(parent[1:2] * len(seeds), slower * len(seeds)), env))
    ab.main(["--workload", "extract", "--seeds", "1"])
    assert "the bound on ['job_ms.p50']" in capsys.readouterr().err
    doc = json.loads((tmp_path / "BENCH_extract.json").read_text())
    assert {name: m["beyond_bound"] for name, m in doc["metrics"].items()} == {
        "ok_per_s": False, "job_ms.p50": True, "ok_frac": False}

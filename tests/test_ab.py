"""The summarising step of the A/B runner (tools/ab.py), on made-up runs."""

import importlib.util
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


def _runs(parent, child):
    return [{"seed": i + 1, "first": "parent" if i % 2 == 0 else "child",
             "parent": p, "child": c} for i, (p, c) in enumerate(zip(parent, child))]


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


def test_machine_reads_the_run_environment():
    ab = _load_ab()
    env = {"nproc": 2, "cpus_usable": 2, "thread_env": {"OPENBLAS_NUM_THREADS": "1"},
           "blas": [{"library": "a.so", "threads": 1}, {"library": "b.so", "threads": 1}],
           "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}
    info = ab.machine(env)
    assert (info["cores"], info["blas_threads"], info["numpy"], info["scipy"]) == (2, [1], "2.4.6", "1.17.1")

"""Benchmark of the invpairs pipeline: extract, refine and certify workloads.

Run from the root of a source checkout (nothing needs installing):

    python3 bench/run.py --workload extract --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: one job at a time, the next
only after the previous one returns.  Inputs are made from --seed, every
result is checked against its construction, and the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from a separate traced process.  See bench/README.md.
"""

import os

# BLAS and OpenMP threads are pinned before numpy loads: at the OpenBLAS
# default of one thread per core, the same job list ran 3.5x slower here and
# spread twice as much.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
WORKLOADS = ("extract", "refine", "certify")

# Set-up is timed in fresh interpreters, this many before the timed phase
# and as many after it, and in the measuring process itself; the median of
# the five is reported.  One import of invpairs plus scipy.linalg varied by
# +-12 %, and spreading the samples over the run keeps a short slow spell of
# the machine from deciding the result.
SETUP_PROBES_EACH_SIDE = 2
CHILD_TIMEOUT = 150

# Errors the library raises to say it cannot deliver a result; a job that
# raises one of them is flagged.  Any other exception is a benchmark failure.
FLAG_ERRORS = (ValueError, RuntimeError, ArithmeticError)


class BenchmarkError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="job time to measure, in whole rounds of the workload's job list")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "setup", "traced"), default="main",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(workload, seed):
    """Import invpairs, build the inputs and warm up; returns (jobs, seconds)."""
    start = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import invpairs
    if Path(invpairs.__file__).resolve().parent != SRC / "invpairs":
        raise BenchmarkError(f"invpairs imported from {invpairs.__file__}, not from {SRC}")
    import jobs
    round_ = jobs.build(workload, seed)
    # Warm-up: the first job of each kind is its smallest, so one pass over
    # them loads every lazily initialised path at little cost.
    seen = set()
    for job in round_:
        kind = job.label.split(" n=")[0]
        if kind not in seen:
            seen.add(kind)
            run_job(job, call=job.call)
    return round_, time.perf_counter() - start


def run_job(job, call):
    """Time one job; returns (status, seconds, counters)."""
    import jobs
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            result, error = call(), None
        except FLAG_ERRORS as exc:
            result, error = None, exc
        elapsed = time.perf_counter() - start
    if error is not None:
        status, counters = jobs.FLAGGED, {}
    else:
        try:
            status, counters = job.check(result)
        except Exception as exc:
            raise BenchmarkError(f"known-answer check of {job.label!r} failed to run: {exc!r}") from exc
        if status == jobs.WRONG and caught:
            status = jobs.FLAGGED
    counters = dict(counters)
    truncations = sum(1 for w in caught if "truncating" in str(w.message))
    if truncations:
        counters["hankel.rank_truncations"] = truncations
    return status, elapsed, counters


def timed_phase(round_, seconds, tracer=None):
    """Repeat whole rounds while the next one is expected to fit in `seconds` of job time."""
    import jobs
    gc.collect()
    times, statuses, counters, per_round = [], Counter(), Counter(), []
    total = 0.0
    while True:
        ok, spent = 0, 0.0
        for job in round_:
            call = job.call if tracer is None else (lambda job=job: tracer.run_job(job.label, job.call))
            status, elapsed, ctrs = run_job(job, call)
            times.append(elapsed)
            statuses[status] += 1
            counters.update(ctrs)
            ok += status == jobs.OK
            spent += elapsed
        per_round.append(ok / spent)
        total += spent
        if total + spent > seconds:
            break
    return {"times": times, "statuses": statuses, "counters": counters, "per_round": per_round}


def end_to_end(phase, setup_samples):
    attempted = sum(phase["statuses"].values())
    ok = phase["statuses"]["ok"]
    # Linear interpolation between order statistics, as numpy.percentile.
    deciles = statistics.quantiles([1e3 * t for t in phase["times"]], n=10, method="inclusive")
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ok_per_s": (statistics.median(phase["per_round"]), "1/s"),
        "job_ms.p50": (deciles[4], "ms"),
        "job_ms.p90": (deciles[8], "ms"),
        "ok_frac": (ok / attempted, "ratio"),
        "sound_frac": ((ok + phase["statuses"]["flagged"]) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def environment():
    """Cores, thread settings and library versions, recorded with every result."""
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas": _blas_libraries(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _blas_libraries():
    """Version and live thread count of every OpenBLAS loaded in this process."""
    import ctypes
    out = []
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info["threads"] = threads()
                    info["config"] = config().decode()
                    break
            if "threads" in info:
                break
        out.append(info)
    return out


def child(role, args, seconds):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchmarkError(f"{role} process failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def golden_checks():
    """The library's own golden-fixture checks (`invpairs bench --verify`)."""
    from invpairs.cli import run_golden_checks
    failures, lines = run_golden_checks()
    if failures:
        bad = [f"{name}: {status}" for name, status in lines if status != "ok"]
        raise BenchmarkError(f"{failures} golden check(s) failed: {bad}")
    return len(lines)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "invpairs" / "__init__.py").is_file():
        raise BenchmarkError(f"no invpairs sources at {SRC}; run from a source checkout")

    if args.role == "setup":
        _, seconds = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    if args.role == "traced":
        round_, _ = setup(args.workload, args.seed)
        import spans
        tracer = spans.Tracer()
        tracer.install()
        phase = timed_phase(round_, args.seconds, tracer)
        rounds = len(phase["per_round"])
        tracer.write(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json", environment())
        print(json.dumps({"ok_per_s": statistics.median(phase["per_round"]),
                          "statuses": phase["statuses"],
                          "metrics": tracer.metrics(rounds, phase["counters"])}))
        return 0

    probes = 0 if args.trace else SETUP_PROBES_EACH_SIDE
    setup_samples = [child("setup", args, 0)["setup_s"] for _ in range(probes)]
    round_, seconds = setup(args.workload, args.seed)
    setup_samples.append(seconds)
    golden = golden_checks()
    phase_seconds = args.seconds / 2 if args.trace else args.seconds
    phase = timed_phase(round_, phase_seconds)
    setup_samples += [child("setup", args, 0)["setup_s"] for _ in range(probes)]
    statuses = Counter(phase["statuses"])
    env = environment()
    env.update(workload=args.workload, seed=args.seed, jobs_per_round=len(round_),
               rounds=len(phase["per_round"]), ok_per_s_by_round=phase["per_round"],
               statuses=dict(phase["statuses"]), golden_checks=golden, setup_samples_s=setup_samples)
    if args.trace:
        traced = child("traced", args, phase_seconds)
        statuses.update(traced["statuses"])
        values = traced["metrics"]
        values["trace.overhead_frac"] = 1.0 - traced["ok_per_s"] / statistics.median(phase["per_round"])
        import spans
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.METRICS}
    else:
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in end_to_end(phase, setup_samples).items()}
    # Reaching this point means every golden check passed and every job's
    # known-answer check ran; how many answers were right is in the metrics.
    print(json.dumps({"env": env}))
    attempted = sum(statuses.values())
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": attempted - statuses["ok"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)

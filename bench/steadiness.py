"""Run the benchmark once per seed and record each metric's median and quartiles.

    python3 bench/steadiness.py --out bench/STEADINESS.json

Each invocation runs every workload with seeds 1-10, trace off and the
run_seconds of BENCHMARK.json, and appends one set of runs to --out.  For
every workload and end-to-end metric it stores the values, the median, the
quartiles from statistics.quantiles(values, n=4), and the spread
(q3 - q1) / median, which a claimed change has to beat.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("extract", "refine", "certify")
SEEDS = list(range(1, 11))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(env_line)["env"], json.loads(result_line)


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    workloads, env = {}, None
    for workload in WORKLOADS:
        values = {}
        for seed in SEEDS:
            env, result = run_once(workload, seed, seconds)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        workloads[workload] = {name: summarize(v) for name, v in values.items()}

    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {"sets": []}
    doc["sets"].append({
        "started": started, "seeds": SEEDS, "seconds": seconds, "trace": 0,
        "machine": {k: env[k] for k in ("nproc", "cpus_usable", "thread_env", "blas",
                                        "python", "numpy", "scipy")},
        "workloads": workloads,
    })
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

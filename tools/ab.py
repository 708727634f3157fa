"""A/B benchmark of a parent revision against HEAD of the checkout this script is in.

    python3 tools/ab.py --workload extract --parent HEAD~1 --seeds 1-10 --confirm 11

The parent revision and the child (HEAD) are both exported with `git
archive`, side by side in one temporary directory that is removed
afterwards, so that neither side runs from a tree the other lacks (a
checkout against an export read 10 % apart with the same code on both
sides).  The runner refuses to start while src/ or bench/ has uncommitted
changes, since the child export would not contain them.  For every seed the
parent and the child each run

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

from their own tree, one after the other, with T the run_seconds of
BENCHMARK.json; the side that runs first alternates from seed to seed.
The result goes to BENCH_<workload>.json: for each end-to-end metric of
BENCHMARK.json, both sides' median and quartiles over the --seeds pairs
and the pairs the child won, then the --confirm pairs on their own, every
run's values, both commit SHAs, and the cores, BLAS threads and
numpy/scipy versions the runs reported.  Its `failures` block holds each
side's share of failed jobs (failed / attempted) in every run, the median
share per side, and the seeds at which the child's share is higher; a
line on stderr names those seeds when there are any.  Each metric's
`beyond_bound` says whether the child's median is worse than the parent's
by more than that metric's `bound` in BENCHMARK.json, and a line on stderr
names the metrics where it is.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "child")
RUN_TIMEOUT = 900


def parse_seeds(text):
    """'1-10' or '1,3,5' (or a mix, '1-3,7') as a list of ints."""
    seeds = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """Revision `rev` unpacked with `git archive` into the new directory `dest`."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def refuse_dirty():
    """Exit while src/ or bench/ has uncommitted changes, which an export of HEAD would lack."""
    dirty = _git("status", "--porcelain", "--", "src", "bench")
    if dirty:
        raise SystemExit("src/ or bench/ has uncommitted changes, which the child export (HEAD) "
                         f"would not contain; commit or stash them first:\n{dirty}")


def run_bench(tree, workload, seed, seconds):
    """One benchmark run in `tree`; returns (env, result) from its last two lines."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} failed:\n{proc.stderr[-2000:]}")
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(env_line)["env"], json.loads(result_line)


def run_pairs(trees, workload, seeds, seconds, start=0):
    """One parent and one child run per seed; pair i runs the parent first iff (start + i) is even."""
    runs, env = [], None
    for i, seed in enumerate(seeds):
        order = SIDES if (start + i) % 2 == 0 else SIDES[::-1]
        run = {"seed": seed, "first": order[0]}
        for side in order:
            env, result = run_bench(trees[side], workload, seed, seconds)
            run[side] = {name: m["value"] for name, m in result["metrics"].items()}
            run[f"{side}_status"] = {k: result[k] for k in ("correct", "attempted", "failed")}
        print(workload, seed, {name: (round(run["parent"][name], 4), round(run["child"][name], 4))
                               for name in run["child"]}, file=sys.stderr, flush=True)
        runs.append(run)
    return runs, env


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(runs, definitions):
    """Per-metric medians, quartiles and child wins over the runs of several seeds.

    `definitions` are the end_to_end entries of BENCHMARK.json (name, unit,
    better, bound).  The child wins a pair when its value is better in the
    metric's direction; equal values are ties.  `clear` says whether the
    child's median is better than the parent's by more than the parent's
    interquartile range, and `beyond_bound` whether it is worse than the
    parent's by more than the metric's bound, relative to the parent's
    median (never when that median is 0).
    """
    out = {}
    for d in definitions:
        name, sign = d["name"], 1.0 if d["better"] == "higher" else -1.0
        pairs = [(r["parent"][name], r["child"][name]) for r in runs]
        entry = {"unit": d["unit"], "better": d["better"], "pairs": len(pairs),
                 "wins": sum(sign * (c - p) > 0 for p, c in pairs),
                 "ties": sum(c == p for p, c in pairs)}
        for side, values in zip(SIDES, zip(*pairs)):
            q1, q3 = _quartiles(list(values))
            entry[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
        parent, child = entry["parent"], entry["child"]
        entry["change"] = child["median"] / parent["median"] - 1.0 if parent["median"] else None
        entry["clear"] = sign * (child["median"] - parent["median"]) > parent["q3"] - parent["q1"]
        entry["beyond_bound"] = entry["change"] is not None and -sign * entry["change"] > d["bound"]
        out[name] = entry
    return out


def failure_shares(runs):
    """Each side's failed/attempted share per run, the median per side, and the
    seeds where the child fails a larger share than the parent."""
    shares = [{side: r[f"{side}_status"]["failed"] / r[f"{side}_status"]["attempted"] for side in SIDES}
              for r in runs]
    return {
        "runs": [{"seed": r["seed"], **share} for r, share in zip(runs, shares)],
        "median": {side: statistics.median(s[side] for s in shares) for side in SIDES},
        "child_higher": [r["seed"] for r, s in zip(runs, shares) if s["child"] > s["parent"]],
    }


def machine(env):
    """Cores, BLAS threads and library versions as a bench/run.py run reports them."""
    return {"cores": env["nproc"], "cpus_usable": env["cpus_usable"],
            "blas_threads": sorted({lib.get("threads") for lib in env["blas"]} - {None}),
            "thread_env": env["thread_env"], "python": env["python"],
            "numpy": env["numpy"], "scipy": env["scipy"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("extract", "refine", "certify"))
    ap.add_argument("--parent", default="HEAD~1", help="revision to compare against (default HEAD~1)")
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    ap.add_argument("--confirm", type=parse_seeds, default=[],
                    help="seeds run after --seeds and reported on their own")
    args = ap.parse_args(argv)

    refuse_dirty()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    out = ROOT / f"BENCH_{args.workload}.json"
    shas = {"parent": _git("rev-parse", args.parent), "child": _git("rev-parse", "HEAD")}

    with tempfile.TemporaryDirectory(prefix="invpairs-ab-") as tmp:
        trees = {side: export(shas[side], Path(tmp) / side) for side in SIDES}
        runs, env = run_pairs(trees, args.workload, args.seeds, seconds)
        confirm, _ = run_pairs(trees, args.workload, args.confirm, seconds, start=len(runs))

    doc = {
        "workload": args.workload,
        "command": f"python3 bench/run.py --workload {args.workload} --seed S --seconds {seconds:g} --trace 0",
        "parent": shas["parent"], "child": shas["child"],
        "machine": machine(env),
        "seeds": args.seeds,
        "metrics": summarize(runs, bench["end_to_end"]),
        "confirm": {"seeds": args.confirm,
                    "metrics": summarize(confirm, bench["end_to_end"]) if confirm else {}},
        "failures": failure_shares(runs + confirm),
        "runs": runs + confirm,
    }
    if doc["failures"]["child_higher"]:
        print(f"{args.workload}: the child fails a larger share of its jobs than the parent at seeds "
              f"{doc['failures']['child_higher']}", file=sys.stderr)
    beyond = [name for name, entry in doc["metrics"].items() if entry["beyond_bound"]]
    if beyond:
        print(f"{args.workload}: the child's median is worse than the parent's by more than the bound "
              f"on {beyond}", file=sys.stderr)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()

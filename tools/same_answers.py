"""Same answers: every benchmark job of a parent revision and of HEAD, run once on each side.

    python3 tools/same_answers.py --parent HEAD~1 --seeds 1-10
    python3 tools/same_answers.py --parent HEAD~1 --seeds 1-10 --workload certify
    python3 tools/same_answers.py --parent HEAD~1 --cli

Both revisions are exported with `git archive` into one temporary directory,
as tools/ab.py does, and the tool refuses to start while src/ or bench/ has
uncommitted changes.  In each tree one subprocess per workload builds
`jobs.build(workload, seed)` for every seed and runs each job once through
that tree's `bench/run.py::run_job`, with BLAS pinned to one thread.  Per
job it records the label, the status and counters, the raised error (type
and message), the warning messages, and a SHA-256 digest of the result.
Every job whose record differs between the sides is printed on one line,
then a count per workload; the exit status is 1 on any difference.
`--workload W` (repeatable; extract, refine or certify) limits the check to
those workloads, so that a change confined to one layer can be checked on
the workload that runs it; by default all three run.

`--cli` compares the command line instead: exit code and stdout of every
case of `cli_cases()` (each command on each bundled fixture in JSON and
CSV, the pencil shapes of SHAPE_CASES, the perturbed refines of
REFINE_RUNS, the probe-file commands with each bundled probe file and the
bench runs), with the CSV `*_time` columns masked.  One subprocess per
side runs the cases in-process through `run_command`.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ab  # noqa: E402

WORKLOADS = ("extract", "refine", "certify")
# Fields that are timings, not answers: (class name, field name)
TIMINGS = {("RefinementReport", "wall_time")}
WORKER_TIMEOUT = 1800

DATA = "src/invpairs/data"
# A circle per bundled fixture, each enclosing part of its spectrum (the
# circles of the node-pass tests)
FIXTURE_CIRCLES = {
    "diag_4x4": ("0.75", "0.5"),
    "ss_2x2": ("1", "0.5"),
    "multi_3x3": ("1", "0.1"),
    "quad_solvents_2x2": ("1.5", "1"),
    "infinite_family_3x3": ("3", "0.5"),
    "infinite_family_3x3_triangular": ("3", "0.5"),
    "residue_diag_2x2": ("1.5", "1"),
}
CONTOUR_COMMANDS = ("count", "moments", "pair", "block-pair", "refine", "cond", "berr", "solvent")
PROBE_COMMANDS = ("pair", "block-pair", "moments", "refine")
FORMATS = (["--format", "json"], ["--format", "csv"])
# Pencil shapes beyond the defaults (xi = 2 blocks, m = the count): scalar
# and wider block pencils, and the 1-by-1 pencil
SHAPE_CASES = (("block-pair", ["--xi", "1"]), ("block-pair", ["--xi", "3"]), ("pair", ["--m", "1"]))
# Perturbed refine runs: near the pair, and far enough out (1e-1) that some
# fixtures take tens of iterations with step lengths inside (0, 1)
REFINE_RUNS = (["--perturb", "1e-3", "--seed", "3"], ["--perturb", "1e-1", "--seed", "3"],
               ["--perturb", "1e-2", "--no-line-search", "--seed", "3"])


def _feed(h, value):
    """Hash `value` into h, with each node's type, so that equal digests mean equal bits."""
    kind = type(value)
    h.update(kind.__name__.encode() + b"\0")
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif value is None:
        pass
    elif isinstance(value, (bool, np.bool_, int, np.integer, str)):
        h.update(repr(value).encode() + b"\0")
    elif isinstance(value, (float, np.floating)):
        h.update(struct.pack("<d", value))
    elif isinstance(value, (complex, np.complexfloating)):
        h.update(struct.pack("<dd", value.real, value.imag))
    elif isinstance(value, tuple) and hasattr(value, "_fields"):
        _feed_fields(h, kind.__name__, ((f, getattr(value, f)) for f in value._fields))
    elif isinstance(value, (tuple, list)):
        h.update(f"{len(value)}:".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, dict):
        _feed_fields(h, kind.__name__, value.items())
    elif dataclasses.is_dataclass(value):
        _feed_fields(h, kind.__name__, ((f.name, getattr(value, f.name)) for f in dataclasses.fields(value)))
    elif hasattr(value, "__dict__"):
        # plain result classes such as InvariantPair: their attributes
        _feed_fields(h, kind.__name__, vars(value).items())
    else:
        raise TypeError(f"cannot digest a {kind.__name__}")


def _feed_fields(h, owner, items):
    for name, value in items:
        if (owner, name) not in TIMINGS:
            _feed(h, name)
            _feed(h, value)


def digest(value):
    """SHA-256 of a result's bits, timings left out."""
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


def run_once(run, job):
    """One job through `run.run_job`; returns its record.

    The wrapped call sees the result, the error and the warnings first and
    issues every warning again, so that run_job, which flags a wrong answer
    that comes with a warning, gives the status it gives in a benchmark run.
    """
    seen = {"result": None, "error": None}

    def call():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                seen["result"] = job.call()
            except Exception as exc:
                seen["error"] = exc
        seen["warnings"] = [str(w.message) for w in caught]
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        if seen["error"] is not None:
            raise seen["error"]
        return seen["result"]

    try:
        status, _, counters = run.run_job(job, call=call)
    except Exception as exc:  # a check that failed to run, or an error the benchmark does not flag
        status, counters = f"benchmark error: {type(exc).__name__}: {exc}", {}
    error = seen["error"]
    return {"label": job.label, "status": status, "counters": counters,
            "error": None if error is None else [type(error).__name__, str(error)],
            "warnings": seen.get("warnings", []), "digest": digest(seen["result"])}


def worker(tree, workload, seeds):
    """The records of every job of `workload` at `seeds`, run in `tree`."""
    tree = Path(tree).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import invpairs
    import jobs
    import run
    if Path(invpairs.__file__).resolve().parent != tree / "src" / "invpairs":
        raise SystemExit(f"invpairs imported from {invpairs.__file__}, not from {tree}")
    return [{"seed": seed, "index": i, **run_once(run, job)}
            for seed in seeds for i, job in enumerate(jobs.build(workload, seed))]


def collect(tree, workload, seeds):
    """Run the worker for one workload in a fresh interpreter inside `tree`."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree), workload,
           "--seeds", ",".join(map(str, seeds))]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def cli_cases(tree):
    """The argv lists of the CLI comparison, with paths relative to `tree`."""
    cases = []
    for fixture, (center, radius) in FIXTURE_CIRCLES.items():
        problem = [f"{DATA}/{fixture}.json"]
        contour = [*problem, "--center", center, "--radius", radius]
        for fmt in FORMATS:
            cases += [[cmd, *contour, *fmt] for cmd in CONTOUR_COMMANDS]
            cases += [[cmd, *problem, *fmt] for cmd in ("enumerate", "triangular")]
            cases += [["refine", *contour, *option, *fmt] for option in REFINE_RUNS]
            cases += [[cmd, *contour, *option, *fmt] for cmd, option in SHAPE_CASES]
    for probes in sorted((Path(tree) / DATA / "probes").glob("*.json")):
        fixture = max((f for f in FIXTURE_CIRCLES if probes.stem == f or probes.stem.startswith(f + "_")), key=len)
        center, radius = FIXTURE_CIRCLES[fixture]
        for fmt in FORMATS:
            cases += [[cmd, f"{DATA}/{fixture}.json", "--center", center, "--radius", radius,
                       "--probe-file", f"{DATA}/probes/{probes.name}", *fmt] for cmd in PROBE_COMMANDS]
    for fmt in FORMATS:
        cases += [["bench", *fmt], ["bench", "--seed", "3", *fmt], ["bench", "--verify", *fmt]]
    return cases


def mask_times(text):
    """CSV text with each value of a `*_time` column replaced by `*`; other text unchanged."""
    lines = text.split("\n")
    timed = [i for i, name in enumerate(lines[0].split(",")) if name.endswith("_time")]
    if not timed:
        return text
    rows = [lines[0].split(",")] + [line.split(",") for line in lines[1:]]
    for cells in rows[1:]:
        for i in timed:
            if i < len(cells):
                cells[i] = "*"
    return "\n".join(",".join(cells) for cells in rows)


def cli_worker(tree):
    """Exit code and masked stdout of every CLI case, run in `tree`."""
    tree = Path(tree).resolve()
    sys.path.insert(0, str(tree / "src"))
    os.chdir(tree)
    from invpairs.cli import run_command
    records = []
    for argv in cli_cases(tree):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run_command(argv)
        records.append({"case": " ".join(argv), "exit": code, "stdout": mask_times(out.getvalue())})
    return records


def compare_cli(parent, child):
    """One line per CLI case whose exit code or stdout differs, with the first differing stdout line."""
    lines = []
    left = {r["case"]: r for r in parent}
    right = {r["case"]: r for r in child}
    for case in dict.fromkeys([*right, *left]):
        a, b = left.get(case), right.get(case)
        if a is None or b is None:
            lines.append(f"{case}: missing on the {'parent' if a is None else 'child'} side")
            continue
        diffs = [f"exit {a['exit']} -> {b['exit']}"] if a["exit"] != b["exit"] else []
        if a["stdout"] != b["stdout"]:
            old, new = a["stdout"].split("\n"), b["stdout"].split("\n")
            k = next((i for i, (x, y) in enumerate(zip(old, new)) if x != y), min(len(old), len(new)))
            at = [rows[k] if k < len(rows) else "<end>" for rows in (old, new)]
            diffs.append(f"stdout line {k + 1} {at[0]!r} -> {at[1]!r}")
        if diffs:
            lines.append(f"{case}: {'; '.join(diffs)}")
    return lines


def compare(parent, child):
    """One line per job whose record differs, naming the fields that differ."""
    lines = []
    left = {(r["seed"], r["index"]): r for r in parent}
    right = {(r["seed"], r["index"]): r for r in child}
    for key in sorted(left.keys() | right.keys()):
        a, b = left.get(key), right.get(key)
        if a is None or b is None:
            side = "parent" if a is None else "child"
            lines.append(f"seed {key[0]} job {key[1]} ({(a or b)['label']}): missing on the {side} side")
            continue
        fields = [f for f in a if a[f] != b.get(f)]
        if fields:
            diffs = "; ".join(f"{f} {a[f]!r} -> {b.get(f)!r}" for f in fields)
            lines.append(f"seed {key[0]} job {key[1]} ({a['label']}): {diffs}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD~1", help="revision to compare against (default HEAD~1)")
    ap.add_argument("--seeds", type=ab.parse_seeds, default=ab.parse_seeds("1-10"))
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="workload to compare (repeatable; default all three)")
    ap.add_argument("--cli", action="store_true",
                    help="compare the exit codes and stdout of the CLI cases instead of the benchmark jobs")
    ap.add_argument("--worker", nargs=2, metavar=("TREE", "WORKLOAD"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        tree, workload = args.worker
        json.dump(cli_worker(tree) if workload == "cli" else worker(tree, workload, args.seeds), sys.stdout)
        return 0

    ab.refuse_dirty()
    shas = {"parent": ab._git("rev-parse", args.parent), "child": ab._git("rev-parse", "HEAD")}
    differ = 0
    with tempfile.TemporaryDirectory(prefix="invpairs-same-") as tmp:
        trees = {side: ab.export(shas[side], Path(tmp) / side) for side in ab.SIDES}
        if args.cli:
            records = {side: collect(trees[side], "cli", []) for side in ab.SIDES}
            lines = compare_cli(records["parent"], records["child"])
            for line in lines:
                print(f"cli {line}")
            print(f"cli: {len(lines)} of {len(records['child'])} cases differ "
                  f"(parent {shas['parent'][:12]}, child {shas['child'][:12]})")
            return 1 if lines else 0
        for workload in (w for w in WORKLOADS if w in (args.workload or WORKLOADS)):
            records = {side: collect(trees[side], workload, args.seeds) for side in ab.SIDES}
            lines = compare(records["parent"], records["child"])
            for line in lines:
                print(f"{workload} {line}")
            total = len(records["parent"])
            print(f"{workload}: {len(lines)} of {total} jobs differ "
                  f"(parent {shas['parent'][:12]}, child {shas['child'][:12]})")
            differ += len(lines)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

"""Span recorder for the traced run, and the per-layer metrics read from it.

Only the traced process imports this module.  `Tracer.install()` wraps the
public functions of each layer and rebinds the wrapper under every name
that refers to the original in any loaded `invpairs` module, because the
modules import each other's names (`from .matpoly import eval_scalar`, ...)
and a patch of the defining module alone would miss those calls.

Spans (name, start, end, parent, job) stay in memory and are written once,
at the end.  matpoly evaluations run tens of thousands of times a second,
so they are counted and timed in aggregate instead of kept as spans.
"""

import functools
import json
import statistics
import sys
import time

SPANNED = {
    "contour": ("count_eigenvalues_inside", "scalar_moments", "block_moments"),
    "hankel": ("extract_invariant_pair", "extract_block_invariant_pair"),
    "refine": ("refine_pair", "refine_solvent", "newton_correction", "line_search_poly",
               "solvent_step_poly", "minimize_step"),
    "conditioning": ("pair_condition_number", "pair_backward_error", "solvent_condition_number",
                     "solvent_backward_error", "pair_jacobian", "solvent_jacobian"),
    "solvents": ("enumerate_solvents", "triangular_solvent_solve", "verify_solvent"),
}
AGGREGATED = ("eval_scalar", "eval_derivative", "eval_pair", "eval_matrix")

# Per-layer metrics of the traced run, in BENCHMARK.json order.  Counts,
# busy times and eval_s are per round (one pass over the workload's jobs).
METRICS = (
    ("contour.busy_s", "s"),
    ("contour.count_ms.p50", "ms"),
    ("contour.moments_ms.p50", "ms"),
    ("contour.block_moments_ms.p50", "ms"),
    ("contour.calls_per_pair", "count"),
    ("contour.nodes_factored", "count"),
    ("contour.on_contour_errors", "count"),
    ("matpoly.eval_scalar_calls", "count"),
    ("matpoly.eval_s", "s"),
    ("hankel.self_ms.p50", "ms"),
    ("hankel.rank_truncations", "count"),
    ("hankel.rank_errors", "count"),
    ("refine.busy_s", "s"),
    ("refine.line_search_ms.p50", "ms"),
    ("refine.line_search_share", "ratio"),
    ("refine.correction_ms.p50", "ms"),
    ("refine.iterations", "count"),
    ("refine.unit_step_frac", "ratio"),
    ("refine.converged_frac", "ratio"),
    ("conditioning.busy_s", "s"),
    ("conditioning.cond_ms.p50", "ms"),
    ("conditioning.berr_ms.p50", "ms"),
    ("conditioning.solvent_cond_ms.p50", "ms"),
    ("conditioning.solvent_berr_ms.p50", "ms"),
    ("conditioning.jacobian_ms.p50", "ms"),
    ("conditioning.eta_none", "count"),
    ("conditioning.bound_violations", "count"),
    ("solvents.busy_s", "s"),
    ("solvents.enumerate_ms.p50", "ms"),
    ("solvents.subsets_tried", "count"),
    ("solvents.subsets_rejected", "count"),
    ("solvents.triangular_ms.p50", "ms"),
    ("solvents.branches", "count"),
    ("solvents.verify_ms.p50", "ms"),
    ("solvents.certified_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

NAME, START, END, PARENT, JOB, ERROR = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.labels = []
        self.evals = {name: [0, 0.0] for name in AGGREGATED}
        self.nodes_factored = 0
        self._stack = []
        self._job = -1

    def install(self):
        """Wrap every layer's public functions in all loaded invpairs modules."""
        modules = [m for name, m in sys.modules.items()
                   if name == "invpairs" or name.startswith("invpairs.")]
        for layer, names in SPANNED.items():
            home = sys.modules[f"invpairs.{layer}"]
            for name in names:
                original = getattr(home, name)
                _rebind(modules, original, self._spanned(f"{layer}.{name}", original))
        home = sys.modules["invpairs.matpoly"]
        for name in AGGREGATED:
            original = getattr(home, name)
            _rebind(modules, original, self._tallied(name, original))
        # Node factorizations happen inside contour only; count the matrices
        # factored there (a 3-D stack counts once per node).
        contour = sys.modules["invpairs.contour"]
        contour.lu_factor = self._factor_counter(contour.lu_factor)

    def run_job(self, label, call):
        """Run one job under a root span that its layer spans hang from."""
        self._job = len(self.labels)
        self.labels.append(label)
        return self._spanned("job", call)()

    def _spanned(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._job, ""]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        return wrapper

    def _tallied(self, name, fn):
        stat, clock = self.evals[name], time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[0] += 1
                stat[1] += clock() - start

        return wrapper

    def _factor_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            self.nodes_factored += a.shape[0] if getattr(a, "ndim", 2) == 3 else 1
            return fn(a, *args, **kwargs)

        return wrapper

    def write(self, path, env):
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"env": env, "fields": ["name", "start", "end", "parent", "job", "error"],
               "jobs": self.labels, "spans": self.spans, "evals": self.evals,
               "nodes_factored": self.nodes_factored}
        path.write_text(json.dumps(doc), encoding="utf-8")

    def metrics(self, rounds, counters):
        """Per-layer metrics (all of METRICS except trace.overhead_frac)."""
        spans = self.spans
        dur = [s[END] - s[START] for s in spans]
        by_name = {}
        for i, s in enumerate(spans):
            by_name.setdefault(s[NAME], []).append(i)

        def layer(i):
            return spans[i][NAME].split(".")[0]

        def p50_ms(*names):
            vals = [dur[i] for name in names for i in by_name.get(name, ())]
            return 1e3 * statistics.median(vals) if vals else 0.0

        def busy(name):
            """Seconds per round in the layer's outermost spans."""
            return sum(d for i, d in enumerate(dur) if layer(i) == name
                       and (spans[i][PARENT] < 0 or layer(spans[i][PARENT]) != name)) / rounds

        def errors(prefix, error):
            return sum(1 for s in spans if s[NAME].startswith(prefix) and s[ERROR] == error
                       and (s[PARENT] < 0 or not spans[s[PARENT]][NAME].startswith(prefix)))

        extractors = [i for name in SPANNED["hankel"] for i in by_name.get(f"hankel.{name}", ())]
        contour_in = {i: 0.0 for i in extractors}
        calls = 0
        for i, s in enumerate(spans):
            if s[PARENT] in contour_in and layer(i) == "contour":
                contour_in[s[PARENT]] += dur[i]
                calls += 1
        hankel_self = [dur[i] - contour_in[i] for i in extractors]
        line_search = sum(dur[i] for name in ("refine.line_search_poly", "refine.solvent_step_poly")
                          for i in by_name.get(name, ()))
        refine_busy = busy("refine")

        def per_round(key):
            return counters.get(key, 0) / rounds

        def share(part, whole):
            return counters.get(part, 0) / counters[whole] if counters.get(whole) else 0.0

        return {
            "contour.busy_s": busy("contour"),
            "contour.count_ms.p50": p50_ms("contour.count_eigenvalues_inside"),
            "contour.moments_ms.p50": p50_ms("contour.scalar_moments"),
            "contour.block_moments_ms.p50": p50_ms("contour.block_moments"),
            "contour.calls_per_pair": calls / len(extractors) if extractors else 0.0,
            "contour.nodes_factored": self.nodes_factored / rounds,
            "contour.on_contour_errors": errors("contour.", "EigenvalueOnContourError") / rounds,
            "matpoly.eval_scalar_calls": self.evals["eval_scalar"][0] / rounds,
            "matpoly.eval_s": sum(t for _, t in self.evals.values()) / rounds,
            "hankel.self_ms.p50": 1e3 * statistics.median(hankel_self) if hankel_self else 0.0,
            "hankel.rank_truncations": per_round("hankel.rank_truncations"),
            "hankel.rank_errors": errors("hankel.", "HankelRankError") / rounds,
            "refine.busy_s": refine_busy,
            "refine.line_search_ms.p50": p50_ms("refine.line_search_poly", "refine.solvent_step_poly"),
            "refine.line_search_share": line_search / rounds / refine_busy if refine_busy else 0.0,
            "refine.correction_ms.p50": p50_ms("refine.newton_correction"),
            "refine.iterations": per_round("refine.iterations"),
            "refine.unit_step_frac": share("refine.unit_steps", "refine.iterations"),
            "refine.converged_frac": share("refine.converged", "refine.calls"),
            "conditioning.busy_s": busy("conditioning"),
            "conditioning.cond_ms.p50": p50_ms("conditioning.pair_condition_number"),
            "conditioning.berr_ms.p50": p50_ms("conditioning.pair_backward_error"),
            "conditioning.solvent_cond_ms.p50": p50_ms("conditioning.solvent_condition_number"),
            "conditioning.solvent_berr_ms.p50": p50_ms("conditioning.solvent_backward_error"),
            "conditioning.jacobian_ms.p50": p50_ms("conditioning.pair_jacobian",
                                                   "conditioning.solvent_jacobian"),
            "conditioning.eta_none": per_round("conditioning.eta_none"),
            "conditioning.bound_violations": per_round("conditioning.bound_violations"),
            "solvents.busy_s": busy("solvents"),
            "solvents.enumerate_ms.p50": p50_ms("solvents.enumerate_solvents"),
            "solvents.subsets_tried": per_round("solvents.subsets_tried"),
            "solvents.subsets_rejected": per_round("solvents.subsets_rejected"),
            "solvents.triangular_ms.p50": p50_ms("solvents.triangular_solvent_solve"),
            "solvents.branches": per_round("solvents.branches"),
            "solvents.verify_ms.p50": p50_ms("solvents.verify_solvent"),
            "solvents.certified_frac": share("solvents.certified", "solvents.verified"),
        }


def _rebind(modules, original, wrapper):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)

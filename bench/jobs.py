"""The three workloads: one round of seeded known-answer jobs each.

A job is one closed-loop request: `call()` makes the timed library calls and
`check(result)` compares the result with the construction, untimed, using
numpy only.  The library is reached through attribute lookups on the
`invpairs` package at call time, so the traced run sees every call.

Every round of a workload holds the same jobs in the same order; a run
repeats whole rounds, so the share of every job class is exact.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import invpairs as ip

import instances as ins

NODES = 64
MAXIT = 30            # refine iteration cap (the library default is 500)
EIG_TOL = 1e-5        # relative eigenvalue match for extraction
REFINE_EIG_TOL = 1e-6
CERTIFY_PERTURB = 1e-8  # keeps R = P(X, S) far above roundoff, so eta is comparable
ETA_RTOL = 1e-6
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class Job:
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple]  # result -> (status, counters)


# Job statuses.  "flagged" is a result the library itself marks as unusable
# (eta None, an uncertified solvent); a raised error or a warning during the
# call also turns "wrong" into "flagged".  "wrong" is silently wrong.
OK, FLAGGED, WRONG = "ok", "flagged", "wrong"


def _status(correct):
    return OK if correct else WRONG


def _match(computed, expected, tol):
    """True when the two multisets agree to tol * max(1, |lambda|) under greedy matching."""
    left = list(np.asarray(computed, dtype=complex).ravel())
    if len(left) != len(expected):
        return False
    for lam in np.asarray(expected, dtype=complex).ravel():
        dist = [abs(c - lam) for c in left]
        j = int(np.argmin(dist))
        if not dist[j] <= tol * max(1.0, abs(lam)):
            return False
        left.pop(j)
    return True


def _residual(coeffs, X, S):
    """||sum_j A_j X S^j||_F / ||X||_F, computed with numpy."""
    acc = np.zeros(X.shape, dtype=complex)
    power = X
    for A in coeffs:
        acc = acc + A @ power
        power = power @ S
    return float(np.linalg.norm(acc) / np.linalg.norm(X))


# ---------------------------------------------------------------------------
# extract

EXTRACT_SIZES = (8, 20, 50, 100, 200)


def _extract_job(case):
    # The closures hold only what the call and the check use, not the case
    # with its factors, so peak_rss_mb stays close to the library's own.
    P = ip.MatrixPolynomial(case.problem.coeffs)
    contour = ip.Contour(case.center, case.radius, NODES)
    enclosed = case.enclosed
    if case.block:
        U, V = case.U, case.V

        def call():
            return ip.extract_block_invariant_pair(P, contour, U, V)
    else:
        u, v = case.U[:, 0].copy(), case.V[:, 0].copy()

        def call():
            return ip.extract_invariant_pair(P, contour, u, v)

    def check(pair):
        return _status(_match(np.linalg.eigvals(pair.S), enclosed, EIG_TOL)), {}

    kind = "block" if case.block else ("hard-" + case.hard if case.hard else "scalar")
    return Job(f"extract {kind} n={case.problem.n} l={case.problem.degree}", call, check)


def extract_round(rng):
    """30 jobs: n in EXTRACT_SIZES x l in {2, 3} x {scalar, hard scalar, block}.

    A third of the jobs are hard: one eigenvalue 10-20 % of the radius from
    the circle, inside on half of them and outside on the other half.  A
    third are block jobs (xi = 2) around a semisimple double eigenvalue,
    with m = 3 (truncated block pencil) at l = 2 and m = 4 at l = 3.
    """
    jobs = []
    for ell in (2, 3):
        for kind in ("scalar", "hard", "block"):
            for i, n in enumerate(EXTRACT_SIZES):
                if kind == "block":
                    case = ins.extract_case(rng, n, ell, ell - 1, block=True)
                elif kind == "hard":
                    side = "inside" if (i + ell) % 2 == 0 else "outside"
                    case = ins.extract_case(rng, n, ell, 3, hard=side)
                else:
                    case = ins.extract_case(rng, n, ell, 3)
                jobs.append(_extract_job(case))
    return jobs


# ---------------------------------------------------------------------------
# refine

def _refine_counters(report):
    return {
        "refine.calls": 1,
        "refine.iterations": report.iterations,
        "refine.unit_steps": sum(1 for t in report.step_lengths if t == 1.0),
        "refine.converged": int(report.converged),
    }


def _refine_pair_job(rng, n, k, ell):
    problem = ins.pair_problem(rng, n, ell)
    X, S = problem.exact_pair(k)
    rel = 10 ** rng.uniform(-3, -2)
    X0, S0 = ins.perturb(rng, X, rel), ins.perturb(rng, S, rel)
    P = ip.MatrixPolynomial(problem.coeffs)
    expected = np.diagonal(S)

    def call():
        return ip.refine_pair(P, X0, S0, maxit=MAXIT)

    def check(result):
        pair, report = result
        ok = report.converged and _match(np.linalg.eigvals(pair.S), expected, REFINE_EIG_TOL)
        return _status(ok), _refine_counters(report)

    return Job(f"refine pair n={n} k={k} l={ell}", call, check)


def _refine_solvent_job(rng, n, ell):
    problem = ins.pair_problem(rng, n, ell)
    S0 = ins.perturb(rng, problem.exact_solvent(), 10 ** rng.uniform(-3, -2))
    P = ip.MatrixPolynomial(problem.coeffs)
    expected = np.diagonal(problem.triangles[0])

    def call():
        return ip.refine_solvent(P, S0, maxit=MAXIT)

    def check(result):
        solvent, report = result
        ok = report.converged and _match(np.linalg.eigvals(solvent.S), expected, REFINE_EIG_TOL)
        return _status(ok), _refine_counters(report)

    return Job(f"refine solvent n={n} l={ell}", call, check)


def refine_round(rng):
    """35 jobs: 30 pairs (n in {4, 20, 40}, k in 2..6, l in {2, 3}) and 5 solvents
    (n in {4, 8, 12} at l = 2, where the quartic step model is exact, and
    n in {4, 8} at l = 3, where it is safeguarded)."""
    jobs = [_refine_pair_job(rng, n, k, ell)
            for ell in (2, 3) for k in range(2, 7) for n in (4, 20, 40)]
    jobs += [_refine_solvent_job(rng, n, 2) for n in (4, 8, 12)]
    jobs += [_refine_solvent_job(rng, n, 3) for n in (4, 8)]
    return jobs


# ---------------------------------------------------------------------------
# certify

def gram_backward_error(coeffs, X, S):
    """eta = sqrt(Re <R, R G^{-T}>), G = sum_i alpha_i^2 (X S^i)^T conj(X S^i).

    H H^H = G kron I for the backward-error matrix H, so the minimum-norm
    solve over n(l+1)n columns reduces to a k-by-k solve.  Uses the default
    weights alpha_i = ||A_i||_F.
    """
    k = S.shape[0]
    G = np.zeros((k, k), dtype=complex)
    R = np.zeros_like(X)
    power = X
    for A in coeffs:
        G += np.linalg.norm(A) ** 2 * (power.T @ power.conj())
        R += A @ power
        power = power @ S
    return math.sqrt(max(0.0, float(np.real(np.vdot(R, np.linalg.solve(G, R.T).T)))))


def _bounds_hold(report):
    slack = 1e-9 * report.eta
    return report.lower - slack <= report.eta <= report.upper + slack


def _certify_pair_job(rng, n, k):
    problem = ins.pair_problem(rng, n, 2)
    X, S = problem.exact_pair(k)
    X, S = ins.perturb(rng, X, CERTIFY_PERTURB), ins.perturb(rng, S, CERTIFY_PERTURB)
    P = ip.MatrixPolynomial(problem.coeffs)
    reference = gram_backward_error(problem.coeffs, X, S)

    def call():
        return ip.pair_condition_number(P, X, S), ip.pair_backward_error(P, X, S)

    def check(result):
        kappa, report = result
        if report.eta is None:
            return FLAGGED, {"conditioning.eta_none": 1}
        inside = _bounds_hold(report)
        ok = (math.isfinite(kappa) and kappa > 0 and inside
              and abs(report.eta - reference) <= ETA_RTOL * reference)
        return _status(ok), {"conditioning.bound_violations": int(not inside)}

    return Job(f"certify pair n={n} k={k}", call, check)


def _certify_solvent_job(rng, n):
    problem = ins.pair_problem(rng, n, 2)
    S = problem.exact_solvent()
    P = ip.MatrixPolynomial(problem.coeffs)

    def call():
        return (ip.solvent_condition_number(P, S), ip.solvent_backward_error(P, S),
                ip.verify_solvent(P, S))

    def check(result):
        kappa, report, verification = result
        counters = {"solvents.verified": 1, "solvents.certified": int(verification.certified)}
        if report.eta is None:
            return FLAGGED, {**counters, "conditioning.eta_none": 1}
        inside = _bounds_hold(report)
        counters["conditioning.bound_violations"] = int(not inside)
        if not (math.isfinite(kappa) and kappa > 0 and inside):
            return WRONG, counters
        return (OK if verification.certified else FLAGGED), counters

    return Job(f"certify solvent n={n}", call, check)


def _solvent_residual(coeffs, S):
    return _residual(coeffs, np.eye(S.shape[0], dtype=complex), S) / max(1.0, np.linalg.norm(S))


def _enumerate_job(rng, n):
    problem = ins.pair_problem(rng, n, 2)
    P = ip.MatrixPolynomial(problem.coeffs)
    eigpairs = ins.eigenpairs(problem)
    known = problem.exact_solvent()
    coeffs = problem.coeffs
    subsets = math.comb(2 * n, n)

    def call():
        return ip.enumerate_solvents(P, eigpairs)

    def check(result):
        solvents, rejected = result
        tried = len(solvents) + len(rejected)
        ok = (tried == subsets
              and all(_solvent_residual(coeffs, s.S) <= RESIDUAL_TOL for s in solvents)
              and any(np.linalg.norm(s.S - known) <= RESIDUAL_TOL * np.linalg.norm(known)
                      for s in solvents))
        return _status(ok), {"solvents.subsets_tried": tried,
                             "solvents.subsets_rejected": len(rejected)}

    return Job(f"certify enumerate n={n}", call, check)


def _triangular_job(rng, n):
    case = ins.triangular_case(rng, n)
    coeffs = case.coeffs
    T = ip.MatrixPolynomial(coeffs)
    branches = np.array(list(itertools.product(*case.roots)))

    def branch_of(family):
        """Index of the diagonal branch the family's solvent lies on, or None."""
        if family.kind != "unique" or _solvent_residual(coeffs, family.base) > RESIDUAL_TOL:
            return None
        dist = np.abs(branches - np.diagonal(family.base)).max(axis=1)
        j = int(np.argmin(dist))
        return j if dist[j] <= RESIDUAL_TOL else None

    def check(families):
        found = [branch_of(f) for f in families]
        ok = None not in found and sorted(found) == list(range(len(branches)))
        return _status(ok), {"solvents.branches": len(families)}

    return Job(f"certify triangular n={n}", lambda: ip.triangular_solvent_solve(T), check)


def certify_round(rng):
    """25 jobs: 9 pairs (n in {20, 30, 40}, k in {2, 4, 6}, l = 2), 7 solvents
    (n in 6..12), enumeration at n in {3, 3, 4, 4} and triangular solves at
    n in {3, 3, 4, 4, 5}."""
    jobs = [_certify_pair_job(rng, n, k) for k in (2, 4, 6) for n in (20, 30, 40)]
    jobs += [_certify_solvent_job(rng, n) for n in range(6, 13)]
    jobs += [_enumerate_job(rng, n) for n in (3, 3, 4, 4)]
    jobs += [_triangular_job(rng, n) for n in (3, 3, 4, 4, 5)]
    return jobs


WORKLOADS = {"extract": extract_round, "refine": refine_round, "certify": certify_round}


def build(workload, seed):
    """The workload's round of jobs, with every input made from `seed`."""
    return WORKLOADS[workload](np.random.default_rng(seed))

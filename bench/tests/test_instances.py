"""Tests of the benchmark's seeded input generator and answer checks.

Run with `python -m pytest bench/tests` from the repository root.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import instances as ins  # noqa: E402


def _matched_error(computed, expected):
    """Largest relative distance under greedy one-to-one matching."""
    left = list(computed)
    worst = 0.0
    for lam in expected:
        j = int(np.argmin([abs(c - lam) for c in left]))
        worst = max(worst, abs(left.pop(j) - lam) / max(1.0, abs(lam)))
    return worst


def _relative_residual(coeffs, X, S):
    acc = np.zeros(X.shape, dtype=complex)
    scale = 0.0
    power = X
    for A in coeffs:
        term = A @ power
        acc += term
        scale += np.linalg.norm(A) * np.linalg.norm(power)
        power = power @ S
    return np.linalg.norm(acc) / scale


@pytest.mark.parametrize("n,ell", [(4, 2), (6, 3), (10, 2)])
def test_spectrum_matches_companion(n, ell):
    problem = ins.pair_problem(np.random.default_rng(n + ell), n, ell)
    computed = np.linalg.eigvals(problem.companion())
    assert computed.shape == (ell * n,)
    assert _matched_error(computed, problem.spectrum()) < 1e-8


@pytest.mark.parametrize("hard,block", [("", False), ("inside", False), ("outside", False), ("", True)])
def test_extract_case_encloses_the_stated_eigenvalues(hard, block):
    case = ins.extract_case(np.random.default_rng(3), 8, 2, 3, hard=hard, block=block)
    spectrum = np.linalg.eigvals(case.problem.companion())
    assert _matched_error(spectrum, case.problem.spectrum()) < 1e-6
    inside = sorted(spectrum[np.abs(spectrum - case.center) < case.radius], key=lambda z: (z.real, z.imag))
    assert len(inside) == len(case.enclosed) == 3 + block * 2 + (hard == "inside")
    assert _matched_error(inside, case.enclosed) < 1e-6
    gaps = np.abs(np.abs(case.problem.spectrum() - case.center) - case.radius) / case.radius
    if hard:
        assert 0.1 <= gaps.min() <= 0.2
    else:
        assert gaps.min() >= 0.5


def test_block_case_eigenvalue_has_geometric_multiplicity_two():
    case = ins.extract_case(np.random.default_rng(5), 8, 2, 1, block=True)
    mu = case.enclosed[0]
    assert np.sum(np.isclose(case.enclosed, mu)) == 2
    P_mu = sum(A * mu ** j for j, A in enumerate(case.problem.coeffs))
    svals = np.linalg.svd(P_mu, compute_uv=False)
    assert svals[-2] < 1e-12 * svals[0] < svals[-3]


@pytest.mark.parametrize("n,ell,k", [(4, 2, 2), (20, 3, 6), (40, 2, 4)])
def test_exact_pair_and_solvent_residuals(n, ell, k):
    problem = ins.pair_problem(np.random.default_rng(n * k), n, ell)
    X, S = problem.exact_pair(k)
    assert _relative_residual(problem.coeffs, X, S) <= 1e-12
    solvent = problem.exact_solvent()
    eye = np.eye(n, dtype=complex)
    assert _relative_residual(problem.coeffs, eye, solvent) <= 1e-12


def test_eigenpairs_are_eigenpairs():
    problem = ins.pair_problem(np.random.default_rng(11), 4, 2)
    pairs = ins.eigenpairs(problem)
    assert len(pairs) == 8
    for lam, w in pairs:
        P_lam = sum(A * lam ** j for j, A in enumerate(problem.coeffs))
        assert np.linalg.norm(P_lam @ w) <= 1e-12 * np.linalg.norm(P_lam) * np.linalg.norm(w)


def test_triangular_case_diagonal_roots():
    case = ins.triangular_case(np.random.default_rng(2), 4)
    for i, (a, b) in enumerate(case.roots):
        diag = [T[i, i] for T in case.coeffs]
        for root in (a, b):
            assert abs(diag[0] + diag[1] * root + diag[2] * root ** 2) < 1e-12
    assert all(np.allclose(np.tril(T, -1), 0) for T in case.coeffs)


def _problem_arrays(p):
    return [*p.coeffs, p.Q, p.Z, p.U1, *p.factors, *p.triangles]


def _all_inputs(seed):
    rng = np.random.default_rng(seed)
    arrays = []
    for hard, block in (("", False), ("outside", False), ("", True)):
        case = ins.extract_case(rng, 8, 3, 2, hard=hard, block=block)
        arrays += _problem_arrays(case.problem) + [case.U, case.V, case.enclosed]
    problem = ins.pair_problem(rng, 6, 2)
    arrays += _problem_arrays(problem) + [ins.perturb(rng, problem.exact_pair(3)[0], 1e-3)]
    arrays += [w for _, w in ins.eigenpairs(ins.pair_problem(rng, 3, 2))]
    arrays += list(ins.triangular_case(rng, 3).coeffs)
    return arrays


def test_same_seed_gives_byte_identical_inputs():
    first, again, other = _all_inputs(7), _all_inputs(7), _all_inputs(8)
    assert [a.tobytes() for a in first] == [a.tobytes() for a in again]
    assert [a.tobytes() for a in first] != [a.tobytes() for a in other]


def test_gram_reference_matches_minimum_norm_solve():
    import jobs

    problem = ins.pair_problem(np.random.default_rng(4), 5, 2)
    X, S = problem.exact_pair(2)
    rng = np.random.default_rng(9)
    X, S = ins.perturb(rng, X, 1e-6), ins.perturb(rng, S, 1e-6)
    n = X.shape[0]
    blocks, R, power = [], np.zeros_like(X), X
    for A in problem.coeffs:
        blocks.append(np.linalg.norm(A) * np.kron(power.T, np.eye(n)))
        R += A @ power
        power = power @ S
    z, *_ = np.linalg.lstsq(np.hstack(blocks), -R.ravel(order="F"), rcond=None)
    assert math.isclose(jobs.gram_backward_error(problem.coeffs, X, S), np.linalg.norm(z), rel_tol=1e-9)


def test_traced_metrics_match_the_benchmark_definition():
    import spans

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(spans.METRICS)

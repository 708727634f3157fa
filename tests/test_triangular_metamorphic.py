"""Metamorphic checks of the upper triangular solvent solve.

The inputs are seeded monic quadratics whose diagonal polynomials have
pairwise distinct, separated roots (every branch then has a unique
solvent), and the `infinite_family_3x3_triangular` golden with its
contradictory branch and its one-parameter family.

- Diagonal similarity: D T(lambda) D^{-1} keeps the diagonal polynomials,
  so the branches keep their kinds and diagonals; a solvent S maps to
  D S D^{-1}, so the base maps to D base D^{-1} and each direction to
  D dir D^{-1}, up to the scale of its free parameter.
- Shift: T(lambda + beta) has the solvents S - beta I, so every diagonal
  moves by -beta, the base maps to base - beta I and the directions stay.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from invpairs import MatrixPolynomial, problems, triangular_solvent_solve

TOL = 1e-9


def _distinct_root_case(seed, n):
    """Monic quadratic with diagonal (lambda - a_i)(lambda - b_i), all 2n roots
    in the disk of radius 2 and at least 0.2 apart."""
    rng = np.random.default_rng(seed)
    roots = []
    while len(roots) < 2 * n:
        z = 2.0 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        if all(abs(z - r) >= 0.2 for r in roots):
            roots.append(z)
    T0, T1 = (np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1) * 0.5
              for _ in range(2))
    for i in range(n):
        a, b = roots[2 * i], roots[2 * i + 1]
        T0[i, i], T1[i, i] = a * b, -(a + b)
    return [T0, T1, np.eye(n, dtype=complex)]


def _coeffs(case):
    if case is None:
        return list(problems.infinite_family_3x3_triangular().coeffs)
    return _distinct_root_case(*case)


def _close(got, want):
    return np.abs(got - want).max() <= TOL * max(1.0, np.abs(want).max())


def _parallel(got, want):
    k = np.unravel_index(np.argmax(np.abs(want)), want.shape)
    return _close(got, want * (got[k] / want[k]))


def _check_mapped(got, want, diag_map, base_map, same_direction):
    assert [f.kind for f in got] == [f.kind for f in want]
    for g, w in zip(got, want):
        np.testing.assert_allclose(g.diagonal, diag_map(np.array(w.diagonal)), rtol=0, atol=TOL)
        if w.kind == "none":
            continue
        assert _close(g.base, base_map(w.base))
        assert len(g.directions) == len(w.directions)
        assert all(same_direction(gd, wd) for gd, wd in zip(g.directions, w.directions))


# None stands for the golden; otherwise (seed, n) of a distinct-root case
cases = st.one_of(st.none(), st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(2, 4)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(cases, st.data())
def test_diagonal_similarity_maps_families(case, data):
    coeffs = _coeffs(case)
    n = coeffs[0].shape[0]
    d = np.array(data.draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    want = triangular_solvent_solve(MatrixPolynomial(coeffs))
    got = triangular_solvent_solve(MatrixPolynomial([d[:, None] * A / d for A in coeffs]))
    similar = lambda M: d[:, None] * M / d
    _check_mapped(got, want, lambda x: x, similar, lambda g, w: _parallel(g, similar(w)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(cases, st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False))
def test_shift_moves_diagonals_and_bases(case, beta):
    coeffs = _coeffs(case)
    n, ell = coeffs[0].shape[0], len(coeffs) - 1
    # T(lambda + beta) = sum_k lambda^k sum_{p >= k} C(p, k) beta^(p - k) T_p
    shifted = [sum(math.comb(p, k) * beta ** (p - k) * coeffs[p] for p in range(k, ell + 1))
               for k in range(ell + 1)]
    want = triangular_solvent_solve(MatrixPolynomial(coeffs))
    got = triangular_solvent_solve(MatrixPolynomial(shifted))
    _check_mapped(got, want, lambda x: x - beta, lambda M: M - beta * np.eye(n), _close)

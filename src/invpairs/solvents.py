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

Both searches run on stacked arrays, not one small matrix at a time: the B
eigenpair subsets as a (B, n, n) stack of their W, the G diagonal branches
as one (G, 1, n, n) stack of affine stacks.  A stack holds B n^2 or G n^2
complex entries, with B <= MAX_SUBSETS and G <= BRANCH_CAP; one that would
exceed 16 MiB, which only large n reaches, is split into chunks.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matpoly import (
    MatrixPolynomial, _horner_at_matrix, _powers, companion_linearization, eval_matrix, eval_scalar,
)
from ._numeric import EPS, cluster_eigenvalues, numerical_rank, require_finite, require_tolerance

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

# Largest number of complex entries (16 MiB) in one stack of subset or branch
# matrices; longer enumerations and branch lists are solved in chunks.
_STACK_ENTRIES = 1 << 20

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
    """X D X^{-1} for a matrix or a stack of them, by a transposed solve instead of an inverse."""
    return np.swapaxes(np.linalg.solve(np.swapaxes(X, -1, -2), np.swapaxes(X @ D, -1, -2)), -1, -2)


def _chunks(items, n):
    """Consecutive slices of `items` whose stacks of n-by-n matrices fit in _STACK_ENTRIES."""
    size = max(1, _STACK_ENTRIES // (n * n))
    return [items[lo:lo + size] for lo in range(0, len(items), size)]


def _frobenius_norms(R):
    """||R_b||_F of every matrix of a C-ordered stack.

    Each (1, m) @ (m, 1) product is the strided dot np.linalg.norm(R_b, "fro")
    takes of the real and of the imaginary parts, so the values are its bits.
    """
    flat = R.reshape(len(R), 1, R.shape[-2] * R.shape[-1])
    re, im = flat.real, flat.imag
    return np.sqrt(re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)).ravel()


def solvent_from_pair(P, pair):
    """Solvent X S X^{-1} of an invariant pair with square invertible X."""
    X, S = np.asarray(pair.X, dtype=complex), np.asarray(pair.S, dtype=complex)
    n = P.n
    if X.shape != (n, n):
        raise ValueError(f"X is {X.shape[0]}-by-{X.shape[1]} (k={X.shape[1]}); a solvent needs a {n}-by-{n} X")
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
    combinations before any work is done.

    The subsets are evaluated as stacks: all B subsets' W as one (B, n, n)
    array, one stacked SVD for the gate, one stacked solve for the
    similarities and one Horner evaluation for the residuals.  A stack holds
    B n^2 complex entries; beyond 16 MiB (large n) it is split into chunks.
    Raises ValueError naming the eigenpair whose value or vector is not
    finite or whose vector does not have n entries.
    """
    n = P.n
    p = len(eigpairs)
    if p < n:
        raise ValueError(f"need at least n={n} eigenpairs, got {p}")
    if math.comb(p, n) > MAX_SUBSETS:
        raise ValueError(f"{math.comb(p, n)} subsets exceed the cap of {MAX_SUBSETS}")
    mu = np.array([complex(lam) for lam, _ in eigpairs])
    vectors = [np.ravel(np.asarray(w, dtype=complex)) for _, w in eigpairs]
    for i, w in enumerate(vectors):
        if w.shape != (n,):
            raise ValueError(f"eigenpair {i}: the vector has {w.size} entries, not n = {n}")
        require_finite(np.append(mu[i], w), f"eigenpair {i}")
    V = np.array(vectors)
    solvents, rejected = [], []
    for part in _chunks(list(itertools.combinations(range(p), n)), n):
        idx = np.array(part)
        W = np.swapaxes(V[idx], -1, -2)
        independent = numerical_rank(W) == n
        rejected += [c for c, ok in zip(part, independent) if not ok]
        idx, W = idx[independent], W[independent]
        D = np.zeros_like(W)
        D[:, range(n), range(n)] = mu[idx]
        S = _similarity(W, D)
        residuals = _frobenius_norms(_horner_at_matrix(P.coeffs, S))
        solvents += [Solvent(s, r) for s, r in zip(S, residuals)]
    return solvents, rejected


def _residual_scale(S):
    """max(||S||_F, 1), the denominator of a solvent's relative residual."""
    return max(float(np.linalg.norm(S, "fro")), 1.0)


def verify_solvent(P, S, tol=1e-8):
    """Residual and Bezout eigenpair checks of a candidate solvent.

    Reports ||P(S)||_F / max(||S||_F, 1), which does not blow up as S
    shrinks to 0, and, for every eigenpair (mu, w) of S, the residual
    ||P(mu) w||_2 / ||w||_2; a certified solvent keeps all of them within
    tol.  Raises ValueError when S has a NaN or infinite entry or tol is
    not finite and nonnegative.
    """
    require_tolerance(tol)
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


def _diagonal_roots(C):
    """Distinct roots of each diagonal polynomial sum_p C[p, i, i] z^p,
    multiple roots merged once.

    The polynomials of one degree share one stacked eigenvalue call on their
    companion matrices, which are built as numpy's polyroots builds them.
    """
    diags = np.diagonal(C, axis1=1, axis2=2).T
    nonzero = np.abs(diags) > 0
    degree = np.where(nonzero.any(axis=1), len(C) - 1 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    if not degree.all():
        raise ValueError("diagonal polynomial is constant; no roots to branch on")
    roots = [None] * len(diags)
    for d in np.unique(degree):
        rows = np.flatnonzero(degree == d)
        c = diags[rows, :d + 1]
        companion = np.zeros((len(rows), d, d), dtype=complex)
        companion[:, range(1, d), range(d - 1)] = 1
        companion[:, :, -1] -= c[:, :-1] / c[:, -1:]
        found = np.sort(np.linalg.eigvals(companion), axis=-1)
        for i, r in zip(rows, found):
            scale = max(1.0, float(np.abs(r).max()))
            roots[i] = [val for val, _ in cluster_eigenvalues(r, rel_tol=1e-8, scale=scale)]
    return roots


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
    whole superdiagonal.  On a stack with parameters each evaluation also
    takes the second difference in the parameters at seeded random values;
    where it exceeds the zero tolerance, the entry's equation holds a
    product of parameter-dependent entries that does not cancel, and
    NonAffineFamilyError is raised.

    The branches are solved together as one (G, 1, n, n) stack: each
    superdiagonal costs one stacked evaluation and one stacked update, and
    a, which depends only on the two diagonal roots, is taken once per pair
    of roots.  A branch whose entry is degenerate leaves with its changed
    stack and goes on alone from the next entry; its stack is evaluated
    again only if an entry is left to read the result.  The stack holds
    G n^2 complex entries; beyond 16 MiB (large n) it is split into chunks.

    Returns one TriangularSolventFamily per branch, in the deterministic
    order of the root product; more than BRANCH_CAP branches raise
    ValueError.
    """
    C = np.array(T.coeffs)
    if np.any(np.tril(C, -1)):
        raise ValueError("all coefficients must be upper triangular")
    zero_tol = math.sqrt(EPS) * max(1.0, float(np.abs(C).max()))

    n = T.n
    roots = _diagonal_roots(C)
    total = math.prod(len(r) for r in roots)
    if total > BRANCH_CAP:
        raise ValueError(f"{total} diagonal branches exceed the cap of {BRANCH_CAP}")
    choices = _chunks(list(itertools.product(*(range(len(r)) for r in roots))), n)
    diagonals = _chunks(list(itertools.product(*roots)), n)
    families = []
    for part, diags in zip(choices, diagonals):
        families += _solve_branches(C, roots, np.array(part), diags, zero_tol)
    return families


def _divided_difference(diag_coeffs, x, y):
    """sum_p c_p * h_{p-1}(x, y) with h the complete homogeneous sums."""
    total = 0.0 + 0.0j
    for p in range(1, len(diag_coeffs)):
        h = 0
        for r in range(p):
            h += x ** r * y ** (p - 1 - r)
        total += diag_coeffs[p] * h
    return total


def _entry_factors(C, roots, choices, zero_tol):
    """-1/a of the equation a x + b = 0 of every entry (i, j) on every branch,
    shaped (G, n, n); NaN where a is zero and the equation does not fix x.

    a depends only on the diagonal roots x_ii and x_jj, so it is taken once
    per pair of roots and gathered for the branches.
    """
    n = len(roots)
    width = max(len(r) for r in roots)
    table = np.full((n, width, n, width), np.nan, dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            for r, x in enumerate(roots[i]):
                for c, y in enumerate(roots[j]):
                    a = _divided_difference(C[:, i, i], x, y)
                    if abs(a) > zero_tol:
                        table[i, r, j, c] = -1.0 / a
    out = np.full((len(choices), n, n), np.nan, dtype=complex)
    iu, ju = np.triu_indices(n, 1)
    out[:, iu, ju] = table[iu, choices[:, iu], ju, choices[:, ju]]
    return out


def _affine_poly(C, S):
    """The affine part of sum_p C_p S^p for each affine stack S[g], by Horner.

    Returns a stack of stacks shaped like S, (G, 1 + q, n, n); the terms of
    degree >= 2 in the parameters are dropped.
    """
    acc = np.zeros_like(S)
    acc[:, 0] = C[-1]
    for Cp in C[-2::-1]:
        nxt = acc[:, :1] @ S
        if S.shape[1] > 1:
            nxt[:, 1:] += acc[:, 1:] @ S[:, :1]
        nxt[:, 0] += Cp
        acc = nxt
    return acc


def _second_difference(C, S):
    """|f(p + q) - f(p) - f(q) + f(0)| entrywise for f = sum_p C_p S^p over
    the parameters of each affine stack S[g], at seeded random p and q.

    An entry is roundoff where f is affine in the parameters, and almost
    surely is not otherwise.  The stacks must have parameters; returns a
    (G, n, n) array.
    """
    k = S.shape[1]
    rng = np.random.default_rng(_SECOND_DIFFERENCE_SEED)
    p, q = (rng.standard_normal(k - 1) + 1j * rng.standard_normal(k - 1) for _ in range(2))
    f = [_horner_at_matrix(C, S[:, 0] + np.tensordot(t, S[:, 1:], ([0], [1]))) for t in (p + q, p, q, 0 * p)]
    return np.abs(f[0] - f[1] - f[2] + f[3])


def _solve_branches(C, roots, choices, diagonals, zero_tol):
    """Families of the branches whose x_ii is roots[i][choices[g, i]], in order;
    diagonals[g] holds those roots.

    The branches start as one group, a (G, 1, n, n) stack of affine stacks,
    and each superdiagonal costs one stacked evaluation and one stacked
    update of its entries.  A branch whose entry is free (a = 0) leaves its
    group with its changed stack and goes on from the next entry as a group
    of one, evaluated again only if an entry is left to read the result.
    """
    G, n = choices.shape
    factors = _entry_factors(C, roots, choices, zero_tol)
    S = np.zeros((G, 1, n, n), dtype=complex)
    S[:, 0, range(n), range(n)] = diagonals
    families = [None] * G
    groups = [(np.arange(G), S, 1, 0)]
    while groups:
        members, S, span, start = groups.pop()
        while span < n and len(members):
            poly = _affine_poly(C, S)
            ii = np.arange(start, n - span)
            jj = ii + span
            inv = factors[members[:, None], ii, jj]
            free = np.isnan(inv)
            # a branch reads its entries up to the first free one, where it
            # leaves the group
            first = np.where(free.any(axis=1), free.argmax(axis=1), len(ii))
            position = np.arange(len(ii))
            if S.shape[1] > 1 and np.any(
                (_second_difference(C, S)[:, ii, jj] > zero_tol) & (position <= first[:, None])
            ):
                raise NonAffineFamilyError(
                    "product of two parameter-dependent entries; "
                    "the solvent family is not affine in its free parameters"
                )
            update = poly[:, :, ii, jj] * inv[:, None, :]
            leaving = first < len(ii)
            if leaving.any():
                # a leaving branch's later entries are read from its changed stack
                update = np.where((position < first[:, None])[:, None, :], update, 0)
            S[:, :, ii, jj] = update
            for m in np.flatnonzero(leaving):
                i = int(ii[first[m]])
                stack = _free_entry(S[m], poly[m, :, i, i + span], i, i + span, zero_tol)
                if stack is None:
                    families[members[m]] = TriangularSolventFamily(kind="none", diagonal=diagonals[members[m]])
                else:
                    resume = (span, i + 1) if i + 1 < n - span else (span + 1, 0)
                    groups.append((members[m:m + 1], stack[None], *resume))
            members, S = members[~leaving], S[~leaving]
            span, start = span + 1, 0
        for g, stack in zip(members, S):
            if len(stack) == 1:
                families[g] = TriangularSolventFamily(kind="unique", diagonal=diagonals[g], base=stack[0])
            else:
                families[g] = TriangularSolventFamily(
                    kind="affine-family", diagonal=diagonals[g], base=stack[0], directions=tuple(stack[1:])
                )
    return families


def _free_entry(S, b, i, j, zero_tol):
    """The affine stack S after entry (i, j) turns out free (a = 0), with b
    the entry's b; None when b is a nonzero constant and the branch dies."""
    if np.abs(b[1:]).sum() > zero_tol:
        # b depends on earlier parameters: the equation fixes one of them
        # (leaving this entry itself free) instead of this entry
        key = 1 + int(np.argmax(np.abs(b[1:])))
        value = np.delete(b, key) * (-1.0 / b[key])
        S = np.delete(S, key, 0) + value[:, None, None] * S[key]
    elif abs(b[0]) > zero_tol:
        return None
    S = np.concatenate([S, np.zeros((1, *S.shape[1:]), dtype=complex)])
    S[-1, i, j] = 1.0
    return S


def solvent_from_triangular(P, M, S_t, tol=1e-8):
    """Solvent of P recovered from a solvent of its triangularized form.

    M is the (caller-supplied) transformation for which M A M^{-1} is the
    block companion linearization of the upper triangular polynomial T
    equivalent to P; A is the companion linearization of P.  With Y_1 the
    leading n-by-n block of M^{-1} [I; S_t; ...; S_t^{ell-1}], the matrix
    S = Y_1 S_t Y_1^{-1} solves P(S) = 0.  The residual ||P(S)||_F is
    checked against tol times max(1, sum_j ||A_j||_F ||S||_F^j), the size of
    its roundoff; the returned Solvent carries it unscaled.  Raises
    ValueError unless tol is finite and nonnegative.
    """
    require_tolerance(tol)
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

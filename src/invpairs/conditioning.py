"""Condition numbers and backward errors for invariant pairs and solvents.

Perturbing each coefficient by ||Delta A_i||_F <= eps * alpha_i and expanding
P(X + DX, S + DS) to first order gives the linear map

    [B_X  B_S] [vec(DX); vec(DS)] = -B_A x,

with the Kronecker blocks

    B_X = sum_j (S^j)^T kron A_j,
    B_S = sum_j sum_{i<j} (S^{j-i-1})^T kron (A_j X S^i),
    B_A = [alpha_ell (X S^ell)^T kron I, ..., alpha_0 X^T kron I],

so the condition number is ||[B_X B_S]^+ B_A||_2 / ||[X; S]||_F.  B_X and
B_S are assembled blockwise from the stacked powers S^j, one matrix product
each, with no Kronecker temporaries.  The same B_A matrix, seen as the map
from scaled coefficient perturbations to the residual, yields the backward
error as a minimum-norm solve, sandwiched by the closed-form bounds with
||X S^i||_F and sigma_min(X S^i).  Solvents are the X = I, DX = 0
specialization.

B_A is never formed.  Up to a column permutation it is W^T kron I_n, where
W stacks the blocks alpha_i X S^i (alpha_i > 0) into a (#alpha)n-by-k
matrix, so

    B_A B_A^H = G kron I_n,    G = conj(W^H W) = L L^H,

with a k-by-k Gram matrix G.  One thin SVD W = U diag(s) V^H gives all of
it: the singular values of B_A are s, each repeated n times; the backward
error is ||P(X, S) V diag(s)^-1||_F; and ||[B_X B_S]^+ B_A||_2 equals
||[B_X B_S]^+ (L kron I_n)||_2 for L = conj(V) diag(s).  When J = [B_X B_S]
has full row rank and G is invertible, J^{+H} J^+ = (J J^H)^{-1} gives

    ||J^+ (L kron I_n)||_2 = 1 / sigma_min((L^{-1} kron I_n) J),

L^{-1} = diag(1/s) conj(V^H): one k-by-k product on J and its singular
values.  Where G is rank deficient or sigma_min <= sqrt(eps) sigma_max, the
pair falls back to an SVD of J and its pseudoinverse, the solvent to a
dense solve (a pseudoinverse when singular).  `perturbation_matrix` and
`solvent_perturbation_matrix` still assemble B_A explicitly, as the
reference the tests compare against.
"""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .matpoly import _as_square_complex, _powers, eval_matrix, eval_pair
from ._numeric import EPS, numerical_rank, rank_tolerance, require_finite

__all__ = [
    "WeightVector",
    "BackwardErrorReport",
    "frobenius_weights",
    "pair_jacobian",
    "perturbation_matrix",
    "pair_condition_number",
    "pair_backward_error",
    "solvent_jacobian",
    "solvent_perturbation_matrix",
    "solvent_condition_number",
    "solvent_backward_error",
]


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative perturbation weights alpha_0..alpha_ell.

    alpha_i = 0 means coefficient i is held exact; the corresponding block
    columns are dropped rather than zeroed, which avoids 0/0 in the scaled
    perturbation variables.
    """

    alphas: tuple

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        if not all(math.isfinite(a) for a in alphas):
            raise ValueError("weights must be finite")
        if any(a < 0 for a in alphas):
            raise ValueError("weights must be nonnegative")
        if not any(a > 0 for a in alphas):
            raise ValueError("at least one weight must be positive")
        object.__setattr__(self, "alphas", alphas)

    def __len__(self):
        return len(self.alphas)


def frobenius_weights(P):
    """The common choice alpha_i = ||A_i||_F."""
    return WeightVector(tuple(np.linalg.norm(A, "fro") for A in P.coeffs))


def _weights_for(P, w):
    if w is None:
        w = frobenius_weights(P)
    if len(w) != P.degree + 1:
        raise ValueError(f"need {P.degree + 1} weights, got {len(w)}")
    return w


def _kron_sum(F, G):
    """sum_j F_j^T kron G_j for stacks F (m, k, k), G (m, n, c): entry (a n + r, b c + s)
    is sum_j F_j[b, a] G_j[r, s], one (k^2 x m)(m x nc) product in block order."""
    m, k, _ = F.shape
    _, n, c = G.shape
    T = F.transpose(2, 1, 0).reshape(k * k, m) @ G.reshape(m, n * c)
    return T.reshape(k, k, n, c).transpose(0, 2, 1, 3).reshape(n * k, k * c)


def pair_jacobian(P, X, S):
    """Blocks (B_X, B_S) of the Frechet derivative of (X, S) -> P(X, S)."""
    X = np.asarray(X, dtype=complex)
    S = np.asarray(S, dtype=complex)
    pows = _powers(S, P.degree)
    return _kron_sum(pows, np.asarray(P.coeffs)), _ds_block(P, X, pows)


def _ds_factors(coeffs, X, S):
    """D_m = sum_i A_{m+1+i} X S^i for m = 0..ell-1 from the stack A_0..A_ell,
    by the Horner step D_m = A_{m+1} X + D_{m+1} S."""
    D = np.asarray(coeffs[1:]) @ X
    for m in range(len(D) - 2, -1, -1):
        D[m] += D[m + 1] @ S
    return D


def _ds_block(P, X, pows):
    """B_S = sum_j sum_{i<j} (S^{j-i-1})^T kron (A_j X S^i), given pows = S^0..S^ell.

    Grouped by m = j - i - 1, B_S = sum_m (S^m)^T kron D_m with the
    _ds_factors D_m.
    """
    return _kron_sum(pows[:-1], _ds_factors(P.coeffs, X, pows[1]))


def perturbation_matrix(P, X, S, w=None):
    """Weighted block row [alpha_ell (X S^ell)^T kron I ... alpha_0 X^T kron I].

    Columns belonging to alpha_i = 0 are omitted.  This matrix maps the
    stacked scaled perturbations vec(Delta A_i)/alpha_i to vec of the induced
    residual, and doubles as the H matrix of the backward error.
    """
    X = np.asarray(X, dtype=complex)
    S = np.asarray(S, dtype=complex)
    w = _weights_for(P, w)
    n = P.n
    ell = P.degree
    pows = _powers(S, ell)
    eye = np.eye(n)
    blocks = []
    for i in range(ell, -1, -1):
        if w.alphas[i] == 0.0:
            continue
        blocks.append(w.alphas[i] * np.kron((X @ pows[i]).T, eye))
    return np.hstack(blocks)


class _Gram(NamedTuple):
    """Checked (X, S) and the thin SVD of W = [alpha_i X S^i] over alpha_i > 0."""

    X: np.ndarray
    S: np.ndarray
    terms: list  # (i, alpha_i, X S^i) for each alpha_i > 0, i ascending
    s: np.ndarray
    Vh: np.ndarray
    full_rank: bool  # B_A has full row rank nk under numerical_rank's cutoff

    def kron_factor(self):
        """L kron I_n with L L^H = G: nk-by-rn with r = len(s), in place of B_A."""
        return np.kron(self.Vh.T * self.s, np.eye(self.X.shape[0]))


def _checked_pair(P, X, S):
    """(X, S) as complex arrays; ValueError unless X is n-by-k (k >= 1), S is
    k-by-k and both are finite."""
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError(f"X must be an n-by-k matrix with k >= 1, got shape {X.shape}")
    if X.shape[0] != P.n:
        raise ValueError(f"X has {X.shape[0]} rows, polynomial acts on C^{P.n}")
    S = _as_square_complex(S, X.shape[1], what="S")
    return require_finite(X, "X"), require_finite(S, "S")


def _gram(P, X, S, w):
    X, S = _checked_pair(P, X, S)
    w = _weights_for(P, w)
    pows = _powers(S, P.degree)
    terms = [(i, a, X @ pows[i]) for i, a in enumerate(w.alphas) if a != 0.0]
    W = np.vstack([a * XSi for _, a, XSi in terms])
    _, s, Vh = np.linalg.svd(W, full_matrices=False)
    # the cutoff numerical_rank applies to the nk-by-(#alpha)n^2 matrix B_A
    n, k = X.shape
    tol = max(n * k, len(terms) * n * n) * EPS * s[0]
    return _Gram(X, S, terms, s, Vh, s.size == k and bool(s[-1] > tol))


def _scaled_smin(g, J):
    """sigma_min((L^{-1} kron I_n) J), or None unless G is invertible and it
    exceeds sqrt(eps) sigma_max.  J's rows are a n + r for residual entry (r, a)."""
    if not g.full_rank:
        return None
    K = (np.conj(g.Vh) / g.s[:, None]) @ J.reshape(g.s.size, -1)
    sv = np.linalg.svd(K.reshape(J.shape), compute_uv=False)
    return sv[-1] if sv[-1] > math.sqrt(EPS) * sv[0] else None


def pair_condition_number(P, X, S, w=None):
    """Normwise condition number of a simple invariant pair.

    kappa = ||[B_X B_S]^+ B_A||_2 / ||[X; S]||_F, evaluated as
    1 / sigma_min((L^{-1} kron I) [B_X B_S]) over ||[X; S]||_F.  Where that
    is declined, one SVD of [B_X B_S] gives the rank test and the
    pseudoinverse, with numpy's pinv cutoff.  A rank-deficient Jacobian
    (the pair is far from simple) only warns; the pseudoinverse is still
    well defined.
    """
    g = _gram(P, X, S, w)
    J = np.hstack(pair_jacobian(P, g.X, g.S))
    denom = math.hypot(np.linalg.norm(g.X, "fro"), np.linalg.norm(g.S, "fro"))
    smin = _scaled_smin(g, J)
    if smin is not None:
        return float(1.0 / (smin * denom))
    U, sj, _ = np.linalg.svd(J, full_matrices=False)
    if np.count_nonzero(sj > rank_tolerance(J, sj)) < J.shape[0]:
        warnings.warn("[B_X B_S] is rank deficient; the pair is not simple", stacklevel=2)
    inv = np.divide(1.0, sj, out=np.zeros_like(sj), where=sj > 1e-15 * sj[0])
    M = inv[:, None] * (U.conj().T @ g.kron_factor())
    return float(np.linalg.norm(M, 2) / denom)


@dataclass(frozen=True)
class BackwardErrorReport:
    """Backward error eta with its closed-form lower and upper bounds.

    eta is None when the H matrix is rank deficient and only the bounds are
    meaningful; a bound with vanishing denominator is reported as +inf.
    """

    eta: Optional[float]
    lower: float
    upper: float


def _backward_error(g, residual, norm_terms, smin_terms):
    resnorm = float(np.linalg.norm(residual, "fro"))
    low_den = math.sqrt(sum(norm_terms))
    up_den = math.sqrt(sum(smin_terms))
    lower = resnorm / low_den if low_den > 0 else math.inf
    upper = resnorm / up_den if up_den > 0 else math.inf
    eta = None
    if g.full_rank:
        # ||H^+ r||^2 = <R, R G^{-T}> and G^{-T} = V diag(s)^-2 V^H
        eta = float(np.linalg.norm((residual @ g.Vh.conj().T) / g.s, "fro"))
    return BackwardErrorReport(eta=eta, lower=lower, upper=upper)


def pair_backward_error(P, X, S, w=None):
    """Smallest weighted coefficient perturbation making (X, S) exact.

    eta = ||H^+ r||_2 with r = -vec(P(X, S)), computed through the k-by-k
    Gram matrix of H; the bounds replace H by its extreme singular values,
    giving denominators with ||X S^i||_F (lower) and sigma_min(X S^i)
    (upper).
    """
    g = _gram(P, X, S, w)
    residual = eval_pair(P, (g.X, g.S))
    norm_terms, smin_terms = [], []
    for _, a, XSi in g.terms:
        norm_terms.append(a ** 2 * np.linalg.norm(XSi, "fro") ** 2)
        # lambda_min of (XS^i)^T conj(XS^i) is zero whenever k > n
        smin = 0.0 if XSi.shape[1] > XSi.shape[0] else float(np.linalg.svd(XSi, compute_uv=False)[-1])
        smin_terms.append(a ** 2 * smin ** 2)
    return _backward_error(g, residual, norm_terms, smin_terms)


def solvent_jacobian(P, S):
    """Matrix of the Frechet derivative DS -> sum_j A_j DS^j-expansion at a solvent.

    Bhat_S = sum_j sum_{i<j} (S^{j-i-1})^T kron (A_j S^i), the X = I
    specialization of the pair Jacobian with the DX block removed.
    """
    S = np.asarray(S, dtype=complex)
    return _ds_block(P, np.eye(S.shape[0], dtype=complex), _powers(S, P.degree))


def solvent_perturbation_matrix(P, S, w=None):
    """Weighted block row [alpha_ell (S^ell)^T kron I ... alpha_0 I]."""
    S = np.asarray(S, dtype=complex)
    return perturbation_matrix(P, np.eye(P.n, dtype=complex), S, w)


def solvent_condition_number(P, S, w=None):
    """kappa(S) = ||Bhat_S^{-1} Bhat_A||_2 / ||S||_F for a matrix solvent.

    Evaluated as 1 / sigma_min((L^{-1} kron I) Bhat_S) over ||S||_F, as for
    pairs.  Where that is declined, an SVD rank test picks a dense solve or,
    for a singular Bhat_S, a warning and the pseudoinverse.
    """
    g = _gram(P, np.eye(P.n, dtype=complex), S, w)
    B_S = solvent_jacobian(P, g.S)
    denom = np.linalg.norm(g.S, "fro")
    smin = _scaled_smin(g, B_S)
    if smin is not None:
        return float(1.0 / (smin * denom))
    LI = g.kron_factor()
    if numerical_rank(B_S) < B_S.shape[0]:
        warnings.warn("solvent Jacobian is singular; using a pseudoinverse", stacklevel=2)
        M = np.linalg.pinv(B_S) @ LI
    else:
        M = np.linalg.solve(B_S, LI)
    return float(np.linalg.norm(M, 2) / denom)


def solvent_backward_error(P, T, w=None):
    """Backward error of an approximate solvent T, with closed-form bounds.

    The i = 0 term contributes alpha_0^2 * sigma(I)^2 = alpha_0^2 to both
    denominators since both bounds come from the extreme singular values of
    H rather than from ||I||_F.
    """
    g = _gram(P, np.eye(P.n, dtype=complex), T, w)
    residual = eval_matrix(P, g.S)
    norm_terms, smin_terms = [], []
    for i, a, Ti in g.terms:
        if i == 0:
            norm_terms.append(a ** 2)
            smin_terms.append(a ** 2)
            continue
        norm_terms.append(a ** 2 * np.linalg.norm(Ti, "fro") ** 2)
        smin_terms.append(a ** 2 * float(np.linalg.svd(Ti, compute_uv=False)[-1]) ** 2)
    return _backward_error(g, residual, norm_terms, smin_terms)

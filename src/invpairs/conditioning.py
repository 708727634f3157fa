"""Condition numbers and backward errors for invariant pairs and solvents.

Perturbing each coefficient by ||Delta A_i||_F <= eps * alpha_i and expanding
P(X + DX, S + DS) to first order gives the linear map

    [B_X  B_S] [vec(DX); vec(DS)] = -B_A x,

with the Kronecker blocks

    B_X = sum_j (S^j)^T kron A_j,
    B_S = sum_j sum_{i<j} (S^{j-i-1})^T kron (A_j X S^i),
    B_A = [alpha_ell (X S^ell)^T kron I, ..., alpha_0 X^T kron I],

so the condition number is ||[B_X B_S]^+ B_A||_2 / ||[X; S]||_F.  The same
B_A matrix, seen as the map from scaled coefficient perturbations to the
residual, yields the backward error as a minimum-norm solve, sandwiched by
the closed-form bounds with ||X S^i||_F and sigma_min(X S^i).  Solvents are
the X = I, DX = 0 specialization.

The blocks are assembled explicitly as dense matrices: at desk scale
(nk rows up to a few hundred) fidelity to the formulas beats scalability.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matpoly import eval_matrix, eval_pair
from ._numeric import numerical_rank

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


def _powers(S, ell):
    k = S.shape[0]
    pows = [np.eye(k, dtype=complex)]
    for _ in range(ell):
        pows.append(pows[-1] @ S)
    return pows


def pair_jacobian(P, X, S):
    """Blocks (B_X, B_S) of the Frechet derivative of (X, S) -> P(X, S)."""
    X = np.asarray(X, dtype=complex)
    S = np.asarray(S, dtype=complex)
    n, k = X.shape
    ell = P.degree
    pows = _powers(S, ell)
    B_X = np.zeros((n * k, n * k), dtype=complex)
    for j in range(ell + 1):
        B_X += np.kron(pows[j].T, P.coeffs[j])
    return B_X, _ds_block(P, X, pows)


def _ds_block(P, X, pows):
    """B_S = sum_j sum_{i<j} (S^{j-i-1})^T kron (A_j X S^i), given pows = S^0..S^ell."""
    n, k = X.shape
    B_S = np.zeros((n * k, k * k), dtype=complex)
    for j in range(1, P.degree + 1):
        for i in range(j):
            B_S += np.kron(pows[j - i - 1].T, P.coeffs[j] @ X @ pows[i])
    return B_S


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


def pair_condition_number(P, X, S, w=None):
    """Normwise condition number of a simple invariant pair.

    kappa = ||[B_X B_S]^+ B_A||_2 / ||[X; S]||_F.  The pseudoinverse product
    is formed explicitly and its 2-norm taken by SVD.  A rank-deficient
    Jacobian (the pair is far from simple) only warns; the pseudoinverse is
    still well defined.
    """
    X = np.asarray(X, dtype=complex)
    S = np.asarray(S, dtype=complex)
    B_X, B_S = pair_jacobian(P, X, S)
    J = np.hstack([B_X, B_S])
    if numerical_rank(J) < J.shape[0]:
        warnings.warn("[B_X B_S] is rank deficient; the pair is not simple", stacklevel=2)
    B_A = perturbation_matrix(P, X, S, w)
    M = np.linalg.pinv(J) @ B_A
    denom = math.hypot(np.linalg.norm(X, "fro"), np.linalg.norm(S, "fro"))
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


def _backward_error(P, H, residual, norm_terms, smin_terms):
    resnorm = float(np.linalg.norm(residual, "fro"))
    low_den = math.sqrt(sum(norm_terms))
    up_den = math.sqrt(sum(smin_terms))
    lower = resnorm / low_den if low_den > 0 else math.inf
    upper = resnorm / up_den if up_den > 0 else math.inf
    eta = None
    if numerical_rank(H) == H.shape[0]:
        z, *_ = np.linalg.lstsq(H, -residual.ravel(order="F"), rcond=None)
        eta = float(np.linalg.norm(z))
    return BackwardErrorReport(eta=eta, lower=lower, upper=upper)


def pair_backward_error(P, X, S, w=None):
    """Smallest weighted coefficient perturbation making (X, S) exact.

    eta = ||H^+ r||_2 with r = -vec(P(X, S)); the bounds replace H by its
    extreme singular values, giving denominators with ||X S^i||_F (lower)
    and sigma_min(X S^i) (upper).
    """
    X = np.asarray(X, dtype=complex)
    S = np.asarray(S, dtype=complex)
    w = _weights_for(P, w)
    residual = eval_pair(P, (X, S))
    H = perturbation_matrix(P, X, S, w)
    pows = _powers(S, P.degree)
    norm_terms, smin_terms = [], []
    for i, a in enumerate(w.alphas):
        if a == 0.0:
            continue
        XSi = X @ pows[i]
        norm_terms.append(a ** 2 * np.linalg.norm(XSi, "fro") ** 2)
        # lambda_min of (XS^i)^T conj(XS^i) is zero whenever k > n
        smin = 0.0 if XSi.shape[1] > XSi.shape[0] else float(np.linalg.svd(XSi, compute_uv=False)[-1])
        smin_terms.append(a ** 2 * smin ** 2)
    return _backward_error(P, H, residual, norm_terms, smin_terms)


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
    """kappa(S) = ||Bhat_S^{-1} Bhat_A||_2 / ||S||_F for a matrix solvent."""
    S = np.asarray(S, dtype=complex)
    B_S = solvent_jacobian(P, S)
    B_A = solvent_perturbation_matrix(P, S, w)
    if numerical_rank(B_S) < B_S.shape[0]:
        warnings.warn("solvent Jacobian is singular; using a pseudoinverse", stacklevel=2)
        M = np.linalg.pinv(B_S) @ B_A
    else:
        M = np.linalg.solve(B_S, B_A)
    return float(np.linalg.norm(M, 2) / np.linalg.norm(S, "fro"))


def solvent_backward_error(P, T, w=None):
    """Backward error of an approximate solvent T, with closed-form bounds.

    The i = 0 term contributes alpha_0^2 * sigma(I)^2 = alpha_0^2 to both
    denominators since both bounds come from the extreme singular values of
    H rather than from ||I||_F.
    """
    T = np.asarray(T, dtype=complex)
    w = _weights_for(P, w)
    residual = eval_matrix(P, T)
    H = solvent_perturbation_matrix(P, T, w)
    pows = _powers(T, P.degree)
    norm_terms, smin_terms = [], []
    for i, a in enumerate(w.alphas):
        if a == 0.0:
            continue
        if i == 0:
            norm_terms.append(a ** 2)
            smin_terms.append(a ** 2)
            continue
        Ti = pows[i]
        norm_terms.append(a ** 2 * np.linalg.norm(Ti, "fro") ** 2)
        smin_terms.append(a ** 2 * float(np.linalg.svd(Ti, compute_uv=False)[-1]) ** 2)
    return _backward_error(P, H, residual, norm_terms, smin_terms)

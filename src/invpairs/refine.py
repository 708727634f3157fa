"""Newton refinement of invariant pairs and solvents with exact line search.

Each iteration solves the correction equation

    DP_(X,S)(DX, DS) = -P(X, S),

which has nk rows and nk + k^2 unknowns, together with the k^2 rows of the
block-Newton normalization W^H DV_ell(DX, DS) = 0, W an orthonormal basis of
V_ell(X, S) = [X; XS; ...; XS^(ell-1)] at the iterate (Kressner 2009).  In
the Schur basis of S the bordered system splits into k column solves of
size n + k, at O(k (n+k)^3) instead of O((nk)^3), each one LAPACK gesv
call.  The residual P(X, S) of an iterate is evaluated once, for both the
residual history and the right-hand side of the correction.
newton_correction keeps the minimum-norm solution of the unnormalized
equation through the Kronecker blocks [B_X B_S], assembled blockwise, by
one SVD-based lstsq that also decides the rank and warns below nk.  It is
the reference for the structured step and the fallback where a column
system is singular.
The iteration then picks the step length t in [0, 2] minimizing
the squared residual along the step,

    p(t) = ||P(X + t dX, S + t dS)||_F^2.

P(X + t dX, S + t dS) = sum_d t^d C_d is a matrix polynomial of degree
ell + 1 in t, with C_0 = P(X, S) and C_1 = DP_(X,S)(dX, dS).  Its
coefficients come from the running products (X + t dX)(S + t dS)^j, so
p(t) = sum_{d,e} t^(d+e) Re<C_d, C_e> holds exactly for every degree.  The
paper's six-term form of p, built from two contour integrals and exact for
degree <= 2, is the reference reached by passing a contour to
line_search_poly.  A solvent S is refined as the pair (I, S) with DX = 0 by
the same loop and the same column solves, without the border.  Its residual
is P(S) by Horner, evaluated once per iterate for the history, the
right-hand side and the returned Solvent's residual; it is the residual
verify_solvent reads.  Plain Newton is the t = 1 special case.

The Schur form, the basis W, the column solves and the roots of p'(t) come
from LAPACK called directly (gees, geqrf and ungqr, gesv, geev), with the
workspace queries and checks of the numpy and scipy wrappers they replace,
so each returns those wrappers' bits.
"""

import time
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from .conditioning import _checked_pair, _ds_factors, pair_jacobian, solvent_jacobian
from .contour import Contour
from .matpoly import InvariantPair, _as_square_complex, _powers, eval_matrix, eval_pair, eval_scalar
from .solvents import Solvent, _residual_scale
from ._numeric import require_finite, require_integer, require_tolerance

__all__ = [
    "RefinementReport",
    "StepPolynomial",
    "NewtonCorrection",
    "frechet_apply",
    "newton_correction",
    "line_search_poly",
    "minimize_step",
    "refine_pair",
    "refine_solvent",
    "default_line_search_contour",
]

# on the small systems of one Newton iterate the numpy and scipy wrappers
# cost more than the LAPACK arithmetic
_GESV, _GEES, _GEQRF, _UNGQR = get_lapack_funcs(("gesv", "gees", "geqrf", "ungqr"), dtype=complex)
_GEEV, _GEEV_LWORK = get_lapack_funcs(("geev", "geev_lwork"), dtype=float)


@dataclass(frozen=True)
class RefinementReport:
    """Per-iteration record of a Newton run.

    residual_history holds the relative residuals ||P(X_k, S_k)||_F / ||X_k||_F
    (||P(S_k)||_F / max(||S_k||_F, 1) for solvents), one more than iterations.
    """

    iterations: int
    residual_history: tuple
    step_lengths: tuple
    converged: bool
    wall_time: float

    def __post_init__(self):
        if len(self.residual_history) != self.iterations + 1:
            raise ValueError("residual_history must have iterations + 1 entries")
        if len(self.step_lengths) != self.iterations:
            raise ValueError("step_lengths must have one entry per iteration")


class StepPolynomial:
    """The line-search polynomial p(t), held as monomial coefficients.

    StepPolynomial(coefficients) takes c_0..c_D, lowest order first, of any
    degree.  The paper's six-term form

        p(t) = (1-t)^2 alpha + t^4 theta + t^6 phi
             + t^2 (1-t) beta + t^3 (1-t) gamma + t^5 eta

    is built by keyword, StepPolynomial(alpha=..., beta=..., theta=...), and
    keeps its six values in `terms` (None for the coefficient form).
    """

    def __init__(self, coefficients=None, *, alpha=0.0, beta=0.0, theta=0.0,
                 gamma=0.0, eta=0.0, phi=0.0):
        self.terms = None
        if coefficients is None:
            self.terms = dict(alpha=alpha, beta=beta, theta=theta, gamma=gamma, eta=eta, phi=phi)
            for name in ("alpha", "theta", "phi"):
                if self.terms[name] < 0:
                    raise ValueError(f"{name} is a squared norm and must be nonnegative")
            coefficients = (alpha, -2 * alpha, alpha + beta, gamma - beta, theta - gamma, eta, phi)
        self._coeffs = np.array(coefficients, dtype=float)
        self._coeffs.setflags(write=False)

    def coefficients(self):
        """Monomial coefficients c_0..c_D of p, lowest order first."""
        return self._coeffs

    def __call__(self, t):
        # Horner, as numpy.polynomial.polynomial.polyval runs it
        c, t = self._coeffs, np.asarray(t, dtype=float)
        value = c[-1] + t * 0
        for coeff in c[-2::-1]:
            value = coeff + value * t
        return value


class NewtonCorrection(NamedTuple):
    dX: np.ndarray
    dS: np.ndarray
    solve_residual: float
    jacobian_rank: int


def _step_expansion(P, X, S, dX, dS):
    """Coefficients C_0..C_{ell+1} of P(X + t dX, S + t dS) = sum_d t^d C_d.

    Y_j(t) = (X + t dX)(S + t dS)^j is carried as its stack of coefficients
    and advanced by Y_{j+1} = Y_j S + t Y_j dS; then C = sum_j A_j Y_j.
    Returns an (ell + 2, n, k) array.
    """
    X, S, dX, dS = (np.asarray(a, dtype=complex) for a in (X, S, dX, dS))
    Y = np.zeros((P.degree + 2,) + X.shape, dtype=complex)
    Y[0], Y[1] = X, dX
    C = P.coeffs[0] @ Y
    for A in P.coeffs[1:]:
        shifted = Y[:-1] @ dS
        Y = Y @ S
        Y[1:] += shifted
        C += A @ Y
    return C


def frechet_apply(P, X, S, dX, dS):
    """Directional derivative of P at (X, S) in direction (dX, dS).

    This is the t^1 coefficient of P(X + t dX, S + t dS), i.e.
    sum_j A_j dX S^j + sum_j A_j X (sum_i S^i dS S^{j-i-1}).
    """
    return _step_expansion(P, X, S, dX, dS)[1]


def newton_correction(P, X, S):
    """Minimum-norm least-squares solution of the pair correction equation.

    One SVD-based lstsq solve of [B_X B_S] [vec dX; vec dS] = -vec P(X, S).
    Returns the correction along with the residual of the linear solve and
    the numerical rank of [B_X B_S]; a rank below nk (pair far from simple)
    warns but still returns the pseudoinverse solution.  refine_pair takes
    its steps from the normalized Schur-structured correction and falls back
    to this one where a column system of that correction is singular; it
    also serves as the reference the structured correction is tested against.
    Raises ValueError unless X is n-by-k, S is k-by-k and both are finite.
    """
    X, S = _checked_pair(P, X, S)
    n, k = X.shape
    B_X, B_S = pair_jacobian(P, X, S)
    J = np.hstack([B_X, B_S])
    rhs = -eval_pair(P, (X, S)).ravel(order="F")
    sol, _, rank, _ = np.linalg.lstsq(J, rhs, rcond=None)
    if rank < n * k:
        warnings.warn(
            f"correction Jacobian has rank {rank} < {n * k}; pair is far from simple",
            stacklevel=2,
        )
    dX = sol[: n * k].reshape((n, k), order="F")
    dS = sol[n * k:].reshape((k, k), order="F")
    return NewtonCorrection(dX, dS, float(np.linalg.norm(J @ sol - rhs)), int(rank))


def _triangular_columns(E, T, rhs):
    """Solution Z of sum_j E_j Z T^j = rhs for upper triangular T, or None if singular.

    Column c solves (sum_j t_cc^j E_j) z_c = rhs_c by one LAPACK gesv call
    and then removes its terms sum_j E_j z_c (T^j)[c, d] from the right-hand
    sides of the later columns d.  None when gesv finds a column system
    exactly singular (info > 0) or a column's solution is not finite.
    """
    pows = _powers(T, len(E) - 1)
    flat = E.reshape(len(E), -1)
    Z = np.array(rhs, dtype=complex)
    for c in range(len(T)):
        K = (pows[:, c, c] @ flat).reshape(E.shape[1:])
        _, _, Z[:, c], info = _GESV(K, Z[:, c], overwrite_a=True)
        # here, not once at the end: an inf in z_c turns the later updates into NaN with warnings
        if info > 0 or not np.isfinite(Z[:, c]).all():
            return None
        if c + 1 < len(T):
            Z[:, c + 1:] -= (E @ Z[:, c]).T @ pows[:, c, c + 1:]
    return Z


def _schur_correction(P, X, S, R):
    """Newton correction normalized by W^H DV_ell(dX, dS) = 0, or None if singular.

    In the Schur basis S = Q T Q^H, X' = X Q, W is an orthonormal basis of
    V_ell(X', T) = [X'; X'T; ...; X'T^(ell-1)], and the bordered coefficients
    Ahat_j = [A_j; W_j^H] (W_ell = 0) turn the normalized equation into
    sum_j [Ahat_j | D_j] [dX'; dS'] T^j = [-P(X, S) Q; 0], with the
    _ds_factors D_j of (Ahat, X', T) and D_ell = 0: k bordered column solves
    of size n + k.  R is the residual P(X, S).
    """
    n, k = X.shape
    ell = P.degree
    T, Q = _schur(S)
    Xq = X @ Q
    V = (Xq @ _powers(T, ell - 1)).reshape(ell * n, k)
    # Q factor of V, as np.linalg.qr computes it
    V, tau = _GEQRF(V, lwork=int(_GEQRF(V, lwork=-1)[2][0].real))[:2]
    W = _UNGQR(V, tau, lwork=int(_UNGQR(V, tau, lwork=-1)[1][0].real))[0].reshape(ell, n, k)
    E = np.zeros((ell + 1, n + k, n + k), dtype=complex)
    E[:, :n, :n] = P.coeffs
    E[:ell, n:, :n] = W.conj().transpose(0, 2, 1)
    E[:ell, :, n:] = _ds_factors(E[:, :, :n], Xq, T)
    rhs = np.zeros((n + k, k), dtype=complex)
    # P(X, S) Q, not P(X', T): T equals Q^H S Q only to roundoff in S, which
    # near a pair is large against the residual
    rhs[:n] = -R @ Q
    Z = _triangular_columns(E, T, rhs)
    return None if Z is None else (Z[:n] @ Q.conj().T, Q @ Z[n:] @ Q.conj().T)


def _schur(S):
    """Complex Schur form (T, Q) of S, as scipy.linalg.schur computes and checks it."""
    S = np.asarray_chkfinite(S, dtype=complex)
    # sort_t = 0: the select callback is never called
    lwork = int(_GEES(lambda _: None, S, lwork=-1)[-2][0].real)
    T, _, _, Q, _, info = _GEES(lambda _: None, S, lwork=lwork)
    if info:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return T, Q


def _solvent_correction(P, S, R):
    """Solvent correction dS, or None if singular: with S = Q T Q^H and R = P(S),
    the pair equation at X' = Q without the border, sum_m D_m dS' T^m = -R Q
    for the _ds_factors D_m of (A, Q, T), and dS = Q dS' Q^H."""
    T, Q = _schur(S)
    dS = _triangular_columns(_ds_factors(P.coeffs, Q, T), T, -R @ Q)
    return None if dS is None else Q @ dS @ Q.conj().T


def default_line_search_contour(S):
    """Circle centered at the mean of eig(S) with 1.5x the spectral spread, 128 nodes.

    Any circle strictly enclosing the spectrum of S works for the step
    integrals; this one hugs the spectrum.  A unit radius is substituted
    when all eigenvalues coincide.  128 nodes push the quadrature error of
    the step integrals to roundoff even at the 1.5x pole distance ratio
    ((1/1.5)^N would be only ~2e-11 at N = 64); the per-node cost is a k-by-k
    solve, so the headroom is cheap.
    """
    vals = np.linalg.eigvals(np.asarray(S, dtype=complex))
    center = complex(vals.mean())
    spread = float(np.abs(vals - center).max())
    radius = 1.5 * spread if spread > 1e-8 * (1.0 + abs(center)) else 1.0
    return Contour(center, radius, 128)


def _resolvent_factors(S, contour):
    k = S.shape[0]
    vals = np.linalg.eigvals(S)
    dist = np.abs(vals - contour.center)
    if np.any(dist >= contour.radius):
        raise ValueError("contour must strictly enclose the spectrum of S")
    if np.any(np.abs(dist - contour.radius) < 1e-12 * max(1.0, contour.radius)):
        raise ValueError("an eigenvalue of S sits on the contour")
    z, w = contour.points()
    return z, w, [lu_factor(zj * np.eye(k) - S) for zj in z]


def line_search_poly(P, X, S, dX, dS, contour=None):
    """Step polynomial p(t) = ||P(X + t dX, S + t dS)||_F^2.

    Without a contour, p is exact at every degree: its coefficients are the
    anti-diagonal sums c_m = sum_{d+e=m} Re<C_d, C_e> of the Gram matrix of
    the expansion coefficients C_0..C_{ell+1}.

    With a contour, the paper's six-term form is built from the residual and
    A = (1/2 pi i) oint P(z) [dX + X R dS] R dS R dz,
    B = (1/2 pi i) oint P(z) dX R dS R dS R dz with R = (zI - S)^{-1};
    quadrature nodes share one LU factorization of (zI - S) per node.  It
    is exact for degree <= 2 and serves as the reference there.
    """
    if contour is None:
        C = _step_expansion(P, X, S, dX, dS)
        F = C.reshape(len(C), -1)
        gram = (F.conj() @ F.T).real
        coeffs = np.zeros(2 * len(C) - 1)
        for d, row in enumerate(gram):
            coeffs[d:d + len(C)] += row
        return StepPolynomial(coeffs)
    X, S, dX, dS = (np.asarray(a, dtype=complex) for a in (X, S, dX, dS))
    z, w, lus = _resolvent_factors(S, contour)
    n, k = X.shape
    A = np.zeros((n, k), dtype=complex)
    B = np.zeros((n, k), dtype=complex)
    for j in range(contour.nodes):
        Pz = eval_scalar(P, z[j])
        RdS = lu_solve(lus[j], dS)                       # R dS
        RdSR = lu_solve(lus[j], RdS.T, trans=1).T        # R dS R via (zI-S)^T solve
        A += w[j] * (Pz @ (dX + X @ RdS) @ RdSR)
        B += w[j] * (Pz @ dX @ RdS @ RdSR)
    res = eval_pair(P, (X, S))
    return StepPolynomial(
        alpha=float(np.linalg.norm(res, "fro") ** 2),
        beta=float(2 * np.real(np.vdot(res, A))),
        gamma=float(2 * np.real(np.vdot(res, B))),
        theta=float(np.linalg.norm(A, "fro") ** 2),
        eta=float(2 * np.real(np.vdot(A, B))),
        phi=float(np.linalg.norm(B, "fro") ** 2),
    )


def solvent_step_poly(P, S, dS, contour=None):
    """Step polynomial of the solvent iteration: the pair (I, S) with dX = 0."""
    S = np.asarray(S, dtype=complex)
    return line_search_poly(P, np.eye(P.n, dtype=complex), S, np.zeros_like(S), dS, contour)


def minimize_step(poly):
    """Minimizer of p over the real stationary points in [0, 2], plus {1, 2}.

    The roots of p'(t) are the eigenvalues of the companion matrix of the
    derivative polynomial, built and sorted as numpy.polynomial's polyroots
    does, without its per-call series checks; ties break toward t = 1, so a
    flat polynomial (already converged) yields the plain Newton step.
    """
    coeffs = poly.coefficients()
    scale = float(np.abs(coeffs).max())
    candidates = [1.0, 2.0]
    if scale > 0:
        dp = coeffs[1:] * np.arange(1, len(coeffs))
        # trailing coefficients at or below the tolerance are dropped, as trimcoef does
        kept = np.nonzero(np.abs(dp) > 1e-14 * scale)[0]
        for r in _roots(dp[:kept[-1] + 1]) if kept.size else ():
            # adding 0.0 turns a -0.0 real part into +0.0, as Polynomial.roots does
            # by mapping through its domain; the chosen step length is printed
            re = r.real + 0.0
            if abs(r.imag) <= 1e-8 * (1.0 + abs(re)) and -1e-12 <= re <= 2.0:
                candidates.append(min(max(float(re), 0.0), 2.0))
    values = poly(np.array(candidates))
    best = float(values.min())
    tie = best + 1e-12 * (1.0 + abs(best))
    viable = [t for t, pv in zip(candidates, values) if pv <= tie]
    return min(viable, key=lambda t: abs(t - 1.0))


def _roots(c):
    """Roots of sum_i c_i t^i (c_D != 0), sorted, with polyroots' bits."""
    if len(c) < 2:
        return ()
    if len(c) == 2:
        return np.array([-c[0] / c[1]])
    companion = np.diag(np.ones(len(c) - 2), -1)
    companion[:, -1] -= c[:-1] / c[-1]
    # the eigenvalues as np.linalg.eigvals computes and checks them
    if not np.isfinite(companion).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    lwork = int(_GEEV_LWORK(len(companion), compute_vl=0, compute_vr=0)[0])
    wr, wi, _, _, info = _GEEV(companion, compute_vl=0, compute_vr=0, lwork=lwork)
    if info:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    r = wr + 1j * wi
    r.sort()
    return r


def _newton(P, X, S, residual, correction, scale, tol, maxit, line_search):
    """Newton loop shared by pairs and solvents.

    Each iterate evaluates its residual R = residual(X, S) once: ||R||_F
    relative to scale(X, S) goes to the history, and correction(X, S, R)
    returns the step direction (dX, dS).  Returns the last iterate, its R
    and the report.  Raises ValueError unless tol is finite and nonnegative
    and maxit is a nonnegative integer.
    """
    require_tolerance(tol)
    maxit = require_integer(maxit, "maxit")
    if maxit < 0:
        raise ValueError(f"maxit must be nonnegative, got {maxit}")
    start = time.perf_counter()
    R = residual(X, S)
    history = [float(np.linalg.norm(R, "fro") / scale(X, S))]
    steps = []
    while len(steps) < maxit and history[-1] >= tol:
        dX, dS = correction(X, S, R)
        t = minimize_step(line_search_poly(P, X, S, dX, dS)) if line_search else 1.0
        X = X + t * dX
        S = S + t * dS
        steps.append(float(t))
        R = residual(X, S)
        history.append(float(np.linalg.norm(R, "fro") / scale(X, S)))
    report = RefinementReport(
        iterations=len(steps),
        residual_history=tuple(history),
        step_lengths=tuple(steps),
        converged=history[-1] < tol,
        wall_time=time.perf_counter() - start,
    )
    return X, S, R, report


def refine_pair(P, X0, S0, tol=1e-12, maxit=500, line_search=True):
    """Newton iteration on P(X, S) = 0 with optional exact line search.

    Each step is the Schur-structured normalized correction; a step whose
    column system is singular comes from newton_correction instead, with its
    rank warning.  Stops when ||P(X_k, S_k)||_F / ||X_k||_F < tol; hitting
    maxit leaves converged False in the report.  With line_search=False
    every step length is exactly 1 (classical Newton).  Raises ValueError
    unless X0 is n-by-k, S0 is k-by-k and both are finite, tol is finite
    and nonnegative and maxit is a nonnegative integer.
    """
    X0, S0 = _checked_pair(P, X0, S0)
    X, S, _, report = _newton(
        P, X0, S0, lambda X, S: eval_pair(P, (X, S)),
        lambda X, S, R: _schur_correction(P, X, S, R) or newton_correction(P, X, S)[:2],
        lambda X, S: np.linalg.norm(X, "fro"), tol, maxit, line_search,
    )
    return InvariantPair(X, S), report


def refine_solvent(P, S0, tol=1e-12, maxit=500, line_search=True):
    """Newton iteration on P(S) = 0, the pair iteration at X = I, dX = 0.

    Each step is the Schur-structured correction; where a column system is
    singular it is the pseudoinverse solution of the dense solvent Jacobian,
    with a warning.  Stops when ||P(S_k)||_F / max(||S_k||_F, 1) < tol.
    The residual P(S_k) is taken by Horner, once per iterate, and the
    returned Solvent carries ||P(S)||_F of the last one.  Raises ValueError
    unless S0 is a finite n-by-n matrix, tol is finite and nonnegative and
    maxit is a nonnegative integer.
    """
    S0 = require_finite(_as_square_complex(S0, P.n, what="S"), "S")
    dX = np.zeros_like(S0)

    def correction(X, S, R):
        dS = _solvent_correction(P, S, R)
        if dS is None:
            warnings.warn("solvent Jacobian singular at iterate; using pseudoinverse", stacklevel=4)
            dS = np.linalg.lstsq(solvent_jacobian(P, S), -R.ravel(order="F"), rcond=None)[0]
            dS = dS.reshape(S.shape, order="F")
        return dX, dS

    _, S, R, report = _newton(P, np.eye(P.n, dtype=complex), S0, lambda X, S: eval_matrix(P, S),
                              correction, lambda X, S: _residual_scale(S), tol, maxit, line_search)
    return Solvent(S, float(np.linalg.norm(R, "fro"))), report

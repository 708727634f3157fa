"""Circular contours and trapezoid-rule moments of u^H P(z)^{-1} v.

The k-th moment of f(z) = u^H P(z)^{-1} v over the circle Gamma is

    mu_k = (1/2 pi i) oint_Gamma z^k f(z) dz,

approximated at N equidistant nodes t_j = 2 pi j / N by

    mu_k ~= (1/(i N)) sum_j phi(t_j)^k f(phi(t_j)) phi'(t_j),

with phi(t) = center + radius e^{it}.  The same quadrature applied to
P(z)^{-1} v gives the moment vectors s_k, and with tall probe matrices U, V
it gives the block moments M_k = U^H S_k.  The trapezoid rule converges
exponentially here because the integrand is analytic in an annulus around
the circle.

The nodes are visited in one pass that keeps no factor: P(z_j) is
evaluated by Horner into a reused n-by-n buffer and LU-factored there in
place, and while that factor is live the pass reads off what the callers
need before the next node overwrites it.  For the extractors that is the
phase of det P(z_j) = (-1)^s prod u_ii and the solve Y_j = P(z_j)^{-1} V
against the probes, N*n*xi numbers in all, so one pass serves both the
eigenvalue count and the moments: scalar_moments and block_moments accept
either a Contour or the node solves the extractors take from it.  The
extractors count by the argument principle, as the winding number of
det P(z_j), and bisect an arc whose phase step is too large to trust; only
where that gives up do they take the trace count, with a pass of its own.
count_eigenvalues_inside, and with it the `count` command, keeps the trace
of P(z)^{-1} P'(z) and its quality indicator.  Each node is factored in
place by LAPACK getrf, its condition estimated by gecon and every solve on
the live factor made by getrs; an exactly singular P(z_j) gets rcond = 0
and raises EigenvalueOnContourError with cond = inf, without a warning.

From n = 100 on, where two CPUs are usable, the pass splits the nodes into
two contiguous halves, the second factored by a helper thread in a buffer
of its own, so the working memory is at most 2 n^2 plus the N*n*xi node
solves.  Each node writes only its own results, and the trace count sums
its node terms in node order after the pass, so no bit depends on which
thread factored a node.
"""

import cmath
import math
import os
import threading
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import get_lapack_funcs

from .matpoly import _horner_into, eval_derivative
from ._numeric import numerical_rank, require_integer

__all__ = [
    "Contour",
    "MomentSequence",
    "BlockMomentSequence",
    "EigenvalueCount",
    "EigenvalueOnContourError",
    "scalar_moments",
    "block_moments",
    "count_eigenvalues_inside",
    "residue_moment_oracle",
    "default_probe_vectors",
]

DEFAULT_NODES = 64

# A node where cond_1(P(phi(t_j))) exceeds this is treated as an eigenvalue
# sitting on or next to the contour.
NEAR_CONTOUR_CONDITION = 1e13

# The winding count trusts a phase step of det P between adjacent points on
# the circle only below this bound; a larger step may hide a full turn, so
# its arc is bisected, at most WINDING_MAX_DEPTH times.
WINDING_STEP_BOUND = math.pi / 2
WINDING_MAX_DEPTH = 4

# The node pass splits its nodes between this many threads (one per usable
# CPU, at most two) from n = _SPLIT_MIN_N on; LAPACK releases the GIL.  On 2
# cores with 1 BLAS thread, two threads made the benchmark's extractions
# 1.55-1.73x as fast at n = 200 and 1.11-1.45x at n = 100, but 0.74-1.00x
# at n = 50 and 0.51-0.67x at n <= 20, where the GIL hand-offs outweigh
# the factorization (two seeds, eight interleaved rounds each).
_USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_NODE_WORKERS = min(2, _USABLE_CPUS)
_SPLIT_MIN_N = 100

lu_factor, _GECON, _GETRS = get_lapack_funcs(("getrf", "gecon", "getrs"), dtype=complex)


class EigenvalueOnContourError(RuntimeError):
    """P(z) is numerically singular at a quadrature node."""

    def __init__(self, node, t, cond):
        self.node = node
        self.t = t
        self.cond = cond
        super().__init__(
            f"eigenvalue on or near contour: node {node} (t = {t:.6f}) has "
            f"condition estimate {cond:.3e}; move the contour or change N"
        )


@dataclass(frozen=True)
class Contour:
    """Circle phi(t) = center + radius * e^{it} with N quadrature nodes."""

    center: complex
    radius: float
    nodes: int = DEFAULT_NODES

    def __post_init__(self):
        center, radius = complex(self.center), float(self.radius)
        if not cmath.isfinite(center):
            raise ValueError(f"center must be finite, got {center}")
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError(f"radius must be positive and finite, got {radius}")
        if require_integer(self.nodes, "nodes") < 4:
            raise ValueError("need at least 4 quadrature nodes")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)

    def points(self):
        """Nodes z_j = phi(t_j) and weights w_j = phi'(t_j)/(iN).

        With these weights, sum_j w_j g(z_j) approximates the normalized
        integral (1/2 pi i) oint g(z) dz.
        """
        j = np.arange(self.nodes)
        rot = np.exp(2j * np.pi * j / self.nodes)
        z = self.center + self.radius * rot
        w = (1j * self.radius * rot) / (1j * self.nodes)
        return z, w

    def contains(self, z):
        return abs(complex(z) - self.center) < self.radius


@dataclass(frozen=True)
class MomentSequence:
    """Scalar moments mu_0..mu_{K-1} and optional moment vectors s_k."""

    u: np.ndarray
    v: np.ndarray
    mu: np.ndarray
    contour: Contour
    svecs: Optional[np.ndarray] = None  # (n, K), column k is s_k

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=complex))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=complex))
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=complex))
        if self.svecs is not None:
            sv = np.asarray(self.svecs, dtype=complex)
            object.__setattr__(self, "svecs", sv)
            if sv.shape[1] != len(self.mu):
                raise ValueError("svecs must hold one column per moment")
            recon = self.u.conj() @ sv
            scale = 1.0 + np.abs(self.mu).max(initial=0.0)
            if np.abs(recon - self.mu).max(initial=0.0) > 1e-6 * scale:
                raise ValueError("svecs inconsistent with moments: mu_k != u^H s_k")

    def __len__(self):
        return len(self.mu)


@dataclass(frozen=True)
class BlockMomentSequence:
    """Block moments M_0..M_{K-1} (xi-by-xi) and optional blocks S_k (n-by-xi)."""

    U: np.ndarray
    V: np.ndarray
    moments: tuple
    contour: Contour
    sblocks: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "U", np.asarray(self.U, dtype=complex))
        object.__setattr__(self, "V", np.asarray(self.V, dtype=complex))
        object.__setattr__(self, "moments", tuple(np.asarray(M, dtype=complex) for M in self.moments))
        if self.sblocks is not None:
            blocks = tuple(np.asarray(S, dtype=complex) for S in self.sblocks)
            object.__setattr__(self, "sblocks", blocks)
            if len(blocks) != len(self.moments):
                raise ValueError("sblocks must hold one block per moment")
            M, S = np.reshape(self.moments, (-1, self.xi, self.xi)), np.reshape(blocks, (-1, *self.U.shape))
            if np.abs(self.U.conj().T @ S - M).max(initial=0.0) > 1e-6 * (1.0 + np.abs(M).max(initial=0.0)):
                raise ValueError("sblocks inconsistent with moments: M_k != U^H S_k")

    @property
    def xi(self):
        return self.U.shape[1]

    def __len__(self):
        return len(self.moments)


class EigenvalueCount(NamedTuple):
    count: int
    quality: float


def default_probe_vectors(n, seed=0):
    """Two seeded uniform-on-sphere complex probe vectors (u, v).

    Random probes make the nondegeneracy assumptions of the moment method
    hold almost surely when the caller has no preferred u, v.
    """
    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(2):
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        probes.append(w / np.linalg.norm(w))
    return tuple(probes)


class _NodeSolves(NamedTuple):
    """What one pass over a contour's nodes z_j, weights w_j, keeps: the phases
    arg det P(z_j) and, given probes V, the solves Y[j] = P(z_j)^{-1} V."""

    contour: Contour
    z: np.ndarray
    w: np.ndarray
    phases: np.ndarray
    Y: Optional[np.ndarray]


def _node_buffers(n):
    """A Fortran-order complex n-by-n buffer and the real scratch for _factor_in_place."""
    return np.empty((n, n), dtype=complex, order="F"), np.empty((2, n, n))


def _factor_in_place(buf, scratch, coeffs, z, t, node=None):
    """LU factors (lu, piv) of P(z), made in `buf`, and LAPACK's estimate of cond_1(P(z)).

    P(z) is evaluated into the Fortran-order buffer by Horner and factored
    there without a copy by getrf, called as the module global lu_factor so
    that a wrapper on that name counts every node.  Both buffers come from
    _node_buffers.  |P(z)| is taken into scratch[1] in the buffer's order,
    then copied into the C-order scratch[0] so that the column sums of the
    1-norm accumulate row by row, in the order np.linalg.norm uses on a
    C-order matrix; taking it into C order directly would allocate an
    iterator buffer at every node.  A P(z) that is not finite raises
    ValueError naming t (and the node); an exactly singular one gives
    cond = inf.  The caller silences floating-point warnings and judges P(z)
    by the gecon estimate.
    """
    _horner_into(buf, coeffs, z)
    rows, absval = scratch[0], scratch[1].T
    np.copyto(rows, np.abs(buf, out=absval))
    anorm = rows.sum(axis=0).max()
    if not math.isfinite(anorm):
        what = "has a 1-norm that overflows" if np.isfinite(buf).all() else "is not finite"
        where = f"node {node} (t = {t:.6f})" if node is not None else f"t = {t:.6f}"
        raise ValueError(f"P(z) {what} at {where}; scale the polynomial or shrink the contour")
    lu, piv, _ = lu_factor(buf, overwrite_a=True)
    rcond, _ = _GECON(lu, anorm)
    return (lu, piv), np.inf if rcond == 0 else 1.0 / rcond


def _node_pass(P, z, visit):
    """LU-factor P(z_j) at the nodes z_j = phi(2 pi j / N), calling
    visit(j, (lu, piv)) while each factor is live.

    From n = _SPLIT_MIN_N on, the nodes are split into _NODE_WORKERS
    contiguous runs, the first factored by the calling thread and each other
    one by a helper thread; `visit` must then write only what belongs to
    node j.  Each worker holds one n-by-n buffer, filled from Fortran-order
    copies of the coefficients, for each node's P(z_j) and then its factor,
    so no factor outlives its node or is seen by another thread.  A node
    whose condition estimate exceeds NEAR_CONTOUR_CONDITION raises
    EigenvalueOnContourError.  A worker stops at its first failure, or when
    a worker of lower nodes has failed, and the pass raises the failure of
    the lowest node: the one a single worker going through the nodes in
    order would raise.
    """
    coeffs = [np.asfortranarray(A) for A in P.coeffs]
    workers = _NODE_WORKERS if P.n >= _SPLIT_MIN_N else 1
    ends = [len(z) * k // workers for k in range(workers + 1)]
    failures = [None] * workers

    def work(k):
        buf, scratch = _node_buffers(P.n)
        # errstate is per thread; singularity is detected via the condition
        # estimate, overflow via the norm
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(ends[k], ends[k + 1]):
                if any(failures[:k]):
                    return
                t = 2 * math.pi * j / len(z)
                try:
                    lu, cond = _factor_in_place(buf, scratch, coeffs, z[j], t, j)
                    if cond > NEAR_CONTOUR_CONDITION:
                        raise EigenvalueOnContourError(j, t, cond)
                    visit(j, lu)
                except Exception as err:
                    failures[k] = err
                    return

    helpers = [threading.Thread(target=work, args=(k,)) for k in range(1, workers)]
    for helper in helpers:
        helper.start()
    try:
        work(0)
    finally:
        for helper in helpers:
            helper.join()
    for err in failures:
        if err is not None:
            raise err


def _solve_at_nodes(P, contour, V=None):
    """The phases of det P(z_j) and, given probes V, Y_j = P(z_j)^{-1} V, in one pass.

    Node solves already taken (a _NodeSolves) are returned as they are.
    """
    if isinstance(contour, _NodeSolves):
        return contour
    phases = np.empty(contour.nodes)
    Y = None if V is None else np.empty((contour.nodes, *V.shape), dtype=complex)

    def visit(j, lu):
        phases[j] = _det_phase(lu)
        if Y is not None:
            Y[j] = _GETRS(*lu, V)[0]

    z, w = contour.points()
    _node_pass(P, z, visit)
    return _NodeSolves(contour, z, w, phases, Y)


def _moment_blocks(nodes, U, count):
    """Moment blocks M_k = U^H S_k and S_k of P(z)^{-1} V for k < count.

    The node solves Y_j = P(z_j)^{-1} V serve every order: S_k = sum_j
    w_j z_j^k Y_j for all k is one product with the weighted Vandermonde
    matrix.
    """
    z, Y = nodes.z, nodes.Y
    W = nodes.w[:, None] * np.vander(z, count, increasing=True)
    S = (W.T @ Y.reshape(len(z), -1)).reshape(count, *Y.shape[1:])
    return U.conj().T @ S, S


def _scalar_probes(P, u, v, seed):
    """u and v as nonzero complex n-vectors, drawn by default_probe_vectors(n, seed) where None."""
    if u is None or v is None:
        du, dv = default_probe_vectors(P.n, seed)
        u = du if u is None else u
        v = dv if v is None else v
    u = np.asarray(u, dtype=complex).reshape(P.n)
    v = np.asarray(v, dtype=complex).reshape(P.n)
    if not np.any(u) or not np.any(v):
        raise ValueError("probe vectors must be nonzero")
    return u, v


def scalar_moments(P, contour, u=None, v=None, count=8, seed=0):
    """Trapezoid-rule moments mu_0..mu_{count-1} of u^H P(z)^{-1} v.

    The width-one case of block_moments: the moment vectors s_k (same
    quadrature applied to P^{-1} v) are returned alongside.  Probes default
    to seeded unit-sphere draws.  The node sums are a matrix product, so
    their order is BLAS's rather than node order; the result is still
    deterministic for a fixed N and fixed probes.
    """
    u, v = _scalar_probes(P, u, v, seed)
    if require_integer(count, "count") < 1:
        raise ValueError("need at least one moment")
    nodes = _solve_at_nodes(P, contour, v[:, None])
    M, S = _moment_blocks(nodes, u[:, None], count)
    return MomentSequence(u=u, v=v, mu=M[:, 0, 0], contour=nodes.contour, svecs=S[:, :, 0].T)


def _block_probes(P, U, V):
    """U and V as complex arrays, checked to be n-by-xi of full column rank."""
    if U is None or V is None:
        raise ValueError("block probes U and V are required (xi is implied by them)")
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    if U.ndim != 2 or V.ndim != 2 or U.shape != V.shape or U.shape[0] != P.n or U.shape[1] < 1:
        raise ValueError(f"probes must both be {P.n}-by-xi matrices with xi >= 1")
    xi = U.shape[1]
    if numerical_rank(U) < xi or numerical_rank(V) < xi:
        raise ValueError("probe matrices must have linearly independent columns")
    return U, V


def block_moments(P, contour, U=None, V=None, count=8):
    """Block analogue of scalar_moments with n-by-xi probe matrices."""
    U, V = _block_probes(P, U, V)
    if require_integer(count, "count") < 1:
        raise ValueError("need at least one moment")
    nodes = _solve_at_nodes(P, contour, V)
    M, S = _moment_blocks(nodes, U, count)
    return BlockMomentSequence(U=U, V=V, moments=tuple(M), contour=nodes.contour, sblocks=tuple(S))


def count_eigenvalues_inside(P, contour):
    """Number of eigenvalues of P enclosed by the contour.

    Rounds the quadrature of (1/2 pi i) oint trace(P(z)^{-1} P'(z)) dz to the
    nearest integer and reports the pre-rounding residual as a quality
    indicator; a residual above 0.1 triggers a warning to increase N or move
    the contour.
    """
    z, w = contour.points()
    terms = np.empty(len(z), dtype=complex)

    def visit(j, lu):
        terms[j] = w[j] * np.trace(_GETRS(*lu, eval_derivative(P, z[j]))[0])

    _node_pass(P, z, visit)
    acc = 0.0 + 0.0j
    for term in terms:  # in node order, whichever thread factored the node
        acc += term
    m = int(round(acc.real))
    quality = abs(acc - m)
    if quality > 0.1:
        warnings.warn(
            f"eigenvalue count {m} is unreliable (residual {quality:.3g}); "
            "increase N or move the contour",
            stacklevel=2,
        )
    return EigenvalueCount(m, quality)


def _det_phase(lu):
    """arg det P(z) from its LU factorization (lu, piv), up to a multiple of 2 pi.

    det P(z) = (-1)^s prod u_ii with s the number of row interchanges, so
    the phase is sum arg u_ii plus pi when s is odd.
    """
    a, piv = lu
    swaps = np.count_nonzero(piv != np.arange(len(piv)))
    return np.angle(np.diagonal(a)).sum() + math.pi * (swaps % 2)


def _arc_turn(P, contour, t0, t1, a0, a1, depth):
    """Phase change of det P(phi(t)) from t0 to t1, given its phases a0, a1.

    A step of WINDING_STEP_BOUND or more is split at the arc's midpoint,
    which is factored like a node, in buffers of its own.  None when the
    depth is exhausted or the midpoint is near singular.
    """
    step = math.remainder(a1 - a0, 2 * math.pi)
    if abs(step) < WINDING_STEP_BOUND:
        return step
    if depth == WINDING_MAX_DEPTH:
        return None
    tm = 0.5 * (t0 + t1)
    zm = contour.center + contour.radius * complex(math.cos(tm), math.sin(tm))
    lu, cond = _factor_in_place(*_node_buffers(P.n), P.coeffs, zm, tm)
    if cond > NEAR_CONTOUR_CONDITION:
        return None
    am = float(_det_phase(lu))
    left = _arc_turn(P, contour, t0, tm, a0, am, depth + 1)
    right = None if left is None else _arc_turn(P, contour, tm, t1, am, a1, depth + 1)
    return None if right is None else left + right


def _winding_count(P, contour):
    """Number of enclosed eigenvalues as the winding number of det P(z).

    By the argument principle this equals count_eigenvalues_inside, but it
    reads det P(z_j) off each node's LU factors in O(n) instead of solving
    for trace(P^{-1} P').  `contour` may be the node solves of a pass that
    already took the phases.  Each phase step between adjacent nodes is
    reduced to [-pi, pi]; large ones are bisected (_arc_turn).  Returns None
    when bisection gives up, so the caller can fall back to the trace count.
    """
    nodes = _solve_at_nodes(P, contour)
    c, phases = nodes.contour, nodes.phases
    dt = 2 * math.pi / c.nodes
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(c.nodes):
            turn = _arc_turn(P, c, j * dt, (j + 1) * dt, phases[j], phases[(j + 1) % c.nodes], 0)
            if turn is None:
                return None
            total += turn
    return round(total / (2 * math.pi))


def residue_moment_oracle(spectrum, k):
    """Moment mu_k from known partial-fraction data, via the residue formula.

    `spectrum` lists triples (lambda_j, m_j, [c_{j,1}, ..., c_{j,m_j}]) where
    the c_{j,i} are the partial-fraction coefficients of f at the pole
    lambda_j of order m_j.  Then

        mu_k = sum_j sum_i nu_{j,i} lambda_j^(k-i+1),
        nu_{j,i} = c_{j,i}/(i-1)! * (k-i+2)(k-i+3)...k   for k >= i-1,

    and nu_{j,i} = 0 otherwise.  Independent of any quadrature, this serves
    as an oracle for scalar_moments on problems with known pole data.
    """
    if require_integer(k, "k") < 0:
        raise ValueError("moment order k must be nonnegative")
    total = 0.0 + 0.0j
    for lam, mult, coeffs in spectrum:
        lam = complex(lam)
        if len(coeffs) != mult:
            raise ValueError(f"pole {lam}: expected {mult} coefficients, got {len(coeffs)}")
        for i, c in enumerate(coeffs, start=1):
            if k < i - 1:
                continue
            rising = 1.0
            for r in range(k - i + 2, k + 1):
                rising *= r
            nu = complex(c) * rising / math.factorial(i - 1)
            total += nu * lam ** (k - i + 1)
    return total

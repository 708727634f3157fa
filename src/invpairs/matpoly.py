"""Matrix polynomials and invariant pairs: types, evaluation, linearization.

A matrix polynomial P(lambda) = A_0 + A_1 lambda + ... + A_ell lambda^ell is
stored as the dense complex coefficient list A_0..A_ell.  An invariant pair
(X, S) consists of an n-by-k matrix X and a k-by-k matrix S with
A_ell X S^ell + ... + A_1 X S + A_0 X = 0; it generalizes eigenpairs (k = 1)
and matrix solvents (k = n, X invertible).
"""

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from ._numeric import numerical_rank, require_finite, require_integer

__all__ = [
    "MatrixPolynomial",
    "InvariantPair",
    "SingularLeadingCoefficientError",
    "eval_scalar",
    "eval_derivative",
    "eval_pair",
    "eval_matrix",
    "companion_linearization",
    "minimality_index",
]

# Seed for the probabilistic regularity probe; a fixed draw keeps construction
# deterministic while failing only on a measure-zero set of sample points.
_REGULARITY_SEED = 7493


class SingularLeadingCoefficientError(ValueError):
    """The leading coefficient A_ell is numerically rank deficient."""


def _as_square_complex(a, n=None, what="matrix"):
    m = np.array(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    if n is not None and m.shape[0] != n:
        raise ValueError(f"{what} must be {n}x{n}, got {m.shape[0]}x{m.shape[0]}")
    return m


class MatrixPolynomial:
    """Dense complex matrix polynomial of positive degree.

    Parameters
    ----------
    coeffs : sequence of (n, n) array_like
        Coefficients A_0..A_ell in increasing order of the power.  Every
        entry must be finite, the leading coefficient must be nonzero, and
        the polynomial must be regular (det P not identically zero);
        regularity is checked at a seeded random sample point.
    """

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) < 2:
            raise ValueError("need degree >= 1, i.e. at least two coefficients")
        first = _as_square_complex(coeffs[0], what="coefficient 0")
        n = first.shape[0]
        mats = [first]
        for j, a in enumerate(coeffs[1:], start=1):
            mats.append(_as_square_complex(a, n, what=f"coefficient {j}"))
        for j, m in enumerate(mats):
            require_finite(m, f"coefficient {j}")
        if not np.any(mats[-1]):
            raise ValueError("leading coefficient is the zero matrix")
        for m in mats:
            m.setflags(write=False)
        self._coeffs = tuple(mats)
        self._check_regular()

    def _check_regular(self):
        rng = np.random.default_rng(_REGULARITY_SEED)
        z = complex(*rng.standard_normal(2))
        sign, _ = np.linalg.slogdet(eval_scalar(self, z))
        if sign == 0:
            raise ValueError(
                f"polynomial looks singular: det P({z:.6g}) vanished at a random sample point"
            )

    @property
    def n(self):
        return self._coeffs[0].shape[0]

    @property
    def degree(self):
        return len(self._coeffs) - 1

    @property
    def coeffs(self):
        return self._coeffs

    def __repr__(self):
        return f"MatrixPolynomial(n={self.n}, degree={self.degree})"

    def __eq__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        return self.degree == other.degree and all(
            np.array_equal(a, b) for a, b in zip(self._coeffs, other._coeffs)
        )


class InvariantPair:
    """Candidate invariant pair (X, S) with X n-by-k and S k-by-k."""

    def __init__(self, X, S):
        X = np.array(X, dtype=complex)
        if X.ndim != 2:
            raise ValueError(f"X must be a matrix, got shape {X.shape}")
        S = _as_square_complex(S, X.shape[1], what="S")
        if X.shape[1] < 1:
            raise ValueError("pair size k must be at least 1")
        if not np.any(X):
            raise ValueError("X is the zero matrix")
        X.setflags(write=False)
        S.setflags(write=False)
        self.X = X
        self.S = S

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def k(self):
        return self.X.shape[1]

    def __repr__(self):
        return f"InvariantPair(n={self.n}, k={self.k})"


def _pair_matrices(pair):
    if isinstance(pair, InvariantPair):
        return pair.X, pair.S
    X, S = pair
    return np.asarray(X, dtype=complex), np.asarray(S, dtype=complex)


def eval_scalar(P, lam):
    """Evaluate P(lam) by the Horner recurrence on the coefficients."""
    return _horner_into(np.empty_like(P.coeffs[-1]), P.coeffs, complex(lam))


def _horner_into(out, coeffs, lam):
    """P(lam) from coefficients A_0..A_ell by Horner, in place in `out`.

    acc *= lam; acc += A rounds exactly like acc * lam + A but makes no
    temporaries.  `out` may be in either memory order.
    """
    np.copyto(out, coeffs[-1])
    for A in coeffs[-2::-1]:
        out *= lam
        out += A
    return out


def eval_derivative(P, lam):
    """Evaluate P'(lam) = sum_{j>=1} j A_j lam^(j-1) by Horner on the coefficients j A_j."""
    coeffs = [j * A for j, A in enumerate(P.coeffs[1:], start=1)]
    return _horner_into(np.empty_like(coeffs[-1]), coeffs, complex(lam))


def _powers(S, ell):
    """The stack S^0, S^1, ..., S^ell of a square S, shaped (ell + 1, k, k)."""
    k = S.shape[0]
    pows = np.empty((ell + 1, k, k), dtype=complex)
    pows[0] = np.eye(k)
    for j in range(ell):
        pows[j + 1] = pows[j] @ S
    return pows


def eval_pair(P, pair):
    """Residual matrix P(X, S) = sum_j A_j X S^j of a candidate pair.

    `pair` may be an InvariantPair or a plain (X, S) tuple.  The powers of S
    enter through the running product X S^j, accumulated once and reused.
    """
    X, S = _pair_matrices(pair)
    if X.shape[0] != P.n:
        raise ValueError(f"X has {X.shape[0]} rows, polynomial acts on C^{P.n}")
    if X.shape[1] > P.degree * P.n:
        raise ValueError(
            f"pair size k={X.shape[1]} exceeds the bound ell*n={P.degree * P.n}"
        )
    acc = P.coeffs[0] @ X
    running = X
    for A in P.coeffs[1:]:
        running = running @ S
        acc = acc + A @ running
    return acc


def eval_matrix(P, S):
    """Evaluate P at a square matrix argument: P(S) = sum_j A_j S^j."""
    return _horner_at_matrix(P.coeffs, _as_square_complex(S, P.n, what="S"))


def _horner_at_matrix(coeffs, S):
    """sum_j A_j S^j from coefficients A_0..A_ell (ell >= 1) by Horner."""
    acc = coeffs[-1]
    for A in coeffs[-2::-1]:
        acc = acc @ S + A
    return acc


def companion_linearization(P):
    """Block companion matrix of the monic form of P.

    The polynomial is normalized by solving A_ell * Atilde_j = A_j for each
    coefficient (one LU factorization, no explicit inverse), then the
    ell*n-by-ell*n companion matrix with identity superdiagonal blocks and
    bottom block row [-Atilde_0 ... -Atilde_{ell-1}] is assembled.  Its
    eigenvalues are the finite eigenvalues of P.

    Raises SingularLeadingCoefficientError when A_ell is numerically rank
    deficient (P then has infinite eigenvalues, which are out of scope).
    """
    n, ell = P.n, P.degree
    lead = P.coeffs[ell]
    if numerical_rank(lead) < n:
        raise SingularLeadingCoefficientError(
            "leading coefficient is numerically singular; "
            "the companion linearization requires a monic normalizable polynomial"
        )
    lu = lu_factor(lead)
    monic = [lu_solve(lu, np.asarray(A)) for A in P.coeffs[:ell]]
    comp = np.zeros((ell * n, ell * n), dtype=complex)
    for b in range(ell - 1):
        comp[b * n:(b + 1) * n, (b + 1) * n:(b + 2) * n] = np.eye(n)
    for b, A in enumerate(monic):
        comp[(ell - 1) * n:, b * n:(b + 1) * n] = -A
    return comp


def minimality_index(pair, m_max):
    """Smallest m <= m_max with full column rank of [X S^(m-1); ...; X S; X].

    Returns None when the pair is not minimal up to m_max.  Rank decisions
    use the repo-wide singular value cutoff.
    """
    m_max = require_integer(m_max, "m_max")
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    X, S = _pair_matrices(pair)
    k = X.shape[1]
    blocks = [X]
    for m in range(1, m_max + 1):
        stacked = np.vstack(blocks[::-1])
        if numerical_rank(stacked) == k:
            return m
        blocks.append(blocks[-1] @ S)
    return None

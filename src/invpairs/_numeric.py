"""Shared numerical conventions: input checks, rank decisions and eigenvalue clustering."""

import math
import operator

import numpy as np

EPS = float(np.finfo(float).eps)


def rank_tolerance(a, svals):
    """Singular-value cutoff max(rows, cols) * eps * sigma_max.

    Returned shaped (..., 1) like `svals` (..., k), so that it broadcasts
    against them; for a stack of matrices, shaped (..., rows, cols), it
    holds one cutoff per matrix.
    """
    if svals.shape[-1] == 0:
        return 0.0
    return max(np.shape(a)[-2:]) * EPS * svals[..., :1]


def require_finite(a, what):
    """`a` itself; ValueError naming `what` when it has a NaN or infinite entry."""
    if not np.isfinite(a).all():
        raise ValueError(f"{what} has non-finite entries")
    return a


def require_tolerance(tol):
    """ValueError unless `tol` is finite and nonnegative.

    A NaN tolerance fails every `x <= tol` gate and an infinite one passes
    any finite x, so neither can decide anything.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")


def require_integer(value, what):
    """`value` as an int; ValueError naming `what` unless it is an integer.

    Python and numpy integers pass (operator.index); floats and bools do not.
    """
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return index


def numerical_rank(a):
    """Number of singular values of `a` above the repo-wide cutoff.

    The cutoff is max(rows, cols) * eps * sigma_max, so the zero matrix has
    rank 0 and exact-integer matrices of low rank are detected reliably.  A
    stack of matrices, shaped (..., rows, cols), takes one stacked SVD and
    gives an integer array of ranks, one per matrix.
    """
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0
    svals = np.linalg.svd(a, compute_uv=False)
    above = svals > rank_tolerance(a, svals)
    return int(np.count_nonzero(above)) if a.ndim == 2 else np.count_nonzero(above, axis=-1)


def cluster_eigenvalues(values, rel_tol=1e-6, scale=None):
    """Group approximate eigenvalues into (value, multiplicity) clusters.

    A computed copy of a defective eigenvalue of multiplicity q scatters like
    (backward error)**(1/q), which quickly exceeds any flat threshold (for
    q = 3 the splitting is already ~1e-5 in double precision).  A group of q
    values around mean c is therefore accepted when its radius is within

        max(rel_tol * max(1, |c|), (1e-11 * scale) ** (1/q)),

    i.e. a relative base threshold plus a multiplicity-aware allowance.
    Groups are grown greedily from the smallest remaining value, preferring
    the largest acceptable q.  Suitable for small spectra whose distinct
    eigenvalue groups are well separated relative to the allowance.

    Returns a list of (value, multiplicity) sorted by (real, imag) of value.
    """
    vals = [complex(v) for v in np.atleast_1d(np.asarray(values, dtype=complex))]
    if not vals:
        return []
    if scale is None:
        scale = max(1.0, max(abs(v) for v in vals))
    remaining = sorted(vals, key=lambda z: (z.real, z.imag))
    clusters = []
    while remaining:
        seed = remaining[0]
        by_dist = sorted(remaining, key=lambda z: (abs(z - seed), z.real, z.imag))
        chosen = None
        for q in range(len(remaining), 0, -1):
            group = by_dist[:q]
            center = sum(group) / q
            radius = max(abs(g - center) for g in group)
            tol = rel_tol * max(1.0, abs(center))
            if q > 1:
                tol = max(tol, (1e-11 * scale) ** (1.0 / q))
            if radius <= tol:
                chosen = (center, group)
                break
        center, group = chosen
        for g in group:
            remaining.remove(g)
        clusters.append((center, len(group)))
    clusters.sort(key=lambda cm: (cm[0].real, cm[0].imag))
    return clusters

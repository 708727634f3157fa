"""Hankel pencils of moments: companion extraction and invariant pairs.

From the moments mu_0..mu_{2m-1} the Hankel matrices

    H0[i, j] = mu_{i+j},    H1[i, j] = mu_{i+j+1}

form a pencil H1 - lambda H0 whose eigenvalues, multiplicities included, are
the eigenvalues of P enclosed by the contour (under a geometric multiplicity
one assumption for the scalar method).  The shift structure gives H0 C = H1
for a companion matrix C whose last column solves H0 x = (mu_m..mu_{2m-1}),
and the pair ([s_0 ... s_{m-1}], C) is an invariant pair of P.  Block
moments generalize this.  When the block pencil is larger than the number m
of enclosed eigenvalues, C is the companion form of its leading m-by-m part:
there column j < m - xi of H1 is still column j + xi of H0, so those columns
of C are exact unit vectors and only the last xi are solved.

One index map, block (i, j) = R[i + j] for a stack R of xi-by-xi blocks,
builds both matrices from the moments in one gather, and the same map checks
a pencil: HankelPencil reads one block per anti-diagonal and compares each
matrix with the gather of those blocks.  The check runs only on the public
type; the extractors slice the gathered matrices, Hankel by construction.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .contour import (
    _block_probes,
    _scalar_probes,
    _solve_at_nodes,
    _winding_count,
    block_moments,
    count_eigenvalues_inside,
    scalar_moments,
)
from .matpoly import InvariantPair
from ._numeric import cluster_eigenvalues, numerical_rank, require_integer

__all__ = [
    "HankelPencil",
    "HankelRankError",
    "build_hankel",
    "build_block_hankel",
    "numerical_rank",
    "companion_from_pencil",
    "pencil_eigenvalues",
    "extract_invariant_pair",
    "extract_block_invariant_pair",
]


class HankelRankError(RuntimeError):
    """H0 is numerically rank deficient; carries the usable rank."""

    def __init__(self, message, rank):
        self.rank = rank
        super().__init__(message)


@dataclass(frozen=True)
class HankelPencil:
    """Moment Hankel pair (H0, H1) with block size xi (1 for scalar).

    Construction checks that each matrix is block Hankel and that H1 is H0
    moved by one block, and raises ValueError otherwise.
    """

    H0: np.ndarray
    H1: np.ndarray
    block_size: int = 1

    def __post_init__(self):
        H0 = np.asarray(self.H0, dtype=complex)
        H1 = np.asarray(self.H1, dtype=complex)
        object.__setattr__(self, "H0", H0)
        object.__setattr__(self, "H1", H1)
        if H0.shape != H1.shape or H0.ndim != 2 or H0.shape[0] != H0.shape[1]:
            raise ValueError("H0 and H1 must be square matrices of equal size")
        xi = require_integer(self.block_size, "block_size")
        if xi < 1 or H0.shape[0] % xi:
            raise ValueError("matrix size must be a multiple of the block size")
        mt = H0.shape[0] // xi
        # Each block must equal the one read off its anti-diagonal d; H1 is H0 moved by one d.
        d = np.arange(2 * mt - 1)
        i, j = np.minimum(d, mt - 1), np.maximum(d - mt + 1, 0)
        R0, R1 = (H.reshape(mt, xi, mt, xi)[i, :, j] for H in (H0, H1))
        if not np.array_equal(H0, _block_hankel(R0, mt)):
            raise ValueError("H0 is not (block) Hankel")
        if not np.array_equal(H1, _block_hankel(R1, mt)):
            raise ValueError("H1 is not (block) Hankel")
        if not np.array_equal(R1[:-1], R0[1:]):
            raise ValueError("shift structure violated: rows of H1 must be rows 2.. of H0")

    @property
    def m(self):
        """Pencil size (matrix dimension)."""
        return self.H0.shape[0]


def build_hankel(moms, m):
    """Assemble the m-by-m pencil from a MomentSequence with >= 2m moments."""
    m = require_integer(m, "m")
    if len(moms) < 2 * m:
        raise ValueError(f"need at least {2 * m} moments to build an {m}x{m} pencil, have {len(moms)}")
    return HankelPencil(*_pencil(moms.mu[:, None, None], m))


def build_block_hankel(bmoms, mt):
    """Assemble the block pencil with mt block rows from a BlockMomentSequence."""
    mt = require_integer(mt, "mt")
    if len(bmoms) < 2 * mt:
        raise ValueError(f"need at least {2 * mt} block moments, have {len(bmoms)}")
    return HankelPencil(*_pencil(bmoms.moments, mt), bmoms.xi)


def _pencil(moments, mt):
    """(H0, H1) with mt block rows gathered from xi-by-xi moments (scalar: xi = 1),
    unchecked: Hankel by construction."""
    if mt < 1:
        raise ValueError("pencil size must be at least 1")
    return _block_hankel(moments, mt), _block_hankel(moments[1:], mt)


def _block_hankel(R, mt):
    """The matrix whose block (i, j) is R[i + j], for a stack R of xi-by-xi blocks."""
    blocks = np.take(R, np.add.outer(np.arange(mt), np.arange(mt)), axis=0)
    return blocks.transpose(0, 2, 1, 3).reshape(mt * blocks.shape[-1], mt * blocks.shape[-1])


def companion_from_pencil(hp):
    """Companion matrix C with H0 C = H1, via a single last-column solve.

    Scalar pencils give the classical companion form (identity subdiagonal,
    solved last column).  Block pencils give the block companion form with a
    blockwise solve for the last block column.  Assembling the structure
    explicitly, instead of solving H0^{-1} H1 in full, preserves the exact
    companion pattern and costs one factorization.
    """
    return _companion(hp.H0, hp.H1, hp.block_size)


def _companion(H0, H1, xi):
    """C with H0 C = H1 for the leading part H0, H1 of a block Hankel pencil
    with block size xi: C[xi:, :m-xi] is the identity and only the last
    min(xi, m) columns are solved."""
    m = H0.shape[0]
    rank = numerical_rank(H0)
    if rank < m:
        raise HankelRankError(
            f"H0 of size {m} has numerical rank {rank}; truncate the pencil to that rank",
            rank,
        )
    shift = max(m - xi, 0)
    C = np.zeros((m, m), dtype=complex)
    C[m - shift:, :shift] = np.eye(shift)
    C[:, shift:] = np.linalg.solve(H0, H1[:, shift:])
    return C


def pencil_eigenvalues(hp):
    """Eigenvalues of the pencil H1 - lambda H0 as (value, multiplicity) clusters.

    The eigenvalues of the companion matrix are clustered with the base
    relative threshold 1e-6 plus the defective-splitting allowance of
    cluster_eigenvalues, since a multiplicity-q eigenvalue of a companion
    matrix scatters like eps**(1/q) under any backward-stable solver.
    """
    C = companion_from_pencil(hp)
    vals = np.linalg.eigvals(C)
    scale = max(1.0, float(np.linalg.norm(C, "fro")))
    return cluster_eigenvalues(vals, scale=scale)


def _resolve_size(P, contour, V, m):
    """Pencil size (default: the enclosed count), whether it defaulted, and
    the node solves against the probes V that the count and the moments share.

    The count is the winding of det P, whose phases the same pass over the
    nodes takes; only where the winding gives up does the trace count make
    a pass of its own.
    """
    if m is not None:
        m = require_integer(m, "m")
        if m < 1:
            raise ValueError("m must be at least 1")
    nodes = _solve_at_nodes(P, contour, V)
    if m is not None:
        return m, False, nodes
    count = _winding_count(P, nodes)
    if count is None:
        count = count_eigenvalues_inside(P, contour).count
    if count < 1:
        raise ValueError("contour encloses no eigenvalues; nothing to extract")
    return count, True, nodes


def extract_invariant_pair(P, contour, u=None, v=None, m=None, seed=0):
    """Invariant pair (X, S) = ([s_0 ... s_{m-1}], C) from scalar moments.

    The xi = 1 case of extract_block_invariant_pair.  `m` defaults to the
    enclosed-eigenvalue count; a given m must be an integer of at least 1.
    When H0 turns out rank deficient at that default (eigenvalues invisible
    to the scalar method), the pencil is truncated to the numerical rank
    with a warning; an explicitly requested m is strict and raises
    HankelRankError instead.
    """
    u, v = _scalar_probes(P, u, v, seed)
    m, defaulted, nodes = _resolve_size(P, contour, v[:, None], m)
    moms = scalar_moments(P, nodes, u, v, count=2 * m)
    moments, blocks = moms.mu[:, None, None], moms.svecs.T[:, :, None]
    try:
        return _pair_from_moments(moments, blocks, m)
    except HankelRankError as err:
        if not defaulted:
            raise
        warnings.warn(
            f"{m} eigenvalues enclosed but H0 has rank {err.rank}; truncating "
            "(multiplicities in several Jordan blocks are invisible to the scalar method)",
            stacklevel=2,
        )
        return _pair_from_moments(moments, blocks, err.rank)


def extract_block_invariant_pair(P, contour, U, V, m=None):
    """Invariant pair (Y, T) from block moments with n-by-xi probes.

    `m` defaults to the enclosed-eigenvalue count; a given m must be an
    integer of at least 1.  Any rank deficiency of the pencil raises
    HankelRankError.
    """
    U, V = _block_probes(P, U, V)
    m, _, nodes = _resolve_size(P, contour, V, m)
    bmoms = block_moments(P, nodes, U, V, count=2 * math.ceil(m / U.shape[1]))
    return _pair_from_moments(bmoms.moments, bmoms.sblocks, m)


def _pair_from_moments(moments, blocks, m):
    """Invariant pair of size m from moments M_k (xi-by-xi) and blocks S_k (n-by-xi).

    The pencil has mt = ceil(m/xi) block rows and the pair is the first m
    columns of [S_0 ... S_{mt-1}] with the companion form of the pencil's
    leading m-by-m part; when mt*xi exceeds m the full block pencil is
    singular by construction, and the leading part keeps the shift
    structure in all but its last xi columns.
    """
    xi = moments[0].shape[0]
    mt = math.ceil(m / xi)
    H0, H1 = _pencil(moments, mt)
    return InvariantPair(np.hstack(blocks[:mt])[:, :m], _companion(H0[:m, :m], H1[:m, :m], xi))

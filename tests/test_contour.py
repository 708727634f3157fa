import warnings

import numpy as np
import pytest

from invpairs import (
    BlockMomentSequence,
    Contour,
    EigenvalueOnContourError,
    MatrixPolynomial,
    MomentSequence,
    block_moments,
    count_eigenvalues_inside,
    extract_block_invariant_pair,
    extract_invariant_pair,
    residue_moment_oracle,
    scalar_moments,
)
from invpairs.contour import default_probe_vectors
from invpairs.matpoly import eval_scalar
from invpairs import problems

from conftest import (
    DIAG_4X4_SPECTRUM,
    GOLDEN_BLOCK_MOMENTS,
    GOLDEN_MU_4X4,
    RESIDUE_DIAG_SPECTRUM,
    random_regular_polynomial,
)

U3 = np.array([[1.0, 0.0], [5.0, -3.0], [2.0, -4.0]])
V3 = np.array([[1.0, 3.0], [0.0, 1.0], [-2.0, 4.0]])


class TestContourType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Contour(0.0, -1.0)
        with pytest.raises(ValueError):
            Contour(0.0, 1.0, nodes=3)

    def test_points_lie_on_circle(self):
        c = Contour(1.0 + 2.0j, 0.5, nodes=16)
        z, w = c.points()
        np.testing.assert_allclose(np.abs(z - (1.0 + 2.0j)), 0.5, atol=1e-15)
        # weights sum to zero: the normalized integral of an analytic function
        assert abs(w.sum()) <= 1e-15 * 16

    def test_contains(self):
        c = Contour(1.0, 0.5)
        assert c.contains(1.2)
        assert not c.contains(2.0)


class TestScalarMoments:
    def test_golden_4x4(self, diag_4x4, golden_contours):
        moms = scalar_moments(diag_4x4, golden_contours["diag_4x4"],
                              [2, -2, 1, -1], [0, 1, 0, 2], count=8)
        assert np.abs(moms.mu - GOLDEN_MU_4X4).max() <= 1e-8

    def test_golden_ss_2x2(self, ss_2x2, golden_contours):
        moms = scalar_moments(ss_2x2, golden_contours["ss_2x2"], [1, -1], [-1, 1], count=6)
        want = -(1.0 + np.arange(6.0) ** 2)  # mu_k = -(1 + k^2)
        assert np.abs(moms.mu - want).max() <= 1e-8
        assert abs(moms.mu[1] - (-2.0)) <= 1e-8

    def test_svecs_consistency(self, ss_2x2, golden_contours):
        moms = scalar_moments(ss_2x2, golden_contours["ss_2x2"], [1, -1], [-1, 1], count=6)
        recon = moms.u.conj() @ moms.svecs
        assert np.abs(recon - moms.mu).max() <= 1e-12

    def test_zero_probe_rejected(self, ss_2x2, golden_contours):
        with pytest.raises(ValueError, match="nonzero"):
            scalar_moments(ss_2x2, golden_contours["ss_2x2"], [1, -1], [0, 0], count=2)

    def test_eigenvalue_on_contour(self, ss_2x2):
        # node 0 sits at z = 1, an eigenvalue of the polynomial
        with pytest.raises(EigenvalueOnContourError) as err:
            scalar_moments(ss_2x2, Contour(0.5, 0.5, nodes=8), [1, -1], [-1, 1], count=2)
        assert err.value.node == 0

    def test_default_probes_are_seeded(self, ss_2x2, golden_contours):
        a = scalar_moments(ss_2x2, golden_contours["ss_2x2"], count=4, seed=9)
        b = scalar_moments(ss_2x2, golden_contours["ss_2x2"], count=4, seed=9)
        np.testing.assert_array_equal(a.mu, b.mu)
        u, v = default_probe_vectors(2, seed=9)
        np.testing.assert_allclose(np.linalg.norm(u), 1.0, atol=1e-14)
        np.testing.assert_allclose(np.linalg.norm(v), 1.0, atol=1e-14)

    def test_probe_linearity_in_u(self, ss_2x2, golden_contours):
        rng = np.random.default_rng(12)
        u1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        u2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = golden_contours["ss_2x2"]
        m1 = scalar_moments(ss_2x2, c, u1, v, count=5).mu
        m2 = scalar_moments(ss_2x2, c, u2, v, count=5).mu
        m12 = scalar_moments(ss_2x2, c, u1 + u2, v, count=5).mu
        assert np.abs(m12 - (m1 + m2)).max() <= 1e-12 * max(1.0, np.abs(m12).max())

    def test_quadrature_converged_at_64_nodes(self, diag_4x4, ss_2x2, multi_3x3):
        cases = [
            (diag_4x4, Contour(0.75, 0.5, 64), [2, -2, 1, -1], [0, 1, 0, 2]),
            (ss_2x2, Contour(1.0, 0.5, 64), [1, -1], [-1, 1]),
            (multi_3x3, Contour(1.0, 0.1, 64), [3, 1, -2], [3, -1, -2]),
        ]
        for P, c64, u, v in cases:
            c128 = Contour(c64.center, c64.radius, 128)
            mu64 = scalar_moments(P, c64, u, v, count=8).mu
            mu128 = scalar_moments(P, c128, u, v, count=8).mu
            assert np.abs(mu64 - mu128).max() <= 1e-10

    def test_recurrence_from_companion_polynomial(self, diag_4x4, golden_contours):
        # the moments obey the length-4 linear recurrence with the monic
        # coefficients 3, -13/4, 3/2, -1/4 of the enclosed-eigenvalue polynomial
        mu = scalar_moments(diag_4x4, golden_contours["diag_4x4"],
                            [2, -2, 1, -1], [0, 1, 0, 2], count=8).mu
        for k in range(4, 8):
            pred = 3 * mu[k - 1] - 13.0 / 4 * mu[k - 2] + 1.5 * mu[k - 3] - 0.25 * mu[k - 4]
            assert abs(mu[k] - pred) <= 1e-8

    def test_moment_sequence_invariant(self, golden_contours):
        with pytest.raises(ValueError, match="inconsistent"):
            MomentSequence(
                u=np.array([1.0, 0.0]),
                v=np.array([0.0, 1.0]),
                mu=np.array([1.0 + 0j, 2.0]),
                contour=golden_contours["ss_2x2"],
                svecs=np.zeros((2, 2), dtype=complex),
            )


class TestBlockMoments:
    def test_golden_block_moments(self, multi_3x3, golden_contours):
        bmoms = block_moments(multi_3x3, golden_contours["multi_3x3"], U3, V3, count=6)
        assert (bmoms.xi, len(bmoms)) == (U3.shape[1], 6)
        for got, want in zip(bmoms.moments, GOLDEN_BLOCK_MOMENTS):
            assert np.abs(got - want).max() <= 1e-8

    def test_xi_one_matches_scalar(self, ss_2x2, golden_contours):
        c = golden_contours["ss_2x2"]
        u = np.array([1.0, -1.0])
        v = np.array([-1.0, 1.0])
        bmoms = block_moments(ss_2x2, c, u.reshape(2, 1), v.reshape(2, 1), count=6)
        smoms = scalar_moments(ss_2x2, c, u, v, count=6)
        block_as_scalar = np.array([M[0, 0] for M in bmoms.moments])
        assert np.abs(block_as_scalar - smoms.mu).max() <= 1e-12

    def test_block_scalar_consistency_via_sblocks(self, multi_3x3, golden_contours):
        c = golden_contours["multi_3x3"]
        u = np.array([3.0, 1.0, -2.0])
        v = np.array([3.0, -1.0, -2.0])
        V = np.column_stack([v, np.array([1.0, 0.0, 0.0])])
        U = np.column_stack([u, np.array([0.0, 1.0, 0.0])])
        bmoms = block_moments(multi_3x3, c, U, V, count=6)
        smoms = scalar_moments(multi_3x3, c, u, v, count=6)
        recon = np.array([u.conj() @ S[:, 0] for S in bmoms.sblocks])
        assert np.abs(recon - smoms.mu).max() <= 1e-12 * max(1.0, np.abs(smoms.mu).max())

    def test_matches_node_loop_reference(self):
        # the kernel sums over the nodes in one matrix product; the node-order
        # loop it replaced is the reference, within the roundoff of the sum
        rng = np.random.default_rng(5)
        P = random_regular_polynomial(rng, 6, 2)
        contour = Contour(0.3, 0.8, nodes=32)
        U, V = (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)) for _ in range(2))
        z, w = contour.points()
        S_ref = np.zeros((10, 6, 2), dtype=complex)
        size = 0.0
        for zj, wj in zip(z, w):
            Y = np.linalg.solve(eval_scalar(P, zj), V)
            for k in range(10):
                S_ref[k] += wj * zj ** k * Y
                size = max(size, abs(wj * zj ** k) * np.abs(Y).max())
        tol = 4 * contour.nodes * np.finfo(float).eps * size
        bmoms = block_moments(P, contour, U, V, count=10)
        assert np.abs(np.array(bmoms.sblocks) - S_ref).max() <= tol
        assert np.abs(np.array(bmoms.moments) - U.conj().T @ S_ref).max() <= tol * np.abs(U).sum()
        moms = scalar_moments(P, contour, U[:, 0], V[:, 0], count=10)
        assert np.abs(moms.svecs - S_ref[:, :, 0].T).max() <= tol

    def test_duplicate_columns_rejected(self, multi_3x3, golden_contours):
        U = np.column_stack([U3[:, 0], U3[:, 0]])
        with pytest.raises(ValueError, match="independent"):
            block_moments(multi_3x3, golden_contours["multi_3x3"], U, V3, count=2)

    def test_sequence_invariant(self, golden_contours):
        with pytest.raises(ValueError, match="inconsistent"):
            BlockMomentSequence(
                U=U3, V=V3,
                moments=(np.eye(2, dtype=complex),),
                contour=golden_contours["multi_3x3"],
                sblocks=(np.zeros((3, 2), dtype=complex),),
            )


class TestEigenvalueCount:
    def test_golden_counts(self, ss_2x2, multi_3x3, golden_contours):
        c1 = count_eigenvalues_inside(ss_2x2, golden_contours["ss_2x2"])
        assert (c1.count, c1.quality <= 1e-6) == (3, True)
        c2 = count_eigenvalues_inside(multi_3x3, golden_contours["multi_3x3"])
        assert (c2.count, c2.quality <= 1e-6) == (5, True)
        c3 = count_eigenvalues_inside(ss_2x2, Contour(100.0, 0.1))
        assert (c3.count, c3.quality <= 1e-6) == (0, True)

    def test_poor_quality_warns(self, ss_2x2):
        # few nodes with an eigenvalue close to the contour
        with pytest.warns(UserWarning, match="increase N"):
            count_eigenvalues_inside(ss_2x2, Contour(0.4, 0.45, nodes=8))


def overflowing_2x2():
    """I + 1e300 z^2 I: every entry of P(z) overflows on a circle of radius 1e10."""
    return MatrixPolynomial([np.eye(2), np.zeros((2, 2)), 1e300 * np.eye(2)])


class TestNonFiniteNodes:
    """A node where P(z_j) is not finite raises a ValueError naming it, and
    the overflow on the way issues no numpy warning."""

    @pytest.mark.parametrize("call", [
        lambda P, c: count_eigenvalues_inside(P, c),
        lambda P, c: extract_invariant_pair(P, c, [1, 1], [1, -1]),
        lambda P, c: extract_block_invariant_pair(P, c, np.eye(2), np.eye(2)),
    ], ids=["count", "scalar", "block"])
    def test_overflow_names_the_node(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"P\(z\) is not finite at node 0 \(t = 0\.000000\)"):
                call(overflowing_2x2(), Contour(0.0, 1e10))

    def test_finite_entries_whose_norm_overflows(self):
        P = MatrixPolynomial([np.array([[1e308, 1.0], [1e308, 2.0]]), np.eye(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="1-norm that overflows at node 0"):
                count_eigenvalues_inside(P, Contour(0.0, 1.0))


class TestResidueOracle:
    def test_simple_pole_cases(self):
        assert residue_moment_oracle([(0.7, 1, [1.0])], 0) == pytest.approx(1.0)
        assert residue_moment_oracle([(2.0, 1, [3.0])], 2) == pytest.approx(12.0)

    def test_double_pole(self):
        # residue of z^3/(z-1)^2 at 1 is 3
        assert residue_moment_oracle([(1.0, 2, [0.0, 1.0])], 3) == pytest.approx(3.0)

    def test_order_below_pole_contributes_nothing(self):
        # k = 1 < i - 1 = 2: a pure third-order coefficient contributes nothing
        assert residue_moment_oracle([(1.0, 3, [0.0, 0.0, 1.0])], 1) == 0.0
        # with c_2 present only the c_2 * k term survives at k = 1
        assert residue_moment_oracle([(1.0, 3, [0.0, 1.0, 5.0])], 1) == pytest.approx(1.0)

    def test_matches_quadrature_on_residue_problem(self):
        P = problems.residue_diag_2x2()
        c = Contour(2.0, 2.5)
        moms = scalar_moments(P, c, [1.0, 1.0], [1.0, 1.0], count=8)
        for k in range(8):
            want = residue_moment_oracle(RESIDUE_DIAG_SPECTRUM, k)
            assert abs(moms.mu[k] - want) <= 1e-10

    def test_matches_quadrature_on_diag_4x4(self, diag_4x4, golden_contours):
        moms = scalar_moments(diag_4x4, golden_contours["diag_4x4"],
                              [2, -2, 1, -1], [0, 1, 0, 2], count=8)
        for k in range(8):
            want = residue_moment_oracle(DIAG_4X4_SPECTRUM, k)
            assert abs(moms.mu[k] - want) <= 1e-10

    def test_input_validation(self):
        with pytest.raises(ValueError, match="coefficients"):
            residue_moment_oracle([(1.0, 2, [1.0])], 0)
        with pytest.raises(ValueError, match="nonnegative"):
            residue_moment_oracle([(1.0, 1, [1.0])], -1)

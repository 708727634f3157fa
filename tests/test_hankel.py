import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor, lu_solve

from invpairs import (
    Contour,
    EigenvalueOnContourError,
    HankelPencil,
    HankelRankError,
    MatrixPolynomial,
    build_block_hankel,
    build_hankel,
    companion_from_pencil,
    eval_pair,
    extract_block_invariant_pair,
    extract_invariant_pair,
    numerical_rank,
    pencil_eigenvalues,
    scalar_moments,
    block_moments,
    count_eigenvalues_inside,
)
from invpairs import contour as contour_module
from invpairs import hankel, problems
from invpairs.matpoly import eval_derivative

from conftest import (
    GOLDEN_BLOCK_T,
    GOLDEN_BLOCK_Y,
    GOLDEN_MU_4X4,
    GOLDEN_S_SS,
    GOLDEN_X_SS,
    horner_out_of_place,
)

U3 = np.array(problems.GOLDEN_PROBES["multi_3x3"]["U"])
V3 = np.array(problems.GOLDEN_PROBES["multi_3x3"]["V"])
V3_YHAT = np.array(problems.GOLDEN_PROBES["multi_3x3"]["V_yhat"])


def _golden_moments(P, contour, u, v, count):
    return scalar_moments(P, contour, u, v, count=count)


class TestBuildHankel:
    def test_golden_4x4_pencil(self, diag_4x4, golden_contours):
        moms = _golden_moments(diag_4x4, golden_contours["diag_4x4"], [2, -2, 1, -1], [0, 1, 0, 2], 8)
        hp = build_hankel(moms, 4)
        H0_want = np.array([[GOLDEN_MU_4X4[i + j] for j in range(4)] for i in range(4)])
        H1_want = np.array([[GOLDEN_MU_4X4[i + j + 1] for j in range(4)] for i in range(4)])
        assert np.abs(hp.H0 - H0_want).max() <= 1e-8
        assert np.abs(hp.H1 - H1_want).max() <= 1e-8

    def test_multi_3x3_reference_h0(self, multi_3x3, golden_contours):
        moms = _golden_moments(multi_3x3, golden_contours["multi_3x3"], [3, 1, -2], [3, -1, -2], 6)
        hp = build_hankel(moms, 3)
        H0_want = np.array([[7.0, 3.0, 3.0], [3.0, 3.0, 7.0], [3.0, 7.0, 15.0]])
        assert np.abs(hp.H0 - H0_want).max() <= 1e-8

    def test_m_one(self, ss_2x2, golden_contours):
        moms = _golden_moments(ss_2x2, golden_contours["ss_2x2"], [1, -1], [-1, 1], 2)
        hp = build_hankel(moms, 1)
        assert hp.H0.shape == (1, 1)
        assert abs(hp.H0[0, 0] - moms.mu[0]) == 0.0
        assert abs(hp.H1[0, 0] - moms.mu[1]) == 0.0

    def test_insufficient_moments(self, ss_2x2, golden_contours):
        moms = _golden_moments(ss_2x2, golden_contours["ss_2x2"], [1, -1], [-1, 1], 5)
        with pytest.raises(ValueError, match="at least 6 moments"):
            build_hankel(moms, 3)

    @pytest.mark.parametrize("m", [2.5, 2.0, True], ids=["fraction", "float", "bool"])
    def test_non_integer_m_raises(self, ss_2x2, golden_contours, m):
        # m = True once built a 1-by-1 pencil
        moms = _golden_moments(ss_2x2, golden_contours["ss_2x2"], [1, -1], [-1, 1], 6)
        with pytest.raises(ValueError, match="m must be an integer"):
            build_hankel(moms, m)

    @pytest.mark.parametrize("block_size", [1.5, 2.0, True], ids=["fraction", "float", "bool"])
    def test_non_integer_block_size_raises(self, block_size):
        # 1.5 was once reported as a matrix size that is not a multiple of it
        with pytest.raises(ValueError, match="block_size must be an integer"):
            HankelPencil(H0=[[1.0, 2.0], [2.0, 3.0]], H1=[[2.0, 3.0], [3.0, 4.0]], block_size=block_size)

    def test_structure_validation(self):
        good = HankelPencil(H0=[[1.0, 2.0], [2.0, 3.0]], H1=[[2.0, 3.0], [3.0, 4.0]])
        assert good.m == 2
        # shift-consistent but not Hankel
        with pytest.raises(ValueError, match="Hankel"):
            HankelPencil(H0=[[1.0, 2.0], [5.0, 3.0]], H1=[[5.0, 3.0], [3.0, 9.0]])
        # Hankel but shift-inconsistent
        with pytest.raises(ValueError, match="shift"):
            HankelPencil(H0=[[1.0, 2.0], [2.0, 3.0]], H1=[[9.0, 3.0], [3.0, 4.0]])

    @pytest.mark.parametrize("xi", [1, 2, 3])
    @pytest.mark.parametrize("mt", [1, 2, 3, 4])
    def test_pencil_matches_the_former_block_assembly(self, xi, mt):
        rng = np.random.default_rng(7 * xi + mt)
        moments = rng.standard_normal((2 * mt, xi, xi)) + 1j * rng.standard_normal((2 * mt, xi, xi))
        H0, H1 = hankel._pencil(moments, mt)
        np.testing.assert_array_equal(H0, np.block([[moments[i + j] for j in range(mt)] for i in range(mt)]))
        np.testing.assert_array_equal(H1, np.block([[moments[i + j + 1] for j in range(mt)] for i in range(mt)]))
        np.testing.assert_array_equal(hankel._pencil(tuple(moments), mt)[0], H0)

    @pytest.mark.parametrize("xi", [1, 2, 3])
    @pytest.mark.parametrize("mt", [1, 2, 3, 4])
    def test_check_accepts_and_rejects_what_the_former_loop_did(self, xi, mt):
        # Small integer moments, so that a changed entry sometimes keeps the
        # structure; each pencil is intact, has one entry of H0 or H1 changed,
        # or has one entry set to NaN.
        rng = np.random.default_rng(100 * xi + mt)
        verdicts = set()
        for _ in range(150):
            moments = rng.integers(-2, 3, (2 * mt, xi, xi)).astype(complex)
            H = [np.block([[moments[i + j + s] for j in range(mt)] for i in range(mt)]) for s in (0, 1)]
            kind = rng.integers(5)
            if kind:
                r, c = rng.integers(mt * xi, size=2)
                H[kind % 2][r, c] = np.nan if kind > 2 else rng.integers(-2, 3)
            want = _former_structure_check(H[0], H[1], xi)
            verdicts.add(want is None)
            if want is None:
                assert HankelPencil(H[0], H[1], xi).m == mt * xi
            else:
                with pytest.raises(ValueError, match="Hankel|shift"):
                    HankelPencil(H[0], H[1], xi)
        assert verdicts == {True, False}


def _former_structure_check(H0, H1, xi):
    """The blockwise loop HankelPencil ran before it read one block per
    anti-diagonal: the first violation's message, or None for a valid pencil."""
    mt = H0.shape[0] // xi

    def block(H, i, j):
        return H[i * xi:(i + 1) * xi, j * xi:(j + 1) * xi]

    for i in range(mt):
        for j in range(mt):
            d = i + j
            if not np.array_equal(block(H0, i, j), block(H0, min(d, mt - 1), d - min(d, mt - 1))):
                return "H0 is not (block) Hankel"
            if not np.array_equal(block(H1, i, j), block(H1, min(d, mt - 1), d - min(d, mt - 1))):
                return "H1 is not (block) Hankel"
            if i + 1 < mt and not np.array_equal(block(H1, i, j), block(H0, i + 1, j)):
                return "shift structure violated"
    return None


class TestNumericalRank:
    def test_identity_and_zero(self):
        assert numerical_rank(np.eye(5)) == 5
        assert numerical_rank(np.zeros((4, 4))) == 0

    def test_five_by_five_hat_matrix_rank_three(self, multi_3x3, golden_contours):
        moms = _golden_moments(multi_3x3, golden_contours["multi_3x3"], [3, 1, -2], [3, -1, -2], 10)
        hp = build_hankel(moms, 5)
        assert numerical_rank(hp.H0) == 3
        svals = np.linalg.svd(hp.H0, compute_uv=False)
        assert svals[3] / svals[0] <= 1e-8

    def test_hat_matrix_from_recurrence(self):
        # mu_k = 2k^2 - 6k + 7 generates the 5x5 Hankel of the triple eigenvalue
        # example; a quadratic sequence always gives rank 3
        mu = np.array([2 * k ** 2 - 6 * k + 7 for k in range(9)], dtype=float)
        H = np.array([[mu[i + j] for j in range(5)] for i in range(5)])
        assert numerical_rank(H) == 3
        # corrupting the trailing entry (as in a transcription slip) lifts the rank
        H_bad = H.copy()
        H_bad[4, 4] = 63.0
        assert numerical_rank(H_bad) == 4

    def test_stack_gives_the_rank_of_each_matrix(self):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        stack[1, :, 3] = stack[1, :, 0] - 2j * stack[1, :, 2]
        stack[2, :, 2:] = 0.0
        stack[3] = 0.0
        stack[4] *= 1e-200
        ranks = numerical_rank(stack)
        assert ranks.tolist() == [4, 3, 2, 0, 4]
        assert ranks.tolist() == [numerical_rank(M) for M in stack]


class TestCompanionFromPencil:
    def test_golden_4x4(self, diag_4x4, golden_contours):
        moms = _golden_moments(diag_4x4, golden_contours["diag_4x4"], [2, -2, 1, -1], [0, 1, 0, 2], 8)
        C = companion_from_pencil(build_hankel(moms, 4))
        want_last = np.array([-0.25, 1.5, -3.25, 3.0])
        assert np.abs(C[:, -1] - want_last).max() <= 1e-8
        np.testing.assert_array_equal(C[1:, :-1], np.eye(3))
        got = np.sort(np.linalg.eigvals(C).real)
        assert np.abs(got - np.array([0.5, 0.5, 1.0, 1.0])).max() <= 1e-6

    def test_multi_3x3_companion(self, multi_3x3, golden_contours):
        moms = _golden_moments(multi_3x3, golden_contours["multi_3x3"], [3, 1, -2], [3, -1, -2], 6)
        C = companion_from_pencil(build_hankel(moms, 3))
        want = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, -3.0], [0.0, 1.0, 3.0]])
        assert np.abs(C - want).max() <= 1e-8

    def test_m_one_scalar_division(self, golden_contours):
        from invpairs import MomentSequence

        moms = MomentSequence(u=np.array([1.0]), v=np.array([1.0]),
                              mu=np.array([2.0 + 0j, 6.0 + 0j]),
                              contour=golden_contours["ss_2x2"])
        C = companion_from_pencil(build_hankel(moms, 1))
        assert C.shape == (1, 1)
        assert abs(C[0, 0] - 3.0) <= 1e-14

    def test_shift_identity(self, diag_4x4, ss_2x2, golden_contours):
        for P, key, u, v, m in [
            (diag_4x4, "diag_4x4", [2, -2, 1, -1], [0, 1, 0, 2], 4),
            (ss_2x2, "ss_2x2", [1, -1], [-1, 1], 3),
        ]:
            hp = build_hankel(_golden_moments(P, golden_contours[key], u, v, 2 * m), m)
            C = companion_from_pencil(hp)
            rel = np.linalg.norm(hp.H0 @ C - hp.H1) / np.linalg.norm(hp.H1)
            assert rel <= 1e-10

    def test_singular_h0_raises_with_rank(self, multi_3x3, golden_contours):
        moms = _golden_moments(multi_3x3, golden_contours["multi_3x3"], [3, 1, -2], [3, -1, -2], 10)
        with pytest.raises(HankelRankError) as err:
            companion_from_pencil(build_hankel(moms, 5))
        assert err.value.rank == 3


class TestPencilEigenvalues:
    def test_golden_4x4_clusters(self, diag_4x4, golden_contours):
        moms = _golden_moments(diag_4x4, golden_contours["diag_4x4"], [2, -2, 1, -1], [0, 1, 0, 2], 8)
        clusters = pencil_eigenvalues(build_hankel(moms, 4))
        assert [(round(v.real, 6), m) for v, m in clusters] == [(0.5, 2), (1.0, 2)]
        assert all(abs(v.imag) <= 1e-6 for v, _ in clusters)

    def test_triple_eigenvalue_cluster(self, multi_3x3, golden_contours):
        moms = _golden_moments(multi_3x3, golden_contours["multi_3x3"], [3, 1, -2], [3, -1, -2], 6)
        clusters = pencil_eigenvalues(build_hankel(moms, 3))
        assert len(clusters) == 1
        value, mult = clusters[0]
        assert mult == 3
        assert abs(value - 1.0) <= 1e-6

    def test_m_one(self, golden_contours):
        from invpairs import MomentSequence

        moms = MomentSequence(u=np.array([1.0]), v=np.array([1.0]),
                              mu=np.array([2.0 + 0j, 6.0 + 0j]),
                              contour=golden_contours["ss_2x2"])
        assert pencil_eigenvalues(build_hankel(moms, 1)) == [(3.0 + 0j, 1)]


class TestVandermondeFactorization:
    def test_golden_4x4_factors(self, diag_4x4, golden_contours):
        moms = _golden_moments(diag_4x4, golden_contours["diag_4x4"], [2, -2, 1, -1], [0, 1, 0, 2], 8)
        hp = build_hankel(moms, 4)
        V = np.array([[1.0, 0.5, 0.25, 0.125], [0.0, 1.0, 1.0, 0.75],
                      [1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 2.0, 3.0]])
        B0 = np.array([[0.0, -2.0, 0.0, 0.0], [-2.0, 0.0, 0.0, 0.0],
                       [0.0, 0.0, -3.0, -2.0], [0.0, 0.0, -2.0, 0.0]])
        B1 = np.array([[-2.0, -1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                       [0.0, 0.0, -5.0, -2.0], [0.0, 0.0, -2.0, 0.0]])
        J = np.array([[0.5, 1.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 1.0]])
        assert np.linalg.norm(hp.H0 - V.T @ B0 @ V) <= 1e-8
        assert np.linalg.norm(hp.H1 - V.T @ B1 @ V) <= 1e-8
        assert np.linalg.norm(J @ B0 - B1) == 0.0


class TestExtractInvariantPair:
    def test_golden_ss_2x2(self, ss_2x2, golden_contours):
        pair = extract_invariant_pair(ss_2x2, golden_contours["ss_2x2"], [1, -1], [-1, 1], m=3)
        assert np.abs(pair.X - GOLDEN_X_SS).max() <= 1e-8
        assert np.abs(pair.S - GOLDEN_S_SS).max() <= 1e-8
        rel = np.linalg.norm(eval_pair(ss_2x2, pair), "fro") / np.linalg.norm(pair.X, "fro")
        assert rel <= 1e-8

    def test_oversized_m_raises_truncation_error(self, ss_2x2, golden_contours):
        with pytest.raises(HankelRankError) as err:
            extract_invariant_pair(ss_2x2, golden_contours["ss_2x2"], [1, -1], [-1, 1], m=4)
        assert err.value.rank == 3

    def test_multi_3x3_m5_raises(self, multi_3x3, golden_contours):
        with pytest.raises(HankelRankError) as err:
            extract_invariant_pair(multi_3x3, golden_contours["multi_3x3"], [3, 1, -2], [3, -1, -2], m=5)
        assert err.value.rank == 3

    def test_default_m_from_count(self, ss_2x2, golden_contours):
        pair = extract_invariant_pair(ss_2x2, golden_contours["ss_2x2"], [1, -1], [-1, 1])
        assert pair.k == 3

    def test_default_m_truncates_with_warning(self, multi_3x3, golden_contours):
        # 5 eigenvalues enclosed, the scalar method sees only 3
        with pytest.warns(UserWarning, match="truncating"):
            pair = extract_invariant_pair(multi_3x3, golden_contours["multi_3x3"],
                                          [3, 1, -2], [3, -1, -2])
        assert pair.k == 3
        rel = np.linalg.norm(eval_pair(multi_3x3, pair), "fro") / np.linalg.norm(pair.X, "fro")
        assert rel <= 1e-8

    def test_empty_contour_raises(self, ss_2x2):
        with pytest.raises(ValueError, match="no eigenvalues"):
            extract_invariant_pair(ss_2x2, Contour(100.0, 0.1), [1, -1], [-1, 1])

    @pytest.mark.parametrize("m", [3.9, 2.0, True, "3"], ids=["fraction", "float", "bool", "str"])
    def test_non_integer_m_raises(self, diag_4x4, m):
        # int(m) would truncate 3.9 to 3 and read True as 1
        with pytest.raises(ValueError, match="m must be an integer"):
            extract_invariant_pair(diag_4x4, Contour(0.75, 0.5), m=m)

    def test_numpy_integer_m(self, diag_4x4):
        assert extract_invariant_pair(diag_4x4, Contour(0.75, 0.5), m=np.int64(2)).k == 2


class TestExtractBlockInvariantPair:
    def test_example_with_moment_probes(self, multi_3x3, golden_contours):
        # the probes belonging to the reference block moments: T is the
        # reference matrix and (Y, T) is an invariant pair
        pair = extract_block_invariant_pair(multi_3x3, golden_contours["multi_3x3"], U3, V3, m=5)
        assert np.abs(pair.S - GOLDEN_BLOCK_T).max() <= 1e-8
        assert np.linalg.norm(eval_pair(multi_3x3, pair), "fro") <= 1e-8
        clusters = pencil_eigenvalues_of(pair.S)
        assert clusters == [(5, True)]

    def test_example_with_yhat_probes(self, multi_3x3, golden_contours):
        # the second probe matrix recovered from the reference Y-hat: the fit
        # is unique, and with it the reference Y-hat comes out exactly
        pair = extract_block_invariant_pair(multi_3x3, golden_contours["multi_3x3"], U3, V3_YHAT, m=5)
        assert np.abs(pair.X - GOLDEN_BLOCK_Y).max() <= 1e-8
        assert np.linalg.norm(eval_pair(multi_3x3, pair), "fro") <= 1e-8

    def test_mixed_probe_pair_is_inconsistent(self, multi_3x3, golden_contours):
        # Y-hat from one probe set does not pair with T from the other: the
        # mixed residual is order one, which pins down the inconsistency
        # between the two reference displays
        pair_T = extract_block_invariant_pair(multi_3x3, golden_contours["multi_3x3"], U3, V3, m=5)
        res = eval_pair(multi_3x3, (GOLDEN_BLOCK_Y, pair_T.S))
        assert np.linalg.norm(res, "fro") > 1.0

    def test_non_integer_m_raises(self, diag_4x4):
        U = V = np.eye(4)[:, :2]
        with pytest.raises(ValueError, match="m must be an integer, got 2.5"):
            extract_block_invariant_pair(diag_4x4, Contour(0.75, 0.5), U, V, m=2.5)

    def test_default_m_uses_enclosed_count(self, multi_3x3, golden_contours):
        # with m unset the enclosed count 5 drives the truncated block solve
        pair = extract_block_invariant_pair(multi_3x3, golden_contours["multi_3x3"], U3, V3)
        assert pair.k == 5
        assert np.linalg.norm(eval_pair(multi_3x3, pair), "fro") <= 1e-8

    @pytest.mark.parametrize("case", ["multi_3x3-m5", "seeded-l2-m3"])
    def test_truncated_pencil_keeps_the_companion_form(self, multi_3x3, golden_contours, case):
        # xi = 2 does not divide m: in the leading m-by-m part of the block
        # pencil, column j < m - xi of H1 is column j + xi of H0, so those
        # columns of S are exact unit vectors and only the last xi are solved
        if case == "multi_3x3-m5":
            P, contour, U, V, m = multi_3x3, golden_contours["multi_3x3"], U3, V3, 5
        else:
            rng = np.random.default_rng([8, 2, 3])
            P, contour, m = _extract_style_case(rng, 8, 2, "")
            U, V = (rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)) for _ in range(2))
        xi, mt = 2, math.ceil(m / 2)
        S = extract_block_invariant_pair(P, contour, U, V, m=m).S
        hp = build_block_hankel(block_moments(P, contour, U, V, count=2 * mt), mt)
        H0, H1 = hp.H0[:m, :m], hp.H1[:m, :m]
        assert (m, hp.block_size) == (2 * mt - 1, xi)
        assert np.array_equal(S[xi:, :m - xi], np.eye(m - xi))
        assert not S[:xi, :m - xi].any()
        assert np.linalg.norm(H0 @ S - H1) <= 1e-12 * np.linalg.norm(H1)

    def test_xi_one_reduces_to_scalar(self, ss_2x2, golden_contours):
        u = np.array([1.0, -1.0])
        v = np.array([-1.0, 1.0])
        scalar = extract_invariant_pair(ss_2x2, golden_contours["ss_2x2"], u, v, m=3)
        block = extract_block_invariant_pair(ss_2x2, golden_contours["ss_2x2"],
                                             u.reshape(2, 1), v.reshape(2, 1), m=3)
        # one moment kernel and one pencil-to-pair routine: the same bits
        assert np.array_equal(scalar.X, block.X)
        assert np.array_equal(scalar.S, block.S)

    @pytest.mark.parametrize("mt", [2.5, 2.0, True], ids=["fraction", "float", "bool"])
    def test_non_integer_block_rows_raise(self, multi_3x3, golden_contours, mt):
        bmoms = block_moments(multi_3x3, golden_contours["multi_3x3"], U3, V3, count=6)
        with pytest.raises(ValueError, match="mt must be an integer"):
            build_block_hankel(bmoms, mt)

    def test_block_hankel_builder(self, multi_3x3, golden_contours):
        bmoms = block_moments(multi_3x3, golden_contours["multi_3x3"], U3, V3, count=6)
        hp = build_block_hankel(bmoms, 3)
        assert hp.m == 6
        assert hp.block_size == 2
        # exactly singular: only 5 eigenvalues feed a 6x6 pencil
        assert numerical_rank(hp.H0) == 5

    def test_missing_probes(self, multi_3x3, golden_contours):
        with pytest.raises(ValueError, match="probe"):
            extract_block_invariant_pair(multi_3x3, golden_contours["multi_3x3"], None, None, m=5)

    def test_zero_width_probes(self, multi_3x3, golden_contours):
        empty = np.zeros((3, 0))
        with pytest.raises(ValueError, match="xi >= 1"):
            extract_block_invariant_pair(multi_3x3, golden_contours["multi_3x3"], empty, empty, m=5)
        with pytest.raises(ValueError, match="xi >= 1"):
            block_moments(multi_3x3, golden_contours["multi_3x3"], empty, empty)

    def test_dependent_probes_rejected_before_counting(self, monkeypatch, multi_3x3, golden_contours):
        def count(*args, **kwargs):
            raise AssertionError("counted eigenvalues before checking the probes")

        monkeypatch.setattr(hankel, "count_eigenvalues_inside", count)
        factored = _count_factorizations(monkeypatch)
        ones = np.ones((3, 2))
        with pytest.raises(ValueError, match="linearly independent columns"):
            extract_block_invariant_pair(multi_3x3, golden_contours["multi_3x3"], ones, ones)
        assert factored == []


def _count_factorizations(monkeypatch):
    """Record every P(z_j) that contour factors (the hook the benchmark tracer uses)."""
    factored = []
    original = contour_module.lu_factor

    def counted(a, *args, **kwargs):
        factored.append(a)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(contour_module, "lu_factor", counted)
    return factored


# A circle per bundled problem, each enclosing part of its spectrum.
FIXTURE_CONTOURS = {
    "diag_4x4": Contour(0.75, 0.5),
    "ss_2x2": Contour(1.0, 0.5),
    "multi_3x3": Contour(1.0, 0.1),
    "quad_solvents_2x2": Contour(1.5, 1.0),
    "infinite_family_3x3": Contour(3.0, 0.5),
    "infinite_family_3x3_triangular": Contour(3.0, 0.5),
    "residue_diag_2x2": Contour(1.5, 1.0),
}


def _outcome(call):
    """(X, S) or the raised error, with the warnings issued on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            pair = call()
            result = (pair.X, pair.S)
        except (ValueError, RuntimeError) as err:
            result = (type(err), str(err))
    return result, [str(w.message) for w in caught]


def _assert_same_bits(a, b):
    (ra, wa), (rb, wb) = a, b
    assert wa == wb
    assert len(ra) == len(rb)
    for x, y in zip(ra, rb):
        assert (np.array_equal(x, y) and x.dtype == y.dtype) if isinstance(x, np.ndarray) else x == y


def _stored_factors(P, contour):
    """The former node loop: P(z_j) evaluated out of place and LU-factored per
    node, with every factor kept; returns (z, w, factors)."""
    z, w = contour.points()
    lus = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        for j, zj in enumerate(z):
            Pz = horner_out_of_place(P.coeffs, zj)
            lu = lu_factor(Pz)
            gecon = get_lapack_funcs(("gecon",), (Pz,))[0]
            rcond, _ = gecon(lu[0], np.linalg.norm(Pz, 1))
            cond = np.inf if rcond == 0 else 1.0 / rcond
            if cond > contour_module.NEAR_CONTOUR_CONDITION:
                raise EigenvalueOnContourError(j, 2 * math.pi * j / contour.nodes, cond)
            lus.append(lu)
    return z, w, lus


def _det_phases(lus):
    """arg det P(z_j) read off the whole stack of stored factors at once."""
    diag = np.array([np.diagonal(lu) for lu, _ in lus])
    piv = np.array([piv for _, piv in lus])
    swaps = np.count_nonzero(piv != np.arange(piv.shape[1]), axis=1)
    return np.angle(diag).sum(axis=1) + math.pi * (swaps % 2)


def _stored_factor_solves(P, contour, V=None):
    """Reference for contour._solve_at_nodes on the stored factors."""
    if isinstance(contour, contour_module._NodeSolves):
        return contour
    z, w, lus = _stored_factors(P, contour)
    Y = None if V is None else np.stack([lu_solve(lu, V) for lu in lus])
    return contour_module._NodeSolves(contour, z, w, _det_phases(lus), Y)


def _stored_trace_count(P, contour):
    """Reference for count_eigenvalues_inside on the stored factors."""
    z, w, lus = _stored_factors(P, contour)
    acc = 0.0 + 0.0j
    for zj, wj, lu in zip(z, w, lus):
        acc += wj * np.trace(lu_solve(lu, eval_derivative(P, zj)))
    m = int(round(acc.real))
    return m, abs(acc - m)


def _split_between_two_workers(monkeypatch):
    """Two node-pass workers from n = 100 on, whatever the CPU count."""
    monkeypatch.setattr(contour_module, "_NODE_WORKERS", 2)
    assert contour_module._SPLIT_MIN_N == 100


def _assert_pass_matches_stored_factors(monkeypatch, P, contour, U, V):
    """Phases, trace count, moments and extracted pairs of the node pass (one
    buffer per worker, split between two workers from n = 100 on) equal, bit
    for bit, those read off the stack of stored factors."""
    _split_between_two_workers(monkeypatch)
    calls = [
        lambda: extract_invariant_pair(P, contour),
        lambda: extract_invariant_pair(P, contour, m=2),
        lambda: extract_block_invariant_pair(P, contour, U, V),
    ]
    streamed = [_outcome(call) for call in calls]
    assert any(isinstance(result[0], np.ndarray) for result, _ in streamed)
    with monkeypatch.context() as m:
        for module in (contour_module, hankel):
            m.setattr(module, "_solve_at_nodes", _stored_factor_solves)
        stored = [_outcome(call) for call in calls]
        stored_moments = scalar_moments(P, contour, count=6), block_moments(P, contour, U, V, count=6)
    for a, b in zip(streamed, stored):
        _assert_same_bits(a, b)

    a, b = contour_module._solve_at_nodes(P, contour, V), _stored_factor_solves(P, contour, V)
    assert np.array_equal(a.phases, b.phases) and np.array_equal(a.Y, b.Y)
    assert tuple(count_eigenvalues_inside(P, contour)) == _stored_trace_count(P, contour)
    a, b = scalar_moments(P, contour, count=6), stored_moments[0]
    assert a.contour == b.contour == contour
    assert np.array_equal(a.mu, b.mu) and np.array_equal(a.svecs, b.svecs)
    a, b = block_moments(P, contour, U, V, count=6), stored_moments[1]
    assert a.contour == b.contour == contour
    assert np.array_equal(a.moments, b.moments) and np.array_equal(a.sblocks, b.sblocks)


class TestSharedNodeFactorization:
    """The count and the moments of one extraction share one pass over the
    nodes, which factors each node once and keeps no factor."""

    def test_each_node_factored_once(self, monkeypatch, multi_3x3, golden_contours):
        contour = golden_contours["multi_3x3"]
        factored = _count_factorizations(monkeypatch)
        # default m: counted 5, truncated to rank 3 and rerun on the same moments
        with pytest.warns(UserWarning, match="truncating"):
            extract_invariant_pair(multi_3x3, contour, [3, 1, -2], [3, -1, -2])
        assert len(factored) == contour.nodes
        factored.clear()
        extract_block_invariant_pair(multi_3x3, contour, U3, V3)
        assert len(factored) == contour.nodes
        factored.clear()
        extract_invariant_pair(multi_3x3, contour, [3, 1, -2], [3, -1, -2], m=3)
        assert len(factored) == contour.nodes

    @pytest.mark.parametrize("n, threads", [(50, 1), (100, 2)])
    def test_split_pass_factors_each_half_on_its_own_thread(self, monkeypatch, n, threads):
        _split_between_two_workers(monkeypatch)
        P, contour, _ = _extract_style_case(np.random.default_rng([n, 2]), n, 2, "")
        factored_by = []
        original = contour_module.lu_factor

        def counted(a, *args, **kwargs):
            factored_by.append(threading.get_ident())
            return original(a, *args, **kwargs)

        monkeypatch.setattr(contour_module, "lu_factor", counted)
        extract_invariant_pair(P, contour, *contour_module.default_probe_vectors(n, 1))
        assert len(factored_by) == contour.nodes
        assert [factored_by.count(t) for t in dict.fromkeys(factored_by)] == [contour.nodes // threads] * threads

    def test_split_pass_keeps_bits_with_more_workers_than_cores(self, monkeypatch):
        # four workers and a switch interval of 1 us interleave the threads
        # as finely as the interpreter allows; every node still lands in its
        # own slot, and the trace count still sums in node order
        monkeypatch.setattr(contour_module, "_NODE_WORKERS", 4)
        P, contour, _ = _extract_style_case(np.random.default_rng([100, 2, 0]), 100, 2, "")
        V = np.random.default_rng(1).standard_normal((100, 2)) + 0j
        want = _stored_factor_solves(P, contour, V), _stored_trace_count(P, contour)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                got = contour_module._solve_at_nodes(P, contour, V)
                assert np.array_equal(got.phases, want[0].phases) and np.array_equal(got.Y, want[0].Y)
                assert tuple(count_eigenvalues_inside(P, contour)) == want[1]
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("name", sorted(problems.PROBLEMS))
    def test_sharing_changes_no_bits(self, monkeypatch, name):
        P = problems.PROBLEMS[name]()
        contour = FIXTURE_CONTOURS[name]
        rng = np.random.default_rng(3)
        U, V = (rng.standard_normal((P.n, 2)) + 1j * rng.standard_normal((P.n, 2)) for _ in range(2))
        _assert_pass_matches_stored_factors(monkeypatch, P, contour, U, V)

    # n = 100 and 200 run split between two workers; at n = 200, l = 3 this
    # generator's P(z) has cond > 1e13 at every node, so nothing is extracted
    @pytest.mark.parametrize("n, ell, hard", [
        (n, ell, hard) for n in (8, 20, 50, 100, 200) for ell in (2, 3)
        for hard in ("", "inside", "outside") if (n, ell) != (200, 3)
    ])
    def test_pass_changes_no_bits_on_seeded_cases(self, monkeypatch, n, ell, hard):
        rng = np.random.default_rng([n, ell, len(hard)])
        P, contour, _ = _extract_style_case(rng, n, ell, hard)
        U, V = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)) for _ in range(2))
        _assert_pass_matches_stored_factors(monkeypatch, P, contour, U, V)

    @pytest.mark.parametrize("n", [100, 200])
    def test_extraction_keeps_no_node_factors(self, monkeypatch, n):
        # the former path kept all N factors, 64 n^2 complex numbers; the
        # split pass holds one buffer and its scratch per worker
        _split_between_two_workers(monkeypatch)
        P, contour, _ = _extract_style_case(np.random.default_rng([n, 2]), n, 2, "")
        u, v = contour_module.default_probe_vectors(P.n, 1)
        tracemalloc.start()
        try:
            extract_invariant_pair(P, contour, u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * P.n ** 2 * np.dtype(complex).itemsize

    def test_node_on_eigenvalue_raises_from_both_extractors(self, ss_2x2):
        # node 4 of this circle sits on the eigenvalue 0
        contour = Contour(1.0, 1.0, nodes=8)
        with pytest.raises(EigenvalueOnContourError) as counted:
            count_eigenvalues_inside(ss_2x2, contour)
        assert counted.value.node == 4
        U = np.array([[1.0, 0.0], [0.0, 1.0]])
        for extract in (lambda: extract_invariant_pair(ss_2x2, contour, [1, -1], [-1, 1]),
                        lambda: extract_block_invariant_pair(ss_2x2, contour, U, U)):
            with pytest.raises(EigenvalueOnContourError) as err:
                extract()
            assert (err.value.node, err.value.t) == (counted.value.node, counted.value.t)


    def test_on_contour_error_matches_stored_factors(self):
        # an eigenvalue on node 5 of a dense n = 50 problem: the error's cond
        # depends on the exact 1-norm of P(z_5), whose column sums must
        # accumulate in the former order
        _assert_on_contour_error_matches_stored_factors(50, [5])

    @pytest.mark.parametrize("nodes", [[40], [5, 40]], ids=["helper-half", "both-halves"])
    @pytest.mark.parametrize("n", [100, 200])
    def test_on_contour_error_of_split_pass_matches_stored_factors(self, monkeypatch, n, nodes):
        # nodes 0-31 are the calling thread's and 32-63 the helper's; the
        # pass raises the lowest singular node, as the serial loop did
        _split_between_two_workers(monkeypatch)
        _assert_on_contour_error_matches_stored_factors(n, nodes)

    @pytest.mark.parametrize("case", ["ss_2x2-node-0", "diagonal-100-helper-half"])
    def test_exactly_singular_node_raises_without_a_warning(self, monkeypatch, ss_2x2, case):
        # getrf reports an exactly singular P(z_j) only through its info;
        # gecon's rcond = 0 must still raise, with cond = inf, and no warning
        # may be issued on either thread of the split pass
        _split_between_two_workers(monkeypatch)
        if case == "ss_2x2-node-0":
            # node 0 is z = 1, where P(1) = [[0, 0], [2, 0]] exactly
            P, contour, node = ss_2x2, Contour(0.5, 0.5, nodes=8), 0
            assert np.array_equal(horner_out_of_place(P.coeffs, contour.points()[0][0]), [[0, 0], [2, 0]])
        else:
            # z I - D with D holding node 40, in the helper thread's half
            contour, node = Contour(0.2, 0.9), 40
            d = np.r_[contour.points()[0][node], _disk_points(np.random.default_rng(5), 0.2, 0.0, 0.5, 99)]
            P = MatrixPolynomial([-np.diag(d), np.eye(100)])
        U = np.eye(P.n)[:, :2]
        for call in (lambda: count_eigenvalues_inside(P, contour),
                     lambda: extract_invariant_pair(P, contour),
                     lambda: extract_block_invariant_pair(P, contour, U, U)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("error")
                with pytest.raises(EigenvalueOnContourError) as err:
                    call()
            assert caught == []
            assert (err.value.node, err.value.cond) == (node, np.inf)


def _assert_on_contour_error_matches_stored_factors(n, nodes):
    """Eigenvalues on the listed nodes of a dense problem: count and both
    extractors raise the node, t and cond of the stored-factor loop."""
    rng = np.random.default_rng(0)
    contour = Contour(0.2, 0.9)
    on = contour.points()[0][nodes]
    far = [_disk_points(rng, 0.2, 2.0, 3.0, n - len(nodes)), _disk_points(rng, 0.2, 2.0, 3.0, n)]
    P = _product_polynomial(rng, [np.r_[on, far[0]], far[1]])
    with pytest.raises(EigenvalueOnContourError) as want:
        _stored_factors(P, contour)
    assert want.value.node == nodes[0]
    U = np.eye(n)[:, :2]
    for call in (lambda: count_eigenvalues_inside(P, contour),
                 lambda: extract_invariant_pair(P, contour),
                 lambda: extract_block_invariant_pair(P, contour, U, U)):
        with pytest.raises(EigenvalueOnContourError) as err:
            call()
        assert (err.value.node, err.value.t, err.value.cond) == (want.value.node, want.value.t, want.value.cond)


def _product_polynomial(rng, spectra):
    """E (z I - A_1) ... (z I - A_l) F with eig(A_i) = spectra[i]: det P vanishes
    exactly at the listed values."""
    n = len(spectra[0])

    def cgauss():
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    coeffs = [cgauss()]
    for eigs in spectra:
        W = cgauss()
        A = W @ np.diag(eigs) @ np.linalg.inv(W)
        coeffs = [(coeffs[k - 1] if k else 0) - (coeffs[k] @ A if k < len(coeffs) else 0)
                  for k in range(len(coeffs) + 1)]
    F = cgauss()
    return MatrixPolynomial([C @ F for C in coeffs])


def _disk_points(rng, center, lo, hi, count):
    return center + rng.uniform(lo, hi, count) * np.exp(2j * np.pi * rng.uniform(size=count))


def _extract_style_case(rng, n, ell, hard):
    """Polynomial and 64-node circle with 3 eigenvalues within 0.6 radii of
    the center, one more at 0.8-0.9 (hard inside) or 1.1-1.2 radii (hard
    outside), and the rest at 1.5-3 radii; returns (P, contour, enclosed)."""
    center = complex(*rng.uniform(-1.0, 1.0, 2))
    radius = float(rng.uniform(0.5, 1.5))
    eigs = [_disk_points(rng, center, 0.0, 0.6 * radius, 3)]
    if hard:
        lo, hi = (0.8, 0.9) if hard == "inside" else (1.1, 1.2)
        eigs.append(_disk_points(rng, center, lo * radius, hi * radius, 1))
    placed = sum(len(e) for e in eigs)
    eigs.append(_disk_points(rng, center, 1.5 * radius, 3.0 * radius, ell * n - placed))
    eigs = rng.permutation(np.concatenate(eigs))
    P = _product_polynomial(rng, [eigs[i * n:(i + 1) * n] for i in range(ell)])
    return P, Contour(center, radius), 3 + (hard == "inside")


def _near_circle_2x2(lam):
    """diag(z - lam, z - 0.3): one eigenvalue at 0.3, one at lam."""
    return MatrixPolynomial([np.diag([-lam, -0.3]), np.eye(2)])


class TestWindingCount:
    """The extractors count by the winding of det P, read off each node's factors."""

    @pytest.mark.parametrize("name", sorted(problems.PROBLEMS))
    def test_equals_trace_count_on_fixtures(self, name):
        P = problems.PROBLEMS[name]()
        contour = FIXTURE_CONTOURS[name]
        assert contour_module._winding_count(P, contour) == count_eigenvalues_inside(P, contour).count

    @pytest.mark.parametrize("hard", ["", "inside", "outside"])
    @pytest.mark.parametrize("ell", [2, 3])
    @pytest.mark.parametrize("n", [8, 20, 50])
    def test_equals_trace_count_on_seeded_cases(self, n, ell, hard):
        rng = np.random.default_rng([n, ell, len(hard)])
        P, contour, enclosed = _extract_style_case(rng, n, ell, hard)
        nodes = contour_module._solve_at_nodes(P, contour)
        assert contour_module._winding_count(P, nodes) == enclosed
        assert count_eigenvalues_inside(P, contour).count == enclosed

    def test_large_step_is_bisected(self, monkeypatch):
        # lam sits 1e-6 outside the unit circle, halfway between nodes 0 and 1
        P = _near_circle_2x2(1.000001 * np.exp(1j * np.pi / 8))
        contour = Contour(0.0, 1.0, nodes=8)
        phases = contour_module._solve_at_nodes(P, contour).phases
        assert abs(math.remainder(phases[1] - phases[0], 2 * math.pi)) >= contour_module.WINDING_STEP_BOUND
        factored = _count_factorizations(monkeypatch)
        assert contour_module._winding_count(P, contour) == 1
        assert len(factored) > contour.nodes

    @pytest.mark.parametrize("lam, midpoints", [
        # off every dyadic midpoint of arc 0: bisection reaches its depth cap
        ((1 + 1e-9) * np.exp(1j * np.pi / 12), contour_module.WINDING_MAX_DEPTH),
        # exactly on the first midpoint of arc 0: that midpoint is singular
        (np.exp(1j * np.pi / 8), 1),
    ], ids=["depth-cap", "singular-midpoint"])
    def test_gives_up_and_extractors_fall_back_to_trace(self, monkeypatch, lam, midpoints):
        P = _near_circle_2x2(lam)
        contour = Contour(0.0, 1.0, nodes=8)
        factored = _count_factorizations(monkeypatch)
        assert contour_module._winding_count(P, contour) is None
        assert len(factored) == contour.nodes + midpoints
        with pytest.warns(UserWarning, match="unreliable"):
            want = count_eigenvalues_inside(P, contour).count
        with pytest.warns(UserWarning, match="unreliable"):
            m, defaulted, _ = hankel._resolve_size(P, contour, np.ones((2, 1), dtype=complex), None)
        assert (m, defaulted) == (want, True)


def pencil_eigenvalues_of(T):
    """Cluster eigenvalues of a matrix and report (multiplicity, near-one?)."""
    from invpairs._numeric import cluster_eigenvalues

    vals = np.linalg.eigvals(T)
    clusters = cluster_eigenvalues(vals, scale=max(1.0, float(np.linalg.norm(T, "fro"))))
    return [(mult, abs(val - 1.0) <= 1e-6) for val, mult in clusters]


class TestEndToEndRandomProblems:
    def test_extraction_matches_linearization_spectrum(self):
        # oracle: eigenvalues from the companion linearization; the moment
        # pipeline must reproduce exactly the enclosed ones
        from invpairs import MatrixPolynomial, companion_linearization

        rng = np.random.default_rng(2025)
        checked = 0
        for _ in range(8):
            coeffs = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                      for _ in range(3)]
            P = MatrixPolynomial(coeffs)
            vals = np.linalg.eigvals(companion_linearization(P))
            # center on one eigenvalue, radius half the gap to the others
            center = vals[0]
            others = vals[1:]
            gap = np.abs(others - center).min()
            if gap < 1e-2:
                continue  # skip near-degenerate draws; the contour would pinch
            c = Contour(center, 0.45 * gap)
            inside = [v for v in vals if abs(v - center) < 0.45 * gap]
            got = ip_count(P, c)
            assert got == len(inside)
            pair = extract_invariant_pair(P, c, m=len(inside), seed=11)
            res = np.linalg.norm(eval_pair(P, pair), "fro") / np.linalg.norm(pair.X, "fro")
            assert res <= 1e-8
            pvals = np.sort_complex(np.linalg.eigvals(pair.S))
            assert np.abs(pvals - np.sort_complex(np.array(inside))).max() <= 1e-6
            checked += 1
        assert checked >= 5

    def test_extraction_is_contour_independent(self, ss_2x2):
        # two different circles enclosing the same eigenvalue set give
        # different pairs realizing the same spectrum, both with tiny residual
        pairs = [
            extract_invariant_pair(ss_2x2, Contour(1.0, 0.5), [1, -1], [-1, 1], m=3),
            extract_invariant_pair(ss_2x2, Contour(0.9, 0.6), [1, -1], [-1, 1], m=3),
        ]
        for pair in pairs:
            res = np.linalg.norm(eval_pair(ss_2x2, pair), "fro") / np.linalg.norm(pair.X, "fro")
            assert res <= 1e-8
            from invpairs._numeric import cluster_eigenvalues

            clusters = cluster_eigenvalues(np.linalg.eigvals(pair.S))
            assert len(clusters) == 1
            value, mult = clusters[0]
            assert mult == 3 and abs(value - 1.0) <= 1e-6


def ip_count(P, c):
    from invpairs import count_eigenvalues_inside

    return count_eigenvalues_inside(P, c).count

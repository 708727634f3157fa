import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invpairs import (
    InvariantPair,
    MatrixPolynomial,
    SingularLeadingCoefficientError,
    companion_linearization,
    eval_derivative,
    eval_pair,
    eval_scalar,
    minimality_index,
)
from invpairs.hankel import numerical_rank
from invpairs.matpoly import _horner_into

from conftest import GOLDEN_S_SS, GOLDEN_X_SS, horner_out_of_place


class TestConstruction:
    def test_basic_properties(self, ss_2x2):
        assert ss_2x2.n == 2
        assert ss_2x2.degree == 2
        assert len(ss_2x2.coeffs) == 3

    def test_needs_two_coefficients(self):
        with pytest.raises(ValueError, match="degree"):
            MatrixPolynomial([np.eye(2)])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            MatrixPolynomial([np.zeros((2, 3)), np.eye(2)])

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(ValueError):
            MatrixPolynomial([np.eye(2), np.eye(3)])

    def test_rejects_zero_leading_coefficient(self):
        with pytest.raises(ValueError, match="leading"):
            MatrixPolynomial([np.eye(2), np.zeros((2, 2))])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_coefficient(self, bad):
        # named at construction; the regularity probe would only warn and a
        # later solve would fail far from the cause
        A1 = np.eye(2, dtype=complex)
        A1[0, 1] = bad
        with pytest.raises(ValueError, match="coefficient 1 has non-finite entries"):
            MatrixPolynomial([np.eye(2), A1, np.eye(2)])

    def test_rejects_singular_polynomial(self):
        # common zero row makes det P identically zero
        A = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="singular"):
            MatrixPolynomial([A, A])

    def test_repr_and_equality(self, ss_2x2):
        assert repr(ss_2x2) == "MatrixPolynomial(n=2, degree=2)"
        assert ss_2x2 == MatrixPolynomial(ss_2x2.coeffs)
        shifted = [ss_2x2.coeffs[0] + 1.0, *ss_2x2.coeffs[1:]]
        assert ss_2x2 != MatrixPolynomial(shifted)
        assert ss_2x2 != MatrixPolynomial([*ss_2x2.coeffs, np.eye(2)])
        assert ss_2x2 != list(ss_2x2.coeffs)
        pair = InvariantPair(np.ones((2, 1)), [[3.0]])
        assert (repr(pair), pair.n, pair.k) == ("InvariantPair(n=2, k=1)", 2, 1)

    def test_coefficients_are_frozen(self, ss_2x2):
        with pytest.raises(ValueError):
            ss_2x2.coeffs[0][0, 0] = 5.0

    def test_pair_validation(self):
        with pytest.raises(ValueError, match="zero"):
            InvariantPair(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(ValueError):
            InvariantPair(np.eye(2), np.eye(3))


class TestEvalScalar:
    def test_at_zero_gives_constant_term(self, ss_2x2, diag_4x4):
        for P in (ss_2x2, diag_4x4):
            np.testing.assert_array_equal(eval_scalar(P, 0.0), P.coeffs[0])

    def test_ss_2x2_at_one(self, ss_2x2):
        np.testing.assert_allclose(
            eval_scalar(ss_2x2, 1.0), np.array([[0.0, 0.0], [2.0, 0.0]]), atol=1e-15
        )

    @settings(max_examples=50, deadline=None)
    @given(st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False))
    def test_horner_matches_naive_sum(self, lam):
        rng = np.random.default_rng(1234)
        coeffs = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(4)]
        P = MatrixPolynomial(coeffs)
        naive = sum(A * lam ** j for j, A in enumerate(coeffs))
        scale = max(np.linalg.norm(naive), 1.0)
        assert np.linalg.norm(eval_scalar(P, lam) - naive) / scale <= 1e-13


    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_in_place_horner_matches_out_of_place_bits(self, ell):
        rng = np.random.default_rng([17, ell])
        P = MatrixPolynomial([rng.standard_normal((13, 13)) + 1j * rng.standard_normal((13, 13))
                              for _ in range(ell + 1)])
        before = [A.copy() for A in P.coeffs]
        for lam in rng.standard_normal(4) + 1j * rng.standard_normal(4):
            got = eval_scalar(P, lam)
            want = horner_out_of_place(P.coeffs, complex(lam))
            assert got.dtype == want.dtype and np.array_equal(got, want)
            # the same recurrence into a Fortran-order buffer, as the node pass runs it
            buf = np.empty((13, 13), dtype=complex, order="F")
            assert np.array_equal(_horner_into(buf, P.coeffs, complex(lam)), want)
            # P'(lam) is the same recurrence on the coefficients j A_j
            got = eval_derivative(P, lam)
            want = _former_eval_derivative(P, lam)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for A, B in zip(P.coeffs, before):
            assert not A.flags.writeable and np.array_equal(A, B)


def _former_eval_derivative(P, lam):
    """P'(lam) by the separate Horner loop eval_derivative ran before."""
    lam = complex(lam)
    ell = P.degree
    acc = ell * np.array(P.coeffs[ell])
    for j in range(ell - 1, 0, -1):
        acc = acc * lam + j * P.coeffs[j]
    return acc


class TestEvalDerivative:
    def test_degree_one_is_constant(self):
        rng = np.random.default_rng(0)
        A0, A1 = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        P = MatrixPolynomial([A0, A1])
        for lam in (0.0, 1.0, 2.3 - 1j):
            np.testing.assert_allclose(eval_derivative(P, lam), A1, atol=1e-15)

    def test_ss_2x2_at_zero_and_one(self, ss_2x2):
        np.testing.assert_array_equal(eval_derivative(ss_2x2, 0.0), ss_2x2.coeffs[1])
        np.testing.assert_allclose(
            eval_derivative(ss_2x2, 1.0), np.array([[0.0, 0.0], [2.0, 1.0]]), atol=1e-15
        )


class TestEvalPair:
    def test_golden_pair_has_zero_residual(self, ss_2x2):
        res = eval_pair(ss_2x2, (GOLDEN_X_SS, GOLDEN_S_SS))
        assert np.linalg.norm(res, "fro") <= 1e-12

    def test_s_zero_leaves_constant_action(self):
        # P(X, 0) = A_0 X, so with A_0 = I the residual is X itself
        rng = np.random.default_rng(3)
        P = MatrixPolynomial([np.eye(3), rng.standard_normal((3, 3))])
        X = rng.standard_normal((3, 2))
        np.testing.assert_allclose(eval_pair(P, (X, np.zeros((2, 2)))), X, atol=1e-15)

    def test_eigenpair_reduction(self, quad_2x2):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            lam = complex(*rng.standard_normal(2))
            got = eval_pair(quad_2x2, (x.reshape(2, 1), np.array([[lam]])))
            want = (eval_scalar(quad_2x2, lam) @ x).reshape(2, 1)
            assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-13

    def test_dimension_mismatch(self, ss_2x2):
        with pytest.raises(ValueError, match="rows"):
            eval_pair(ss_2x2, (np.ones((3, 2)), np.eye(2)))
        with pytest.raises(ValueError, match="bound"):
            eval_pair(ss_2x2, (np.ones((2, 5)), np.eye(5)))

    def test_similarity_covariance(self, ss_2x2):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        S = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        W = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        base = eval_pair(ss_2x2, (X, S))
        transformed = eval_pair(ss_2x2, (X @ W, np.linalg.solve(W, S @ W)))
        scale = max(1.0, np.linalg.norm(base @ W))
        assert np.linalg.norm(transformed - base @ W) / scale <= 1e-12


def _det_poly_roots(P):
    """Oracle: roots of det P(lambda) via interpolation of the determinant."""
    deg = P.degree * P.n
    nodes = np.exp(2j * np.pi * np.arange(2 * deg + 1) / (2 * deg + 1)) * 1.7
    vals = np.array([np.linalg.det(eval_scalar(P, z)) for z in nodes])
    coeffs = np.polynomial.polynomial.polyfit(nodes, vals, deg)
    return np.polynomial.Polynomial(coeffs).roots()


class TestCompanionLinearization:
    def test_degree_one_monic(self):
        rng = np.random.default_rng(2)
        B = rng.standard_normal((3, 3))
        P = MatrixPolynomial([-B, np.eye(3)])
        np.testing.assert_allclose(companion_linearization(P), B, atol=1e-14)

    def test_ss_2x2_eigenvalues(self, ss_2x2):
        # the triple eigenvalue is defective, so computed copies scatter like
        # eps**(1/3); compare the clustered values instead of raw eigenvalues
        from invpairs._numeric import cluster_eigenvalues

        C = companion_linearization(ss_2x2)
        got = cluster_eigenvalues(np.linalg.eigvals(C))
        assert len(got) == 2
        (v0, m0), (v1, m1) = got
        assert (m0, m1) == (1, 3)
        assert abs(v0 - 0.0) <= 1e-8
        assert abs(v1 - 1.0) <= 1e-8
        want = cluster_eigenvalues(_det_poly_roots(ss_2x2))
        assert [(round(v.real, 7), m) for v, m in want] == [(0.0, 1), (1.0, 3)]

    def test_random_eigenvalues_match_determinant_roots(self):
        rng = np.random.default_rng(17)
        for n, ell in [(2, 2), (3, 2), (2, 3), (4, 2)]:
            coeffs = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                      for _ in range(ell + 1)]
            P = MatrixPolynomial(coeffs)
            got = np.sort_complex(np.linalg.eigvals(companion_linearization(P)))
            want = np.sort_complex(_det_poly_roots(P))
            assert np.abs(got - want).max() <= 1e-6

    def test_singular_leading_coefficient(self):
        A2 = np.diag([1.0, 1.0, 0.0])
        A1 = np.array([[-2.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        A0 = np.diag([1.0, -1.0, 1.0])
        P = MatrixPolynomial([A0, A1, A2])
        with pytest.raises(SingularLeadingCoefficientError):
            companion_linearization(P)


class TestMinimalityIndex:
    def test_full_rank_x_is_one(self):
        rng = np.random.default_rng(4)
        S = rng.standard_normal((3, 3))
        assert minimality_index((np.eye(3), S), 3) == 1

    def test_zero_column_needs_higher_power(self):
        # X = [I | 0] has rank n < k, so the index is never 1
        rng = np.random.default_rng(5)
        n = 3
        X = np.hstack([np.eye(n), np.zeros((n, 1))])
        S = rng.standard_normal((n + 1, n + 1))
        got = minimality_index((X, S), 4)
        assert got != 1
        if got is not None:
            stacked = np.vstack([X @ np.linalg.matrix_power(S, j) for j in range(got - 1, -1, -1)])
            assert numerical_rank(stacked) == n + 1

    def test_golden_pair_is_two(self):
        assert minimality_index((GOLDEN_X_SS, GOLDEN_S_SS), 5) == 2
        # oracle: rank of [XS; X] directly
        v2 = np.vstack([GOLDEN_X_SS @ GOLDEN_S_SS, GOLDEN_X_SS])
        assert numerical_rank(v2) == 3
        assert numerical_rank(GOLDEN_X_SS) == 2

    def test_non_minimal_pair_gives_none(self):
        # two equal columns with one eigenvalue stay parallel in every X S^j
        x = np.array([[1.0], [2.0], [3.0]])
        assert minimality_index((np.hstack([x, x]), 2.0 * np.eye(2)), 6) is None

    def test_m_max_validation(self):
        with pytest.raises(ValueError):
            minimality_index((np.eye(2), np.eye(2)), 0)

    @pytest.mark.parametrize("m_max", [2.5, 2.0, True], ids=["fraction", "float", "bool"])
    def test_non_integer_m_max_raises(self, m_max):
        # m_max = True once ran as m_max = 1
        with pytest.raises(ValueError, match="m_max must be an integer"):
            minimality_index((GOLDEN_X_SS, GOLDEN_S_SS), m_max)

import warnings

import numpy as np
import pytest

from invpairs import (
    Contour,
    MatrixPolynomial,
    RefinementReport,
    StepPolynomial,
    eval_matrix,
    eval_pair,
    eval_scalar,
    extract_invariant_pair,
    frechet_apply,
    line_search_poly,
    minimize_step,
    newton_correction,
    refine_pair,
    refine_solvent,
    verify_solvent,
)
from invpairs.matpoly import companion_linearization
from invpairs.refine import default_line_search_contour, solvent_step_poly
from invpairs import refine
from invpairs.conditioning import pair_jacobian, solvent_jacobian

from conftest import GOLDEN_S_SS, GOLDEN_X_SS, random_regular_polynomial


def _noise(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestFrechetApply:
    def test_zero_directions(self, ss_2x2):
        out = frechet_apply(ss_2x2, GOLDEN_X_SS, GOLDEN_S_SS,
                            np.zeros((2, 3)), np.zeros((3, 3)))
        assert np.abs(out).max() == 0.0

    def test_degree_one_expansion(self):
        from invpairs import MatrixPolynomial

        rng = np.random.default_rng(6)
        A0, A1 = _noise(rng, (3, 3)), _noise(rng, (3, 3))
        P = MatrixPolynomial([A0, A1])
        X, S = _noise(rng, (3, 2)), _noise(rng, (2, 2))
        dX, dS = _noise(rng, (3, 2)), _noise(rng, (2, 2))
        want = A0 @ dX + A1 @ dX @ S + A1 @ X @ dS
        np.testing.assert_allclose(frechet_apply(P, X, S, dX, dS), want, atol=1e-13)

    def test_central_differences_20_instances(self):
        # gradient check at h = 1e-6 over small random instances
        rng = np.random.default_rng(2024)
        h = 1e-6
        for _ in range(20):
            n = int(rng.integers(2, 5))
            ell = int(rng.integers(1, 4))
            k = int(rng.integers(1, min(3, ell * n) + 1))
            P = random_regular_polynomial(rng, n, ell)
            X, S = _noise(rng, (n, k)), _noise(rng, (k, k))
            dX, dS = _noise(rng, (n, k)), _noise(rng, (k, k))
            fd = (eval_pair(P, (X + h * dX, S + h * dS))
                  - eval_pair(P, (X - h * dX, S - h * dS))) / (2 * h)
            fr = frechet_apply(P, X, S, dX, dS)
            assert np.linalg.norm(fd - fr) / max(np.linalg.norm(fr), 1.0) <= 1e-6


class TestNewtonCorrection:
    def test_exact_pair_gives_zero(self, ss_2x2):
        corr = newton_correction(ss_2x2, GOLDEN_X_SS, GOLDEN_S_SS)
        assert np.abs(corr.dX).max() <= 1e-12
        assert np.abs(corr.dS).max() <= 1e-12
        assert corr.jacobian_rank == 6

    def test_k1_eigenpair_structure(self, quad_2x2):
        # the correction solves P(lam) dx + P'(lam) x dlam = -P(lam) x
        rng = np.random.default_rng(8)
        x = _noise(rng, (2,))
        lam = 0.9 + 0.1j
        corr = newton_correction(quad_2x2, x.reshape(2, 1), np.array([[lam]]))
        lhs = (eval_scalar(quad_2x2, lam) @ corr.dX.ravel()
               + (eval_derivative_at(quad_2x2, lam) @ x) * corr.dS[0, 0])
        rhs = -(eval_scalar(quad_2x2, lam) @ x)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))

    def test_correction_reduces_residual(self, ss_2x2):
        rng = np.random.default_rng(42)
        X = GOLDEN_X_SS + 1e-4 * _noise(rng, (2, 3))
        S = GOLDEN_S_SS + 1e-4 * _noise(rng, (3, 3))
        before = np.linalg.norm(eval_pair(ss_2x2, (X, S)), "fro")
        corr = newton_correction(ss_2x2, X, S)
        after = np.linalg.norm(eval_pair(ss_2x2, (X + corr.dX, S + corr.dS)), "fro")
        assert before / after >= 10.0

    def test_rank_deficient_jacobian_falls_back_to_lstsq(self, ss_2x2):
        # the rank-3 construction of the conditioning tests: S = 0 and A_1 X
        # in the column space of A_0
        X = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], dtype=complex)
        S = np.zeros((3, 3), dtype=complex)
        J = np.hstack(pair_jacobian(ss_2x2, X, S))
        rhs = -eval_pair(ss_2x2, (X, S)).ravel(order="F")
        want, *_ = np.linalg.lstsq(J, rhs, rcond=None)
        with pytest.warns(UserWarning, match="far from simple"):
            corr = newton_correction(ss_2x2, X, S)
        assert corr.jacobian_rank == 3
        np.testing.assert_array_equal(corr.dX, want[:6].reshape((2, 3), order="F"))
        np.testing.assert_array_equal(corr.dS, want[6:].reshape((3, 3), order="F"))

    @pytest.mark.parametrize("n, ell, k", [(3, 2, 2), (4, 3, 5), (6, 2, 4), (8, 2, 3)])
    def test_pivoted_qr_matches_lstsq_on_simple_pairs(self, n, ell, k):
        # k eigenpairs of a random P (distinct eigenvalues) form a simple
        # pair; the correction must be lstsq's answer, bit for bit, without
        # the rank warning
        rng = np.random.default_rng(10 * n + k)
        P = random_regular_polynomial(rng, n, ell)
        vals, vecs = np.linalg.eig(companion_linearization(P))
        X = vecs[:n, :k] + 1e-4 * _noise(rng, (n, k))
        S = np.diag(vals[:k]) + 1e-4 * _noise(rng, (k, k))
        J = np.hstack(pair_jacobian(P, X, S))
        rhs = -eval_pair(P, (X, S)).ravel(order="F")
        want, *_ = np.linalg.lstsq(J, rhs, rcond=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            corr = newton_correction(P, X, S)
        assert corr.jacobian_rank == n * k
        np.testing.assert_array_equal(corr.dX, want[: n * k].reshape((n, k), order="F"))
        np.testing.assert_array_equal(corr.dS, want[n * k:].reshape((k, k), order="F"))


def _bordered_reference(P, X, S):
    """Dense Kronecker solve of [J; W^H DV_ell] [vec dX; vec dS] = [-vec P(X, S); 0].

    W is an orthonormal basis of V_ell(X, S) = [X; XS; ...; XS^(ell-1)];
    both row blocks are sum_j (S^j)^T kron C_j and
    sum_j sum_{i<j} (S^(j-i-1))^T kron (C_j X S^i), with C_j = A_j or W_j^H.
    """
    n, k = X.shape
    ell = P.degree
    power = [np.linalg.matrix_power(S, j) for j in range(ell + 1)]
    W = np.linalg.qr(np.vstack([X @ power[i] for i in range(ell)]))[0]
    rows = []
    for coeffs in (P.coeffs, [W[i * n:(i + 1) * n].conj().T for i in range(ell)]):
        B_X = np.zeros((len(coeffs[0]) * k, n * k), dtype=complex)
        B_S = np.zeros((len(coeffs[0]) * k, k * k), dtype=complex)
        for j, C in enumerate(coeffs):
            B_X += np.kron(power[j].T, C)
            for i in range(j):
                B_S += np.kron(power[j - i - 1].T, C @ X @ power[i])
        rows.append(np.hstack([B_X, B_S]))
    rhs = np.concatenate([-eval_pair(P, (X, S)).ravel(order="F"), np.zeros(k * k)])
    sol = np.linalg.solve(np.vstack(rows), rhs)
    return sol[: n * k].reshape((n, k), order="F"), sol[n * k:].reshape((k, k), order="F")


def _near_simple_pair(seed, n, ell, k):
    """k eigenpairs (distinct eigenvalues) of a random P, perturbed by 1e-4."""
    rng = np.random.default_rng(seed)
    P = random_regular_polynomial(rng, n, ell)
    vals, vecs = np.linalg.eig(companion_linearization(P))
    X = vecs[:n, :k] + 1e-4 * _noise(rng, (n, k))
    S = np.diag(vals[:k]) + 1e-4 * _noise(rng, (k, k))
    return P, X, S


def _repeated_eigenvalue_pair():
    """(I + noise, S1) for P(lambda) = (lambda I - S2)(lambda I - S1), where S1
    has the Jordan block [[2, 1], [0, 2]]; (I, S1) is simple since S2's
    spectrum stays away from S1's."""
    rng = np.random.default_rng(70)
    S1 = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -1.0]], dtype=complex)
    S2 = np.diag([5.0, -4.0, 3j]) + 0.1 * _noise(rng, (3, 3))
    P = MatrixPolynomial([S2 @ S1, -(S1 + S2), np.eye(3)])
    return P, np.eye(3) + 1e-4 * _noise(rng, (3, 3)), S1


class TestSchurCorrection:
    @pytest.mark.parametrize("n, ell, k", [
        (2, 1, 1), (3, 1, 2), (8, 1, 5), (5, 2, 3), (8, 3, 2), (7, 4, 4),
        (2, 2, 3), (2, 3, 4), (3, 2, 5), (4, 4, 6),
    ])
    def test_matches_bordered_kronecker_reference(self, n, ell, k):
        P, X, S = _near_simple_pair(100 * n + 10 * ell + k, n, ell, k)
        self._check(P, X, S)

    def test_repeated_eigenvalue_of_S(self):
        P, X, S = _repeated_eigenvalue_pair()
        assert np.count_nonzero(np.isclose(np.linalg.eigvals(S), 2.0)) == 2
        self._check(P, X, S)

    @staticmethod
    def _check(P, X, S):
        want_dX, want_dS = _bordered_reference(P, X, S)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dX, dS = refine._schur_correction(P, X, S)
            pair, _ = refine_pair(P, X, S, tol=0.0, maxit=1, line_search=False)
        want = np.concatenate([want_dX.ravel(), want_dS.ravel()])
        got = np.concatenate([dX.ravel(), dS.ravel()])
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        # the step solves the correction equation DP(dX, dS) = -P(X, S)
        residual = eval_pair(P, (X, S))
        assert (np.linalg.norm(frechet_apply(P, X, S, dX, dS) + residual)
                <= 1e-12 * np.linalg.norm(residual))
        # refine_pair takes this step
        np.testing.assert_allclose(pair.X, X + dX, rtol=0, atol=1e-14 * np.abs(X).max())
        np.testing.assert_allclose(pair.S, S + dS, rtol=0, atol=1e-14 * np.abs(S).max())


class TestPairCorrectionFallback:
    def test_singular_column_system_uses_newton_correction(self):
        # P(lambda) = (lambda I - S)^2 at the non-simple pair (I, S): the
        # column system at t_cc = 1 is singular
        S = np.array([[1.0, 2.0], [0.0, -1.0]], dtype=complex)
        P = MatrixPolynomial([S @ S, -2 * S, np.eye(2)])
        X = np.eye(2, dtype=complex)
        assert refine._schur_correction(P, X, S) is None
        with pytest.warns(UserWarning, match="far from simple"):
            want = newton_correction(P, X, S)
        with pytest.warns(UserWarning, match="far from simple"):
            pair, report = refine_pair(P, X, S, tol=0.0, maxit=1)
        assert report.iterations == 1
        np.testing.assert_array_equal(pair.X, X + want.dX)
        np.testing.assert_array_equal(pair.S, S + want.dS)

    def test_non_finite_column_solution_uses_newton_correction(self, monkeypatch, ss_2x2):
        X, S = GOLDEN_X_SS + 1e-3, GOLDEN_S_SS + 1e-3
        want = newton_correction(ss_2x2, X, S)
        monkeypatch.setattr(np.linalg, "solve", lambda K, b: np.full(b.shape, np.inf))
        assert refine._schur_correction(ss_2x2, X, S) is None
        pair, _ = refine_pair(ss_2x2, X, S, tol=0.0, maxit=1, line_search=False)
        np.testing.assert_array_equal(pair.X, X + want.dX)
        np.testing.assert_array_equal(pair.S, S + want.dS)


class TestTriangularColumns:
    @pytest.mark.parametrize("ell", [1, 2, 4])
    @pytest.mark.parametrize("r, k", [(3, 1), (4, 2), (2, 5), (6, 3)])
    def test_matches_dense_kronecker_solve(self, ell, r, k):
        rng = np.random.default_rng(1000 * ell + 10 * r + k)
        E = _noise(rng, (ell + 1, r, r))
        T = np.triu(_noise(rng, (k, k)))
        self._check(E, T, _noise(rng, (r, k)))

    def test_repeated_diagonal_entry(self):
        rng = np.random.default_rng(31)
        E = _noise(rng, (3, 4, 4))
        T = np.triu(_noise(rng, (4, 4)))
        T[2, 2] = T[0, 0]
        T[3, 3] = T[0, 0]
        self._check(E, T, _noise(rng, (4, 4)))

    def test_singular_column_system_gives_none(self):
        rng = np.random.default_rng(32)
        E = _noise(rng, (3, 4, 4))
        E[0][:, 1] = 0.0
        T = np.triu(_noise(rng, (3, 3)))
        # column 1 solves with E_0 alone, which has a zero column
        T[1, 1] = 0.0
        assert refine._triangular_columns(E, T, _noise(rng, (4, 3))) is None

    @staticmethod
    def _check(E, T, rhs):
        """Against the dense solve of sum_j ((T^j)^T kron E_j) vec Z = vec rhs."""
        power = [np.linalg.matrix_power(T, j) for j in range(len(E))]
        K = sum(np.kron(power[j].T, E[j]) for j in range(len(E)))
        want = np.linalg.solve(K, rhs.ravel(order="F")).reshape(rhs.shape, order="F")
        got = refine._triangular_columns(E, T, rhs)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def _near_solvent(seed, n, ell):
    """The solvent of a random P built from n of its eigenpairs, perturbed by 1e-4."""
    rng = np.random.default_rng(seed)
    P = random_regular_polynomial(rng, n, ell)
    vals, vecs = np.linalg.eig(companion_linearization(P))
    V = vecs[:n, :n]
    S = V @ np.diag(vals[:n]) @ np.linalg.inv(V)
    return P, S + 1e-4 * _noise(rng, (n, n))


class TestSolventCorrection:
    @pytest.mark.parametrize("n, ell", [(2, 1), (5, 1), (3, 2), (6, 2), (4, 3), (3, 4)])
    def test_matches_solvent_jacobian_solve(self, n, ell):
        self._check(*_near_solvent(10 * n + ell, n, ell))

    def test_repeated_eigenvalue_of_S(self):
        P, _, S1 = _repeated_eigenvalue_pair()
        rng = np.random.default_rng(71)
        # off the solvent S1, with its eigenvalues 2, 2, -1 kept
        S = S1 + 1e-4 * np.triu(_noise(rng, (3, 3)), 1)
        assert np.count_nonzero(np.isclose(np.linalg.eigvals(S), 2.0)) == 2
        self._check(P, S)

    @staticmethod
    def _check(P, S):
        rhs = -eval_matrix(P, S).ravel(order="F")
        want = np.linalg.solve(solvent_jacobian(P, S), rhs).reshape(S.shape, order="F")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dS = refine._solvent_correction(P, S)
            sol, _ = refine_solvent(P, S, tol=0.0, maxit=1, line_search=False)
        assert np.linalg.norm(dS - want) <= 1e-10 * np.linalg.norm(want)
        # refine_solvent takes this step
        np.testing.assert_allclose(sol.S, S + dS, rtol=0, atol=1e-14 * np.abs(S).max())


class TestSolventCorrectionFallback:
    def test_singular_column_system_uses_pseudoinverse(self):
        # P(lambda) = (lambda I - D)^2 at its solvent D: the column systems
        # at t_cc = 1 and -1 are singular
        D = np.diag([1.0, -1.0]).astype(complex)
        P = MatrixPolynomial([D @ D, -2 * D, np.eye(2)])
        assert refine._solvent_correction(P, D) is None
        rhs = -eval_matrix(P, D).ravel(order="F")
        want = np.linalg.lstsq(solvent_jacobian(P, D), rhs, rcond=None)[0].reshape((2, 2), order="F")
        with pytest.warns(UserWarning, match="using pseudoinverse"):
            sol, report = refine_solvent(P, D, tol=0.0, maxit=1)
        assert report.iterations == 1
        np.testing.assert_array_equal(sol.S, D + want)

    def test_non_finite_column_solution_uses_pseudoinverse(self, monkeypatch, quad_2x2):
        S = (np.diag([1.0, 2.0]) + 1e-3).astype(complex)
        rhs = -eval_matrix(quad_2x2, S).ravel(order="F")
        want = np.linalg.lstsq(solvent_jacobian(quad_2x2, S), rhs, rcond=None)[0].reshape((2, 2), order="F")
        monkeypatch.setattr(np.linalg, "solve", lambda K, b: np.full(b.shape, np.inf))
        assert refine._solvent_correction(quad_2x2, S) is None
        with pytest.warns(UserWarning, match="using pseudoinverse"):
            sol, _ = refine_solvent(quad_2x2, S, tol=0.0, maxit=1, line_search=False)
        np.testing.assert_array_equal(sol.S, S + want)


def eval_derivative_at(P, lam):
    from invpairs import eval_derivative

    return eval_derivative(P, lam)


class TestLineSearchPoly:
    def test_zero_directions_give_zero_coefficients(self, ss_2x2):
        poly = line_search_poly(ss_2x2, GOLDEN_X_SS, GOLDEN_S_SS,
                                np.zeros((2, 3)), np.zeros((3, 3)))
        assert np.abs(poly.coefficients()).max() <= 1e-20

    def test_exact_for_degree_two(self, quad_2x2):
        rng = np.random.default_rng(13)
        for _ in range(5):
            X, S = _noise(rng, (2, 3)), _noise(rng, (3, 3))
            corr = newton_correction(quad_2x2, X, S)
            poly = line_search_poly(quad_2x2, X, S, corr.dX, corr.dS)
            ts = np.linspace(0.0, 2.0, 11)
            direct = np.array([
                np.linalg.norm(eval_pair(quad_2x2, (X + t * corr.dX, S + t * corr.dS)), "fro") ** 2
                for t in ts
            ])
            assert np.abs(poly(ts) - direct).max() <= 1e-10 * max(1.0, direct.max())

    @pytest.mark.parametrize("ell", [3, 4])
    def test_exact_beyond_degree_two(self, ell):
        # the expansion has no degree limit: p(t) is the true squared residual
        rng = np.random.default_rng(40 + ell)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, 4))
            P = random_regular_polynomial(rng, n, ell)
            X, S = _noise(rng, (n, k)), _noise(rng, (k, k))
            dX, dS = _noise(rng, (n, k)), _noise(rng, (k, k))
            poly = line_search_poly(P, X, S, dX, dS)
            assert len(poly.coefficients()) == 2 * ell + 3
            ts = np.linspace(0.0, 2.0, 9)
            direct = np.array([
                np.linalg.norm(eval_pair(P, (X + t * dX, S + t * dS)), "fro") ** 2 for t in ts
            ])
            assert np.abs(poly(ts) - direct).max() <= 1e-10 * direct.max()

    @pytest.mark.parametrize("ell", [1, 2])
    def test_matches_contour_oracle_for_pairs(self, ell):
        rng = np.random.default_rng(50 + ell)
        for _ in range(5):
            P = random_regular_polynomial(rng, 3, ell)
            X, S = _noise(rng, (3, 2)), _noise(rng, (2, 2))
            corr = newton_correction(P, X, S)
            poly = line_search_poly(P, X, S, corr.dX, corr.dS)
            oracle = line_search_poly(P, X, S, corr.dX, corr.dS, default_line_search_contour(S))
            want = oracle.coefficients()[: 2 * ell + 3]
            assert np.abs(oracle.coefficients()[2 * ell + 3:]).max(initial=0.0) <= 1e-10 * np.abs(want).max()
            assert np.abs(poly.coefficients() - want).max() <= 1e-10 * np.abs(want).max()

    def test_matches_contour_oracle_for_solvents(self, quad_2x2):
        rng = np.random.default_rng(55)
        for _ in range(5):
            S = _noise(rng, (2, 2))
            B = solvent_jacobian(quad_2x2, S)
            dS = np.linalg.solve(B, -eval_matrix(quad_2x2, S).ravel(order="F")).reshape((2, 2), order="F")
            poly = solvent_step_poly(quad_2x2, S, dS)
            oracle = solvent_step_poly(quad_2x2, S, dS, default_line_search_contour(S))
            want = oracle.coefficients()
            assert np.abs(poly.coefficients() - want).max() <= 1e-10 * np.abs(want).max()

    def test_value_at_one_is_higher_order_norm(self, quad_2x2):
        # at t = 1 the (1-t) terms of the six-term form vanish: p(1) = ||A + B||_F^2
        # >= 0, and for degree two it equals the true squared residual after a
        # full step
        rng = np.random.default_rng(14)
        X, S = _noise(rng, (2, 2)), _noise(rng, (2, 2))
        corr = newton_correction(quad_2x2, X, S)
        oracle = line_search_poly(quad_2x2, X, S, corr.dX, corr.dS, default_line_search_contour(S))
        terms = oracle.terms
        assert oracle(1.0) == pytest.approx(terms["theta"] + terms["phi"] + terms["eta"])
        poly = line_search_poly(quad_2x2, X, S, corr.dX, corr.dS)
        direct = np.linalg.norm(eval_pair(quad_2x2, (X + corr.dX, S + corr.dS)), "fro") ** 2
        assert poly(1.0) == pytest.approx(direct, rel=1e-8, abs=1e-12)

    def test_spectrum_outside_contour_rejected(self, quad_2x2):
        rng = np.random.default_rng(15)
        X = _noise(rng, (2, 2))
        S = np.diag([1.0 + 0j, 5.0 + 0j])
        with pytest.raises(ValueError, match="enclose"):
            line_search_poly(quad_2x2, X, S, X, S, Contour(1.0, 0.5))

    def test_default_contour_covers_spectrum(self):
        S = np.diag([1.0, 2.0, 3.0])
        c = default_line_search_contour(S)
        for lam in (1.0, 2.0, 3.0):
            assert c.contains(lam)
        # coincident eigenvalues fall back to a unit radius
        c0 = default_line_search_contour(np.eye(3))
        assert c0.radius == 1.0

    def test_coefficient_invariants(self):
        with pytest.raises(ValueError, match="nonnegative"):
            StepPolynomial(alpha=-1.0, beta=0.0, theta=0.0)


class TestMinimizeStep:
    def test_pure_quadratic(self):
        assert minimize_step(StepPolynomial(alpha=1.0, beta=0.0, theta=0.0)) == 1.0

    def test_zero_polynomial_prefers_newton_step(self):
        assert minimize_step(StepPolynomial(alpha=0.0, beta=0.0, theta=0.0)) == 1.0

    def test_quartic_against_root_oracle(self):
        from scipy.optimize import brentq

        poly = StepPolynomial(alpha=1.0, beta=0.0, theta=4.0)
        # p'(t) = -2(1-t) + 16 t^3 has one real root in (0, 1)
        root = brentq(lambda t: -2 * (1 - t) + 16 * t ** 3, 0.0, 1.0, xtol=1e-14)
        assert minimize_step(poly) == pytest.approx(root, abs=1e-10)
        assert root == pytest.approx(0.41756117424068306, abs=1e-12)

    def test_never_worse_than_newton_step(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            poly = StepPolynomial(
                alpha=float(rng.uniform(0, 10)),
                beta=float(rng.normal() * 3),
                gamma=float(rng.normal() * 3),
                theta=float(rng.uniform(0, 10)),
                eta=float(rng.normal() * 3),
                phi=float(rng.uniform(0, 10)),
            )
            t = minimize_step(poly)
            assert 0.0 <= t <= 2.0
            assert poly(t) <= poly(1.0) + 1e-9 * (1.0 + abs(poly(1.0)))


    def test_matches_polynomial_class_bits(self):
        # the former minimize_step, on numpy.polynomial.Polynomial objects
        from numpy.polynomial import Polynomial

        def reference(poly):
            coeffs = poly.coefficients()
            scale = float(np.abs(coeffs).max())
            candidates = [1.0, 2.0]
            if scale > 0:
                trimmed = Polynomial(coeffs).deriv().trim(tol=1e-14 * scale)
                for r in np.atleast_1d(trimmed.roots()):
                    if abs(r.imag) <= 1e-8 * (1.0 + abs(r.real)) and -1e-12 <= r.real <= 2.0:
                        candidates.append(min(max(float(r.real), 0.0), 2.0))
            values = poly(np.array(candidates))
            best = float(values.min())
            tie = best + 1e-12 * (1.0 + abs(best))
            return min([t for t, pv in zip(candidates, values) if pv <= tie], key=lambda t: abs(t - 1.0))

        rng = np.random.default_rng(2718)
        zero_steps = 0
        for case in range(10_000):
            coeffs = rng.standard_normal(int(rng.integers(1, 9))) * 10.0 ** rng.uniform(-6, 6)
            kind = case % 4
            if kind == 1:
                # exact zeros; with c_1 = 0, p'(t) has the root t = -0.0 or +0.0
                coeffs[rng.random(len(coeffs)) < 0.4] = 0.0
                coeffs[1:2] = 0.0
            elif kind == 2:
                # coefficients around the 1e-14 relative trimming tolerance
                tiny = rng.random(len(coeffs)) < 0.5
                coeffs[tiny] *= 10.0 ** rng.uniform(-17, -12, tiny.sum())
            elif kind == 3:
                # p(t) = c_0 + c_2 t^2 (c_2 > 0): minimized at the root t = 0
                coeffs = np.array([rng.uniform(0, 1), 0.0, rng.uniform(0.5, 2)])
            poly = StepPolynomial(coeffs)
            got, want = minimize_step(poly), reference(poly)
            assert float(got).hex() == float(want).hex(), coeffs
            zero_steps += want == 0.0
        assert zero_steps >= 2500


class TestRefinePair:
    def test_perturbed_golden_pair_converges(self, ss_2x2):
        rng = np.random.default_rng(5)
        X = GOLDEN_X_SS + 1e-3 * _noise(rng, (2, 3))
        S = GOLDEN_S_SS + 1e-3 * _noise(rng, (3, 3))
        refined, report = refine_pair(ss_2x2, X, S, tol=1e-12, maxit=50)
        assert report.converged
        assert report.residual_history[-1] < 1e-12
        # frozen with this seed; quadratic convergence from 1e-3 noise
        assert report.iterations == 3

    def test_exact_pair_stops_immediately(self, ss_2x2):
        _, report = refine_pair(ss_2x2, GOLDEN_X_SS, GOLDEN_S_SS, tol=1e-10)
        assert report.iterations == 0
        assert report.converged
        assert len(report.residual_history) == 1

    def test_maxit_zero(self, ss_2x2):
        X = GOLDEN_X_SS + 0.1
        _, report = refine_pair(ss_2x2, X, GOLDEN_S_SS, tol=1e-12, maxit=0)
        assert not report.converged
        assert report.iterations == 0
        assert len(report.residual_history) == 1

    def test_plain_newton_steps_are_all_one(self, ss_2x2):
        rng = np.random.default_rng(19)
        X = GOLDEN_X_SS + 1e-2 * _noise(rng, (2, 3))
        S = GOLDEN_S_SS + 1e-2 * _noise(rng, (3, 3))
        _, report = refine_pair(ss_2x2, X, S, tol=1e-12, maxit=50, line_search=False)
        assert report.converged
        assert all(t == 1.0 for t in report.step_lengths)

    def test_line_search_monotone_for_degree_two(self, ss_2x2):
        rng = np.random.default_rng(23)
        X = GOLDEN_X_SS + 0.3 * _noise(rng, (2, 3))
        S = GOLDEN_S_SS + 0.3 * _noise(rng, (3, 3))
        _, report = refine_pair(ss_2x2, X, S, tol=1e-12, maxit=100)
        hist = report.residual_history
        assert all(hist[i + 1] <= hist[i] * (1 + 1e-9) for i in range(len(hist) - 1))

    def test_report_invariants(self):
        with pytest.raises(ValueError):
            RefinementReport(iterations=2, residual_history=(1.0,), step_lengths=(1.0, 1.0),
                             converged=False, wall_time=0.0)
        with pytest.raises(ValueError):
            RefinementReport(iterations=1, residual_history=(1.0, 0.5), step_lengths=(),
                             converged=False, wall_time=0.0)

    def test_degree_three_safeguarded_step(self):
        # the step polynomial is exact at degree 3 as well; the accepted step
        # must never increase the residual
        rng = np.random.default_rng(27)
        P = random_regular_polynomial(rng, 3, 3)
        pair = extract_invariant_pair_for(P)
        X = pair.X + 1e-2 * _noise(rng, pair.X.shape)
        S = pair.S + 1e-2 * _noise(rng, pair.S.shape)
        _, report = refine_pair(P, X, S, tol=1e-12, maxit=100)
        hist = report.residual_history
        assert all(hist[i + 1] <= hist[i] * (1 + 1e-9) for i in range(len(hist) - 1))
        assert report.converged


    @pytest.mark.parametrize("X0, S0, match", [
        (np.ones(2), np.eye(3), "n-by-k"),
        (GOLDEN_X_SS, np.eye(2), "S must be 3x3"),
        (GOLDEN_X_SS, np.ones((3, 2)), "S must be square"),
        (np.ones((3, 3)), GOLDEN_S_SS, "3 rows"),
        (GOLDEN_X_SS, np.where(np.eye(3), np.nan, GOLDEN_S_SS), "non-finite"),
        (np.where(GOLDEN_X_SS == 0, np.inf, GOLDEN_X_SS), GOLDEN_S_SS, "non-finite"),
    ])
    def test_rejects_malformed_start(self, ss_2x2, X0, S0, match):
        with pytest.raises(ValueError, match=match):
            refine_pair(ss_2x2, X0, S0)


def extract_invariant_pair_for(P):
    """A small exact-ish pair of P around its eigenvalue nearest 0."""
    from invpairs import companion_linearization

    vals = np.linalg.eigvals(companion_linearization(P))
    lam = vals[np.argmin(np.abs(vals))]
    return extract_invariant_pair(P, Contour(lam, 0.3 * (1 + abs(lam))), m=None, seed=3)


class TestRefineSolvent:
    def test_exact_solvent_stops_immediately(self, quad_2x2):
        sol, report = refine_solvent(quad_2x2, np.diag([1.0, 2.0]), tol=1e-10)
        assert report.iterations == 0
        assert report.converged
        assert sol.residual <= 1e-12

    def test_perturbed_solvent_reconverges(self, quad_2x2):
        rng = np.random.default_rng(8)
        S0 = np.diag([1.0, 2.0]) + 1e-2 * _noise(rng, (2, 2))
        sol, report = refine_solvent(quad_2x2, S0, tol=1e-12, maxit=30)
        assert report.converged
        assert report.iterations <= 15
        assert np.abs(sol.S - np.diag([1.0, 2.0])).max() <= 1e-10

    def test_quartic_model_exact_for_degree_two(self, quad_2x2):
        rng = np.random.default_rng(9)
        S = _noise(rng, (2, 2))
        B = solvent_jacobian(quad_2x2, S)
        rhs = -eval_matrix(quad_2x2, S).ravel(order="F")
        dS = np.linalg.solve(B, rhs).reshape((2, 2), order="F")
        poly = solvent_step_poly(quad_2x2, S, dS)
        for t in (0.0, 1.0, 2.0):
            direct = np.linalg.norm(eval_matrix(quad_2x2, S + t * dS), "fro") ** 2
            assert abs(poly(t) - direct) <= 1e-10 * max(1.0, direct)
        # quartic: the coefficients above t^4 vanish
        assert np.all(poly.coefficients()[5:] == 0.0)

    @pytest.mark.parametrize("S0", [np.zeros((2, 2)), 1e-3 * np.ones((2, 2))])
    def test_zero_solvent_converges(self, S0):
        # P(S) = diag(1, 2) S + S^2 has the solvent S = 0, where the
        # relative residual takes a unit denominator
        P = MatrixPolynomial([np.zeros((2, 2)), np.diag([1.0, 2.0]), np.eye(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol, report = refine_solvent(P, S0)
        assert report.converged
        assert np.isfinite(report.residual_history).all()
        assert np.linalg.norm(sol.S) <= 1e-12
        assert verify_solvent(P, sol.S).certified

    def test_tiny_solvent_converges_quadratically(self):
        # the iterates shrink quadratically towards S = 0; the residual is
        # relative to max(||S||_F, 1), so they count as converged on the way
        # instead of only once S underflows to exactly 0
        P = MatrixPolynomial([np.zeros((2, 2)), np.diag([1.0, 2.0]), np.eye(2)])
        sol, report = refine_solvent(P, 1e-3 * np.ones((2, 2)), maxit=3)
        assert report.converged
        assert np.linalg.norm(sol.S) <= 1e-12

    @pytest.mark.parametrize("S0, match", [
        (np.ones(2), "S must be square"),
        (np.eye(3), "S must be 2x2"),
        (np.array([[1.0, np.nan], [0.0, 2.0]]), "non-finite"),
    ])
    def test_rejects_malformed_start(self, quad_2x2, S0, match):
        with pytest.raises(ValueError, match=match):
            refine_solvent(quad_2x2, S0)

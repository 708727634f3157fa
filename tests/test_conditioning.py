import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from invpairs import (
    MatrixPolynomial,
    WeightVector,
    eval_derivative,
    eval_matrix,
    eval_pair,
    eval_scalar,
    frobenius_weights,
    pair_backward_error,
    pair_condition_number,
    refine_pair,
    refine_solvent,
    solvent_backward_error,
    solvent_condition_number,
)
from invpairs.conditioning import (
    pair_jacobian,
    perturbation_matrix,
    solvent_jacobian,
    solvent_perturbation_matrix,
)
from invpairs import conditioning, problems
from invpairs._numeric import EPS, numerical_rank

from conftest import GOLDEN_S_SS, GOLDEN_X_SS, QUAD_EIGENPAIRS

# frozen from an independent dense Kronecker assembly + SVD (scripted before
# the module was written)
KAPPA_SS_GOLDEN = 0.7811407240366046
KAPPA_QUAD_DIAG12 = 54.57374409529776


def _oracle_pair_kappa(P, X, S, alphas):
    """Independent assembly: explicit kron sums, pinv, 2-norm by SVD."""
    n, k = X.shape
    ell = P.degree
    pows = [np.eye(k, dtype=complex)]
    for _ in range(ell):
        pows.append(pows[-1] @ S)
    B_X = sum(np.kron(pows[j].T, P.coeffs[j]) for j in range(ell + 1))
    B_S = sum(
        np.kron(pows[j - i - 1].T, P.coeffs[j] @ X @ pows[i])
        for j in range(1, ell + 1)
        for i in range(j)
    )
    B_A = np.hstack([
        alphas[ell - i] * np.kron((X @ pows[ell - i]).T, np.eye(n))
        for i in range(ell + 1)
        if alphas[ell - i] != 0.0
    ])
    M = np.linalg.pinv(np.hstack([B_X, B_S])) @ B_A
    denom = np.sqrt(np.linalg.norm(X, "fro") ** 2 + np.linalg.norm(S, "fro") ** 2)
    return np.linalg.svd(M, compute_uv=False)[0] / denom


def _oracle_eta(H, residual):
    """Minimum-norm solve over the explicit H, None when H is rank deficient."""
    if numerical_rank(H) < H.shape[0]:
        return None
    z, *_ = np.linalg.lstsq(H, -residual.ravel(order="F"), rcond=None)
    return np.linalg.norm(z)


def _random(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_polynomial(rng, n, ell):
    return MatrixPolynomial([_random(rng, n, n) for _ in range(ell + 1)])


def _weights(P, zero):
    """Frobenius weights with the listed coefficients held exact."""
    alphas = list(frobenius_weights(P).alphas)
    for i in zero:
        alphas[i] = 0.0
    return WeightVector(tuple(alphas))


# (n, ell, k, weights set to zero): k < n and k > n, zero weights, and a
# rank-deficient Gram matrix (one nonzero weight with k > n)
PAIR_CASES = [
    (3, 1, 2, ()),
    (4, 2, 6, ()),
    (5, 2, 3, (1,)),
    (6, 3, 8, (0,)),
    (7, 1, 7, ()),
    (8, 3, 5, (3,)),
    (4, 3, 5, (0, 1, 3)),
]


class TestKroneckerOracle:
    """kappa and eta against the explicitly assembled Kronecker matrices."""

    @pytest.mark.parametrize("n, ell, k, zero", PAIR_CASES)
    def test_pair(self, n, ell, k, zero):
        rng = np.random.default_rng(1000 * n + 10 * ell + k)
        P = _random_polynomial(rng, n, ell)
        X, S = _random(rng, n, k), _random(rng, k, k)
        w = _weights(P, zero)
        kappa = _oracle_pair_kappa(P, X, S, w.alphas)
        assert pair_condition_number(P, X, S, w) == pytest.approx(kappa, rel=1e-10)
        eta = _oracle_eta(perturbation_matrix(P, X, S, w), eval_pair(P, (X, S)))
        got = pair_backward_error(P, X, S, w).eta
        # random X and S: G has rank min(k, (#alpha)n)
        assert (got is None) == (eta is None) == (k > (ell + 1 - len(zero)) * n)
        if eta is not None:
            assert got == pytest.approx(eta, rel=1e-10)

    @pytest.mark.parametrize("n, ell, zero, singular", [
        (3, 1, (), False),
        (5, 2, (1,), False),
        (6, 3, (2, 3), False),
        (8, 2, (), False),
        (4, 1, (0,), True),
    ])
    def test_solvent(self, n, ell, zero, singular):
        rng = np.random.default_rng(100 * n + ell)
        P = _random_polynomial(rng, n, ell)
        T = _random(rng, n, n)
        if singular:
            T[:, 0] = T[:, 1]
        w = _weights(P, zero)
        B_A = solvent_perturbation_matrix(P, T, w)
        kappa = np.linalg.norm(np.linalg.solve(solvent_jacobian(P, T), B_A), 2) / np.linalg.norm(T)
        assert solvent_condition_number(P, T, w) == pytest.approx(kappa, rel=1e-10)
        eta = _oracle_eta(B_A, eval_matrix(P, T))
        got = solvent_backward_error(P, T, w).eta
        assert (got is None) == (eta is None) == singular
        if eta is not None:
            assert got == pytest.approx(eta, rel=1e-10)


def _kron_jacobian(P, X, S):
    """(B_X, B_S) as the sums of explicit Kronecker products."""
    pows = [np.eye(S.shape[0], dtype=complex)]
    for _ in range(P.degree):
        pows.append(pows[-1] @ S)
    B_X = sum(np.kron(pows[j].T, A) for j, A in enumerate(P.coeffs))
    B_S = sum(np.kron(pows[j - i - 1].T, P.coeffs[j] @ X @ pows[i])
              for j in range(1, P.degree + 1) for i in range(j))
    return B_X, B_S


def _rel_diff(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestBlockwiseJacobian:
    """The blockwise assembly against the Kronecker-sum definition."""

    @pytest.mark.parametrize("n, ell, k", [
        (2, 1, 1), (2, 4, 3), (3, 2, 5), (4, 3, 2), (5, 1, 7),
        (6, 4, 3), (7, 2, 9), (8, 3, 4), (8, 4, 10),
    ])
    def test_pair(self, n, ell, k):
        rng = np.random.default_rng(1000 * n + 10 * ell + k)
        P = _random_polynomial(rng, n, ell)
        X, S = _random(rng, n, k), _random(rng, k, k)
        for got, want in zip(pair_jacobian(P, X, S), _kron_jacobian(P, X, S)):
            assert got.shape == want.shape
            assert _rel_diff(got, want) <= 1e-14

    @pytest.mark.parametrize("n, ell", [(2, 1), (3, 4), (5, 2), (8, 3)])
    def test_solvent(self, n, ell):
        rng = np.random.default_rng(100 * n + ell)
        P = _random_polynomial(rng, n, ell)
        S = _random(rng, n, n)
        want = _kron_jacobian(P, np.eye(n, dtype=complex), S)[1]
        assert _rel_diff(solvent_jacobian(P, S), want) <= 1e-14


class TestShapeChecks:
    def test_pair_condition_number(self, quad_2x2):
        with pytest.raises(ValueError, match="X has 3 rows, polynomial acts on C\\^2"):
            pair_condition_number(quad_2x2, np.ones((3, 2)), np.eye(2))
        with pytest.raises(ValueError, match="S must be 2x2"):
            pair_condition_number(quad_2x2, np.eye(2), np.eye(3))

    def test_pair_backward_error(self, quad_2x2):
        with pytest.raises(ValueError, match="S must be 2x2"):
            pair_backward_error(quad_2x2, np.eye(2), np.eye(3))
        with pytest.raises(ValueError, match="S must be square"):
            pair_backward_error(quad_2x2, np.eye(2), np.ones((2, 3)))
        with pytest.raises(ValueError, match="n-by-k"):
            pair_backward_error(quad_2x2, np.ones(2), np.eye(1))

    def test_solvent_condition_number(self, quad_2x2):
        with pytest.raises(ValueError, match="S must be 2x2"):
            solvent_condition_number(quad_2x2, np.eye(3))

    def test_solvent_backward_error(self, quad_2x2):
        with pytest.raises(ValueError, match="S must be square"):
            solvent_backward_error(quad_2x2, np.ones((2, 3)))


class TestNonFinite:
    """NaN or inf in X or S is named before any LAPACK call (which would fail
    with 'SVD did not converge')."""

    def test_pair_condition_number(self, ss_2x2):
        with pytest.raises(ValueError, match="S has non-finite entries"):
            pair_condition_number(ss_2x2, GOLDEN_X_SS, np.where(np.eye(3), np.nan, GOLDEN_S_SS))

    def test_pair_backward_error(self, ss_2x2):
        X = np.where(GOLDEN_X_SS == 0, np.inf, GOLDEN_X_SS)
        with pytest.raises(ValueError, match="X has non-finite entries"):
            pair_backward_error(ss_2x2, X, GOLDEN_S_SS)

    def test_solvent_condition_number(self, quad_2x2):
        with pytest.raises(ValueError, match="S has non-finite entries"):
            solvent_condition_number(quad_2x2, np.array([[1.0, np.inf], [0.0, 2.0]]))

    def test_solvent_backward_error(self, quad_2x2):
        with pytest.raises(ValueError, match="S has non-finite entries"):
            solvent_backward_error(quad_2x2, np.array([[np.nan, 0.0], [0.0, 2.0]]))


def _gelsy_pair_kappa(P, X, S, w=None):
    """The former kappa path, kept as a reference: J^+ (L kron I) from the
    xGELSY minimum-norm solve (column-pivoted QR, rank cutoff sqrt(eps)),
    then its 2-norm.  J must have full row rank, so the solve is exact."""
    g = conditioning._gram(P, X, S, w)
    J = np.hstack(pair_jacobian(P, g.X, g.S))
    M, _, rank, _ = scipy.linalg.lstsq(J, g.kron_factor(), cond=math.sqrt(EPS),
                                       lapack_driver="gelsy", check_finite=False)
    assert rank == J.shape[0]
    return np.linalg.norm(M, 2) / math.hypot(np.linalg.norm(g.X), np.linalg.norm(g.S))


def _conditioned(rng, n, k, cond):
    """n-by-k (n >= k) with singular values spread evenly in log from 1 to 1/cond."""
    U = np.linalg.qr(_random(rng, n, k))[0]
    V = np.linalg.qr(_random(rng, k, k))[0]
    return (U * np.logspace(0, -np.log10(cond), k)) @ V


class TestRFactorPath:
    """kappa against the pivoted-QR path (the solvent case is checked against a
    dense solve in TestKroneckerOracle), and the SVD path where J is too ill
    conditioned for the smallest-singular-value identity."""

    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e6, 1e8])
    @pytest.mark.parametrize("n, ell, k", [(4, 2, 3), (6, 3, 4), (9, 2, 6)])
    def test_ill_conditioned_x_matches_gelsy(self, n, ell, k, cond):
        rng = np.random.default_rng(10 * n + k + int(np.log10(cond)))
        P = _random_polynomial(rng, n, ell)
        X, S = _conditioned(rng, n, k, cond), _random(rng, k, k)
        assert np.linalg.cond(X) == pytest.approx(cond, rel=1e-6)
        got, want = pair_condition_number(P, X, S), _gelsy_pair_kappa(P, X, S)
        assert abs(got - want) <= 1e-9 * want

    @pytest.mark.parametrize("n, ell, k, zero", [(4, 3, 5, (0, 1, 3)), (3, 1, 7, ()), (2, 2, 5, (2,))])
    def test_wide_pair_with_rank_deficient_gram_matches_gelsy(self, n, ell, k, zero):
        rng = np.random.default_rng(100 * n + k)
        P = _random_polynomial(rng, n, ell)
        X, S = _random(rng, n, k), _random(rng, k, k)
        w = _weights(P, zero)
        assert conditioning._gram(P, X, S, w).s.size < k
        got, want = pair_condition_number(P, X, S, w), _gelsy_pair_kappa(P, X, S, w)
        assert abs(got - want) <= 1e-9 * want

    @staticmethod
    def _spy(monkeypatch):
        """Record whether each _scaled_smin call declines, with R's rcond estimate
        for the R factor of J^H."""
        seen = []
        real = conditioning._scaled_smin

        def spy(g, J):
            R = np.linalg.qr(J.conj().T, mode="r")
            rcond = 1.0 / np.linalg.cond(R, 1)
            out = real(g, J)
            seen.append((rcond, out is None))
            return out

        monkeypatch.setattr(conditioning, "_scaled_smin", spy)
        return seen

    def test_pair_between_eps_and_sqrt_eps_takes_svd_path(self, ss_2x2, monkeypatch):
        # 1e-10 away from the rank-3 pair of test_nonsimple_pair_warns: J keeps
        # full SVD rank nk = 6, but too ill conditioned for the sigma_min path
        rng = np.random.default_rng(0)
        X = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]) + 1e-10 * rng.standard_normal((2, 3))
        S = 1e-10 * rng.standard_normal((3, 3))
        J = np.hstack(pair_jacobian(ss_2x2, X, S))
        assert numerical_rank(J) == 6
        seen = self._spy(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pair_condition_number(ss_2x2, X, S)
        [(rcond, fell_back)] = seen
        assert np.finfo(float).eps < rcond < math.sqrt(np.finfo(float).eps) and fell_back
        LI = conditioning._gram(ss_2x2, X, S, None).kron_factor()
        want = np.linalg.norm(np.linalg.pinv(J) @ LI, 2) / np.linalg.norm(np.vstack([X, S]))
        assert got == pytest.approx(want, rel=1e-9)

    def test_solvent_between_eps_and_sqrt_eps_takes_dense_solve(self, monkeypatch):
        # 1e-10 away from the singular-Jacobian solvent of
        # test_singular_jacobian_uses_pseudoinverse: full SVD rank, no warning
        S0 = np.array([[1.0, 2.0], [0.0, -1.0]])
        P = MatrixPolynomial([S0 @ S0, -2 * S0, np.eye(2)])
        S = S0 + 1e-10 * np.random.default_rng(1).standard_normal((2, 2))
        B_S = solvent_jacobian(P, S)
        assert numerical_rank(B_S) == 4
        seen = self._spy(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solvent_condition_number(P, S)
        [(rcond, fell_back)] = seen
        assert np.finfo(float).eps < rcond < math.sqrt(np.finfo(float).eps) and fell_back
        LI = conditioning._gram(P, np.eye(2), S, None).kron_factor()
        want = np.linalg.norm(np.linalg.solve(B_S, LI), 2) / np.linalg.norm(S)
        assert got == pytest.approx(want, rel=1e-9)


def _r_factor_kappa(J, g, denom):
    """The former kappa path, kept as a reference: ||R^{-H} (L kron I)||_2 for
    the thin QR factorization J^H = Q R of a J of full row rank."""
    R = scipy.linalg.qr(J.conj().T, mode="r")[0][: J.shape[0]]
    return np.linalg.norm(scipy.linalg.solve_triangular(R, g.kron_factor(), trans="C"), 2) / denom


def _product_problem(rng, n):
    """P(lambda) = (lambda I - A)(lambda I - B), which has the solvent B."""
    A, B = _random(rng, n, n) / math.sqrt(n), _random(rng, n, n) / math.sqrt(n)
    return MatrixPolynomial([A @ B, -(A + B), np.eye(n)]), B


class TestSminIdentity:
    """1 / sigma_min((L^{-1} kron I) J) against the R factor of J^H on exact
    pairs and solvents; every case must take the sigma_min path."""

    def test_pairs(self, monkeypatch):
        seen = TestRFactorPath._spy(monkeypatch)
        for n in (20, 30, 40):
            for k in (2, 4, 6):
                rng = np.random.default_rng(100 * n + k)
                P, B = _product_problem(rng, n)
                T, U = scipy.linalg.schur(B, output="complex")
                X, S = U[:, :k], T[:k, :k]
                g = conditioning._gram(P, X, S, None)
                J = np.hstack(pair_jacobian(P, g.X, g.S))
                want = _r_factor_kappa(J, g, math.hypot(np.linalg.norm(X), np.linalg.norm(S)))
                assert pair_condition_number(P, X, S) == pytest.approx(want, rel=1e-12), (n, k)
        assert [declined for _, declined in seen] == [False] * 9

    def test_solvents(self, monkeypatch):
        seen = TestRFactorPath._spy(monkeypatch)
        for n in range(6, 13):
            P, S = _product_problem(np.random.default_rng(n), n)
            g = conditioning._gram(P, np.eye(n), S, None)
            want = _r_factor_kappa(solvent_jacobian(P, S), g, np.linalg.norm(S))
            assert solvent_condition_number(P, S) == pytest.approx(want, rel=1e-12), n
        assert [declined for _, declined in seen] == [False] * 7


# Weighted size of the coefficient perturbations in TestKappaPredictsMovement,
# and the slack allowed on the first-order prediction kappa * DELTA: the
# second-order terms are O(kappa^2 DELTA^2), about 3e-4 relative here
DELTA = 1e-7
FIRST_ORDER_SLACK = 1e-2


def _moved(P, e):
    """P with A_i + alpha_i E_i, where e stacks vec(E_i) for i = ell..0 (the
    columns of perturbation_matrix, column-major vec)."""
    n = P.n
    alphas = frobenius_weights(P).alphas
    blocks = e.reshape(P.degree + 1, n * n)[::-1]
    return MatrixPolynomial([A + a * E.reshape((n, n), order="F")
                             for A, a, E in zip(P.coeffs, alphas, blocks)])


def _movement(P, X, S, e):
    """Forward error of the exact pair (X, S) of P after perturbing P along e.

    The pair is refined on _moved(P, e); its change, with the component along the directions
    {(X G, S G - G S)} that leave the pair's subspace alone removed by least
    squares, is divided by ||[X; S]||_F.
    """
    n, k = X.shape
    pair, report = refine_pair(_moved(P, e), X, S, tol=1e-14, maxit=10)
    assert report.converged
    gauge = np.empty((n * k + k * k, k * k), dtype=complex)
    for q in range(k * k):
        G = np.zeros((k, k))
        G.flat[q] = 1.0
        gauge[:, q] = np.concatenate([(X @ G).ravel(), (S @ G - G @ S).ravel()])
    d = np.concatenate([(pair.X - X).ravel(), (pair.S - S).ravel()])
    d -= gauge @ np.linalg.lstsq(gauge, d, rcond=None)[0]
    return np.linalg.norm(d) / math.hypot(np.linalg.norm(X), np.linalg.norm(S))


KAPPA_CASES = pytest.mark.parametrize("n, k", [(10, 2), (10, 4), (20, 2), (20, 4)])


class TestKappaPredictsMovement:
    """kappa * delta against how far an exact pair moves when the coefficients
    move by delta in the weighted norm."""

    @staticmethod
    def _case(n, k):
        rng = np.random.default_rng(100 * n + k)
        P, B = _product_problem(rng, n)
        vals, vecs = np.linalg.eig(B)
        return rng, P, vecs[:, :k], np.diag(vals[:k])

    @KAPPA_CASES
    def test_random_directions_stay_below_kappa_delta(self, n, k):
        rng, P, X, S = self._case(n, k)
        kappa = pair_condition_number(P, X, S)
        for _ in range(3):
            e = _random(rng, (P.degree + 1) * n * n)
            moved = _movement(P, X, S, DELTA * e / np.linalg.norm(e))
            assert moved <= kappa * DELTA * (1.0 + FIRST_ORDER_SLACK)

    @KAPPA_CASES
    def test_worst_direction_reaches_kappa_delta(self, n, k):
        # the top right singular vector of J^+ B_A, in the weighted variables
        _, P, X, S = self._case(n, k)
        J = np.hstack(_kron_jacobian(P, X, S))
        M = np.linalg.pinv(J) @ perturbation_matrix(P, X, S)
        worst = np.linalg.svd(M, full_matrices=False)[2][0].conj()
        moved = _movement(P, X, S, DELTA * worst)
        assert abs(moved / (pair_condition_number(P, X, S) * DELTA) - 1.0) <= FIRST_ORDER_SLACK


class TestSolventKappaPredictsMovement:
    """The same for the exact solvent B of (lambda I - A)(lambda I - B), which
    has no gauge freedom: its change is ||S' - S||_F / ||S||_F."""

    @staticmethod
    def _movement(P, S, e):
        solvent, report = refine_solvent(_moved(P, e), S, tol=1e-14, maxit=10)
        assert report.converged
        return np.linalg.norm(solvent.S - S) / np.linalg.norm(S)

    @pytest.mark.parametrize("n", [6, 10, 20])
    def test_random_directions_stay_below_kappa_delta(self, n):
        rng = np.random.default_rng(n)
        P, S = _product_problem(rng, n)
        kappa = solvent_condition_number(P, S)
        for _ in range(3):
            e = _random(rng, (P.degree + 1) * n * n)
            moved = self._movement(P, S, DELTA * e / np.linalg.norm(e))
            assert moved <= kappa * DELTA * (1.0 + FIRST_ORDER_SLACK)

    @pytest.mark.parametrize("n", [6, 10, 20])
    def test_worst_direction_reaches_kappa_delta(self, n):
        # the top right singular vector of Bhat_S^{-1} Bhat_A, in the weighted variables
        P, S = _product_problem(np.random.default_rng(n), n)
        M = np.linalg.solve(solvent_jacobian(P, S), solvent_perturbation_matrix(P, S))
        worst = np.linalg.svd(M, full_matrices=False)[2][0].conj()
        moved = self._movement(P, S, DELTA * worst)
        assert abs(moved / (solvent_condition_number(P, S) * DELTA) - 1.0) <= FIRST_ORDER_SLACK


class TestWeights:
    def test_frobenius_default(self, ss_2x2):
        w = frobenius_weights(ss_2x2)
        want = [np.linalg.norm(A, "fro") for A in ss_2x2.coeffs]
        np.testing.assert_allclose(w.alphas, want)

    def test_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            WeightVector((-1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            WeightVector((np.inf, 1.0))
        with pytest.raises(ValueError, match="finite"):
            WeightVector((np.nan, 1.0))
        with pytest.raises(ValueError, match="positive"):
            WeightVector((0.0, 0.0))


class TestPairConditionNumber:
    def test_k1_reduction_blocks(self, quad_2x2):
        # for k = 1 the Jacobian blocks collapse to P(lambda) and P'(lambda) x
        rng = np.random.default_rng(21)
        for _ in range(5):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            lam = complex(*rng.standard_normal(2))
            B_X, B_S = pair_jacobian(quad_2x2, x.reshape(2, 1), np.array([[lam]]))
            P_lam = eval_scalar(quad_2x2, lam)
            Pp_x = eval_derivative(quad_2x2, lam) @ x
            assert np.abs(B_X - P_lam).max() <= 1e-13 * max(1.0, np.abs(P_lam).max())
            assert np.abs(B_S.ravel() - Pp_x).max() <= 1e-13 * max(1.0, np.abs(Pp_x).max())

    def test_weight_scaling_linearity(self, ss_2x2):
        w = frobenius_weights(ss_2x2)
        w2 = WeightVector(tuple(2 * a for a in w.alphas))
        k1 = pair_condition_number(ss_2x2, GOLDEN_X_SS, GOLDEN_S_SS, w)
        k2 = pair_condition_number(ss_2x2, GOLDEN_X_SS, GOLDEN_S_SS, w2)
        assert abs(k2 - 2 * k1) <= 1e-12 * k2

    def test_golden_pair_frozen_value(self, ss_2x2):
        kappa = pair_condition_number(ss_2x2, GOLDEN_X_SS, GOLDEN_S_SS)
        assert kappa == pytest.approx(KAPPA_SS_GOLDEN, rel=1e-10)
        oracle = _oracle_pair_kappa(ss_2x2, GOLDEN_X_SS.astype(complex),
                                    GOLDEN_S_SS.astype(complex),
                                    frobenius_weights(ss_2x2).alphas)
        assert kappa == pytest.approx(oracle, rel=1e-10)

    def test_zero_weights_drop_columns(self, ss_2x2):
        w = WeightVector((0.0, 1.0, 1.0))
        H = perturbation_matrix(ss_2x2, GOLDEN_X_SS, GOLDEN_S_SS, w)
        n, k, ell = 2, 3, 2
        assert H.shape == (n * k, ell * n * n)

    def test_nonsimple_pair_warns(self, ss_2x2):
        # S = 0 and X chosen so A_1 X shares the column space of A_0: the
        # stacked Jacobian then has rank 3 instead of nk = 6
        X = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], dtype=complex)
        S = np.zeros((3, 3), dtype=complex)
        with pytest.warns(UserWarning, match="rank deficient"):
            pair_condition_number(ss_2x2, X, S)

    def test_nonsimple_pair_uses_pseudoinverse(self, ss_2x2):
        # J has rank 3 < nk, so the sigma_min identity does not take it; the
        # SVD path must give ||pinv(J) (L kron I)||_2 / ||[X; S]||_F
        X = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], dtype=complex)
        S = np.zeros((3, 3), dtype=complex)
        J = np.hstack(pair_jacobian(ss_2x2, X, S))
        assert conditioning._scaled_smin(conditioning._gram(ss_2x2, X, S, None), J) is None
        LI = conditioning._gram(ss_2x2, X, S, None).kron_factor()
        want = np.linalg.norm(np.linalg.pinv(J) @ LI, 2) / np.linalg.norm(np.vstack([X, S]))
        with pytest.warns(UserWarning, match="rank deficient"):
            got = pair_condition_number(ss_2x2, X, S)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(_oracle_pair_kappa(ss_2x2, X, S, frobenius_weights(ss_2x2).alphas),
                                    rel=1e-12)


class TestPairBackwardError:
    def test_exact_golden_pair(self, ss_2x2):
        rep = pair_backward_error(ss_2x2, GOLDEN_X_SS, GOLDEN_S_SS)
        assert rep.eta is not None and rep.eta <= 1e-14
        assert rep.lower <= rep.eta + 1e-16

    def test_sandwich_on_perturbed_pairs(self, quad_2x2):
        # k = n = 2 pairs built from eigenpairs keep every bound finite
        rng = np.random.default_rng(31)
        X0 = np.column_stack([QUAD_EIGENPAIRS[0][1], QUAD_EIGENPAIRS[1][1]]).astype(complex)
        S0 = np.diag([1.0 + 0j, 2.0 + 0j])
        for _ in range(20):
            X = X0 + 1e-4 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            S = S0 + 1e-4 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            rep = pair_backward_error(quad_2x2, X, S)
            assert rep.eta is not None
            assert rep.lower <= rep.eta * (1 + 1e-12)
            assert rep.eta <= rep.upper * (1 + 1e-12)

    def test_wide_pair_has_infinite_upper_bound(self, ss_2x2):
        # k > n makes every sigma_min(X S^i) vanish
        rep = pair_backward_error(ss_2x2, GOLDEN_X_SS, GOLDEN_S_SS)
        assert rep.upper == np.inf

    def test_rank_deficient_h_gives_bounds_only(self, ss_2x2):
        X = np.hstack([np.eye(2), np.zeros((2, 1))]).astype(complex)
        S = np.zeros((3, 3), dtype=complex)
        rep = pair_backward_error(ss_2x2, X, S)
        assert rep.eta is None
        assert rep.lower >= 0.0


class TestSolventConditionNumber:
    def test_frozen_value(self, quad_2x2):
        S = np.diag([1.0, 2.0])
        kappa = solvent_condition_number(quad_2x2, S)
        assert kappa == pytest.approx(KAPPA_QUAD_DIAG12, rel=1e-10)

    def test_matches_pair_machinery_numerator(self, quad_2x2):
        # the solvent blocks are the pair blocks at X = I with the DX block
        # removed; the normwise numerators must agree exactly
        S = np.diag([1.0 + 0j, 2.0 + 0j])
        w = frobenius_weights(quad_2x2)
        _, B_S = pair_jacobian(quad_2x2, np.eye(2, dtype=complex), S)
        B_A = perturbation_matrix(quad_2x2, np.eye(2, dtype=complex), S, w)
        num_pair = np.linalg.norm(np.linalg.pinv(B_S) @ B_A, 2)
        num_solv = solvent_condition_number(quad_2x2, S, w) * np.linalg.norm(S, "fro")
        assert num_solv == pytest.approx(num_pair, rel=1e-10)
        np.testing.assert_allclose(solvent_jacobian(quad_2x2, S), B_S, atol=1e-14)
        np.testing.assert_allclose(solvent_perturbation_matrix(quad_2x2, S, w), B_A, atol=1e-14)

    def test_singular_jacobian_uses_pseudoinverse(self):
        # P(lambda) = (lambda I - S)^2 has the Jacobian DS -> DS S - S DS at
        # S, which is singular (it annihilates I and S)
        S = np.array([[1.0, 2.0], [0.0, -1.0]], dtype=complex)
        P = MatrixPolynomial([S @ S, -2 * S, np.eye(2)])
        B_A = solvent_perturbation_matrix(P, S)
        want = np.linalg.norm(np.linalg.pinv(solvent_jacobian(P, S)) @ B_A, 2) / np.linalg.norm(S)
        with pytest.warns(UserWarning, match="using a pseudoinverse"):
            got = solvent_condition_number(P, S)
        assert got == pytest.approx(want, rel=1e-12)

    def test_weight_scaling(self, quad_2x2):
        S = np.diag([1.0, 2.0])
        w = frobenius_weights(quad_2x2)
        w2 = WeightVector(tuple(2 * a for a in w.alphas))
        assert solvent_condition_number(quad_2x2, S, w2) == pytest.approx(
            2 * solvent_condition_number(quad_2x2, S, w), rel=1e-12
        )


class TestSolventBackwardError:
    def test_exact_solvent(self, quad_2x2):
        rep = solvent_backward_error(quad_2x2, np.diag([1.0, 2.0]))
        assert rep.eta is not None and rep.eta <= 1e-14

    def test_sandwich_on_perturbations(self, quad_2x2):
        rng = np.random.default_rng(41)
        for _ in range(20):
            T = np.diag([1.0, 2.0]) + 1e-3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            rep = solvent_backward_error(quad_2x2, T)
            assert rep.eta is not None
            assert rep.lower <= rep.eta * (1 + 1e-12)
            assert rep.eta <= rep.upper * (1 + 1e-12)

    def test_zero_solvent_bound_formula(self, quad_2x2):
        # with T = 0 only the constant-coefficient term survives, so the lower
        # bound is exactly ||A_0||_F / alpha_0
        w = WeightVector((2.0, 1.0, 1.0))
        rep = solvent_backward_error(quad_2x2, np.zeros((2, 2)))
        assert rep.eta is not None and rep.eta > 0.1
        rep2 = solvent_backward_error(quad_2x2, np.zeros((2, 2)), w)
        want = np.linalg.norm(quad_2x2.coeffs[0], "fro") / 2.0
        assert rep2.lower == pytest.approx(want, rel=1e-14)

    def test_computed_eta_is_attainable(self, quad_2x2):
        # reconstruct the perturbation from the minimum-norm solve and verify
        # it actually annihilates the residual
        rng = np.random.default_rng(51)
        T = np.diag([1.0, 2.0]) + 1e-2 * rng.standard_normal((2, 2))
        w = frobenius_weights(quad_2x2)
        H = solvent_perturbation_matrix(quad_2x2, T, w)
        r = -eval_matrix(quad_2x2, T).ravel(order="F")
        z, *_ = np.linalg.lstsq(H, r, rcond=None)
        assert np.linalg.norm(H @ z - r) <= 1e-12
        rep = solvent_backward_error(quad_2x2, T, w)
        assert rep.eta == pytest.approx(np.linalg.norm(z), rel=1e-12)

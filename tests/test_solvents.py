import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from invpairs import (
    InvariantPair,
    MatrixPolynomial,
    eval_matrix,
    enumerate_solvents,
    solvent_from_pair,
    solvent_from_triangular,
    triangular_solvent_solve,
    verify_solvent,
)
from invpairs.matpoly import companion_linearization
from invpairs.solvents import (
    NonAffineFamilyError,
    SingularBasisError,
    SingularLeadingBlockError,
    SingularTransformationError,
)
from invpairs import problems, solvents
from invpairs._numeric import cluster_eigenvalues

from conftest import QUAD_EIGENPAIRS, QUAD_SOLVENT_SET

# A transformation that commutes with the companion matrix of the triangular
# fixture (so it is a valid triangularizing M for it) but drives the leading
# recovery block Y_1 numerically singular.  Found by a one-off nullspace
# search over the commutant; frozen here to pin the error path.
M_SINGULAR_Y1 = np.array([
    [1.1252478302761055, -0.8451568315058299, 6.572589986477523, -0.37508261009205657, 0.1937370584801396, -1.753350243886022],
    [1.775445296359826, -3.690705311638136, 2.9889897990864394, -0.4438613240899446, 0.9942994438276038, -0.4708883503081695],
    [6.103777221477847e-14, -1.0591102043406359e-13, 2.6076573961992198, -1.6639928867082648e-14, 2.9944877400954675e-14, -0.745685001572787],
    [4.50099132110464, -2.8688813565972175, 27.859866843695126, -1.500330440368283, 0.6923481294670053, -7.454211964610351],
    [5.326335889079618, -10.280278966718155, 6.539914161100489, -1.3315839722698672, 2.7189526754173725, -0.7781170033781526],
    [2.2447993185908148e-13, -4.135461157906924e-13, 11.930960025164525, -6.035535634561454e-14, 1.170867861123558e-13, -3.357822616383054],
])


CONDITIONS = pytest.mark.parametrize("cond", [1e2, 1e4, 1e6], ids=["cond1e2", "cond1e4", "cond1e6"])


def _graded_basis(cond, seed):
    """3x3 E = Q diag(1/cond, cond^(-1/2), 1) with Q a seeded orthogonal matrix.

    cond(E) = cond, yet E A E^{-1} stays as small as A for upper triangular A:
    the increasing scaling shrinks the strictly upper part.  So problems and
    solvents built with E keep O(1) entries and absolute tolerances, and the
    ill-conditioning sits in the basis that the similarity solves with.
    """
    Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))[0]
    E = Q * np.array([1.0 / cond, cond ** -0.5, 1.0])
    assert np.linalg.cond(E) == pytest.approx(cond, rel=1e-6)
    return E


class TestSolventFromPair:
    def test_identity_pair(self, quad_2x2):
        S0 = np.diag([1.0, 2.0])
        sol = solvent_from_pair(quad_2x2, InvariantPair(np.eye(2), S0))
        np.testing.assert_allclose(sol.S, S0, atol=1e-14)
        assert sol.residual <= 1e-14

    def test_pair_from_eigenpairs(self, quad_2x2):
        X = np.column_stack([QUAD_EIGENPAIRS[0][1], QUAD_EIGENPAIRS[1][1]])
        S = np.diag([1.0, 2.0])
        sol = solvent_from_pair(quad_2x2, InvariantPair(X, S))
        np.testing.assert_allclose(sol.S, np.diag([1.0, 2.0]), atol=1e-10)
        assert sol.residual <= 1e-10

    def test_agrees_with_subset_construction(self, quad_2x2):
        # (W, diag(mu)) as a pair gives the same solvent W diag(mu) W^{-1} as
        # the eigenpair-subset route, here for eigenvalues {1, 3}
        W = np.column_stack([QUAD_EIGENPAIRS[0][1], QUAD_EIGENPAIRS[2][1]])
        D = np.diag([1.0, 3.0])
        sol = solvent_from_pair(quad_2x2, InvariantPair(W, D))
        direct = W @ D @ np.linalg.inv(W)
        assert np.abs(sol.S - direct).max() <= 1e-10
        np.testing.assert_allclose(sol.S, np.array([[1.0, 2.0], [0.0, 3.0]]), atol=1e-10)

    @CONDITIONS
    def test_conditioned_basis_recovers_solvent(self, cond):
        # P(lambda) = (lambda I - S1)(lambda I - S) has the solvent S = X S_pair X^{-1}
        X = _graded_basis(cond, 5)
        S_pair = np.array([[1.0, 0.5, -0.25], [0.0, 2.0, 0.75], [0.0, 0.0, 3.0]])
        want = X @ S_pair @ np.linalg.inv(X)
        S1 = np.random.default_rng(6).standard_normal((3, 3))
        P = MatrixPolynomial([S1 @ want, -(S1 + want), np.eye(3)])
        sol = solvent_from_pair(P, InvariantPair(X, S_pair))
        assert np.abs(sol.S - want).max() <= 1e-8
        assert sol.residual <= 1e-8

    def test_rejects_rectangular_pair(self, multi_3x3, golden_contours):
        from invpairs import extract_block_invariant_pair

        U = np.array(problems.GOLDEN_PROBES["multi_3x3"]["U"])
        V = np.array(problems.GOLDEN_PROBES["multi_3x3"]["V"])
        pair = extract_block_invariant_pair(multi_3x3, golden_contours["multi_3x3"], U, V, m=5)
        with pytest.raises(ValueError, match="k=5"):
            solvent_from_pair(multi_3x3, pair)

    def test_singular_x_reports_condition(self, quad_2x2):
        X = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
        with pytest.raises(SingularBasisError, match="condition"):
            solvent_from_pair(quad_2x2, InvariantPair(X, np.diag([1.0, 2.0])))


def _enumerate_by_loop(P, eigpairs):
    """enumerate_solvents one subset at a time, with numpy only: the same
    rank cutoff, transposed solve and Horner residual."""
    n = P.n
    found, rejected = [], []
    for idx in itertools.combinations(range(len(eigpairs)), n):
        W = np.column_stack([np.asarray(eigpairs[i][1], dtype=complex) for i in idx])
        svals = np.linalg.svd(W, compute_uv=False)
        if np.count_nonzero(svals > n * np.finfo(float).eps * svals[0]) < n:
            rejected.append(idx)
            continue
        S = np.linalg.solve(W.T, (W @ np.diag([complex(eigpairs[i][0]) for i in idx])).T).T
        R = P.coeffs[-1]
        for A in P.coeffs[-2::-1]:
            R = R @ S + A
        found.append((S, float(np.linalg.norm(R, "fro"))))
    return found, rejected


def _companion_eigenpairs(P):
    vals, vecs = np.linalg.eig(companion_linearization(P))
    return [(vals[i], vecs[:P.n, i]) for i in range(len(vals))]


def _seeded_quadratic(n):
    """A monic quadratic with seeded complex coefficients and its companion eigenpairs."""
    rng = np.random.default_rng(40 + n)
    A0, A1 = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
    P = MatrixPolynomial([A0, A1, np.eye(n)])
    return P, _companion_eigenpairs(P)


def _shared_eigenvectors_3x3():
    """Q diag((z - 1)(z - 2), (z - 3)(z - 4), (z - 5)(z - 6)) Q^-1 with its
    eigenpairs: each column of Q belongs to two eigenvalues, so the 12
    subsets that hold both copies of a column are rejected."""
    Q = np.random.default_rng(8).standard_normal((3, 3))
    roots = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    diags = [roots.prod(axis=1), -roots.sum(axis=1), np.ones(3)]
    P = MatrixPolynomial([Q @ np.diag(d) @ np.linalg.inv(Q) for d in diags])
    return P, [(complex(r), Q[:, i]) for i in range(3) for r in roots[i]]


class TestEnumerateSolvents:
    @pytest.mark.parametrize("case", [
        *(pytest.param(_seeded_quadratic(n), id=f"quadratic-n{n}") for n in (2, 3, 4, 5)),
        pytest.param(_shared_eigenvectors_3x3(), id="shared-eigenvectors"),
    ])
    def test_stacked_subsets_match_a_loop_bit_for_bit(self, case):
        P, eigpairs = case
        sols, rejected = enumerate_solvents(P, eigpairs)
        want, want_rejected = _enumerate_by_loop(P, eigpairs)
        assert len(sols) + len(rejected) == math.comb(len(eigpairs), P.n)
        assert [s.S.tobytes() for s in sols] == [S.tobytes() for S, _ in want]
        assert [s.residual for s in sols] == [r for _, r in want]
        assert rejected == want_rejected == sorted(rejected)
        assert all(type(i) is int for idx in rejected for i in idx)

    def test_shared_eigenvectors_are_rejected(self):
        P, eigpairs = _shared_eigenvectors_3x3()
        sols, rejected = enumerate_solvents(P, eigpairs)
        assert rejected == [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 4, 5),
                            (1, 2, 3), (1, 4, 5), (2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5)]
        assert len(sols) == 8
        assert all(s.residual <= 1e-10 for s in sols)

    def test_chunks_give_the_same_answers(self, monkeypatch):
        P, eigpairs = _seeded_quadratic(4)
        sols, rejected = enumerate_solvents(P, eigpairs)
        monkeypatch.setattr(solvents, "_STACK_ENTRIES", 3 * 16)  # 3 subsets per chunk
        chunked, chunked_rejected = enumerate_solvents(P, eigpairs)
        assert [s.S.tobytes() for s in chunked] == [s.S.tobytes() for s in sols]
        assert [s.residual for s in chunked] == [s.residual for s in sols]
        assert chunked_rejected == rejected

    def test_subset_cap_raises_before_allocating(self, quad_2x2):
        pairs = QUAD_EIGENPAIRS * 50  # C(200, 2) = 19,900 subsets; their W alone take 1.3 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap"):
                enumerate_solvents(quad_2x2, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_complete_reference_set(self, quad_2x2):
        sols, rejected = enumerate_solvents(quad_2x2, QUAD_EIGENPAIRS)
        assert len(sols) == 5
        assert rejected == [(2, 3)]
        unmatched = list(QUAD_SOLVENT_SET)
        for got in sols:
            hits = [i for i, want in enumerate(unmatched)
                    if np.abs(got.S - want).max() <= 1e-8]
            assert hits, f"unexpected solvent {got.S}"
            unmatched.pop(hits[0])
        assert unmatched == []
        # closure: every emitted solvent verifies
        for sol in sols:
            assert verify_solvent(quad_2x2, sol.S, tol=1e-8).certified

    def test_haar_problem_yields_binomial_count(self):
        # monic quadratic (zI - B)(zI - A) with generic A, B: 4 distinct
        # eigenvalues whose eigenvectors are in general position
        rng = np.random.default_rng(73)
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 2))
        P = MatrixPolynomial([B @ A, -(A + B), np.eye(2)])
        comp = companion_linearization(P)
        vals, vecs = np.linalg.eig(comp)
        eigpairs = [(vals[i], vecs[:2, i]) for i in range(4)]
        sols, rejected = enumerate_solvents(P, eigpairs)
        assert len(sols) == math.comb(4, 2)
        assert rejected == []
        for sol in sols:
            assert sol.residual <= 1e-8

    def test_subset_cap(self, quad_2x2):
        pairs = QUAD_EIGENPAIRS * 40  # 160 eigenpairs, C(160, 2) > 10^4
        with pytest.raises(ValueError, match="cap"):
            enumerate_solvents(quad_2x2, pairs)

    def test_too_few_eigenpairs(self, quad_2x2):
        with pytest.raises(ValueError, match="at least"):
            enumerate_solvents(quad_2x2, QUAD_EIGENPAIRS[:1])

    def test_subset_cap_message(self):
        # diag((lam - i)(lam - i - 8)), i = 1..8: 16 eigenpairs, C(16, 8) subsets
        roots = np.arange(1.0, 9.0)
        P = MatrixPolynomial([np.diag(roots * (roots + 8)), np.diag(-2 * roots - 8), np.eye(8)])
        eigpairs = [(r + shift, np.eye(8)[i]) for shift in (0, 8) for i, r in enumerate(roots)]
        with pytest.raises(ValueError, match=r"^12870 subsets exceed the cap of 10000$"):
            enumerate_solvents(P, eigpairs)


class TestVerifySolvent:
    def test_exact_solvent_passes(self, quad_2x2):
        report = verify_solvent(quad_2x2, np.diag([1.0, 2.0]), tol=1e-12)
        assert report.certified
        assert report.residual <= 1e-12
        assert max(report.eigenpair_residuals) <= 1e-12

    def test_second_reference_solvent(self, quad_2x2):
        report = verify_solvent(quad_2x2, np.array([[1.0, 2.0], [0.0, 3.0]]), tol=1e-12)
        assert report.certified

    def test_zero_matrix_is_not_a_solvent(self, quad_2x2):
        report = verify_solvent(quad_2x2, np.zeros((2, 2)), tol=1e-8)
        assert not report.certified
        want = np.linalg.norm(quad_2x2.coeffs[0], "fro")
        assert report.residual == pytest.approx(want)

    def test_non_finite_entries_raise(self, quad_2x2):
        # named before the eigendecomposition, which would not converge
        with pytest.raises(ValueError, match="S has non-finite entries"):
            verify_solvent(quad_2x2, np.array([[1.0, np.nan], [0.0, 2.0]]))


class TestTriangularSolve:
    def test_contradictory_branch(self, triangular_3x3):
        families = triangular_solvent_solve(triangular_3x3)
        assert len(families) == 2
        dead = families[0]
        assert dead.kind == "none"
        np.testing.assert_allclose(np.array(dead.diagonal).real, [3.0, 3.0, 4.0], atol=1e-8)

    def test_affine_family_branch(self, triangular_3x3):
        families = triangular_solvent_solve(triangular_3x3)
        fam = families[1]
        assert fam.kind == "affine-family"
        np.testing.assert_allclose(np.array(fam.diagonal).real, [4.0, 3.0, 4.0], atol=1e-8)
        base_want = np.array([[4.0, 0.0, 1.0], [0.0, 3.0, -1.0], [0.0, 0.0, 4.0]])
        dir_want = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.abs(fam.base - base_want).max() <= 1e-8
        assert len(fam.directions) == 1
        assert np.abs(fam.directions[0] - dir_want).max() <= 1e-8

    def test_family_members_are_solvents(self, triangular_3x3):
        fam = triangular_solvent_solve(triangular_3x3)[1]
        rng = np.random.default_rng(55)
        for _ in range(5):
            c = complex(*rng.uniform(-5, 5, size=2))
            member = fam.member([c])
            assert np.linalg.norm(eval_matrix(triangular_3x3, member), "fro") <= 1e-10

    def test_unique_solvents_for_distinct_diagonals(self):
        # distinct diagonal roots and generic strictly-upper entries: every
        # branch carries exactly one solvent
        T0 = np.array([[2.0, 1.0], [0.0, 12.0]])
        T1 = np.array([[-3.0, 0.5], [0.0, -7.0]])
        T = MatrixPolynomial([T0, T1, np.eye(2)])
        families = triangular_solvent_solve(T)
        assert len(families) == 4
        for fam in families:
            assert fam.kind == "unique"
            assert np.linalg.norm(eval_matrix(T, fam.member()), "fro") <= 1e-10

    def test_diagonal_roots_row_by_row(self):
        # diagonal polynomials of degrees 3, 1, 2 and 2 (zero leading entries
        # lower the degree), one with a double root: each row's roots are
        # numpy's polyroots of that row alone, clustered
        rows = np.array([[-6, 11, -6, 1], [2, -1, 0, 0], [3, -4, 1, 0], [1, -2, 1, 0]], dtype=complex)
        C = np.zeros((4, 4, 4), dtype=complex)
        C[:, range(4), range(4)] = rows.T
        for row, got in zip(rows, solvents._diagonal_roots(C)):
            roots = np.polynomial.polynomial.polyroots(np.trim_zeros(row, "b"))
            scale = max(1.0, float(np.abs(roots).max()))
            assert got == [c for c, _ in cluster_eigenvalues(roots, rel_tol=1e-8, scale=scale)]
        assert [len(r) for r in solvents._diagonal_roots(C)] == [3, 1, 2, 1]
        C[:, 1, 1] = [5.0, 0, 0, 0]
        with pytest.raises(ValueError, match="diagonal polynomial is constant"):
            solvents._diagonal_roots(C)

    def test_rejects_non_triangular(self, quad_2x2):
        with pytest.raises(ValueError, match="upper triangular"):
            triangular_solvent_solve(quad_2x2)

    def test_branch_cap(self):
        # (lam - 1)(lam - 2) on each of 10 diagonal entries: 2^10 branches
        T = MatrixPolynomial([2 * np.eye(10), -3 * np.eye(10), np.eye(10)])
        with pytest.raises(ValueError, match=r"^1024 diagonal branches exceed the cap of 1000$"):
            triangular_solvent_solve(T)

    def test_member_argument_validation(self, triangular_3x3):
        families = triangular_solvent_solve(triangular_3x3)
        with pytest.raises(ValueError, match="no solvent"):
            families[0].member()
        with pytest.raises(ValueError, match="free parameters"):
            families[1].member([])


def _random_triangular(seed):
    """Upper triangular T of size 2..5: monic diagonal polynomials with roots
    from {1, -1, 2} and sparse integer strictly-upper entries, so that shared
    roots give contradictory branches and affine families."""
    rng = np.random.default_rng(seed)
    n, ell = 2 + seed % 4, 1 + seed % 3
    coeffs = [np.triu(rng.integers(-1, 2, (n, n)) * (rng.random((n, n)) < 0.5), 1).astype(complex)
              for _ in range(ell + 1)]
    for i in range(n):
        diag = np.polynomial.polynomial.polyfromroots(rng.choice([1.0, -1.0, 2.0], ell))
        for p in range(ell + 1):
            coeffs[p][i, i] = diag[p]
    return MatrixPolynomial(coeffs)


def _solve_outcome(T):
    try:
        return triangular_solvent_solve(T)
    except NonAffineFamilyError as err:
        return type(err)


# Branch kinds of _random_triangular(seed), one letter per branch
# (u unique, f affine-family, - none), or "raised"; seeds 1 and 2 eliminate
# a parameter on their family branch.
SEEDED_KINDS = {
    0: "u", 1: "uf----uu", 2: "----------------------f-", 3: "u", 4: "u-",
    5: "--------u--------u", 6: "u", 7: "--------", 8: "u--u--", 9: "u",
    10: "----", 11: "----------------", 12: "u", 13: "f", 14: "raised", 15: "u",
}
KIND_LETTER = {"unique": "u", "affine-family": "f", "none": "-"}

# Seeds of _random_triangular(0..399) that raise NonAffineFamilyError, and
# the branch kinds of the other 366 seeds, counted together
RAISING_SEEDS = (14, 26, 34, 38, 62, 71, 79, 95, 103, 130, 131, 134, 143, 158, 167, 203, 206,
                 230, 235, 250, 257, 263, 278, 283, 286, 299, 307, 310, 319, 338, 346, 355, 367, 379)
BRANCH_COUNTS = {"none": 2077, "unique": 404, "affine-family": 157}


def _assert_members_are_solvents(T, families, rng):
    for fam in families:
        if fam.kind == "none":
            continue
        for _ in range(3):
            c = rng.standard_normal(len(fam.directions)) + 1j * rng.standard_normal(len(fam.directions))
            assert np.linalg.norm(eval_matrix(T, fam.member(c))) <= 1e-10


class TestTriangularSeeded:
    def test_seeded_random_kinds(self):
        rng = np.random.default_rng(57)
        kinds = set()
        for seed, want in SEEDED_KINDS.items():
            T = _random_triangular(seed)
            outcome = _solve_outcome(T)
            if outcome is NonAffineFamilyError:
                assert want == "raised", seed
                kinds.add("raised")
                continue
            assert "".join(KIND_LETTER[f.kind] for f in outcome) == want, seed
            kinds.update(f.kind for f in outcome)
            _assert_members_are_solvents(T, outcome, rng)
        assert kinds == {"none", "unique", "affine-family", "raised"}

    def test_decisions_on_four_hundred_seeds(self):
        # pins where the non-affine test fires: a test that never fires, or
        # one that fires on roundoff in an affine entry, moves these
        raised, counts = [], collections.Counter()
        for seed in range(400):
            outcome = _solve_outcome(_random_triangular(seed))
            if outcome is NonAffineFamilyError:
                raised.append(seed)
            else:
                counts.update(f.kind for f in outcome)
        assert tuple(raised) == RAISING_SEEDS
        assert counts == BRANCH_COUNTS

    def test_every_evaluation_is_read(self, monkeypatch):
        # an evaluation of the stack serves the entries still to be solved on
        # its superdiagonal; one made after the last entry, or made again on a
        # stack that did not change, is never read
        evaluations = []

        class Tracked(np.ndarray):
            read = False

            def __getitem__(self, key):
                self.read = True
                return super().__getitem__(key)

        def tracked_affine_poly(C, S):
            out = affine_poly(C, S).view(Tracked)
            evaluations.append(out)
            return out

        affine_poly = solvents._affine_poly
        monkeypatch.setattr(solvents, "_affine_poly", tracked_affine_poly)
        unread = []
        for seed in range(400):
            del evaluations[:]
            if _solve_outcome(_random_triangular(seed)) is not NonAffineFamilyError:
                unread += [seed for out in evaluations if not out.read]
        assert unread == []

    def test_chunks_give_the_same_families(self, monkeypatch):
        # 24 branches, two per chunk; one of them is a family that eliminates
        # a parameter
        T = _random_triangular(2)
        whole = triangular_solvent_solve(T)
        monkeypatch.setattr(solvents, "_STACK_ENTRIES", 2 * T.n ** 2)
        chunked = triangular_solvent_solve(T)
        assert [(f.kind, f.diagonal) for f in chunked] == [(f.kind, f.diagonal) for f in whole]
        for a, b in zip(chunked, whole):
            assert (a.base is None) == (b.base is None)
            if a.base is not None:
                assert np.array(a.base).tobytes() == np.array(b.base).tobytes()
                assert [d.tobytes() for d in a.directions] == [d.tobytes() for d in b.directions]

    def test_no_spurious_nonaffine_error(self):
        # some products the equations read have a factor whose parameter
        # coefficients are exactly zero; counting those as nonlinear would
        # raise here, although every family member is a solvent
        T = _random_triangular(154)
        families = triangular_solvent_solve(T)
        assert len(families) == 8
        _assert_members_are_solvents(T, families, np.random.default_rng(154))

    @pytest.mark.parametrize("seed, want", [(275, "ff" + "-" * 30), (383, "-" * 16)], ids=["275", "383"])
    def test_cancelling_products_are_affine(self, seed, want):
        # products of parameters enter some entry's equation but cancel
        # exactly: the entry's second difference in the parameters is
        # roundoff, so the branch is solved, not raised
        T = _random_triangular(seed)
        families = triangular_solvent_solve(T)
        assert "".join(KIND_LETTER[f.kind] for f in families) == want
        _assert_members_are_solvents(T, families, np.random.default_rng(seed))

    @pytest.mark.parametrize("coeffs", [
        # (lambda - 1)(lambda - 2) I on the branch diag(1, 2, 1): entries (0, 1)
        # and (1, 2) are free, and entry (0, 2) is fixed by -x_02 + x_01 x_12 = 0
        [2.0 * np.eye(3), -3.0 * np.eye(3), np.eye(3)],
        # diag(lambda^2 (lambda - 1), (lambda - 1)(lambda - 2), lambda - 2) on
        # the branch diag(0, 1, 2): entry (0, 2) is fixed by
        # 2 x_02 + 2 x_01 x_12 = 0; the x_01 coefficient of (S^2 - S)[0, 1] is
        # zero there, so Horner's last step (S^2 - S) S carries the product
        # only through the quadratic part of (S^2 - S)[0, 2]
        [np.diag([0.0, 2.0, -2.0]), np.diag([0.0, -3.0, 1.0]),
         np.diag([-1.0, 1.0, 0.0]), np.diag([1.0, 0.0, 0.0])],
    ])
    def test_product_of_chained_parameters_raises(self, coeffs):
        with pytest.raises(NonAffineFamilyError):
            triangular_solvent_solve(MatrixPolynomial(coeffs))


class TestSolventFromTriangular:
    def test_identity_transformation(self, triangular_3x3):
        fam = triangular_solvent_solve(triangular_3x3)[1]
        S_t = fam.member([0.0])
        sol = solvent_from_triangular(triangular_3x3, np.eye(6), S_t, tol=1e-10)
        np.testing.assert_allclose(sol.S, S_t, atol=1e-10)
        assert sol.residual <= 1e-10

    @CONDITIONS
    def test_conjugated_problem_recovers_solvent(self, triangular_3x3, cond):
        # P = E T E^{-1} is linearized by M = diag(E^{-1}, E^{-1}) and its
        # solvent corresponding to S_t is E S_t E^{-1}; cond(M) = cond(Y_1) = cond(E)
        E = _graded_basis(cond, 61)
        Einv = np.linalg.inv(E)
        T = triangular_3x3
        P = MatrixPolynomial([E @ A @ Einv for A in T.coeffs])
        M = np.block([
            [Einv, np.zeros((3, 3))],
            [np.zeros((3, 3)), Einv],
        ])
        S_t = triangular_solvent_solve(T)[1].member([1.5])
        sol = solvent_from_triangular(P, M, S_t, tol=1e-8)
        want = E @ S_t @ Einv
        assert np.abs(sol.S - want).max() <= 1e-8
        assert sol.residual <= 1e-8

    def test_badly_scaled_problem_gates_residual_relative_to_its_size(self, triangular_3x3):
        # P = E T E^{-1} with E = Q_1 diag(1, 1e-2, 1e-4) Q_2^T (seeded
        # orthogonal Q_1, Q_2): P's entries reach 1.3e4 and S's 1.9e4, so
        # roundoff alone leaves ||P(S)||_F near 3.6e-8, above an absolute
        # 1e-8; relative to sum_j ||A_j|| ||S||^j (1.7e9) it is far below
        rng = np.random.default_rng(3)
        Q1, Q2 = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
        E = Q1 @ np.diag([1.0, 1e-2, 1e-4]) @ Q2.T
        Einv = np.linalg.inv(E)
        P = MatrixPolynomial([E @ A @ Einv for A in triangular_3x3.coeffs])
        S_t = triangular_solvent_solve(triangular_3x3)[1].member([1.5])
        sol = solvent_from_triangular(P, np.kron(np.eye(2), Einv), S_t, tol=1e-8)
        want = E @ S_t @ Einv
        assert np.abs(sol.S - want).max() <= 1e-8 * np.abs(want).max()
        assert sol.residual == np.linalg.norm(eval_matrix(P, sol.S), "fro") > 1e-8

    def test_perturbed_problem_still_refused(self, triangular_3x3):
        # a 1e-4 change of A_0 along Q e_3 (Q e_1)^T is shrunk by E^{-1} . E to
        # 1e-10 in T, so S_t still passes as a solvent of the triangularized
        # form, yet ||P(S)||_F = 1e-4 against sum_j ||A_j|| ||S||^j of 171
        E = _graded_basis(1e6, 61)
        Einv = np.linalg.inv(E)
        Q = E / np.linalg.norm(E, axis=0)
        coeffs = [E @ A @ Einv for A in triangular_3x3.coeffs]
        coeffs[0] = coeffs[0] + 1e-4 * np.outer(Q[:, 2], Q[:, 0])
        M = np.kron(np.eye(2), Einv)
        S_t = triangular_solvent_solve(triangular_3x3)[1].member([1.5])
        with pytest.raises(ValueError, match=r"fails P\(S\)=0"):
            solvent_from_triangular(MatrixPolynomial(coeffs), M, S_t, tol=1e-8)

    def test_singular_m_rejected(self, triangular_3x3):
        fam = triangular_solvent_solve(triangular_3x3)[1]
        with pytest.raises(SingularTransformationError):
            solvent_from_triangular(triangular_3x3, np.zeros((6, 6)), fam.member([0.0]))

    def test_non_companion_m_rejected(self, triangular_3x3):
        fam = triangular_solvent_solve(triangular_3x3)[1]
        rng = np.random.default_rng(62)
        M = np.eye(6) + 0.5 * rng.standard_normal((6, 6))
        with pytest.raises(ValueError, match="companion"):
            solvent_from_triangular(triangular_3x3, M, fam.member([0.0]))

    def test_non_solvent_st_rejected(self, triangular_3x3):
        with pytest.raises(ValueError, match="not a solvent"):
            solvent_from_triangular(triangular_3x3, np.eye(6), np.eye(3))

    def test_singular_y1_detected(self, triangular_3x3):
        fam = triangular_solvent_solve(triangular_3x3)[1]
        S_t = fam.member([0.0])
        with pytest.raises(SingularLeadingBlockError, match="condition"):
            solvent_from_triangular(triangular_3x3, M_SINGULAR_Y1, S_t)

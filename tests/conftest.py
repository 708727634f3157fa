import numpy as np
import pytest

from invpairs import Contour, problems


@pytest.fixture
def diag_4x4():
    return problems.diag_4x4()


@pytest.fixture
def ss_2x2():
    return problems.ss_2x2()


@pytest.fixture
def multi_3x3():
    return problems.multi_3x3()


@pytest.fixture
def quad_2x2():
    return problems.quad_solvents_2x2()


@pytest.fixture
def triangular_3x3():
    return problems.infinite_family_3x3_triangular()


@pytest.fixture
def golden_contours():
    g = problems.GOLDEN_PROBES
    return {
        "diag_4x4": Contour(g["diag_4x4"]["center"], g["diag_4x4"]["radius"]),
        "ss_2x2": Contour(g["ss_2x2"]["center"], g["ss_2x2"]["radius"]),
        "multi_3x3": Contour(g["multi_3x3"]["center"], g["multi_3x3"]["radius"]),
    }


def random_regular_polynomial(rng, n, ell):
    """Dense random complex polynomial; regular with probability one."""
    from invpairs import MatrixPolynomial

    coeffs = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(ell + 1)]
    return MatrixPolynomial(coeffs)


def horner_out_of_place(coeffs, lam):
    """P(lam) by the Horner recurrence acc = acc * lam + A, a new array per step."""
    acc = np.array(coeffs[-1])
    for A in coeffs[-2::-1]:
        acc = acc * lam + A
    return acc


# golden reference data shared between test modules

GOLDEN_MU_4X4 = np.array([-3.0, -7.0, -9.0, -21.0 / 2, -12.0, -109.0 / 8, -123.0 / 8, -551.0 / 32])

GOLDEN_X_SS = np.array([[0.0, -1.0, -2.0], [1.0, 1.0, 3.0]])
GOLDEN_S_SS = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, -3.0], [0.0, 1.0, 3.0]])

GOLDEN_BLOCK_MOMENTS = [
    np.array([[-9.0, -12.0], [9.0, 12.0]]),
    np.array([[-1.0, -22.0], [-1.0, 27.0]]),
    np.array([[-5.0, -8.0], [1.0, 18.0]]),
    np.array([[-21.0, 30.0], [15.0, -15.0]]),
    np.array([[-49.0, 92.0], [41.0, -72.0]]),
    np.array([[-89.0, 178.0], [79.0, -153.0]]),
]

GOLDEN_BLOCK_T = np.array([
    [0.0, 0.0, 0.0, -2.0, 1.0],
    [0.0, 0.0, 0.0, -1.0, 0.0],
    [1.0, 0.0, 0.0, 4.0, -3.0],
    [0.0, 1.0, 0.0, 2.0, 0.0],
    [0.0, 0.0, 1.0, -2.0, 3.0],
])

GOLDEN_BLOCK_Y = np.array([
    [0.0, 1.0, 1.0, 2.0, 0.0],
    [0.0, -2.0, -2.0, 0.0, 0.0],
    [0.0, -1.5, -3.5, -3.0, -4.0],
])

QUAD_SOLVENT_SET = [
    np.array([[1.0, 0.0], [0.0, 2.0]]),
    np.array([[1.0, 2.0], [0.0, 3.0]]),
    np.array([[3.0, 0.0], [1.0, 2.0]]),
    np.array([[1.0, 3.0], [0.0, 4.0]]),
    np.array([[4.0, 0.0], [2.0, 2.0]]),
]

QUAD_EIGENPAIRS = [
    (1.0, np.array([1.0, 0.0])),
    (2.0, np.array([0.0, 1.0])),
    (3.0, np.array([1.0, 1.0])),
    (4.0, np.array([1.0, 1.0])),
]

# partial-fraction data of u^H P^{-1} v for residue_diag_2x2 with u = v = (1, 1),
# derived by hand from 1/((z-1)(z-2)) + 1/((z-1)(z-3))
RESIDUE_DIAG_SPECTRUM = [
    (1.0, 1, [-1.5]),
    (2.0, 1, [1.0]),
    (3.0, 1, [0.5]),
]

# partial fractions of the diag_4x4 probe function over the golden contour:
# poles 1/2 (order 2) and 1 (order 2) with the listed coefficients
DIAG_4X4_SPECTRUM = [
    (0.5, 2, [0.0, -2.0]),
    (1.0, 2, [-3.0, -2.0]),
]

import numpy as np
import pytest

import formsim as fs
from conftest import chain_tree, edge_cosines, tree_solve


def _cofactor_det(M):
    """Brute-force determinant by first-row cofactor expansion."""
    m = len(M)
    if m == 1:
        return M[0][0]
    total = 0.0
    for j in range(m):
        minor = np.delete(np.delete(M, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * M[0][j] * _cofactor_det(minor)
    return total


# ---- least squares ----

def test_selector_least_squares():
    x = fs.least_squares_solve(fs.SELECT, [2.0, 5.0, 7.0])
    assert np.allclose(x, [2.0, 7.0], atol=1e-14)
    assert np.allclose(fs.SELECT @ x - [2.0, 5.0, 7.0], [0.0, -5.0, 0.0],
                       atol=1e-14)


def test_square_system_exact(rng):
    A = rng.normal(size=(4, 4)) + 4 * np.eye(4)
    b = rng.normal(size=4)
    x = fs.least_squares_solve(A, b)
    assert np.abs(x - np.linalg.solve(A, b)).max() < 1e-10
    assert np.abs(A @ x - b).max() < 1e-10


def test_least_squares_optimality(rng):
    # oracle: direct evaluation of the squared-residual cost
    A = rng.normal(size=(9, 6))
    b = rng.normal(size=9)
    x = fs.least_squares_solve(A, b)
    J_star = np.sum((A @ x - b) ** 2)
    for _ in range(100):
        delta = rng.normal(size=6) * rng.uniform(1e-4, 1.0)
        assert np.sum((A @ (x + delta) - b) ** 2) >= J_star


def test_normal_equation_defect_bound(rng):
    for _ in range(50):
        rows = int(rng.integers(3, 12))
        cols = int(rng.integers(1, rows + 1))
        A = rng.normal(size=(rows, cols))
        b = rng.normal(size=rows) * rng.uniform(0.1, 50)
        x = fs.least_squares_solve(A, b)
        defect = np.abs(A.T @ (A @ x - b)).max()
        assert defect <= 1e-10 * (1 + np.linalg.norm(A) * np.linalg.norm(b))


def test_gram_pivot_solve_matches_numpy(rng):
    for _ in range(50):
        rows = int(rng.integers(1, 12))
        cols = int(rng.integers(1, rows + 1))
        A = rng.normal(size=(rows, cols)) + np.eye(rows, cols) * rows
        b = rng.normal(size=rows)
        x = fs.least_squares_solve(A, b)
        want = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.abs(x - want).max() < 1e-9


def test_gram_pivot_is_chain_recursion_pivot(rng):
    # the squared Cholesky pivots of a chain Gram matrix are the pivots of
    # the determinant recursion, so the smallest relative to the largest
    # diagonal entry is bounded below by 1/m at any headings
    for n in range(2, 12):
        tree = chain_tree(n)
        for _ in range(20):
            th = rng.uniform(-15, 15, n)
            G = fs.coupling_matrix(tree, th).T @ fs.coupling_matrix(tree, th)
            _, x = fs.chain_gram_determinant(th)
            sq = np.diag(np.linalg.cholesky(G)) ** 2
            assert np.allclose(sq, x, rtol=1e-12)
            assert sq.min() / G.diagonal().max() >= 1.0 / (2 * n) - 1e-15


def test_tree_gram_two_aligned_robots():
    # G_v = [[2, -1], [-1, 1]] and G_w the same: eliminating the child
    # (pivot 1) leaves the root 2 - 1/1 = 1
    G = np.array([[2.0, 0, -1, 0], [0, 2, 0, -1],
                  [-1, 0, 1, 0], [0, -1, 0, 1]])
    rhs = np.array([1.0, -2.0, 3.0, 0.5])
    pivots, x = tree_solve([(0, 1)], [1.0], rhs)
    assert np.array_equal(pivots, np.ones(4))
    assert np.allclose(x, np.linalg.solve(G, rhs), rtol=0, atol=1e-14)


def test_tree_gram_chain_determinant(rng):
    for n in range(2, 12):
        tree = chain_tree(n)
        th = rng.uniform(-15, 15, n)
        det, _ = fs.chain_gram_determinant(th)
        pivots, _ = tree_solve(*edge_cosines(tree, th), np.zeros(2 * n))
        assert np.isclose(np.prod(pivots), det, rtol=1e-12)


def test_tree_gram_fused_rhs_matches_solve(rng):
    # the right-hand side eliminated in the factor's loop leaves the
    # pivots and multipliers bit for bit as they are for any other
    for n in (1, 2, 5, 40):
        edges = [(int(rng.integers(0, k)), k) for k in range(1, n)]
        cos = rng.uniform(-1, 1, n - 1).tolist()
        bv = rng.normal(size=n).tolist()
        assert fs.tree_factor(edges, cos, bv) \
            == fs.tree_factor(edges, cos, [0.0] * n)


def test_wide_matrix_rejected():
    with pytest.raises(ValueError):
        fs.least_squares_solve(np.ones((2, 3)), np.ones(2))


# ---- chain Gram matrix ----

def _chain_gram(th):
    A = fs.coupling_matrix(chain_tree(len(th)), th)
    return A.T @ A


def test_chain_gram_aligned_headings_det_one():
    assert abs(_cofactor_det(_chain_gram(np.zeros(3))) - 1.0) < 1e-10


def test_chain_gram_structure_three_robots():
    th = np.array([0.4, -0.9, 2.2])
    c12 = np.cos(th[0] - th[1])
    c23 = np.cos(th[1] - th[2])
    want = np.array([
        [2, 0, -c12, 0, 0, 0],
        [0, 2, 0, -1, 0, 0],
        [-c12, 0, 2, 0, -c23, 0],
        [0, -1, 0, 2, 0, -1],
        [0, 0, -c23, 0, 1, 0],
        [0, 0, 0, -1, 0, 1],
    ], dtype=float)
    assert np.abs(_chain_gram(th) - want).max() < 1e-15


def test_chain_gram_two_robots_diagonal():
    # cos^2 + sin^2 may round an ulp off 1, as in the structure test
    G = _chain_gram(np.array([0.3, 0.3]))
    assert np.abs(np.diag(G) - [2.0, 2.0, 1.0, 1.0]).max() < 1e-15


def test_chain_determinant_hand_case():
    det, x = fs.chain_gram_determinant(np.full(3, 0.77))
    assert np.allclose(x, [2, 2, 1.5, 1.5, 1 / 3, 1 / 3], atol=1e-15)
    assert abs(det - 1.0) < 1e-14


def test_chain_determinant_last_pivot_exact(rng):
    for n in range(2, 9):
        _, x = fs.chain_gram_determinant(rng.uniform(-9, 9, n))
        assert x[-1] == 2.0 / (2 * n)


def test_chain_recursion_matches_other_paths(rng):
    for n in range(2, 9):
        for _ in range(60):
            th = rng.uniform(-15, 15, n)
            d_rec, _ = fs.chain_gram_determinant(th)
            d_lu = np.linalg.det(_chain_gram(th))
            assert d_rec > 0
            assert abs(d_rec - d_lu) <= 1e-9 * abs(d_rec)


def test_chain_pivot_bounds(rng):
    for _ in range(300):
        n = int(rng.integers(2, 9))
        _, x = fs.chain_gram_determinant(rng.uniform(-30, 30, n))
        lower, upper = fs.chain_pivot_bounds(x)
        assert np.all(x >= lower - 1e-12)
        assert np.all(x <= upper + 1e-12)


@pytest.mark.parametrize("m,lower,upper", [
    (4, [2, 2, 2 / 4, 2 / 4], [2, 2, 1, 2 / 4]),
    (6, [2, 2, 6 / 4, 1 + 2 / 4, 2 / 6, 2 / 6],
     [2, 2, 2, 1 + 2 / 4, 1, 2 / 6]),
    (10, [2, 2, 6 / 4, 1 + 2 / 4, 8 / 6, 1 + 2 / 6, 10 / 8, 1 + 2 / 8,
          2 / 10, 2 / 10],
     [2, 2, 2, 1 + 2 / 4, 2, 1 + 2 / 6, 2, 1 + 2 / 8, 1, 2 / 10]),
])
def test_chain_pivot_bounds_closed_form(m, lower, upper):
    # odd i in [(i+3)/(i+1), 2], even i at 1 + 2/i (2 at i = 2), then
    # [2/m, 1] and 2/m
    got = fs.chain_pivot_bounds(np.ones(m))
    assert np.array_equal(got[0], lower)
    assert np.array_equal(got[1], upper)


def test_chain_recursion_needs_two_robots():
    with pytest.raises(ValueError):
        fs.chain_gram_determinant(np.array([0.1]))

import numpy as np
import pytest

import formsim as fs
from conftest import chain_tree


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


def _random_penta(rng, m):
    return fs.Pentadiagonal(
        main=rng.uniform(2.0, 4.0, m),
        super1=rng.normal(size=max(m - 1, 0)),
        super2=rng.normal(size=max(m - 2, 0)),
        sub1=rng.normal(size=max(m - 1, 0)),
        sub2=rng.normal(size=max(m - 2, 0)),
    )


# ---- least squares ----

def test_selector_least_squares():
    res = fs.least_squares_solve(fs.SELECT, [2.0, 5.0, 7.0])
    assert np.allclose(res.solution, [2.0, 7.0], atol=1e-14)
    assert np.allclose(res.residual, [0.0, -5.0, 0.0], atol=1e-14)


def test_square_system_exact(rng):
    A = rng.normal(size=(4, 4)) + 4 * np.eye(4)
    b = rng.normal(size=4)
    res = fs.least_squares_solve(A, b)
    assert np.abs(res.solution - np.linalg.solve(A, b)).max() < 1e-10
    assert np.abs(res.residual).max() < 1e-10


def test_least_squares_optimality(rng):
    # oracle: direct evaluation of the squared-residual cost
    A = rng.normal(size=(9, 6))
    b = rng.normal(size=9)
    res = fs.least_squares_solve(A, b)
    J_star = np.sum((A @ res.solution - b) ** 2)
    for _ in range(100):
        delta = rng.normal(size=6) * rng.uniform(1e-4, 1.0)
        assert np.sum((A @ (res.solution + delta) - b) ** 2) >= J_star


def test_normal_equation_defect_bound(rng):
    for _ in range(50):
        rows = int(rng.integers(3, 12))
        cols = int(rng.integers(1, rows + 1))
        A = rng.normal(size=(rows, cols))
        b = rng.normal(size=rows) * rng.uniform(0.1, 50)
        res = fs.least_squares_solve(A, b)
        defect = np.abs(A.T @ res.residual).max()
        assert defect <= 1e-10 * (1 + np.linalg.norm(A) * np.linalg.norm(b))


def test_rank_deficient_rejected():
    A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14], [0.0, 0.0]])
    with pytest.raises(fs.RankDeficient):
        fs.least_squares_solve(A, np.ones(3))


def test_gram_pivot_solve_matches_numpy(rng):
    for _ in range(50):
        rows = int(rng.integers(1, 12))
        cols = int(rng.integers(1, rows + 1))
        A = rng.normal(size=(rows, cols)) + np.eye(rows, cols) * rows
        b = rng.normal(size=rows)
        res = fs.least_squares_solve(A, b)
        want = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.abs(res.solution - want).max() < 1e-9
        assert res.pivot == fs.gram_pivot(A.T @ A)


def test_gram_pivot_rejects_indefinite():
    G = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(fs.RankDeficient):
        fs.gram_pivot(G)
    for bad in (np.nan, np.inf):
        G = np.eye(3)
        G[2, 1] = G[1, 2] = bad
        with pytest.raises(fs.RankDeficient):
            fs.gram_pivot(G)


def test_gram_pivot_is_chain_recursion_pivot(rng):
    # the squared Cholesky pivots of a chain Gram matrix are the pivots of
    # the determinant recursion, so the guard's relative pivot is bounded
    # below by 1/m at any headings
    for n in range(2, 12):
        tree = chain_tree(n)
        for _ in range(20):
            th = rng.uniform(-15, 15, n)
            G = fs.coupling_matrix(tree, th).T @ fs.coupling_matrix(tree, th)
            _, x = fs.chain_gram_determinant(th)
            assert np.allclose(np.diag(np.linalg.cholesky(G)) ** 2, x,
                               rtol=1e-12)
            assert fs.gram_pivot(G) >= 1.0 / (2 * n) - 1e-15


def test_tree_gram_two_aligned_robots():
    # G_v = [[2, -1], [-1, 1]] and G_w the same: eliminating the child
    # (pivot 1) leaves the root 2 - 1/1 = 1
    gram = fs.TreeGram(np.array([0]), np.array([1]), [1.0])
    assert np.array_equal(gram.pivots, np.ones(4))
    assert gram.pivot == 0.5
    G = np.array([[2.0, 0, -1, 0], [0, 2, 0, -1],
                  [-1, 0, 1, 0], [0, -1, 0, 1]])
    rhs = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.allclose(gram.solve(rhs), np.linalg.solve(G, rhs),
                       rtol=0, atol=1e-14)


def test_tree_gram_chain_determinant(rng):
    for n in range(2, 12):
        tree = chain_tree(n)
        th = rng.uniform(-15, 15, n)
        det, _ = fs.chain_gram_determinant(th)
        assert np.isclose(np.prod(fs.tree_gram(tree, th).pivots), det,
                          rtol=1e-12)


def test_tree_gram_rejects_non_finite_cosines():
    for bad in (np.nan, np.inf):
        with pytest.raises(fs.RankDeficient):
            fs.TreeGram(np.array([0, 1]), np.array([1, 2]), [0.5, bad])


def test_wide_matrix_rejected():
    with pytest.raises(ValueError):
        fs.least_squares_solve(np.ones((2, 3)), np.ones(2))


# ---- pentadiagonal determinant ----

def test_identity_determinant():
    penta = fs.Pentadiagonal(main=np.ones(4), super1=np.zeros(3),
                             super2=np.zeros(2), sub1=np.zeros(3),
                             sub2=np.zeros(2))
    assert fs.pentadiagonal_determinant(penta) == 1.0


def test_chain_gram_aligned_headings_det_one():
    penta = fs.chain_gram_pentadiagonal(np.zeros(3))
    dense = penta.dense()
    assert abs(fs.pentadiagonal_determinant(penta) - 1.0) < 1e-12
    assert abs(_cofactor_det(dense) - 1.0) < 1e-10


def test_determinant_matches_dense_lu(rng):
    for _ in range(200):
        m = int(rng.integers(1, 13))
        penta = _random_penta(rng, m)
        got = fs.pentadiagonal_determinant(penta)
        want = np.linalg.det(penta.dense())
        assert abs(got - want) <= 1e-9 * max(abs(want), 1e-30)


def test_determinant_small_orders(rng):
    one = fs.Pentadiagonal(main=np.array([3.5]), super1=np.zeros(0),
                           super2=np.zeros(0), sub1=np.zeros(0),
                           sub2=np.zeros(0))
    assert fs.pentadiagonal_determinant(one) == 3.5
    two = fs.Pentadiagonal(main=np.array([2.0, 3.0]),
                           super1=np.array([1.0]), super2=np.zeros(0),
                           sub1=np.array([4.0]), sub2=np.zeros(0))
    assert abs(fs.pentadiagonal_determinant(two) - 2.0) < 1e-14


def test_pivot_breakdown():
    penta = fs.Pentadiagonal(main=np.zeros(4), super1=np.ones(3),
                             super2=np.ones(2), sub1=np.ones(3),
                             sub2=np.ones(2))
    with pytest.raises(fs.PivotBreakdown):
        fs.pentadiagonal_determinant(penta)


# ---- chain Gram matrix ----

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
    assert np.abs(fs.chain_gram_pentadiagonal(th).dense() - want).max() \
        < 1e-15


def test_chain_gram_two_robots_diagonal():
    penta = fs.chain_gram_pentadiagonal(np.array([0.3, 0.3]))
    assert np.array_equal(penta.main, [2.0, 2.0, 1.0, 1.0])


def test_chain_gram_matches_explicit_product(rng):
    for n in range(1, 9):
        tree = chain_tree(n)
        for _ in range(20):
            th = rng.uniform(-15, 15, n)
            A = fs.coupling_matrix(tree, th)
            dense = fs.chain_gram_pentadiagonal(th).dense()
            assert np.abs(A.T @ A - dense).max() < 1e-13


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
        tree = chain_tree(n)
        for _ in range(60):
            th = rng.uniform(-15, 15, n)
            d_rec, _ = fs.chain_gram_determinant(th)
            d_penta = fs.pentadiagonal_determinant(
                fs.chain_gram_pentadiagonal(th))
            d_lu = np.linalg.det(
                fs.coupling_matrix(tree, th).T
                @ fs.coupling_matrix(tree, th))
            assert d_rec > 0
            assert abs(d_rec - d_penta) <= 1e-10 * abs(d_rec)
            assert abs(d_rec - d_lu) <= 1e-9 * abs(d_rec)


def test_chain_pivot_bounds(rng):
    for _ in range(300):
        n = int(rng.integers(2, 9))
        _, x = fs.chain_gram_determinant(rng.uniform(-30, 30, n))
        lower, upper = fs.chain_pivot_bounds(x)
        assert np.all(x >= lower - 1e-12)
        assert np.all(x <= upper + 1e-12)


def test_chain_recursion_needs_two_robots():
    with pytest.raises(ValueError):
        fs.chain_gram_determinant(np.array([0.1]))

"""Least-squares solves of the control law and the chain pivot certificate.

The control law's normal equations G x = A^T b sit over a spanning tree
rooted at robot 1 (index 0), and A couples no v to a w. A's heading rows
(-w_1, then w_c - w_p for each edge (p, c)) form a square unit-triangular
A_w, so G's w block A_w^T A_w needs no factor: w solves A_w w = b's
heading rows, a root-first sum. G's v block G_v has 1 plus robot i's
number of children (deg~_i) at robot i and -cos(theta_p - theta_c) at
each edge (p, c).

``tree_factor`` factors G_v as L D L^T by eliminating robots in reverse
topological edge order, leaves first: a robot goes only after all of its
children and updates only its parent's row, so there is no fill-in and
the work is O(n). Every pivot is at least 1, by induction from the
leaves: pivot_c = deg~_c - sum over children k of cos^2/pivot_k >=
deg~_c - #children = 1. Only a non-finite heading loses the factor: a
run that meets one diverges (a DivergenceError), and RankDeficient
belongs to the dense reference below and to the controller's oracles.
The same loop forward-eliminates the one right-hand side it is given,
and ``_back`` back-substitutes; ``controller._torque_stage`` runs the
same recursion fused into its first sweep over the edges.

``least_squares_solve`` and its rank guard ``gram_pivot`` form the dense
reference: G = A^T A formed explicitly, every squared Cholesky pivot of G
above PIVOT_RTOL = 1e-12 times the largest diagonal entry of G, and two
LU solves. The squared pivots are the Gaussian-elimination pivots of G in
column order; for chains they are the recursion pivots of
``chain_gram_determinant``, the O(m) determinant recursion of the
pentadiagonal chain Gram matrix, which ``chain_pivot_bounds`` keeps at or
above 2/m against a largest diagonal of 2. The tests cross-check that
recursion against ``tree_factor``'s pivots and against dense LAPACK.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PIVOT_RTOL",
    "RankDeficient",
    "LeastSquaresResult",
    "gram_pivot",
    "least_squares_solve",
    "tree_factor",
    "chain_gram_determinant",
    "chain_pivot_bounds",
]

PIVOT_RTOL = 1e-12


class RankDeficient(RuntimeError):
    """Normal-equations matrix too close to singular to trust."""


def gram_pivot(G):
    """Smallest squared Cholesky pivot of a Gram matrix G = A^T A relative
    to its largest diagonal entry, checked by the rank guard described in
    the module docstring. Raises RankDeficient when G fails it.
    """
    if not np.isfinite(G).all():
        raise RankDeficient("Gram matrix has non-finite entries")
    try:
        root = np.linalg.cholesky(G).diagonal().min()
    except np.linalg.LinAlgError:
        raise RankDeficient("Gram matrix is not positive definite") from None
    pivot = float(root * root / G.diagonal().max())
    if not pivot > PIVOT_RTOL:
        raise RankDeficient(f"relative Cholesky pivot {pivot:.3e} "
                            f"below {PIVOT_RTOL:g}")
    return pivot


@dataclass(frozen=True)
class LeastSquaresResult:
    """Minimizer of ||A x - b||, the residual A x - b, and the smallest
    relative Cholesky pivot of A^T A (see ``gram_pivot``)."""

    solution: np.ndarray
    residual: np.ndarray
    pivot: float


def least_squares_solve(A, b):
    """Solve min_x ||A x - b|| for a tall (or square) full-rank A.

    Parameters
    ----------
    A : ndarray, shape (rows, cols) with rows >= cols
        Coefficient matrix with full column rank.
    b : ndarray, shape (rows,)
        Right-hand side.

    Returns
    -------
    LeastSquaresResult
        Minimizer, residual A x - b, and the smallest relative Cholesky
        pivot of A^T A.

    Normal equations with one step of iterative refinement, which keeps
    the orthogonality defect ||A^T r|| at rounding level across the whole
    admitted conditioning range. Raises RankDeficient when ``gram_pivot``
    rejects A^T A.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] < A.shape[1]:
        raise ValueError(f"need rows >= cols, got shape {A.shape}")
    G = A.T @ A
    pivot = gram_pivot(G)
    c = A.T @ b
    x = np.linalg.solve(G, c)
    x += np.linalg.solve(G, c - G @ x)
    return LeastSquaresResult(solution=x, residual=A @ x - b, pivot=pivot)


def tree_factor(edges, cos, bv):
    """L D L^T factor of the Gram matrix's v block G_v, eliminated leaves
    first (see the module docstring), with the forward elimination L y = b
    of one right-hand side in the same loop.

    ``edges`` are the tree's (parent, child) pairs of 0-based robot
    indices in topological order from root 0, and ``cos`` is a list of
    finite floats holding cos(theta_p - theta_c) for each edge. ``bv`` is
    a list of b's v entries, overwritten with y; ``_back`` finishes the
    solve.

    Returns (piv, mult), lists indexed by robot: the pivots and each
    child's multiplier at its own index (0 at the root). A non-finite
    cosine makes them non-finite.
    """
    # Every diagonal starts at 1; eliminating child c then adds the edge's
    # 1 to its parent and subtracts cos^2 / pivot_c.
    piv = [1.0] * (len(edges) + 1)
    mult = [0.0] * len(piv)
    for (p, c), w in zip(reversed(edges), reversed(cos)):
        f = mult[c] = w / piv[c]
        piv[p] += 1.0 - w * f
        bv[p] += f * bv[c]
    return piv, mult


def _back(edges, piv, mult, bv, bw):
    """D L^T x = y, root first, with ``tree_factor``'s pivots and
    multipliers, for y's v entries, and A_w w = b for b's heading rows bw
    (-b_2 at the root, each edge's at its child); both lists become x."""
    bv[0] /= piv[0]
    for p, c in edges:
        bv[c] = bv[c] / piv[c] + mult[c] * bv[p]
        bw[c] += bw[p]
    return bv, bw


def chain_gram_determinant(headings):
    """Determinant of the chain Gram matrix by the simplified recursion.

    Returns (determinant, pivots): even pivots are the exact closed forms
    (2, then 1 + 2/i, ending with 2/m), odd pivots follow the two-step
    recursion in the squared cosine of each edge's heading difference.
    No pivot can vanish, so this path never breaks down.
    """
    th = np.asarray(headings, dtype=float)
    n = len(th)
    if n < 2:
        raise ValueError("chain recursion needs at least two robots")
    m = 2 * n
    x = np.empty(m)
    x[0] = 2.0
    x[1] = 2.0
    for i in range(3, m - 2, 2):  # 1-based odd i in 3..m-3
        cos2 = np.cos(th[(i - 3) // 2] - th[(i - 1) // 2]) ** 2
        x[i - 1] = 2.0 - cos2 / x[i - 3]
    for i in range(4, m - 1, 2):  # 1-based even i in 4..m-2
        x[i - 1] = 1.0 + 2.0 / i
    cos2 = np.cos(th[n - 2] - th[n - 1]) ** 2
    x[m - 2] = 1.0 - cos2 / x[m - 4]
    x[m - 1] = 2.0 / m
    return float(np.prod(x)), x


def chain_pivot_bounds(x):
    """Closed-form bounds certifying every chain-recursion pivot.

    Returns (lower, upper) arrays over the m pivots, by 1-based position
    i: odd i up to m-3 lie in [(i+3)/(i+1), 2], even i up to m-2 are
    pinned to 1 + 2/i (2 at i = 2), the next-to-last lies in [2/m, 1]
    and the last is pinned to 2/m.
    """
    m = len(x)
    i = np.arange(1.0, m + 1)
    odd = i % 2 == 1
    lower = np.where(odd, (i + 3) / (i + 1), 1 + 2 / i)
    upper = np.where(odd, 2.0, lower)
    lower[-2:] = upper[-1:] = 2.0 / m
    upper[-2:-1] = 1.0
    return lower, upper

"""Least-squares solves of the control law and pentadiagonal machinery.

The control law's normal equations G x = A^T b sit over a spanning tree
rooted at robot 1 (index 0), and G = A^T A has a closed form that needs
neither A nor a matrix product. Let deg~_i be robot i's number of tree
neighbours, plus 1 for the root; equivalently, 1 plus its number of
children. Then, with twists interleaved as (v_1, w_1, v_2, w_2, ...):

* the diagonal of G is deg~_i in both robot i's v slot and its w slot;
* for each edge (p, c) the off-diagonal entries are -cos(theta_p -
  theta_c) between the v slots and -1 between the w slots;
* v and w never couple.

``TreeGram`` factors G as L D L^T by eliminating robots in reverse
topological edge order, leaves first. A robot is eliminated only after
all of its children, and only its parent row is updated, so there is no
fill-in and the work is O(n). Every pivot is at least 1, by induction
from the leaves: pivot_c = deg~_c - sum over children k of
cos^2/pivot_k >= deg~_c - #children = 1. The w pivots are exactly 1. A
finite heading therefore always gives a factor; a non-finite heading is
the only way to lose one, and it raises RankDeficient.

``least_squares_solve`` and its rank guard ``gram_pivot`` form the dense
reference: G = A^T A formed explicitly, every squared Cholesky pivot of G
above PIVOT_RTOL = 1e-12 times the largest diagonal entry of G, and two
LU solves. The squared pivots are the Gaussian-elimination pivots of G in
column order; for chains they are the recursion pivots of
``chain_gram_determinant``, which ``chain_pivot_bounds`` keeps at or above
2/m against a largest diagonal of 2.

The Gram matrix of a chain is pentadiagonal with a fixed sparsity pattern,
which admits an O(m) determinant recursion with provable pivot bounds; a
general pentadiagonal determinant and the dense solver give independent
cross-checks of it.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PIVOT_RTOL",
    "PIVOT_FLOOR",
    "RankDeficient",
    "PivotBreakdown",
    "LeastSquaresResult",
    "gram_pivot",
    "least_squares_solve",
    "TreeGram",
    "Pentadiagonal",
    "pentadiagonal_determinant",
    "chain_gram_pentadiagonal",
    "chain_gram_determinant",
    "chain_pivot_bounds",
]

PIVOT_RTOL = 1e-12
PIVOT_FLOOR = 1e-14


class RankDeficient(RuntimeError):
    """Normal-equations matrix too close to singular to trust."""


class PivotBreakdown(RuntimeError):
    """A determinant-recursion pivot fell below double-precision meaning."""


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


class TreeGram:
    """L D L^T factor of the Gram matrix of a spanning-tree coupling
    matrix, eliminated leaves first (see the module docstring).

    ``parents`` and ``children`` are the 0-based endpoints of the tree's
    edges in topological order from root 0, and ``cos`` holds
    cos(theta_p - theta_c) for each edge. Raises RankDeficient when some
    cosine is not finite.
    """

    __slots__ = ("_edges", "_piv", "_mult")

    def __init__(self, parents, children, cos):
        cos = np.asarray(cos, dtype=float)
        if not np.isfinite(cos).all():
            raise RankDeficient("Gram matrix has non-finite entries")
        edges = list(zip(parents.tolist(), children.tolist()))
        # Every v diagonal starts at 1; eliminating child c then adds the
        # edge's 1 to its parent and subtracts cos^2 / pivot_c.
        piv = [1.0] * (len(edges) + 1)
        mult = [0.0] * len(piv)
        for (p, c), w in zip(reversed(edges), reversed(cos.tolist())):
            f = mult[c] = w / piv[c]
            piv[p] += 1.0 - w * f
        self._edges, self._piv, self._mult = edges, piv, mult

    @property
    def pivots(self):
        """Pivots of the elimination, interleaved like the twists: the v
        pivots in the even slots, the w pivots (all 1) in the odd ones."""
        out = np.ones(2 * len(self._piv))
        out[0::2] = self._piv
        return out

    @property
    def pivot(self):
        """Smallest pivot divided by the largest diagonal entry of G."""
        children = np.bincount([p for p, _ in self._edges],
                               minlength=len(self._piv))
        return float(self.pivots.min() / (1 + children.max()))

    def solve(self, rhs):
        """Solve G x = rhs for an interleaved (2n,) right-hand side."""
        rhs = np.asarray(rhs, dtype=float)
        bv, bw = rhs[0::2].tolist(), rhs[1::2].tolist()
        piv, mult = self._piv, self._mult
        for p, c in reversed(self._edges):     # L y = rhs, leaves first
            bv[p] += mult[c] * bv[c]
            bw[p] += bw[c]
        bv[0] /= piv[0]
        for p, c in self._edges:               # D L^T x = y, root first
            bv[c] = bv[c] / piv[c] + mult[c] * bv[p]
            bw[c] += bw[p]
        out = np.empty(len(rhs))
        out[0::2] = bv
        out[1::2] = bw
        return out


@dataclass(frozen=True)
class Pentadiagonal:
    """Banded matrix with nonzeros only on the main diagonal and the two
    diagonals on each side. Diagonals are stored dense: main (m,),
    super1/sub1 (m-1,), super2/sub2 (m-2,).
    """

    main: np.ndarray
    super1: np.ndarray
    super2: np.ndarray
    sub1: np.ndarray
    sub2: np.ndarray

    def __post_init__(self):
        m = self.order
        if m < 1:
            raise ValueError("order must be at least 1")
        want = (m, max(m - 1, 0), max(m - 2, 0))
        got = (len(self.main), len(self.super1), len(self.super2))
        if got != want or (len(self.sub1), len(self.sub2)) != want[1:]:
            raise ValueError(f"inconsistent diagonal lengths {got} for m={m}")

    @property
    def order(self):
        return len(self.main)

    def dense(self):
        m = self.order
        out = np.zeros((m, m))
        out[np.arange(m), np.arange(m)] = self.main
        if m > 1:
            idx = np.arange(m - 1)
            out[idx, idx + 1] = self.super1
            out[idx + 1, idx] = self.sub1
        if m > 2:
            idx = np.arange(m - 2)
            out[idx, idx + 2] = self.super2
            out[idx + 2, idx] = self.sub2
        return out


def pentadiagonal_determinant(penta):
    """Determinant of a pentadiagonal matrix by the linear-recurrence
    elimination: det = prod(x_i) with x, y, z sequences built in O(m).

    Raises PivotBreakdown when some |x_i| < PIVOT_FLOOR, the regime where
    the recurrence divides by a value without double-precision meaning.
    """
    a = np.asarray(penta.main, dtype=float)
    b = np.asarray(penta.super1, dtype=float)
    c = np.asarray(penta.super2, dtype=float)
    d = np.asarray(penta.sub1, dtype=float)
    e = np.asarray(penta.sub2, dtype=float)
    m = len(a)

    x = np.empty(m)
    y = np.empty(max(m - 1, 1))
    z = np.empty(max(m, 2))

    def _checked(value, i):
        if abs(value) < PIVOT_FLOOR:
            raise PivotBreakdown(f"pivot x_{i + 1} = {value:.3e}")
        return value

    x[0] = _checked(a[0], 0)
    if m == 1:
        return float(x[0])
    y[0] = b[0]
    z[1] = d[0] / x[0]
    x[1] = _checked(a[1] - y[0] * z[1], 1)
    if m > 2:
        y[1] = b[1] - z[1] * c[0]
    for i in range(2, m):
        z[i] = (d[i - 1] - e[i - 2] * y[i - 2] / x[i - 2]) / x[i - 1]
        x[i] = _checked(
            a[i] - y[i - 1] * z[i] - e[i - 2] * c[i - 2] / x[i - 2], i
        )
        if i < m - 1:
            y[i] = b[i] - z[i] * c[i - 1]
    return float(np.prod(x))


def chain_gram_pentadiagonal(headings):
    """Pentadiagonal form of the chain coupling matrix's Gram matrix.

    For a chain of n robots the Gram matrix is 2n x 2n with main diagonal
    (2, ..., 2, 1, 1), empty first off-diagonals, and second off-diagonals
    alternating -cos(heading difference across an edge) and -1.
    """
    th = np.asarray(headings, dtype=float)
    n = len(th)
    if n < 1:
        raise ValueError("need at least one robot")
    m = 2 * n
    main = np.full(m, 2.0)
    main[m - 2:] = 1.0
    super1 = np.zeros(max(m - 1, 0))
    super2 = np.empty(max(m - 2, 0))
    for ic in range(m - 2):
        if ic % 2 == 0:
            k = ic // 2
            super2[ic] = -np.cos(th[k] - th[k + 1])
        else:
            super2[ic] = -1.0
    return Pentadiagonal(main=main, super1=super1, super2=super2,
                         sub1=super1.copy(), sub2=super2.copy())


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

    Returns (lower, upper) arrays: odd positions up to m-3 lie in
    [(i+3)/(i+1), 2], the next-to-last in [2/m, 1], and even positions
    are pinned to their exact values.
    """
    x = np.asarray(x, dtype=float)
    m = len(x)
    lower = np.empty(m)
    upper = np.empty(m)
    for i in range(1, m + 1):  # 1-based
        if i == m:
            lower[i - 1] = upper[i - 1] = 2.0 / m
        elif i == m - 1:
            lower[i - 1], upper[i - 1] = 2.0 / m, 1.0
        elif i % 2 == 1:
            lower[i - 1], upper[i - 1] = (i + 3) / (i + 1), 2.0
        elif i == 2:
            lower[i - 1] = upper[i - 1] = 2.0
        else:
            lower[i - 1] = upper[i - 1] = 1.0 + 2.0 / i
    return lower, upper

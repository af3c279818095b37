"""Kinematic-level formation controller.

The control objective is encoded in a stacked error vector: the leader's
tracking error rotated into its body frame, followed by one coordination
error per tree edge. Along trajectories that stacked error obeys a linear
relation in the robots' twists through a tall block-sparse coupling
matrix plus a feedforward term built from the desired trajectories. The
commanded twists minimize the residual energy of driving that relation to
the gain-weighted error, an overdetermined least-squares problem solved
through the normal equations.

The normal equations are never formed densely. Over a spanning tree the
Gram matrix G = A^T A has a closed form: robot i's v and w diagonal
entries are both 1 plus its number of children, each edge (p, c) gives
-cos(theta_p - theta_c) between the v slots and -1 between the w slots,
and v never couples to w. ``linalg.TreeGram`` eliminates it leaves first
with no fill-in and every pivot at least 1, and A^T b is a gather and a
``bincount`` over the edges (``_normal_rhs``), so a solve costs O(n) and
only a non-finite heading, which raises RankDeficient, loses the factor.

``fictitious_velocity`` also returns the exact time derivative of the
commanded twist along the closed-loop flow, which the torque-level
backstepping controller consumes, including the motion of the leader's
body frame (the skew term in the stacked-error rate).

Each piece of the law is one function that ``Engine.evaluate`` calls.
Terms of the time alone (``_Desired``: desired poses, their rates g and
the edge differences of g, the feedforward's edge rows, and the rates of
both) are computed for any number of times at once, and terms one state
shares (``_Stage``: the layout, the headings' cosines and sines, the
leader's rotation) once per evaluation. A kinematic stage is one call,
``_kinematic_twist``: it forms b = -(K z) - ff from the poses without
building z or ff, and eliminates A^T b in the factor's own loop. In
dynamic mode ``feedforward_term``, ``feedforward_rate`` and
``fictitious_velocity`` take the ``_Stage`` and the ``_Desired``.
``coupling_matrix``, ``coupling_rate``, ``tree_gram`` and
``kinematic_control``, the independent oracles of the tests and
``formsim check``, take a tree and the headings, or a ``_Stage``.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# least_squares_solve is the dense reference the tests compare against; it
# stays bound here, where perfbench/tracing.py counts its calls.
from .linalg import TreeGram, _interleave, least_squares_solve  # noqa: F401

__all__ = [
    "coupling_matrix",
    "coupling_rate",
    "tree_gram",
    "kinematic_control",
]


class _Layout(NamedTuple):
    """Edge index arrays of one tree (see ``_layout``)."""

    n: int
    edges: tuple
    parents: np.ndarray
    children: np.ndarray
    pflat: np.ndarray
    cflat: np.ndarray
    at: np.ndarray
    const: np.ndarray
    gather: np.ndarray


def _layout(tree):
    """Edge index arrays of a tree: the 0-based (parent, child) pairs in
    edge order, and the parents and children as arrays; the flat
    positions in an (n, 3) per-robot array of every edge's parent row and
    child row; the flat positions in a (3n, 2n) matrix of each edge
    block's cosine, sine and heading rows (parents, then children), then
    of the leader block's two entries, and the constant values of the
    heading rows and the leader block; and ``cflat`` then ``pflat``, the
    gather of edge rows into robots. An ``Engine`` builds its tree's
    once."""
    n = tree.n
    parents, children = ends = tree.edge_array().T
    rows = np.tile(6 * n * np.arange(1, n), 2)   # flat start of edge blocks
    at = rows + 2 * np.concatenate([parents, children])
    at = np.concatenate([at, at + 2 * n, at + 4 * n + 1, [0, 4 * n + 1]])
    const = np.repeat([-1.0, 1.0, -1.0], [n - 1, n - 1, 2])
    pflat, cflat = (3 * ends[:, :, None] + np.arange(3)).reshape(2, -1)
    edges = tuple(zip(parents.tolist(), children.tolist()))
    return _Layout(n, edges, parents, children, pflat, cflat, at, const,
                   np.concatenate([cflat, pflat]))


class _Stage(NamedTuple):
    """The state-dependent terms every piece of one evaluation shares:
    the tree's layout, cos and sin of the robots' headings, and (cos, sin)
    of the leader's heading as floats, the rotation into its body frame.
    """

    lay: _Layout
    cos: np.ndarray
    sin: np.ndarray
    rot: tuple


def _stage(lay, headings):
    """The _Stage of ``headings`` over the tree of layout ``lay``."""
    th = np.asarray(headings, dtype=float)
    lead = th[0]
    if math.isinf(lead):
        # math.cos raises on it; as nan it reaches the factor's finite
        # check and raises RankDeficient like any other bad heading
        lead = math.nan
    return _Stage(lay, np.cos(th), np.sin(th),
                  (math.cos(lead), math.sin(lead)))


def _as_stage(tree, headings):
    """``headings`` as a ``_Stage``; a caller that holds one passes it
    instead of the headings, and the tree's layout is not rebuilt."""
    if isinstance(headings, _Stage):
        return headings
    return _stage(_layout(tree), headings)


def _rotate(rot, v):
    """R(theta)^T v for one 3-vector array, with rot = (cos, sin) of
    theta."""
    c, s = rot
    x, y, w = v.tolist()
    return np.array([c * x + s * y, c * y - s * x, w])


def _edge_rows(lay, rows):
    """Parent row minus child row for every edge of per-robot rows
    (..., n, 3), flattened to (..., 3(n-1)); leading axes (times) are
    kept."""
    flat = rows.reshape(*rows.shape[:-2], 3 * lay.n)
    return flat[..., lay.pflat] - flat[..., lay.cflat]


class _Desired(NamedTuple):
    """The state-independent terms of the control law at one time, or at
    m times along a leading axis: the desired poses, the desired pose
    rates g = (v cos theta_d, v sin theta_d, w) per robot and their edge
    differences (the feedforward's edge rows), and, for the twist rate,
    the rates of both (None when not asked for)."""

    qd: np.ndarray
    rows: np.ndarray
    edges: np.ndarray
    rates: np.ndarray = None
    rate_edges: np.ndarray = None


def _desired_terms(lay, qd, etad, etadd=None):
    """``_Desired`` of the desired poses, twists and (optionally) twist
    rates, at one time or stacked along a leading time axis. The desired
    pose rates are g = (v cos theta_d, v sin theta_d, w) per robot, and
    each g spins with the desired omega and steers the desired twist
    rate."""
    thetad = qd[..., 2]
    c, s = np.cos(thetad), np.sin(thetad)
    v, w = etad[..., 0], etad[..., 1]
    g = np.empty(thetad.shape + (3,))
    g[..., 0] = v * c
    g[..., 1] = v * s
    g[..., 2] = w
    if etadd is None:
        return _Desired(qd, g, _edge_rows(lay, g))
    a = etadd[..., 0]
    gdot = np.empty_like(g)
    gdot[..., 0] = -w * g[..., 1] + a * c
    gdot[..., 1] = w * g[..., 0] + a * s
    gdot[..., 2] = etadd[..., 1]
    return _Desired(qd, g, _edge_rows(lay, g), gdot, _edge_rows(lay, gdot))


def _error_vector(st, poses, desired_poses):
    e = desired_poses - poses
    return np.concatenate([_rotate(st.rot, e[0]), _edge_rows(st.lay, e)])


def _scatter(n, at, values):
    """Dense (3n, 2n) matrix holding ``values`` at flat positions ``at``."""
    out = np.zeros(6 * n * n)
    out[at] = values
    return out.reshape(3 * n, 2 * n)


def coupling_matrix(tree, headings):
    """Tall (3n, 2n) matrix relating robot twists to the stacked-error
    rate: leader row block is minus the twist selector, each edge block
    carries minus the parent's steering matrix and plus the child's."""
    st = _as_stage(tree, headings)
    lay, c, s = st.lay, st.cos, st.sin
    p, ch = lay.parents, lay.children
    return _scatter(lay.n, lay.at, np.concatenate(
        [-c[p], c[ch], -s[p], s[ch], lay.const]))


def coupling_rate(tree, headings, omegas):
    """Time derivative of the coupling matrix given actual angular speeds.

    The leader block is constant so its rate is zero; edge blocks rotate
    with their endpoints' headings.
    """
    st = _as_stage(tree, headings)
    lay = st.lay
    w = np.asarray(omegas, dtype=float)
    p, ch = lay.parents, lay.children
    wc, ws = w * st.cos, w * st.sin
    return _scatter(lay.n, lay.at[:len(lay.at) - len(lay.const)],
                    np.concatenate([ws[p], -ws[ch], -wc[p], wc[ch]]))


def feedforward_term(st, d):
    """Desired-motion feedforward stacked alongside the coupling matrix,
    at a stage ``st`` and the desired terms ``d`` of one time: the
    leader's desired rate rotated into its body frame, then the
    difference of desired rates across each edge."""
    return np.concatenate([_rotate(st.rot, d.rows[0]), d.edges])


def feedforward_rate(st, omega1, ff, d):
    """Exact time derivative of the feedforward term ``ff`` at a stage
    ``st``, with the leader's angular speed ``omega1`` and the desired
    terms ``d`` (twist rates included) of the same time.

    The leader block depends on the robot's actual heading, so its rate
    uses the actual angular speed; edge blocks move with the desired
    trajectories only.
    """
    # R^T g spins with the leader: d/dt R^T = omega1 * SKEW @ R^T, and R^T g
    # is ff's leader block
    leader = _rotate(st.rot, d.rates[0])
    leader[0] += omega1 * ff[1]
    leader[1] -= omega1 * ff[0]
    return np.concatenate([leader, d.rate_edges])


def tree_gram(tree, headings):
    """``TreeGram`` factor of A^T A for the coupling matrix A at
    ``headings``. Raises RankDeficient when a heading is not finite."""
    return _gram(_as_stage(tree, headings))


def _gram(st, rhs=None):
    """``tree_gram`` at a stage, eliminating ``rhs`` in its loop."""
    c, s, p, ch = st.cos, st.sin, st.lay.parents, st.lay.children
    return TreeGram(st.lay.edges, c[p] * c[ch] + s[p] * s[ch], rhs)


def _normal_rhs(st, rows, b0, b2):
    """A^T b for the coupling matrix at the stage's headings, as lists of
    its v and w entries, without forming A, from b's edge rows and its
    leader entries b0 and b2 (b1 meets a zero row): every edge row block
    is added to its child and subtracted from its parent, each robot's
    sums are steered back by its heading, and the leader takes -b0, -b2."""
    S = np.bincount(st.lay.gather, np.concatenate([rows, -rows]),
                    minlength=3 * st.lay.n)
    bv = (st.cos * S[0::3] + st.sin * S[1::3]).tolist()
    bw = S[2::3].tolist()
    bv[0] -= b0
    bw[0] -= b2
    return bv, bw


def kinematic_control(tree, headings, z, ff, gain):
    """Commanded twists minimizing ||A eta + gain*z + ff|| for the
    coupling matrix A at ``headings``, in O(n) through ``TreeGram``.

    ``gain`` is the diagonal (3n,) formation gain. Raises RankDeficient
    when a heading is not finite.
    """
    st = _as_stage(tree, headings)
    b = -(np.asarray(gain, dtype=float) * np.asarray(z, dtype=float)) - ff
    rhs = _normal_rhs(st, b[3:], b[0], b[2])
    return _interleave(*_gram(st, rhs).back(*rhs))


def _kinematic_twist(st, poses, d, gain):
    """``kinematic_control``'s v and w, as lists, at a stage ``st`` of the
    poses (n, 3) with the desired terms ``d`` and the (3n,) gain: b's edge
    rows straight from the poses, its leader entries in floats with
    ``_rotate``'s operations, and A^T b eliminated in the factor."""
    lay = st.lay
    e = (d.qd - poses).reshape(-1)
    rows = -(gain[3:] * (e[lay.pflat] - e[lay.cflat])) - d.edges
    c, s = st.rot
    x, y, w = e[:3].tolist()
    gx, gy, gw = d.rows[0].tolist()
    k0, _, k2 = gain[:3].tolist()
    rhs = _normal_rhs(st, rows, -(k0 * (c * x + s * y)) - (c * gx + s * gy),
                      -(k2 * w) - gw)
    return _gram(st, rhs).back(*rhs)


def _coupled(st, eta):
    """A eta for the coupling matrix at the stage's headings, without
    forming A: the leader block is (-v_1, 0, -w_1), and each edge block
    is minus the edge row (child row minus parent row) of the steered
    twists g_i = (v_i cos theta_i, v_i sin theta_i, w_i)."""
    lay, v = st.lay, eta[0::2]
    g = np.empty(3 * lay.n)
    g[0::3] = v * st.cos
    g[1::3] = v * st.sin
    g[2::3] = eta[1::2]
    out = np.empty(3 * lay.n)
    out[0], out[1], out[2] = -eta[0], 0.0, -eta[1]
    np.subtract(g[lay.cflat], g[lay.pflat], out=out[3:])
    return out


@dataclass(frozen=True)
class FictitiousVelocity:
    """Least-squares twist command and its exact time derivative, with
    the coupling matrix they solve (the torque law multiplies by it)."""

    twist: np.ndarray
    rate: np.ndarray
    A: np.ndarray


def fictitious_velocity(tree, st, twists, z, ff, d, gain):
    """The twist command and its derivative along the flow, at a stage
    ``st`` of the poses, with their stacked error ``z`` and feedforward
    ``ff``, and the desired terms ``d`` (twist rates included) of the same
    time.

    ``twists`` (n, 2) are the robots' actual twists, which enter through
    the stacked-error rate and the coupling-matrix rate. Both solves share
    one ``TreeGram`` factor, which raises RankDeficient when a heading is
    not finite, as ``kinematic_control`` does.
    """
    omega = twists[:, 1]
    A = coupling_matrix(tree, st)

    gram = _gram(st)
    w = gain * z + ff
    etaf = -gram.solve(A.T @ w)

    Adot = coupling_rate(tree, st, omega)
    eta = twists.reshape(-1)
    zdot = A @ eta + ff
    # Leader body frame rotates with the robot: the stacked-error rate
    # picks up omega_1 times the skew of the leader block.
    zdot[0] += omega[0] * z[1]
    zdot[1] -= omega[0] * z[0]
    ffdot = feedforward_rate(st, omega[0], ff, d)
    wdot = gain * zdot + ffdot
    # G etaf = -A^T w differentiates to G etafdot = -(Gdot etaf + Adot^T w
    # + A^T wdot), and Gdot etaf + Adot^T w = Adot^T r + A^T Adot etaf
    # with r = A etaf + w the least-squares residual.
    etafdot = -gram.solve(Adot.T @ (A @ etaf + w)
                          + A.T @ (Adot @ etaf + wdot))
    return FictitiousVelocity(twist=etaf, rate=etafdot, A=A)

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

Each piece of the law is one function. Terms of the time alone
(``_Desired``: desired poses, their rates g and the edge differences of
g, the feedforward's edge rows, and the rates of both) are computed for
any number of times at once, and terms one state shares (``_Stage``: the
layout, the headings' cosines and sines, the leader's rotation) once per
evaluation. A stage of ``Engine.evaluate`` is one call, and no stage
forms A. ``_kinematic_twist`` forms b = -(K z) - ff from the poses
without building z or ff, and eliminates A^T b in the factor's own loop.
``_torque_stage`` computes the twist command and its rate, the torque and
the estimates' rate in floats over the edges, with one factor for both
solves. ``coupling_matrix``, ``coupling_rate``, ``tree_gram``,
``kinematic_control``, ``feedforward_rate`` and ``fictitious_velocity``,
the independent oracles of the tests and ``formsim check``, take a tree
and the headings, or a ``_Stage``.
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


def _aystage(tree, headings):
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
    st = _aystage(tree, headings)
    lay, c, s = st.lay, st.cos, st.sin
    p, ch = lay.parents, lay.children
    return _scatter(lay.n, lay.at, np.concatenate(
        [-c[p], c[ch], -s[p], s[ch], lay.const]))


def coupling_rate(tree, headings, omegas):
    """Time derivative of the coupling matrix given actual angular speeds.

    The leader block is constant so its rate is zero; edge blocks rotate
    with their endpoints' headings.
    """
    st = _aystage(tree, headings)
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
    return _gram(_aystage(tree, headings))


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
    st = _aystage(tree, headings)
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
    """Least-squares twist command and its exact time derivative."""

    twist: np.ndarray
    rate: np.ndarray


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
    return FictitiousVelocity(twist=etaf, rate=etafdot)


class _Torque(NamedTuple):
    """One evaluation of the torque-level law by ``_torque_stage``, as
    lists: the stacked error z, the feedforward ff and the residual
    A eta_f + K z + ff (3n, stacked like the dense forms), the v and w
    entries of the twist command eta_f and of its rate, the torque u and
    the twists' rate (interleaved like the twists), and the estimates'
    rate (6 per robot)."""

    z: list
    ff: list
    residual: list
    etaf: tuple
    etafdot: tuple
    u: list
    twist_rate: list
    phidot: list


def _torque_plant(gz, gs, ga, minv, damp):
    """The constants ``_torque_stage`` reads, as floats: the formation
    gain's leader entries and its edge rows' x, y and heading lists, and
    per robot (K_sigma v, w; Gamma 1..6; 1/mass, 1/inertia; d11, d12,
    d21, d22), from the (3n,), (2n,), (6n,), (2n,) and (n, 2, 2) arrays
    an Engine holds."""
    n = len(damp)
    robots = np.column_stack([gs.reshape(n, 2), ga.reshape(n, 6),
                              minv.reshape(n, 2), damp.reshape(n, 4)])
    return (gz[:3].tolist(), gz[3:].reshape(-1, 3).T.tolist(),
            list(map(tuple, robots.tolist())))


def _torque_stage(st, poses, eta, phihat, d, plant):
    """``fictitious_velocity``, ``adaptive_control`` and ``adaptation_rate``
    in one call, in floats over the tree's edges, without forming A or
    Adot: at a stage ``st`` of the poses (n, 3), with the actual twists
    ``eta`` and estimates ``phihat`` laid out as in the state, the desired
    terms ``d`` (twist rates included) and ``_torque_plant``'s ``plant``.

    Leaves first, A^T z and -A^T w (w = K z + ff) are gathered from the
    edge rows (child +, parent -) and steered by each robot's (cos, sin);
    the factor eliminates -A^T w and ``back`` gives eta_f. Root first,
    each edge's rows of r = A eta_f + w and of q = Adot eta_f + K zdot +
    ffdot are gathered the same way: Adot eta_f's edge rows are the child
    minus the parent of omega v_f (-sin, cos, 0), and Adot^T r's v entries
    are omega (cos S_y - sin S_x) of r's sums S. The same factor then
    solves G etafdot = -(Adot^T r + A^T q), and the torque and the
    gradient update are written out per robot. Raises RankDeficient when a
    heading is not finite, as ``fictitious_velocity`` does."""
    (k0, k1, k2), (Kx, Ky, Kh), robots = plant
    n, edges = st.lay.n, st.lay.edges
    c, s = st.cos.tolist(), st.sin.tolist()
    Ex, Ey, Eh = (d.qd - poses).T.tolist()
    v, om = eta[0::2].tolist(), eta[1::2].tolist()
    # the leader's blocks, in its body frame as ``_rotate`` computes them
    cr, sr = st.rot
    x, y, h = Ex[0], Ey[0], Eh[0]
    gx, gy, gh = d.rows[0].tolist()
    z = [cr * x + sr * y, cr * y - sr * x, h]
    ff = [cr * gx + sr * gy, cr * gy - sr * gx, gh, *d.edges.tolist()]
    Fx, Fy, Fh = ff[3::3], ff[4::3], ff[5::3]
    # leaves first: A^T z's sums and -A^T w's, w = K z + ff
    zx, zy, zh = [0.0] * n, [0.0] * n, [0.0] * n
    bx, by, bh = [0.0] * n, [0.0] * n, [0.0] * n
    w = []
    for (p, ch), kx, ky, kh, fx, fy, fh in zip(edges, Kx, Ky, Kh, Fx, Fy, Fh):
        ex, ey, eh = Ex[p] - Ex[ch], Ey[p] - Ey[ch], Eh[p] - Eh[ch]
        wx, wy, wh = kx * ex + fx, ky * ey + fy, kh * eh + fh
        z += ex, ey, eh
        w.append((wx, wy, wh))
        zx[p], zy[p], zh[p] = zx[p] - ex, zy[p] - ey, zh[p] - eh
        zx[ch], zy[ch], zh[ch] = zx[ch] + ex, zy[ch] + ey, zh[ch] + eh
        bx[p], by[p], bh[p] = bx[p] + wx, by[p] + wy, bh[p] + wh
        bx[ch], by[ch], bh[ch] = bx[ch] - wx, by[ch] - wy, bh[ch] - wh
    w0, w2 = k0 * z[0] + ff[0], k2 * z[2] + ff[2]
    bv = [ci * sx + si * sy for ci, si, sx, sy in zip(c, s, bx, by)]
    bv[0] += w0
    bh[0] += w2
    gram = _gram(st, (bv, bh))
    vf, wf = gram.back(bv, bh)

    # root first: r's sums, and the negated sums of q, from each edge's
    # x and y of r (ra, rb), its q row (qa, qb, qc) and ffdot's (dx, dy, dh)
    r = [w0 - vf[0], k1 * z[1] + ff[1], w2 - wf[0]]
    Dx, Dy, Dh = d.rate_edges.reshape(-1, 3).T.tolist()
    rx, ry = [0.0] * n, [0.0] * n
    qx, qy, qh = [0.0] * n, [0.0] * n, [0.0] * n
    for (p, ch), (wx, wy, wh), kx, ky, kh, fx, fy, fh, dx, dy, dh in zip(
            edges, w, Kx, Ky, Kh, Fx, Fy, Fh, Dx, Dy, Dh):
        cp, cq, sp, sq = c[p], c[ch], s[p], s[ch]
        fp, fq, op, oq, vp, vq = vf[p], vf[ch], om[p], om[ch], v[p], v[ch]
        ra, rb = fq * cq - fp * cp + wx, fq * sq - fp * sp + wy
        r += ra, rb, wf[ch] - wf[p] + wh
        qa = (op * (fp * sp) - oq * (fq * sq)
              + (kx * (vq * cq - vp * cp + fx) + dx))
        qb = (oq * (fq * cq) - op * (fp * cp)
              + (ky * (vq * sq - vp * sp + fy) + dy))
        qc = kh * (oq - op + fh) + dh
        rx[p], ry[p] = rx[p] - ra, ry[p] - rb
        rx[ch], ry[ch] = rx[ch] + ra, ry[ch] + rb
        qx[p], qy[p], qh[p] = qx[p] + qa, qy[p] + qb, qh[p] + qc
        qx[ch], qy[ch], qh[ch] = qx[ch] - qa, qy[ch] - qb, qh[ch] - qc
    # -(Adot^T r + A^T q), then the leader's q block: K zdot, with zdot's
    # skew term, plus ffdot
    mv = [oi * (si * sx - ci * sy) + (ci * tx + si * ty)
          for oi, ci, si, sx, sy, tx, ty in zip(om, c, s, rx, ry, qx, qy)]
    gx, gy, gh = d.rates[0].tolist()
    o = om[0]
    mv[0] += k0 * (ff[0] - v[0] + o * z[1]) + (cr * gx + sr * gy + o * ff[1])
    qh[0] += k2 * (ff[2] - o) + gh
    mv, mw = gram.solve_lists(mv, qh)

    # per robot: u = -K_sigma sigma - A^T z + Y phihat, the twists' rate
    # (u - drag) / (mass, inertia), and phihat's rate -Gamma Y^T sigma
    zv = [ci * sx + si * sy for ci, si, sx, sy in zip(c, s, zx, zy)]
    zv[0] -= z[0]
    zh[0] -= z[2]
    u, rate, phidot = [], [], []
    for vi, oi, fv, fw, gv, gw, av, aw, ph, pl in zip(
            v, om, vf, wf, mv, mw, zv, zh, phihat.reshape(-1, 6).tolist(),
            robots):
        p0, p1, p2, p3, p4, p5 = ph
        kv, kw, g0, g1, g2, g3, g4, g5, iv, iw, d11, d12, d21, d22 = pl
        sv, sw = vi - fv, oi - fw
        uv = -(kv * sv) - av + (gv * p0 + vi * p2 + oi * p3)
        uw = -(kw * sw) - aw + (gw * p1 + vi * p4 + oi * p5)
        u += uv, uw
        rate += (iv * (uv - (d11 * vi + d12 * oi)),
                 iw * (uw - (d21 * vi + d22 * oi)))
        phidot += (-(g0 * (sv * gv)), -(g1 * (sw * gw)), -(g2 * (sv * vi)),
                   -(g3 * (sv * oi)), -(g4 * (sw * vi)), -(g5 * (sw * oi)))
    return _Torque(z, ff, r, (vf, wf), (mv, mw), u, rate, phidot)

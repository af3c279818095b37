"""Kinematic-level formation controller.

The control objective is encoded in a stacked error vector: the leader's
tracking error rotated into its body frame, followed by one coordination
error per tree edge. Along trajectories that stacked error obeys a linear
relation in the robots' twists through a tall block-sparse coupling
matrix plus a feedforward term built from the desired trajectories. The
commanded twists minimize the residual energy of driving that relation to
the gain-weighted error, an overdetermined least-squares problem solved
through the normal equations.

The normal equations are never formed densely. A's heading rows are
square and unit triangular over the tree, so the turn rates solve them
exactly, a root-first sum; only the speeds are least squares, and
``linalg.tree_factor`` eliminates their Gram block leaves first with no
fill-in and every pivot at least 1. A^T b is a gather and a ``bincount``
over the edges (``_normal_rhs``), so a solve costs O(n). Only a
non-finite heading loses the factor: in a run that is a divergence
(DivergenceError), and the oracles raise RankDeficient.

``fictitious_velocity`` also returns the exact time derivative of the
commanded twist along the closed-loop flow, which the torque-level
backstepping controller consumes, including the motion of the leader's
body frame (the skew term in the stacked-error rate).

Each piece of the law is one function. Terms of the time alone
(``_Desired``: desired poses, their rates g and the edge differences of
g, the feedforward's edge rows, and for the torque-level stage a row of
Python floats that also holds the rates of both) are computed for any
number of times at once, and terms one state shares (``_Stage``: the
layout, the headings' cosines and sines, the leader's rotation) once per
evaluation. A stage of ``Engine.rate`` is one call, and no stage
forms A. ``_kinematic_twist`` forms b = -(K z) - ff from the poses
without building z or ff, and eliminates A^T b in the factor's own loop.
``_torque_stage`` computes the twist command and its rate, the torque and
the estimates' rate in floats, in four sweeps over the edges (leaves
first, root first, twice) that form the factor inline and both solves,
then per robot. Either stage's result opens with the twist command and
the pivots it divided by; a record forms z, ff and the residual from the
former (``_error_vector``, ``feedforward_term``, ``_coupled``).
``coupling_matrix``, ``coupling_rate``, ``feedforward_rate`` and
``fictitious_velocity``, the independent oracles of the tests and
``formsim check``, take a tree and the headings, or a ``_Stage``; the
dense two build their matrices from per-edge blocks. ``kinematic_control``
shares the kinematic stage's ``_normal_rhs`` and factor.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# least_squares_solve stays bound here, where perfbench/tracing.py counts
# its calls, until ROADMAP item 14 removes the tracer's name list.
from .linalg import RankDeficient, _back, tree_factor
from .linalg import least_squares_solve  # noqa: F401

__all__ = [
    "coupling_matrix",
    "coupling_rate",
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
    gather: np.ndarray
    mirror: np.ndarray
    bins: np.ndarray


def _layout(tree):
    """Edge index arrays of a tree: the 0-based (parent, child) pairs in
    edge order, and the parents and children as arrays; the flat
    positions in an (n, 3) per-robot array of every edge's parent row and
    child row; ``cflat`` then ``pflat``, the gather of edge rows into
    robots, its mirror, ``pflat`` then ``cflat``, and ``_normal_rhs``'s
    bins, the gather with the parents' heading entries sent to bin 3n.
    An ``Engine`` builds its tree's once."""
    parents, children = ends = tree.edge_array().T
    pflat, cflat = (3 * ends[:, :, None] + np.arange(3)).reshape(2, -1)
    edges = tuple(zip(parents.tolist(), children.tolist()))
    gather = np.concatenate([cflat, pflat])
    bins = gather.copy()
    bins[len(cflat) + 2::3] = 3 * tree.n
    return _Layout(tree.n, edges, parents, children, pflat, cflat, gather,
                   np.concatenate([pflat, cflat]), bins)


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
    c, s = np.cos(th), np.sin(th)
    return _Stage(lay, c, s, (float(c[0]), float(s[0])))


def _aystage(tree, headings):
    """``headings`` as a ``_Stage``; a caller that holds one passes it
    instead of the headings, and the tree's layout is not rebuilt. Raises
    RankDeficient when a heading is not finite."""
    st = headings if isinstance(headings, _Stage) else _stage(
        _layout(tree), headings)
    if not np.isfinite(st.cos).all():
        raise RankDeficient("a heading is not finite")
    return st


def _rotate(rot, v):
    """R(theta)^T v for the 3-vectors along the last axis of ``v``, with
    rot = (cos, sin) of theta: floats, or arrays over v's leading axes."""
    c, s = rot
    x, y = v[..., 0], v[..., 1]
    out = np.empty(v.shape)
    out[..., 0] = c * x + s * y
    out[..., 1] = c * y - s * x
    out[..., 2] = v[..., 2]
    return out


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
    differences (the feedforward's edge rows); for the kinematic stage,
    those rows signed as its ``bincount`` weights (``edges`` then
    ``-edges``), and for the torque-level stage instead, the float row
    ``_desired_terms`` describes (None when not asked for): a list, or at
    m times a list of m lists."""

    qd: np.ndarray
    rows: np.ndarray
    edges: np.ndarray
    signed: np.ndarray
    floats: list = None


def _by_component(lay, edge_rows):
    """Edge rows (..., 3(n-1)) laid out by component: every edge's x,
    then every edge's y, then every edge's heading entry."""
    lead = edge_rows.shape[:-1]
    return (edge_rows.reshape(*lead, lay.n - 1, 3).swapaxes(-1, -2)
            .reshape(*lead, 3 * (lay.n - 1)))


def _desired_terms(lay, qd, etad, etadd=None):
    """``_Desired`` of the desired poses, twists and (optionally) twist
    rates, at one time or stacked along a leading time axis; the signed
    edge rows without twist rates, the float row with them. The desired
    pose rates are g = (v cos theta_d, v sin theta_d, w) per robot, and
    each g spins with the desired omega and steers the desired twist
    rate.

    The float row of a time holds, as Python floats from one ``tolist``
    for all the times: the leader's g and its rate gdot (6 entries), then
    the edge rows of g and of gdot, each by component (``_by_component``,
    3(n-1) entries each); ``_float_parts`` splits it."""
    thetad = qd[..., 2]
    c, s = np.cos(thetad), np.sin(thetad)
    v, w = etad[..., 0], etad[..., 1]
    g = np.empty(thetad.shape + (3,))
    g[..., 0] = v * c
    g[..., 1] = v * s
    g[..., 2] = w
    edges = _edge_rows(lay, g)
    if etadd is None:
        return _Desired(qd, g, edges,
                        np.concatenate([edges, -edges], axis=-1))
    a = etadd[..., 0]
    gdot = np.empty_like(g)
    gdot[..., 0] = -w * g[..., 1] + a * c
    gdot[..., 1] = w * g[..., 0] + a * s
    gdot[..., 2] = etadd[..., 1]
    floats = np.concatenate([
        g[..., 0, :], gdot[..., 0, :], _by_component(lay, edges),
        _by_component(lay, _edge_rows(lay, gdot))], axis=-1)
    return _Desired(qd, g, edges, None, floats.tolist())


def _float_parts(floats, e):
    """A float row (see ``_desired_terms``) of a tree of e edges, split:
    the leader's g and gdot (3 floats each), then the x, y and heading
    lists of the edge rows of g, then those of gdot."""
    a, b, c = 6 + e, 6 + 2 * e, 6 + 3 * e
    return (floats[:3], floats[3:6], floats[6:a], floats[a:b], floats[b:c],
            floats[c:c + e], floats[c + e:c + 2 * e], floats[c + 2 * e:])


def _error_vector(st, poses, desired_poses):
    """The stacked error (3n,) of the poses (n, 3) at a stage ``st``: the
    leader's error rotated into its body frame, then each edge's parent
    row minus child row; or (m, 3n) of poses (m, n, 3), with st.rot a
    pair of (m,) arrays (only st.lay and st.rot are read)."""
    e = desired_poses - poses
    return np.concatenate([_rotate(st.rot, e[..., 0, :]),
                           _edge_rows(st.lay, e)], axis=-1)


def _edge_blocks(lay, x, y, heading=False):
    """Dense (3n, 2n) matrix with a zero leader block whose edge block k
    holds, in the v column of edge k's child, the child's entries of
    ``x`` and ``y``, and minus the parent's in the parent's; with
    ``heading``, its third row holds -1 and 1 in their w columns."""
    out = np.zeros((3 * lay.n, 2 * lay.n))
    for k, (p, ch) in enumerate(lay.edges, 1):
        out[3 * k:3 * k + 2, 2 * p] = -x[p], -y[p]
        out[3 * k:3 * k + 2, 2 * ch] = x[ch], y[ch]
        if heading:
            out[3 * k + 2, 2 * p + 1], out[3 * k + 2, 2 * ch + 1] = -1.0, 1.0
    return out


def coupling_matrix(tree, headings):
    """Tall (3n, 2n) matrix relating robot twists to the stacked-error
    rate: leader row block is minus the twist selector, each edge block
    carries minus the parent's steering matrix and plus the child's."""
    st = _aystage(tree, headings)
    out = _edge_blocks(st.lay, st.cos, st.sin, heading=True)
    out[0, 0] = out[2, 1] = -1.0
    return out


def coupling_rate(tree, headings, omegas):
    """Time derivative of the coupling matrix given actual angular speeds.

    The leader block is constant so its rate is zero; edge blocks rotate
    with their endpoints' headings.
    """
    st = _aystage(tree, headings)
    w = np.asarray(omegas, dtype=float)
    return _edge_blocks(st.lay, -(w * st.sin), w * st.cos)


def feedforward_term(st, d):
    """Desired-motion feedforward stacked alongside the coupling matrix,
    at a stage ``st`` and the desired terms ``d`` of one time: the
    leader's desired rate rotated into its body frame, then the
    difference of desired rates across each edge; along a leading axis
    as ``_error_vector`` takes one."""
    return np.concatenate([_rotate(st.rot, d.rows[..., 0, :]), d.edges],
                          axis=-1)


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
    _, gdot, *_, Dx, Dy, Dh = _float_parts(d.floats, st.lay.n - 1)
    leader = _rotate(st.rot, np.array(gdot))
    leader[0] += omega1 * ff[1]
    leader[1] -= omega1 * ff[0]
    return np.concatenate([leader, np.array([Dx, Dy, Dh]).T.reshape(-1)])


def _edge_cos(st):
    """cos(theta_p - theta_c) for each edge (p, c) at a stage ``st``, from
    its cosines and sines, as the list of floats ``tree_factor`` takes."""
    c, s, p, ch = st.cos, st.sin, st.lay.parents, st.lay.children
    return (c[p] * c[ch] + s[p] * s[ch]).tolist()


def _interleave(v, w):
    """The (2n,) array (v_1, w_1, v_2, w_2, ...) of n v and n w entries."""
    out = np.empty(2 * len(v))
    out[0::2] = v
    out[1::2] = w
    return out


def _normal_rhs(st, signed, b0, b2):
    """A_v^T b and b's heading rows as ``linalg._back`` takes them, as
    lists, without forming A, from b's edge rows signed as (rows, -rows)
    and its leader entries b0 and b2 (b1 meets a zero row): every edge's
    x and y rows are added to its child and subtracted from its parent and
    steered back by each robot's heading, its heading row goes to its
    child, and the leader takes -b0, -b2."""
    S = np.bincount(st.lay.bins, signed, minlength=3 * st.lay.n + 1)
    bv = (st.cos * S[0:-1:3] + st.sin * S[1::3]).tolist()
    bw = S[2::3].tolist()
    bv[0] -= b0
    bw[0] = -b2
    return bv, bw


def kinematic_control(tree, headings, z, ff, gain):
    """Commanded twists minimizing ||A eta + gain*z + ff|| for the
    coupling matrix A at ``headings``, in O(n) through ``tree_factor``.

    ``gain`` is the diagonal (3n,) formation gain. Raises RankDeficient
    when a heading is not finite.
    """
    st = _aystage(tree, headings)
    b = -(np.asarray(gain, dtype=float) * np.asarray(z, dtype=float)) - ff
    rhs = _normal_rhs(st, np.concatenate([b[3:], -b[3:]]), b[0], b[2])
    piv, mult = tree_factor(st.lay.edges, _edge_cos(st), rhs[0])
    return _interleave(*_back(st.lay.edges, piv, mult, *rhs))


def _kinematic_gains(gain):
    """The (3n,) formation gain as ``_kinematic_twist`` reads it: its
    leader x and heading entries as floats, and its edge rows twice, for
    b's signed edge rows (children's, then parents')."""
    k0, _, k2 = gain[:3].tolist()
    return k0, k2, np.concatenate([gain[3:], gain[3:]])


def _kinematic_twist(st, poses, d, gains):
    """``kinematic_control``'s (v, w) lists and the factor's pivots at a
    stage ``st`` of the poses (n, 3), with the desired terms ``d`` and
    ``_kinematic_gains``'s ``gains``: b's signed edge rows straight from
    one pair of gathers of the poses' errors, its leader entries in floats
    with ``_rotate``'s operations, and A_v^T b eliminated in the factor."""
    lay = st.lay
    k0, k2, edge_gain = gains
    e = (d.qd - poses).reshape(-1)
    signed = edge_gain * (e[lay.gather] - e[lay.mirror]) - d.signed
    c, s = st.rot
    x, y, w = e[:3].tolist()
    gx, gy, gw = d.rows[0].tolist()
    rhs = _normal_rhs(st, signed, -(k0 * (c * x + s * y)) - (c * gx + s * gy),
                      -(k2 * w) - gw)
    piv, mult = tree_factor(lay.edges, _edge_cos(st), rhs[0])
    return _back(lay.edges, piv, mult, *rhs), piv


def _coupled(lay, v1, g):
    """A eta for the coupling matrix at the robots' headings, without
    forming A, from the leader's v_1 and the steered twists g (3n,), the
    poses' rates g_i = (v_i cos theta_i, v_i sin theta_i, w_i): the leader
    block is (-v_1, 0, -w_1), and each edge block is minus the edge row
    (child row minus parent row) of g. Along a leading axis, v1 (m,) and
    g (m, 3n) give (m, 3n)."""
    out = np.empty(g.shape)
    out[..., 0] = -v1
    out[..., 1] = 0.0
    out[..., 2] = -g[..., 2]
    np.subtract(g[..., lay.cflat], g[..., lay.pflat], out=out[..., 3:])
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
    the stacked-error rate and the coupling-matrix rate. Both solves are
    dense, on G = A^T A. Raises RankDeficient when a heading is not
    finite, in its first call, ``coupling_matrix``.
    """
    omega = twists[:, 1]
    A = coupling_matrix(tree, st)
    G = A.T @ A
    w = gain * z + ff
    etaf = -np.linalg.solve(G, A.T @ w)

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
    etafdot = -np.linalg.solve(G, Adot.T @ (A @ etaf + w)
                               + A.T @ (Adot @ etaf + wdot))
    return FictitiousVelocity(twist=etaf, rate=etafdot)


class _Torque(NamedTuple):
    """One evaluation of the torque-level law by ``_torque_stage``, as
    lists: the v and w entries of the twist command eta_f, the factor's
    pivots, the v and w entries of eta_f's rate, the torque u (interleaved
    like the twists), and the rate of the state's tail, the twists' rate
    (interleaved like the twists) then the estimates' (6 per robot), which
    ``Engine.rate`` writes in one assignment. A record derives z, ff and
    the residual from eta_f (see ``Engine._row``)."""

    etaf: tuple
    piv: list
    etafdot: tuple
    u: list
    tail: list


def _torque_plant(gz, gs, ga, minv, damp):
    """The constants ``_torque_stage`` reads, as floats: the formation
    gain's leader x and heading entries and its edge rows' x, y and
    heading lists, and per robot (K_sigma v, w; Gamma 1..6; 1/mass,
    1/inertia; d11, d12, d21, d22), from the (3n,), (2n,), (6n,), (2n,)
    and (n, 2, 2) arrays an Engine holds."""
    n = len(damp)
    robots = np.column_stack([gs.reshape(n, 2), ga.reshape(n, 6),
                              minv.reshape(n, 2), damp.reshape(n, 4)])
    return (gz[0:3:2].tolist(), gz[3:].reshape(-1, 3).T.tolist(),
            list(map(tuple, robots.tolist())))


def _torque_stage(st, poses, eta, phihat, d, plant):
    """``fictitious_velocity``, ``adaptive_control`` and ``adaptation_rate``
    in one call, in floats over the tree's edges, without forming A or
    Adot: at a stage ``st`` of the poses (n, 3), with the actual twists
    ``eta`` and estimates ``phihat`` laid out as in the state, the desired
    terms ``d`` (twist rates included) and ``_torque_plant``'s ``plant``.
    Besides the desired poses, every desired term is read from ``d``'s
    float row.

    With w = K z + ff, eta_f minimizes |A eta_f + w|, and its rate solves
    the derivative of the normal equations, with wdot = K zdot + ffdot.
    Adot and Gdot have no w entries, so the turn rates of both solve A_w
    omega = -(the heading rows of w, or of wdot) exactly, root first. The
    speeds solve G_v v_f = -A_v^T w and G_v vdot_f = -(Adot^T w + A_v^T
    wdot) - Gdot v_f by the L D L^T factor of G_v, formed by the recursion
    of ``linalg.tree_factor`` fused into the first sweep; Gdot is (omega_p
    - omega_c) sin(theta_p - theta_c) at each edge (p, c), the rate of its
    -cos(theta_p - theta_c). The stage takes four sweeps over the edges:

    1. Leaves first. Each edge's rows of z, w and wdot are formed and
       added, steered by each end's (cos, sin), into its two robots'
       entries of A^T z, -A_v^T w and -(Adot^T w + A_v^T wdot); A's edge
       block is the child's (cos, sin) minus the parent's, and Adot's
       the child's omega (-sin, cos) minus the parent's. Minus its
       heading rows of w and wdot go to its child. The factor's
       multiplier and its parent's pivot are formed at the edge too. In this order a robot's children's edges
       all come before its own, so at its own edge its sums, its pivot
       and its children's eliminations are complete: there its entry of
       -A_v^T w is final and is forward-eliminated into its parent.
    2. Root first. eta_f is back-substituted.
    3. Leaves first. -Gdot v_f is added, each edge's term into its
       child at the edge and into its parent, whose entry is complete,
       as in 1, when its own edge comes; each entry is then
       forward-eliminated.
    4. Root first. etafdot is back-substituted.

    The torque and the gradient update are then written out per robot."""
    (k0, k2), (Kx, Ky, Kh), robots = plant
    n, edges = st.lay.n, st.lay.edges
    c, s = st.cos.tolist(), st.sin.tolist()
    Ex, Ey, Eh = (d.qd - poses).T.tolist()
    twists = eta.tolist()
    v, om = twists[0::2], twists[1::2]
    # the leader's blocks of z and ff, in its body frame as ``_rotate``
    # computes them, and from the float row the leader's gdot and the
    # edge rows of ff and of ffdot, by component
    cr, sr = st.rot
    x, y, z2 = Ex[0], Ey[0], Eh[0]
    (gx, gy, f2), (ax, ay, ah), Fx, Fy, Fh, Dx, Dy, Dh = _float_parts(
        d.floats, len(edges))
    z0, z1 = cr * x + sr * y, cr * y - sr * x
    f0, f1 = cr * gx + sr * gy, cr * gy - sr * gx

    # 1. leaves first: A^T z as (zv, zh), -A_v^T w and the heading rows of
    # -w as (bv, bh), -(Adot^T w + A_v^T wdot) and those of -wdot as (mv,
    # mw), with each edge's x, y and heading rows of z (ex, ey, eh), of w
    # and of wdot (qx, qy, qh); the pivots, the multipliers, and each
    # edge's Gdot entry, negated, in sig
    piv, mult, sig = [1.0] * n, [0.0] * n, []
    zv, zh, bv, bh = [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n
    mv, mw = [0.0] * n, [0.0] * n
    for (p, ch), kx, ky, kh, fx, fy, fh, dx, dy, dh in zip(
            reversed(edges), reversed(Kx), reversed(Ky), reversed(Kh),
            reversed(Fx), reversed(Fy), reversed(Fh), reversed(Dx),
            reversed(Dy), reversed(Dh)):
        cp, cq, sp, sq = c[p], c[ch], s[p], s[ch]
        op, oq, vp, vq = om[p], om[ch], v[p], v[ch]
        ex, ey, eh = Ex[p] - Ex[ch], Ey[p] - Ey[ch], Eh[p] - Eh[ch]
        wx, wy, wh = kx * ex + fx, ky * ey + fy, kh * eh + fh
        qx = kx * (vq * cq - vp * cp + fx) + dx
        qy = ky * (vq * sq - vp * sp + fy) + dy
        qh = kh * (oq - op + fh) + dh
        zv[p] -= cp * ex + sp * ey
        zv[ch] += cq * ex + sq * ey
        zh[p] -= eh
        zh[ch] += eh
        yv = bv[ch] = bv[ch] - (cq * wx + sq * wy)
        bh[ch] = -wh
        e = cp * cq + sp * sq
        f = mult[ch] = e / piv[ch]
        piv[p] += 1.0 - e * f
        bv[p] += (cp * wx + sp * wy) + f * yv
        mv[p] += (cp * qx + sp * qy) - op * (sp * wx - cp * wy)
        mv[ch] += oq * (sq * wx - cq * wy) - (cq * qx + sq * qy)
        mw[ch] = -qh
        sig.append((oq - op) * (sp * cq - cp * sq))
    # the leader's blocks: w's, and wdot's, K zdot, with zdot's skew
    # term, plus ffdot
    zv[0] -= z0
    zh[0] -= z2
    o = om[0]
    bv[0] += k0 * z0 + f0
    bh[0] = k2 * z2 + f2
    mv[0] += k0 * (f0 - v[0] + o * z1) + (cr * ax + sr * ay + o * f1)
    mw[0] = k2 * (f2 - o) + ah

    # 2. root first: eta_f
    vf, wf = _back(edges, piv, mult, bv, bh)

    # 3. leaves first: -Gdot v_f, then the forward elimination
    for (p, ch), g in zip(reversed(edges), sig):
        gv = mv[ch] = mv[ch] + g * vf[p]
        mv[p] += g * vf[ch] + mult[ch] * gv

    # 4. root first: etafdot
    _back(edges, piv, mult, mv, mw)

    # per robot: u = -K_sigma sigma - A^T z + Y phihat, the twists' rate
    # (u - drag) / (mass, inertia), and phihat's rate -Gamma Y^T sigma
    u, tail, phidot = [], [], []
    for vi, oi, fv, fw, gv, gw, av, aw, ph, pl in zip(
            v, om, vf, wf, mv, mw, zv, zh, phihat.reshape(-1, 6).tolist(),
            robots):
        p0, p1, p2, p3, p4, p5 = ph
        kv, kw, g0, g1, g2, g3, g4, g5, iv, iw, d11, d12, d21, d22 = pl
        sv, sw = vi - fv, oi - fw
        uv = -(kv * sv) - av + (gv * p0 + vi * p2 + oi * p3)
        uw = -(kw * sw) - aw + (gw * p1 + vi * p4 + oi * p5)
        u += uv, uw
        tail += (iv * (uv - (d11 * vi + d12 * oi)),
                 iw * (uw - (d21 * vi + d22 * oi)))
        phidot += (-(g0 * (sv * gv)), -(g1 * (sw * gw)), -(g2 * (sv * vi)),
                   -(g3 * (sv * oi)), -(g4 * (sw * vi)), -(g5 * (sw * oi)))
    tail += phidot
    return _Torque((vf, wf), piv, (mv, mw), u, tail)

"""Kinematic-level formation controller.

The control objective is encoded in a stacked error vector: the leader's
tracking error rotated into its body frame, followed by one coordination
error per tree edge. Along trajectories that stacked error obeys a linear
relation in the robots' twists through a tall block-sparse coupling
matrix plus a feedforward term built from the desired trajectories. The
commanded twists minimize the residual energy of driving that relation to
the gain-weighted error, an overdetermined least-squares problem solved
through the normal equations.

``fictitious_velocity`` additionally returns the exact time derivative of
the commanded twist along the closed-loop flow, which the torque-level
backstepping controller consumes. The derivative accounts for the motion
of the leader's body frame (the skew term in the stacked-error rate), not
just the directly coupled part; without it the computed rate would be
wrong whenever the leader still carries tracking error.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import gram_pivot, least_squares_solve

__all__ = [
    "ErrorState",
    "error_state",
    "coupling_matrix",
    "coupling_rate",
    "feedforward_term",
    "feedforward_rate",
    "kinematic_control",
    "FictitiousVelocity",
    "fictitious_velocity",
]


@dataclass(frozen=True)
class ErrorState:
    """Stacked 3n error vector with per-edge addressing."""

    vector: np.ndarray
    tree: object

    @property
    def leader_body_error(self):
        return self.vector[:3]

    def edge_error(self, k):
        return self.vector[3 * (k + 1): 3 * (k + 2)]

    @property
    def norm(self):
        return float(np.linalg.norm(self.vector))


@lru_cache(maxsize=16)
def _layout(tree):
    """Edge index arrays of a tree, built once per tree: 0-based parents
    and children in edge order; the flat positions in a (3n, 2n) matrix
    of each edge block's cosine row, sine row and heading row (parents,
    then children), then of the leader block's two entries; and the
    constant values of the heading rows and the leader block."""
    n = tree.n
    parents, children = tree.edge_array().T
    rows = np.tile(6 * n * np.arange(1, n), 2)   # flat start of edge blocks
    at = rows + 2 * np.concatenate([parents, children])
    at = np.concatenate([at, at + 2 * n, at + 4 * n + 1, [0, 4 * n + 1]])
    const = np.repeat([-1.0, 1.0, -1.0], [n - 1, n - 1, 2])
    return parents, children, at, const


def _leader_rotate(theta, v):
    """R(theta)^T v for one 3-vector: the leader block of the stacking."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([c * v[0] + s * v[1], c * v[1] - s * v[0], v[2]])


def _stack(tree, leader, rows):
    """Leader block, then parent row minus child row for every edge."""
    parents, children = _layout(tree)[:2]
    return np.concatenate([leader,
                           (rows[parents] - rows[children]).reshape(-1)])


def _error_vector(tree, poses, desired_poses):
    poses = np.asarray(poses, dtype=float)
    e = np.asarray(desired_poses, dtype=float) - poses
    return _stack(tree, _leader_rotate(poses[0, 2], e[0]), e)


def error_state(tree, poses, desired_poses):
    """Stack the leader's body-frame tracking error and all coordination
    errors (parent minus child, in tree edge order)."""
    return ErrorState(vector=_error_vector(tree, poses, desired_poses),
                      tree=tree)


def _scatter(n, at, values):
    """Dense (3n, 2n) matrix holding ``values`` at flat positions ``at``."""
    out = np.zeros(6 * n * n)
    out[at] = values
    return out.reshape(3 * n, 2 * n)


def coupling_matrix(tree, headings):
    """Tall (3n, 2n) matrix relating robot twists to the stacked-error
    rate: leader row block is minus the twist selector, each edge block
    carries minus the parent's steering matrix and plus the child's."""
    th = np.asarray(headings, dtype=float)
    parents, children, at, const = _layout(tree)
    c, s = np.cos(th), np.sin(th)
    return _scatter(tree.n, at, np.concatenate(
        [-c[parents], c[children], -s[parents], s[children], const]))


def coupling_rate(tree, headings, omegas):
    """Time derivative of the coupling matrix given actual angular speeds.

    The leader block is constant so its rate is zero; edge blocks rotate
    with their endpoints' headings.
    """
    th = np.asarray(headings, dtype=float)
    w = np.asarray(omegas, dtype=float)
    parents, children, at, const = _layout(tree)
    wc, ws = w * np.cos(th), w * np.sin(th)
    return _scatter(tree.n, at[:len(at) - len(const)], np.concatenate(
        [ws[parents], -ws[children], -wc[parents], wc[children]]))


def feedforward_term(tree, theta1, thetad, etad):
    """Desired-motion feedforward stacked alongside the coupling matrix:
    the leader's desired rate rotated into its body frame, then the
    difference of desired rates across each edge."""
    thetad = np.asarray(thetad, dtype=float)
    etad = np.asarray(etad, dtype=float)
    g = np.empty((len(thetad), 3))
    g[:, 0] = etad[:, 0] * np.cos(thetad)
    g[:, 1] = etad[:, 0] * np.sin(thetad)
    g[:, 2] = etad[:, 1]
    return _stack(tree, _leader_rotate(theta1, g[0]), g)


def feedforward_rate(tree, theta1, omega1, thetad, etad, etadd):
    """Exact time derivative of the feedforward term.

    The leader block depends on the robot's actual heading, so its rate
    uses the actual angular speed; edge blocks move with the desired
    trajectories only.
    """
    thetad = np.asarray(thetad, dtype=float)
    etad = np.asarray(etad, dtype=float)
    etadd = np.asarray(etadd, dtype=float)
    c, s = np.cos(thetad), np.sin(thetad)
    v, w, a = etad[:, 0], etad[:, 1], etadd[:, 0]
    g0, g1 = v * c, v * s
    gdot = np.empty((len(thetad), 3))
    # d/dt of each desired rate: spin by the desired omega plus the
    # steering of the desired twist rate.
    gdot[:, 0] = -w * g1 + a * c
    gdot[:, 1] = w * g0 + a * s
    gdot[:, 2] = etadd[:, 1]
    # R^T g spins with the leader: d/dt R^T = omega1 * SKEW @ R^T.
    rg = _leader_rotate(theta1, (g0[0], g1[0], w[0]))
    leader = _leader_rotate(theta1, gdot[0])
    leader[0] += omega1 * rg[1]
    leader[1] -= omega1 * rg[0]
    return _stack(tree, leader, gdot)


def kinematic_control(z, A, ff, gain):
    """Commanded twists minimizing ||A eta + gain*z + ff||.

    ``gain`` is the diagonal (3n,) formation gain. Raises RankDeficient
    when the coupling matrix loses effective column rank.
    """
    z = np.asarray(z, dtype=float)
    gain = np.asarray(gain, dtype=float)
    return least_squares_solve(A, -(gain * z) - ff).solution


@dataclass(frozen=True)
class FictitiousVelocity:
    """Least-squares twist command and its exact time derivative, with
    the stacked error, coupling matrix and feedforward they solve."""

    twist: np.ndarray
    rate: np.ndarray
    z: np.ndarray
    A: np.ndarray
    ff: np.ndarray


def fictitious_velocity(tree, poses, twists, qd, etad, etadd, gain):
    """Evaluate the twist command and its derivative along the flow.

    ``twists`` are the robots' actual twists, which enter through the
    stacked-error rate and the coupling-matrix rate. Raises RankDeficient
    behind the same rank guard as the solver.
    """
    poses = np.asarray(poses, dtype=float)
    twists = np.asarray(twists, dtype=float)
    qd = np.asarray(qd, dtype=float)
    gain = np.asarray(gain, dtype=float)
    th = poses[:, 2]
    omega = twists[:, 1]

    z = _error_vector(tree, poses, qd)
    A = coupling_matrix(tree, th)
    ff = feedforward_term(tree, th[0], qd[:, 2], etad)

    G = A.T @ A
    gram_pivot(G)
    w = gain * z + ff
    etaf = -np.linalg.solve(G, A.T @ w)

    Adot = coupling_rate(tree, th, omega)
    Gdot = Adot.T @ A + A.T @ Adot
    eta = twists.reshape(-1)
    zdot = A @ eta + ff
    # Leader body frame rotates with the robot: the stacked-error rate
    # picks up omega_1 times the skew of the leader block.
    zdot[0] += omega[0] * z[1]
    zdot[1] -= omega[0] * z[0]
    ffdot = feedforward_rate(tree, th[0], omega[0], qd[:, 2], etad, etadd)
    wdot = gain * zdot + ffdot
    etafdot = -np.linalg.solve(G, Gdot @ etaf + Adot.T @ w + A.T @ wdot)
    return FictitiousVelocity(twist=etaf, rate=etafdot, z=z, A=A, ff=ff)

"""Desired trajectory generation for each robot.

Every profile produces a desired pose, twist, and twist rate at any time
t >= 0, with the pose rate equal to steering_matrix(heading) @ twist by
construction (the rolling constraint). The desired translational speed
must stay away from zero; below ``SPEED_FLOOR`` the heading-from-velocity
relation degenerates and evaluation raises SingularSpeed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SPEED_FLOOR",
    "SingularSpeed",
    "DesiredState",
    "ConstantTwist",
    "SampledTwist",
    "desired_state",
    "desired_arrays",
    "omega_from_cartesian",
    "rk4_step",
]

SPEED_FLOOR = 1e-6


class SingularSpeed(ValueError):
    """Desired translational speed too close to zero."""


def rk4_step(f, t, y, h):
    """One classical fourth-order Runge-Kutta step of y' = f(t, y)."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass(frozen=True)
class DesiredState:
    """Desired pose (3,), twist (2,), and twist rate (2,) at one instant."""

    pose: np.ndarray
    twist: np.ndarray
    accel: np.ndarray


@dataclass(frozen=True)
class ConstantTwist:
    """Closed-form profile for a constant (v, omega) command.

    With omega nonzero the pose follows a circular arc of radius v/omega;
    with omega zero it follows a straight line. Twist rates are zero.
    """

    pose0: tuple
    v: float
    omega: float

    def __post_init__(self):
        if abs(self.v) < SPEED_FLOOR:
            raise SingularSpeed(
                f"|v|={abs(self.v):g} below floor {SPEED_FLOOR:g}"
            )
        if not np.all(np.isfinite([*self.pose0, self.v, self.omega])):
            raise ValueError("profile parameters must be finite")
        object.__setattr__(self, "pose0", tuple(float(c) for c in self.pose0))


def _constant_twist_pose(pose0, v, w, t):
    x0, y0, th0 = pose0
    th = th0 + w * t
    if abs(w) > 1e-12:
        r = v / w
        x = x0 + r * (math.sin(th) - math.sin(th0))
        y = y0 - r * (math.cos(th) - math.cos(th0))
    else:
        x = x0 + v * t * math.cos(th0)
        y = y0 + v * t * math.sin(th0)
    return x, y, th


@dataclass(frozen=True)
class SampledTwist:
    """Profile defined by a sampled twist program (v, w) with matching
    rates (vdot, wdot) on a strictly increasing time grid starting at 0.

    Twist between samples is cubic Hermite in each component, so the
    returned twist rate is the exact derivative of the returned twist.
    The pose is integrated once at construction (classical fourth-order
    Runge-Kutta at ``grid_dt``) and evaluated at arbitrary t by a single
    short step from the nearest stored grid point, keeping evaluation
    pure and the profile immutable. Outside the table the twist is held
    constant with zero rate.
    """

    pose0: tuple
    times: np.ndarray
    twists: np.ndarray
    rates: np.ndarray
    grid_dt: float = 5e-4
    _grid: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        twists = np.asarray(self.twists, dtype=float)
        rates = np.asarray(self.rates, dtype=float)
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("need at least two samples")
        if times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing from 0")
        if twists.shape != (len(times), 2) or rates.shape != twists.shape:
            raise ValueError("twists and rates must be (len(times), 2)")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(twists))
                and np.all(np.isfinite(rates))):
            raise ValueError("profile tables must be finite")
        if np.min(np.abs(twists[:, 0])) < SPEED_FLOOR:
            raise SingularSpeed("sampled speed hits the singularity floor")
        if self.grid_dt <= 0:
            raise ValueError("grid_dt must be positive")
        object.__setattr__(self, "pose0", tuple(float(c) for c in self.pose0))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "twists", twists)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "_grid", self._integrate_grid())

    @property
    def span(self):
        return float(self.times[-1])

    def twist_at(self, t):
        """Hermite twist and its exact rate at time t (clamped outside)."""
        times, tw, rt = self.times, self.twists, self.rates
        if t <= times[0]:
            return tw[0].copy(), np.zeros(2)
        if t >= times[-1]:
            return tw[-1].copy(), np.zeros(2)
        k = int(np.searchsorted(times, t, side="right")) - 1
        h = times[k + 1] - times[k]
        u = (t - times[k]) / h
        h00 = (1 + 2 * u) * (1 - u) ** 2
        h10 = u * (1 - u) ** 2
        h01 = u * u * (3 - 2 * u)
        h11 = u * u * (u - 1)
        val = (h00 * tw[k] + h10 * h * rt[k]
               + h01 * tw[k + 1] + h11 * h * rt[k + 1])
        d00 = 6 * u * (u - 1)
        d10 = (1 - u) * (1 - 3 * u)
        d01 = -d00
        d11 = u * (3 * u - 2)
        der = (d00 * tw[k] + d10 * h * rt[k]
               + d01 * tw[k + 1] + d11 * h * rt[k + 1]) / h
        return val, der

    def _pose_rate(self, t, q):
        v, w = self.twist_at(t)[0]
        return np.array([v * math.cos(q[2]), v * math.sin(q[2]), w])

    def _integrate_grid(self):
        steps = int(math.ceil(self.span / self.grid_dt))
        grid = np.empty((steps + 1, 3))
        grid[0] = self.pose0
        q = np.asarray(self.pose0, dtype=float)
        for k in range(steps):
            q = rk4_step(self._pose_rate, k * self.grid_dt, q,
                         min(self.grid_dt, self.span - k * self.grid_dt))
            grid[k + 1] = q
        return grid

    def pose_at(self, t):
        t = min(max(t, 0.0), self.span)
        k = min(int(t / self.grid_dt), len(self._grid) - 2)
        delta = t - k * self.grid_dt
        if delta == 0.0:
            return self._grid[k].copy()
        return rk4_step(self._pose_rate, k * self.grid_dt, self._grid[k],
                        delta)


def desired_state(profile, t):
    """Evaluate a profile at time t >= 0."""
    qd, etad, etadd = desired_arrays([profile], t)
    return DesiredState(pose=qd[0], twist=etad[0], accel=etadd[0])


def desired_arrays(profiles, t):
    """Stack desired states of several profiles into (n,3), (n,2), (n,2)."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    n = len(profiles)
    qd = np.empty((n, 3))
    etad = np.empty((n, 2))
    etadd = np.zeros((n, 2))
    for i, p in enumerate(profiles):
        if isinstance(p, ConstantTwist):
            qd[i] = _constant_twist_pose(p.pose0, p.v, p.omega, t)
            etad[i] = p.v, p.omega
        elif isinstance(p, SampledTwist):
            etad[i], etadd[i] = p.twist_at(t)
            if abs(etad[i, 0]) < SPEED_FLOOR:
                raise SingularSpeed(
                    f"desired speed {etad[i, 0]:g} below floor at t={t:g}"
                )
            qd[i] = p.pose_at(t)
        else:
            raise TypeError(f"unknown profile type {type(p).__name__}")
    return qd, etad, etadd


def omega_from_cartesian(xdot, xddot, ydot, yddot, v):
    """Angular speed implied by Cartesian derivatives of a rolling path:
    (xdot * yddot - xddot * ydot) / v**2. Guards the v -> 0 singularity.
    """
    if abs(v) < SPEED_FLOOR:
        raise SingularSpeed(f"|v|={abs(v):g} below floor {SPEED_FLOOR:g}")
    return (xdot * yddot - xddot * ydot) / (v * v)

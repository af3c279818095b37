"""Desired trajectory generation for each robot.

Every profile produces a desired pose, twist, and twist rate at any time
t >= 0, with the pose rate equal to steering_matrix(heading) @ twist by
construction (the rolling constraint). The desired translational speed
must stay away from zero; below ``SPEED_FLOOR`` the heading-from-velocity
relation degenerates and evaluation raises SingularSpeed.

Constant twists have one closed form, the chord of the arc (see
``ConstantTwist``), whatever the turn rate.

Sampled profiles integrate the pose rate (v cos theta, v sin theta, w)
with classical RK4 in a closed-stage form. The rate never depends on x or
y, and its heading component w(t) does not depend on the pose at all, so
``rk4_step``'s four stage headings are known from the step's start
heading theta and the stage twists alone: theta, theta + (h/2) w1,
theta + (h/2) w2 and theta + h w2, where (v1, w1), (v2, w2) and (v4, w4)
are the twists at t, t + h/2 and t + h (the second and third stages share
the midpoint twist). The heading increment (h/6)(w1 + 2 w2 + 2 w2 + w4)
is independent of the state, and the x/y increments follow from the
stage cosines and sines. Written with the same operations in the same
order as ``rk4_step``, the closed form is the same floating-point step;
it lets a whole pose grid be built with a handful of array operations and
two running sums, and lets robots sharing a twist table step together:
their stage twists and heading increments are computed once, and only
the stage headings and the running sums carry a robot axis.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SPEED_FLOOR",
    "SingularSpeed",
    "GridAllocationError",
    "ConstantTwist",
    "SampledTwist",
    "ProfileSet",
    "desired_arrays",
    "rk4_step",
]

SPEED_FLOOR = 1e-6

# Bound on a step count: below 2**53 every step index k is an exact float,
# and so is k times the step, up to its own rounding.
_MAX_STEPS = 2.0 ** 53

# Grid points (steps times robots) integrated per array pass; bounds the
# construction's temporaries (tens of floats per point) to a few MiB for
# any span and any number of robots.
_GRID_CHUNK = 4096


class SingularSpeed(ValueError):
    """Desired translational speed too close to zero."""


class GridAllocationError(MemoryError):
    """A sampled twist's pose grid is too large to allocate."""


def rk4_step(f, t, y, h, k1=None):
    """One classical fourth-order Runge-Kutta step of y' = f(t, y);
    ``k1``, when given, is f(t, y) already evaluated."""
    if k1 is None:
        k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _heading_increment(h, w):
    """``rk4_step``'s heading increment over h, given the stage angular
    speeds w[0], w[1], w[2] at t, t + h/2 and t + h."""
    return (h / 6.0) * (w[0] + 2.0 * w[1] + 2.0 * w[1] + w[2])


def _position_increment(th, h, v, w):
    """``rk4_step``'s (x, y) increments over h, stacked as (2, ...), from
    the start heading ``th`` and the stage twists (v[s], w[s]) at t,
    t + h/2 and t + h."""
    half = 0.5 * h
    heads = np.array([th, th + half * w[0], th + half * w[1], th + h * w[1]])
    trig = np.array([np.cos(heads), np.sin(heads)])
    return (h / 6.0) * (v[0] * trig[:, 0] + 2.0 * (v[1] * trig[:, 1])
                        + 2.0 * (v[1] * trig[:, 2]) + v[2] * trig[:, 3])


def _pose_step(q, h, stage_twists):
    """``rk4_step`` of the pose rate from the pose(s) q (3, ...) over h,
    given the twists (3, ..., 2) at t, t + h/2 and t + h; h and the
    twists' middle axes broadcast against q's trailing ones."""
    v, w = np.moveaxis(stage_twists, -1, 0)
    out = np.empty_like(q)
    out[:2] = q[:2] + _position_increment(q[2], h, v, w)
    out[2] = q[2] + _heading_increment(h, w)
    return out


def _hermite(times, twists, rates, t):
    """Cubic Hermite twists (m, 2) and their exact rates (m, 2) at the
    times ``t`` (m,), held at the end samples with zero rate outside the
    table."""
    t = np.asarray(t, dtype=float)
    # segment k holds t in [times[k], times[k+1]), clamped to the table
    k = np.searchsorted(times[1:-1], t, side="right")
    k1 = k + 1
    t0 = times[k]
    h = (times[k1] - t0)[:, None]
    u = (t - t0)[:, None] / h
    um, u1, uu = 1 - u, u - 1, u * u
    um2 = um * um
    d00 = 6 * u * u1
    tw0, tw1, rt0, rt1 = twists[k], twists[k1], rates[k], rates[k1]
    val = ((1 + 2 * u) * um2 * tw0 + u * um2 * h * rt0
           + uu * (3 - 2 * u) * tw1 + uu * u1 * h * rt1)
    der = (d00 * tw0 + um * (1 - 3 * u) * h * rt0
           + (-d00) * tw1 + u * (3 * u - 2) * h * rt1) / h
    lo, hi = t <= times[0], t >= times[-1]
    val[lo], val[hi] = twists[0], twists[-1]
    der[lo | hi] = 0.0
    return val, der


@dataclass(frozen=True)
class ConstantTwist:
    """Closed-form profile for a constant (v, omega) command.

    The heading is theta0 + omega t. The position moves along the chord
    of the path: (x0, y0) + v t (sin h / h) (cos, sin)(theta0 + h), with
    h = omega t / 2 and sin h / h = 1 at h = 0. This is the circular arc
    of radius v/omega for omega nonzero and the straight line for omega
    zero, in one formula that cancels for no omega. Twist rates are zero.
    """

    pose0: tuple
    v: float
    omega: float

    def __post_init__(self):
        if abs(self.v) < SPEED_FLOOR:
            raise SingularSpeed(
                f"|v|={abs(self.v):g} below floor {SPEED_FLOOR:g}"
            )
        if not all(map(math.isfinite, (*self.pose0, self.v, self.omega))):
            raise ValueError("profile parameters must be finite")
        object.__setattr__(self, "pose0", tuple(map(float, self.pose0)))


@dataclass(frozen=True)
class SampledTwist:
    """Profile defined by a sampled twist program (v, w) with matching
    rates (vdot, wdot) on a strictly increasing time grid starting at 0.

    Twist between samples is cubic Hermite in each component, so the
    returned twist rate is the exact derivative of the returned twist.
    Outside the table the twist is held constant with zero rate. The pose
    is integrated by classical fourth-order Runge-Kutta at ``grid_dt``
    (finite and positive; the last step is shortened to end at the
    table's span) into a grid of poses. The profile stores no grid:
    ``ProfileSet`` (and so ``desired_arrays``) integrates the grids of the
    robots sharing one table in one pass (``_pose_grids``, in the
    closed-stage form of the step described in the module docstring),
    and evaluates the pose at arbitrary t by a single short step from the
    stored grid point at or before t, keeping evaluation pure.
    """

    pose0: tuple
    times: np.ndarray
    twists: np.ndarray
    rates: np.ndarray
    grid_dt: float = 5e-4

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        twists = np.asarray(self.twists, dtype=float)
        rates = np.asarray(self.rates, dtype=float)
        grid_dt = float(self.grid_dt)
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
        if not (math.isfinite(grid_dt) and grid_dt > 0):
            raise ValueError(f"grid_dt must be finite and positive, "
                             f"got {grid_dt}")
        if not times[-1] / grid_dt < _MAX_STEPS:
            raise ValueError(f"grid_dt {grid_dt:g} takes span / grid_dt = "
                             f"{times[-1] / grid_dt:g} steps, not below "
                             f"2**53")
        object.__setattr__(self, "pose0", tuple(map(float, self.pose0)))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "twists", twists)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "grid_dt", grid_dt)

    @property
    def span(self):
        return float(self.times[-1])



def _pose_grids(table, poses0):
    """Pose grids (steps + 1, 3, R) of R start poses ``poses0`` (R, 3)
    under the twist of ``table``, a SampledTwist.

    Column r is bit for bit the grid of poses0[r] alone: every entry goes
    through the same operations whatever R is. The Hermite twist is
    evaluated once per pass at each step's three stage times, and so are
    the heading increments; the stage headings and the running sums of
    the headings and positions carry the robot axis. A pass covers
    ``_GRID_CHUNK // R`` steps, and the running sums carry over from one
    pass's last point to the next, so passes only bound the temporaries.
    """
    span, dt = table.span, table.grid_dt
    steps = int(math.ceil(span / dt))
    try:
        grid = np.empty(shape := (steps + 1, 3, len(poses0)))
    except MemoryError:
        raise GridAllocationError(f"cannot allocate the pose grid of "
                                  f"grid_dt {dt:g}, shape {shape}") from None
    grid[0] = np.transpose(poses0)
    chunk = max(1, _GRID_CHUNK // len(poses0))
    for a in range(0, steps, chunk):
        b = min(a + chunk, steps)
        tk = np.arange(a, b) * dt
        h = np.minimum(dt, span - tk)
        stages = _hermite(table.times, table.twists, table.rates,
                          np.concatenate([tk, tk + 0.5 * h, tk + h]))[0]
        # stage twists (3, steps, 1) and steps (steps, 1) broadcast over
        # the robots
        v, w = stages.reshape(3, b - a, 2, 1).transpose(2, 0, 1, 3)
        h = h[:, None]
        cell = grid[a:b + 1]
        cell[1:, 2] = _heading_increment(h, w)
        np.add.accumulate(cell[:, 2], axis=0, out=cell[:, 2])
        cell[1:, :2] = _position_increment(cell[:-1, 2], h, v,
                                           w).transpose(1, 0, 2)
        np.add.accumulate(cell[:, :2], axis=0, out=cell[:, :2])
    return grid


class ProfileSet:
    """Every robot's desired trajectory, evaluated together at one time
    or at a 1-D array of times.

    Built once per robot list. Constant twists are stacked once (pose0,
    v, omega) into one block whose chord form (see ``ConstantTwist``) is
    evaluated as arrays. Sampled profiles with identical (times, twists,
    rates, grid_dt) form one group: each call evaluates the group's
    Hermite twist once, at every time and at the three stage times of its
    short pose step, and steps the group's stacked pose grids together.
    Each group integrates its grids here in one pass (``_pose_grids``).
    Every block is written straight into the callers' robot order by
    index.
    """

    def __init__(self, profiles):
        profiles = tuple(profiles)
        const, tables = [], {}
        for i, p in enumerate(profiles):
            if isinstance(p, ConstantTwist):
                const.append(i)
            elif isinstance(p, SampledTwist):
                key = (p.grid_dt, p.times.tobytes(), p.twists.tobytes(),
                       p.rates.tobytes())
                tables.setdefault(key, []).append(i)
            else:
                raise TypeError(f"unknown profile type {type(p).__name__}")
        self._n = n = len(profiles)
        self._const = np.array(const, dtype=np.intp)
        # one row per constant twist, transposed so each field is a
        # contiguous row: x0, y0, theta0, v, omega; every field gets a
        # trailing axis that broadcasts over the times
        c = np.array([(*profiles[i].pose0, profiles[i].v, profiles[i].omega)
                      for i in const]).reshape(-1, 5).T.copy()[..., None]
        self._x0y0, self._th0, self._v, self._w = c[:2], c[2], c[3], c[4]
        self._etad = np.zeros((n, 2))
        self._etad[const] = c[3:5, :, 0].T
        self._groups = []
        for group in tables.values():
            # (steps + 1, 3, robots)
            p = profiles[group[0]]
            grids = _pose_grids(p, [profiles[i].pose0 for i in group])
            self._groups.append((np.array(group), p, grids))

    def evaluate(self, t):
        """Desired poses (n, 3), twists (n, 2) and twist rates (n, 2) at a
        time t >= 0; at a 1-D array of m such times, the same stacked as
        (m, n, 3), (m, n, 2) and (m, n, 2).

        Every time is evaluated with the operations a single time uses,
        so row j of an array evaluation equals the evaluation at t[j]. A
        negative (or nan) time raises ValueError naming the first one;
        otherwise a sampled speed below ``SPEED_FLOOR`` raises
        SingularSpeed naming the first time at which it occurs. Either is
        the error that evaluating the times one by one raises first.
        """
        times = np.asarray(t, dtype=float)
        if times.ndim > 1:
            raise ValueError(f"t must be a time or a 1-D array of times, "
                             f"got shape {times.shape}")
        tt = times.reshape(-1)
        bad = ~(tt >= 0)
        if bad.any():
            raise ValueError(f"t must be nonnegative, got {tt[bad][0]}")
        m, n = len(tt), self._n
        q = np.empty((3, n, m))        # rows x, y, theta
        etad = np.empty((m, n, 2))
        etad[:] = self._etad
        etadd = np.zeros((m, n, 2))
        # constant twists, in the chord form of ConstantTwist: the chord's
        # length v t sin(h) / h (1 at h = 0, never 0/0) and direction
        wt = self._w * tt
        h = 0.5 * wt
        chord = np.divide(np.sin(h), h, out=np.ones_like(h), where=h != 0.0)
        chord *= self._v * tt
        h += self._th0
        qc = np.empty((3, *h.shape))
        np.cos(h, out=qc[0])
        np.sin(h, out=qc[1])
        qc[:2] *= chord
        qc[:2] += self._x0y0
        np.add(wt, self._th0, out=qc[2])
        q[:, self._const] = qc
        first, speed = m, None          # first time below the floor
        for at, p, grids in self._groups:
            # the stored point at or before each time (clamped to the
            # span), and the short step from it
            tc = np.minimum(tt, p.span)
            k = np.minimum((tc / p.grid_dt).astype(np.intp), len(grids) - 2)
            tk = k * p.grid_dt
            delta = tc - tk
            val, der = _hermite(p.times, p.twists, p.rates, np.concatenate(
                [tt, tk, tk + 0.5 * delta, tk + delta]))
            low = np.abs(val[:m, 0]) < SPEED_FLOOR
            if low.any():
                j = int(np.argmax(low))
                if j < first:
                    first, speed = j, val[j, 0]
                continue
            etad[:, at] = val[:m, None]
            etadd[:, at] = der[:m, None]
            base = grids[k].transpose(1, 2, 0)         # (3, robots, m)
            q[:, at] = np.where(delta == 0.0, base, _pose_step(
                base, delta, val[m:].reshape(3, m, 2)))
        if first < m:
            raise SingularSpeed(f"desired speed {speed:g} below floor at "
                                f"t={tt[first]:g}")
        qd = q.transpose(2, 1, 0)
        if times.ndim == 0:
            return qd[0], etad[0], etadd[0]
        return qd, etad, etadd


def desired_arrays(profiles, t):
    """Stack desired states of several profiles into (n,3), (n,2), (n,2),
    or into (m,n,3), (m,n,2), (m,n,2) at a 1-D array of m times.

    ``profiles`` is a ProfileSet, or a sequence of profiles that is
    wrapped in one."""
    if not isinstance(profiles, ProfileSet):
        profiles = ProfileSet(profiles)
    return profiles.evaluate(t)

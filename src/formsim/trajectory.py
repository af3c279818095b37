"""Desired trajectory generation for each robot.

Every profile produces a desired pose, twist, and twist rate at any time
t >= 0, with the pose rate equal to steering_matrix(heading) @ twist by
construction (the rolling constraint). The desired translational speed
must stay away from zero; below ``SPEED_FLOOR`` the heading-from-velocity
relation degenerates. A profile proves this once, when it is built, for
every time (``_check_speed_floor`` for a sampled table), and raises
SingularSpeed if it cannot, so evaluation never checks the speed. A
sampled table is first bounded so that no term ``_hermite`` forms from
it and no step of its path overflows a float (``_check_hermite_range``),
and each start it serves so that no pose composed from the path does
(``_check_pose_range``).

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
two running sums.

Unicycle motion commutes with rigid motions of the plane, so every robot
on one twist table traces the same path, rotated by its start heading
theta0 and moved to its start (x0, y0). A table's grid is integrated once,
from the origin pose (``_path_grid``), and each robot's pose is its start
composed with it: (x0 + cos theta0 X - sin theta0 Y, y0 + sin theta0 X +
cos theta0 Y, theta0 + Theta) (``_compose``). Neither the work nor the
memory of the grid grows with the robots sharing it, and its running sums
start at zero, so they round at the path's scale, not at the starts'.
Between grid points, a short step from the path point before the time (its
last stage time is the time itself) precedes the one composition. Past the
span the twist is held, and the path goes on from its end pose along the
chord of that constant twist, as a ``ConstantTwist`` moves.
"""

import copy
import math
import sys
from dataclasses import dataclass, field

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

# Path steps integrated per array pass; bounds the construction's
# temporaries (tens of floats per step) to a few MiB for any span.
_GRID_CHUNK = 4096


class SingularSpeed(ValueError):
    """Desired translational speed too close to zero."""


class GridAllocationError(MemoryError):
    """A sampled twist's pose grid, or a run's trace, is too large to
    allocate."""


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


def _check_hermite_range(times, twists, rates):
    """Raise ValueError unless every term ``_hermite`` forms from a
    finite table, and every RK4 step of its pose grid, is a finite float;
    return the largest S (below) of each component, as floats.

    On segment k, with h = t[k+1] - t[k] and, in either component, knot
    values p0 and p1, m0 = h r[k], m1 = h r[k+1] and
    S = |p0| + |p1| + |m0| + |m1|: each of the twist's four terms is a
    basis function of magnitude at most 1 on [0, 1] times one of p0, p1,
    m0 or m1 (formed as (basis * h) * r, so h r is never formed alone),
    so every term and partial sum stays within S; the rate's numerator
    has bases 6u(u - 1) of magnitude at most 1.5 on p0 and p1 and at most
    1 on m0 and m1, so it stays within 1.5 S, and the rate within
    1.5 S / h. Roundings add under 8 units of 2**-53 to each, so the
    table is accepted while 2 max(S, 1.5 S / h), which covers them and
    the roundings of the test itself, is at most the largest float.

    A step of the pose grid (``_heading_increment`` and
    ``_position_increment``) sums v1 + 2 v2 + 2 v3 + v4 of stage twists
    (times cosines or sines in x and y), whose partial sums stay within
    6 S and a few roundings of it, before it takes h / 6 of the sum; so
    the table is also accepted only while 7 S is a float.
    """
    h = np.diff(times)[:, None]
    # an overflow here is what the test looks for, not a numpy error
    with np.errstate(over="ignore"):
        scale = (abs(twists[:-1]) + abs(twists[1:]) + h * abs(rates[:-1])
                 + h * abs(rates[1:]))
        bound = 2 * np.maximum(scale, 1.5 * scale / h)
        step = 7 * scale
    for value, terms in ((bound, "Hermite terms"), (step, "pose steps")):
        over = ~(value <= np.finfo(float).max).all(axis=1)
        if over.any():
            k = int(np.argmax(over))
            raise ValueError(f"the table's {terms} overflow a float on "
                             f"[{times[k]:g}, {times[k + 1]:g}]")
    return scale.max(axis=0).tolist()


def _check_pose_range(pose0, reach):
    """Raise ValueError unless ``pose0`` is finite and every pose
    composed from it and the table's path stays within the floats, where
    ``reach`` holds, per pose component, the span times the largest S of
    its twist component (``_check_hermite_range``).

    Each step of the path moves its position by at most h S in length and
    its heading by at most h S of w, each with a few roundings (h / 6
    times a sum within 6 S), and the steps' h add up to the span. So the
    path's running sums, which start at the origin, stay within reach
    before their own roundings; those are fewer than 2**53
    (``_MAX_STEPS``), each within 2**-53 of its partial sum, so together
    they grow it by less than a factor of e. The composition rotates the
    path's (X, Y): |cos theta0 X| + |sin theta0 Y| is at most the length
    of (X, Y), the path's displacement, so neither the products nor their
    difference passes e reach, and the sum with the start stays within
    |start| + e reach. The start is accepted while 3 (|start| + reach) is
    a float for x, y and the heading. A pose evaluated between grid
    points composes the start with a path point advanced by one shorter
    step, within the same bound.
    """
    if not all(map(math.isfinite, pose0)):
        raise ValueError("profile parameters must be finite")
    if not all(3 * (abs(q) + r) <= sys.float_info.max
               for q, r in zip(pose0, reach)):
        raise ValueError(f"the pose grid from start ({pose0[0]:g}, "
                         f"{pose0[1]:g}, {pose0[2]:g}) overflows a float "
                         f"within the table's span")


def _check_speed_floor(times, twists, rates):
    """Raise SingularSpeed unless the Hermite speed of a checked table
    keeps the sign of its first knot and stays ``SPEED_FLOOR`` clear of
    zero at every time.

    On segment k, with h = t[k+1] - t[k], knot speeds p0 and p1,
    m0 = h vdot[k] and m1 = h vdot[k+1], the speed is the cubic
    v(u) = p0 + m0 u + c u^2 + d u^3 in u = (t - t[k]) / h, where
    c = 3 (p1 - p0) - 2 m0 - m1 and d = 2 (p0 - p1) + m0 + m1. Its least
    value in the first knot's sign is at a knot, or at a root in (0, 1)
    of v'(u) = m0 + 2 c u + 3 d u^2. The stable quadratic formula gives
    those as q / (3 d) and m0 / q, with q = -(c + sign(c) sqrt(c^2 -
    3 d m0)); at d = 0 the first is not finite and m0 / q is the linear
    root. Past the table the speed is held at an end knot.

    The margin. ``_hermite`` returns a knot's speed exactly, so knots
    need none. At any other time its speed is the cubic at its own
    rounded u, which stays in [0, 1], plus the rounding of its four
    terms. Each term takes at most five roundings of unit 2**-53 (the
    products, the factor h, and u's complement 1 - u or u - 1 and
    1 + 2u or 3 - 2u), and their sum three more. That is under 8 units
    of S = |p0| + |p1| + |m0| + |m1|, which bounds the terms' magnitudes
    since the Hermite basis stays within [-4/27, 1] on [0, 1]. An
    interior extremum is evaluated here by ``_hermite`` too, at
    t[k] + u h, so its u is rounded off the exact root; v' = 0 there, so
    that moves v only at second order in the rounding. So between the
    value found here and the cubic's least value, and again between that
    and any later evaluation, stand under 8 units of S each: 16 in all.
    The margin is 9 eps S, 18 units, the last two for the second-order
    terms. Two limits follow from certifying knots as they are: times
    next to a knot at the floor itself may read a rounding below it, and
    an extremum at a knot (a zero rate there) may be found a rounding
    inside its segment, where it carries the margin.
    """
    h = np.diff(times)
    seg = np.array([twists[:-1, 0], twists[1:, 0], h * rates[:-1, 0],
                    h * rates[1:, 0]])
    scale = abs(seg).sum(axis=0)
    # each segment's cubic in units of its scale S, so that no square
    # overflows; no real roots (a negative discriminant) or 0 / 0 leave
    # nan, which the test for (0, 1) drops
    with np.errstate(divide="ignore", invalid="ignore"):
        p0, p1, m0, m1 = seg / scale
        c = 3 * (p1 - p0) - 2 * m0 - m1
        d = 2 * (p0 - p1) + m0 + m1
        q = -(c + np.copysign(np.sqrt(c * c - 3 * d * m0), c))
        u = np.concatenate([q / (3 * d), m0 / q])
    inside = (u > 0) & (u < 1)
    k = np.tile(np.arange(len(h)), 2)[inside]
    t = np.concatenate([times, times[k] + u[inside] * h[k]])
    v = _hermite(times, twists, rates, t)[0][:, 0]
    # the knots, the first len(times) speeds, need no margin
    slack = 9 * np.finfo(float).eps * np.concatenate([0 * times, scale[k]])
    low = np.sign(twists[0, 0]) * v - slack
    j = int(np.argmin(low))
    if not low[j] >= SPEED_FLOOR:
        raise SingularSpeed(f"sampled speed {v[j]:g} at t={t[j]:g} changes "
                            f"sign or falls below {SPEED_FLOOR:g} + margin")


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
    Outside the table the twist is held constant with zero rate, and past
    its span the pose moves along that held twist. Within the span the
    pose is integrated by classical fourth-order Runge-Kutta at
    ``grid_dt`` (finite and positive; the last step is shortened to end at
    the table's span) into a grid of poses. The profile stores no grid:
    ``ProfileSet`` (and so ``desired_arrays``) integrates one path per
    table from the origin pose (``_path_grid``, in the closed-stage form
    of the step described in the module docstring), and evaluates the pose
    at t by a short step from the path point at or before t, then composes
    each robot's start with it, keeping evaluation pure.
    """

    pose0: tuple
    times: np.ndarray
    twists: np.ndarray
    rates: np.ndarray
    grid_dt: float = 5e-4
    # per pose component, the span times the table's largest S
    # (``_check_pose_range``), for every start the table serves
    _reach: tuple = field(default=None, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        twists = np.asarray(self.twists, dtype=float)
        rates = np.asarray(self.rates, dtype=float)
        grid_dt = float(self.grid_dt)
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("times must be a 1-D list of at least two "
                             "samples")
        if times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing from 0")
        if twists.shape != (len(times), 2) or rates.shape != twists.shape:
            raise ValueError("twists and rates must be (len(times), 2)")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(twists))
                and np.all(np.isfinite(rates))):
            raise ValueError("profile tables must be finite")
        sv, sw = _check_hermite_range(times, twists, rates)
        _check_speed_floor(times, twists, rates)
        if not (math.isfinite(grid_dt) and grid_dt > 0):
            raise ValueError(f"grid_dt must be finite and positive, "
                             f"got {grid_dt}")
        if not times[-1] / grid_dt < _MAX_STEPS:
            raise ValueError(f"grid_dt {grid_dt:g} takes span / grid_dt = "
                             f"{times[-1] / grid_dt:g} steps, not below "
                             f"2**53")
        span = float(times[-1])
        object.__setattr__(self, "_reach", (span * sv, span * sv, span * sw))
        self._start(self.pose0)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "twists", twists)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "grid_dt", grid_dt)

    @property
    def span(self):
        return float(self.times[-1])

    def started_at(self, pose0):
        """This profile from ``pose0``, its checked table shared."""
        profile = copy.copy(self)
        profile._start(pose0)
        return profile

    def _start(self, pose0):
        """Set the start pose, once its composed poses are bounded."""
        pose0 = tuple(map(float, pose0))
        _check_pose_range(pose0, self._reach)
        object.__setattr__(self, "pose0", pose0)



def _path_grid(table):
    """The path (steps + 1, 3) of ``table``, a SampledTwist: its pose
    grid from the origin pose (0, 0, 0), the start every robot on the
    table composes with the path (``_compose``).

    The Hermite twist is evaluated once per pass at each step's three
    stage times, and so are the heading increments. A pass covers
    ``_GRID_CHUNK`` steps, and the running sums carry over from one pass's
    last point to the next, so passes only bound the temporaries.
    """
    span, dt = table.span, table.grid_dt
    steps = int(math.ceil(span / dt))
    # below 2**53 steps (``_MAX_STEPS``) the byte count is an index numpy
    # takes, so only the allocation itself can fail
    try:
        path = np.empty(shape := (steps + 1, 3))
    except MemoryError:
        raise GridAllocationError(f"cannot allocate the pose grid of "
                                  f"grid_dt {dt:g}, shape {shape}") from None
    path[0] = 0.0
    for a in range(0, steps, _GRID_CHUNK):
        b = min(a + _GRID_CHUNK, steps)
        tk = np.arange(a, b) * dt
        h = np.minimum(dt, span - tk)
        stages = _hermite(table.times, table.twists, table.rates,
                          np.concatenate([tk, tk + 0.5 * h, tk + h]))[0]
        v, w = stages.reshape(3, b - a, 2).transpose(2, 0, 1)
        cell = path[a:b + 1]
        cell[1:, 2] = _heading_increment(h, w)
        np.add.accumulate(cell[:, 2], out=cell[:, 2])
        cell[1:, :2] = _position_increment(cell[:-1, 2], h, v, w).T
        np.add.accumulate(cell[:, :2], axis=0, out=cell[:, :2])
    return path


def _starts(poses0):
    """Start poses (R, 3) as the rows x0, y0, theta0, cos theta0 and
    sin theta0, each (R, 1) so that it broadcasts over path points."""
    x0, y0, th0 = np.array(poses0, dtype=float).T
    return np.array([x0, y0, th0, np.cos(th0), np.sin(th0)])[..., None]


def _compose(starts, path):
    """Poses (3, R, m) of the R ``starts`` (``_starts``) composed with the
    path poses (3, m), rows X, Y and Theta from the origin: the path
    rotated by theta0 and moved to (x0, y0). Unicycle motion commutes with
    rigid motions of the plane, so this is where each start's robot is
    along the path."""
    x0, y0, th0, c, s = starts
    x, y, th = path
    return np.array([x0 + (c * x - s * y), y0 + (s * x + c * y), th0 + th])


def _chord(x0y0, th0, v, w, t):
    """Poses (3, ...) reached from (x0, y0) at heading th0 along the
    constant twist (v, w) after t, in the chord form of ``ConstantTwist``:
    the chord's length v t sin(h) / h (1 at h = 0, never 0/0) and its
    direction th0 + h, with h = w t / 2."""
    wt = w * t
    h = 0.5 * wt
    chord = np.divide(np.sin(h), h, out=np.ones_like(h), where=h != 0.0)
    chord *= v * t
    h += th0
    q = np.empty((3, *h.shape))
    np.cos(h, out=q[0])
    np.sin(h, out=q[1])
    q[:2] *= chord
    q[:2] += x0y0
    np.add(wt, th0, out=q[2])
    return q


class ProfileSet:
    """Every robot's desired trajectory, evaluated together at one time
    or at a 1-D array of times.

    Built once per robot list. Constant twists are stacked once (pose0,
    v, omega) into one block whose chord form (see ``ConstantTwist``) is
    evaluated as arrays. Sampled profiles with identical (times, twists,
    rates, grid_dt) form one group, which keeps one path (``_path_grid``)
    and its robots' starts (``_starts``): each call evaluates the group's
    Hermite twist once, at the three stage times of each time's short pose
    step, the last of which is the time itself, takes that step along the
    path, and composes the starts with the result once. Every block is
    written straight into the callers' robot order by index.
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
        self._groups = [
            (np.array(group), profiles[group[0]],
             _path_grid(profiles[group[0]]),
             _starts([profiles[i].pose0 for i in group]))
            for group in tables.values()]

    def evaluate(self, t):
        """Desired poses (n, 3), twists (n, 2) and twist rates (n, 2) at a
        time t >= 0; at a 1-D array of m such times, the same stacked as
        (m, n, 3), (m, n, 2) and (m, n, 2).

        Every time is evaluated with the operations a single time uses
        (for a sampled group, one Hermite pass at the stage times of its
        short steps, the last of which is the time itself, and one
        composition), so row j of an array evaluation equals the
        evaluation at t[j]. A negative (or nan) time raises ValueError
        naming the first one, the error that evaluating the times one by
        one raises first; no other time can fail, since every profile
        proved its speed floor when it was built.
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
        q[:, self._const] = _chord(self._x0y0, self._th0, self._v, self._w,
                                   tt)
        for at, p, path, starts in self._groups:
            # the stored point at or before each time (clamped to the
            # span), and the short step from it to tk + delta = tc exactly
            # (Sterbenz); past the span the twist is held, so tc's is t's
            tc = np.minimum(tt, p.span)
            k = np.minimum((tc / p.grid_dt).astype(np.intp), len(path) - 2)
            tk = k * p.grid_dt
            delta = tc - tk
            val, der = _hermite(p.times, p.twists, p.rates, np.concatenate(
                [tk, tk + 0.5 * delta, tc]))
            etad[:, at] = val[2 * m:, None]
            etadd[:, at] = der[2 * m:, None]
            # the step added to the path point in the path's frame (a zero
            # step adds zeros), then every start composed with the result
            v, w = val.reshape(3, m, 2).transpose(2, 0, 1)
            pk = path[k].T                  # a copy, k being an array
            pk[:2] += _position_increment(pk[2], delta, v, w)
            pk[2] += _heading_increment(delta, w)
            past = tt > p.span
            if past.any():      # on from the end pose along the held twist
                pk[:, past] = _chord(pk[:2, past], pk[2, past], v[2, past],
                                     w[2, past], tt[past] - p.span)
            q[:, at] = _compose(starts, pk)
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

import bisect
import math
import warnings
from dataclasses import replace
from decimal import Decimal, localcontext
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import formsim as fs
import formsim.trajectory
from formsim.engine import rk4_step
from formsim.trajectory import _compose, _hermite, _path_grid, _starts

EPS = np.finfo(float).eps


def test_arc_closed_form_quarter_circle():
    prof = fs.ConstantTwist(pose0=(5.0, 10.0, np.pi / 2), v=5.0, omega=1.0)
    (pose,), (twist,), (accel,) = fs.desired_arrays([prof], np.pi)
    assert np.allclose(pose, [-5.0, 10.0, 3 * np.pi / 2], atol=1e-12)
    assert np.array_equal(twist, [5.0, 1.0])
    assert np.array_equal(accel, [0.0, 0.0])


def test_arc_closed_form_matches_integration():
    # independent oracle: integrate the rolling constraint with RK4
    prof = fs.ConstantTwist(pose0=(5.0, 10.0, np.pi / 2), v=5.0, omega=1.0)

    def f(t, q):
        return fs.unicycle_rate(q[2], (5.0, 1.0))

    q = np.array([5.0, 10.0, np.pi / 2])
    steps = 31416  # lands exactly on t = pi at h close to 1e-4
    h = np.pi / steps
    for k in range(steps):
        q = rk4_step(f, k * h, q, h)
    assert np.abs(q - fs.desired_arrays([prof], np.pi)[0][0]).max() < 1e-10


def test_straight_line():
    prof = fs.ConstantTwist(pose0=(0.0, 0.0, 0.0), v=3.0, omega=0.0)
    pose = fs.desired_arrays([prof], 2.0)[0][0]
    assert np.allclose(pose, [6.0, 0.0, 0.0], atol=1e-15)


def test_profile_initial_condition_preserved():
    prof = fs.ConstantTwist(pose0=(4.0, 1.0, np.pi / 2), v=4.0, omega=1.0)
    assert np.array_equal(fs.desired_arrays([prof], 0.0)[0][0],
                          [4.0, 1.0, np.pi / 2])


def test_constant_twist_rejects_singular_speed():
    with pytest.raises(fs.SingularSpeed):
        fs.ConstantTwist(pose0=(0.0, 0.0, 0.0), v=0.0, omega=1.0)
    with pytest.raises(fs.SingularSpeed):
        fs.ConstantTwist(pose0=(0.0, 0.0, 0.0), v=1e-9, omega=1.0)


def test_negative_time_rejected():
    prof = fs.ConstantTwist(pose0=(0.0, 0.0, 0.0), v=1.0, omega=0.5)
    with pytest.raises(ValueError):
        fs.desired_arrays([prof], -0.1)


def test_arc_stays_on_circle():
    v, w = 5.0, 1.0
    prof = fs.ConstantTwist(pose0=(5.0, 10.0, np.pi / 2), v=v, omega=w)
    cx = 5.0 - (v / w) * np.sin(np.pi / 2)
    cy = 10.0 + (v / w) * np.cos(np.pi / 2)
    for t in np.linspace(0, 20, 97):
        q = fs.desired_arrays([prof], t)[0][0]
        assert abs(np.hypot(q[0] - cx, q[1] - cy) - v / w) < 1e-10


_PI = Decimal("3.141592653589793238462643383279502884197169399375105820974944")


def _sin_cos(x):
    """sin x and cos x of a Decimal x, by their Taylor series at the
    context's precision after reducing x into [-pi, pi]."""
    x -= 2 * _PI * (x / (2 * _PI)).to_integral_value()
    s, c, term, k = Decimal(0), Decimal(0), Decimal(1), 0
    while abs(term) > Decimal("1e-55"):
        if k % 2:
            s += term if k % 4 == 1 else -term
        else:
            c += term if k % 4 == 0 else -term
        k += 1
        term = term * x / k
    return s, c


def _exact_position(p, t):
    """x, y of a constant twist at t to 60 digits, from the textbook arc
    (x0 + (v/w)(sin th - sin th0), y0 - (v/w)(cos th - cos th0)) or line,
    sharing no code with the profile. The arc's cancellation costs about
    as many digits as |w t| has leading zeros, at most 13 here, leaving
    well over double precision."""
    with localcontext() as ctx:
        ctx.prec = 60
        x0, y0, th0, v, w, t = map(Decimal, (*p.pose0, p.v, p.omega, t))
        s0, c0 = _sin_cos(th0)
        if w == 0:
            return x0 + v * t * c0, y0 + v * t * s0
        s1, c1 = _sin_cos(th0 + w * t)
        return x0 + v / w * (s1 - s0), y0 - v / w * (c1 - c0)


@pytest.mark.parametrize("omega", [0.0, 1e-12, -1e-12, 2e-12, -2e-12,
                                   1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3,
                                   1.0, -1.0, 10.0, -10.0])
def test_constant_twist_position_matches_exact_arc(omega):
    # the chord form's rounding, with u = EPS / 2: the chord length
    # v t sin(h)/h (h = w t / 2) to a few u of |v t| (w t, sin, the
    # quotient and the product each round once, and sin(h)/h moves by at
    # most |h| times its slope, under 1, per unit relative change of h);
    # its direction theta0 + h to u |theta0| + u |h| absolute, which moves
    # the point by the chord length times that, at most u |v t| (1 +
    # |theta0|) as chord * |h| = |v t sin h| <= |v t|; the cosine and sine,
    # the product and the sum with x0 round once more each, relative to
    # |v t| and |x|. With |theta0| <= 3 that is under 16 u (|x| + |v t|),
    # here 8 EPS (|x| + |v t|) per coordinate.
    for pose0, v in (((0.0, 0.0, 0.0), 1.0), ((3.0, -2.0, 2.9), -4.5),
                     ((-7.5, 1.25, -1.3), 0.3)):
        prof = fs.ConstantTwist(pose0=pose0, v=v, omega=omega)
        times = np.array([0.0, 0.37, 1.0, 2.5, 10.0, 33.3, 100.0])
        qd = fs.desired_arrays([prof], times)[0][:, 0]
        for t, (x, y, th) in zip(times, qd):
            assert th == pose0[2] + omega * t
            for got, want in zip((x, y), _exact_position(prof, t)):
                tol = 8 * EPS * (abs(got) + abs(v * t))
                assert abs(Decimal(got) - want) <= tol, (t, got, want)


def _sine_profile(span=4.0, grid_dt=5e-4):
    ts = np.linspace(0.0, span, 33)
    tw = np.stack([4.0 + np.sin(0.7 * ts), 1.0 + 0.2 * np.cos(ts)], axis=1)
    rt = np.stack([0.7 * np.cos(0.7 * ts), -0.2 * np.sin(ts)], axis=1)
    return fs.SampledTwist(pose0=(1.0, -2.0, 0.3), times=ts, twists=tw,
                           rates=rt, grid_dt=grid_dt)


def test_sampled_twist_matches_table_at_nodes():
    prof = _sine_profile()
    for k in (0, 7, 19, 32):
        t = prof.times[k]
        tw = _hermite(prof.times, prof.twists, prof.rates, [t])[0][0]
        assert np.allclose(tw, prof.twists[k], atol=1e-13)


def test_sampled_rate_is_twist_derivative():
    prof = _sine_profile()
    for t in (0.31, 1.07, 2.553, 3.9):
        h = 1e-6
        tw, rate = _hermite(prof.times, prof.twists, prof.rates,
                            [t + h, t - h, t])
        fd = (tw[0] - tw[1]) / (2 * h)
        assert np.abs(fd - rate[2]).max() < 1e-7


@pytest.mark.parametrize("make", [
    lambda: fs.ConstantTwist(pose0=(2.0, 3.0, 0.7), v=2.5, omega=0.8),
    _sine_profile,
])
def test_pose_rate_consistency_second_order(make):
    # central difference of the desired pose vs steering(heading) @ twist
    profile_set = fs.ProfileSet([make()])

    def gap(t, h):
        qp = fs.desired_arrays(profile_set, t + h)[0][0]
        qm = fs.desired_arrays(profile_set, t - h)[0][0]
        (pose,), (twist,), _ = fs.desired_arrays(profile_set, t)
        want = fs.unicycle_rate(pose[2], twist)
        return np.abs((qp - qm) / (2 * h) - want).max()

    t = 1.23037  # mid-cell for the sampled grid
    g1, g2 = gap(t, 2e-4), gap(t, 1e-4)
    assert g1 < 1e-6
    assert g1 / g2 > 3.0


def test_sampled_pose_rolls_on_past_its_span():
    # past the span the end twist is held and the pose moves along it: the
    # central-difference pose rate is steering(heading) @ twist, and the
    # pose leaves the span's pose continuously
    prof = _sine_profile(span=1.0)
    profile_set = fs.ProfileSet([prof.started_at((3.0, -1.0, 2.0))])
    (end,), (held,), _ = fs.desired_arrays(profile_set, prof.span)
    v, w = held
    for t in (1.0 + 1e-3, 1.5, 2.75, 10.0):
        h = 1e-4
        qp = fs.desired_arrays(profile_set, t + h)[0][0]
        qm = fs.desired_arrays(profile_set, t - h)[0][0]
        (pose,), (twist,), (rate,) = fs.desired_arrays(profile_set, t)
        assert np.array_equal(twist, held)
        assert np.array_equal(rate, [0.0, 0.0])
        # a constant twist's pose has second derivative |v w| and third
        # |v w^2|: the difference is off by h^2 |v w^2| / 6, and its
        # roundings by a few ulps of the pose over h
        want = fs.unicycle_rate(pose[2], twist)
        tol = h * h * abs(v * w * w) / 6 + 4 * EPS * (1 + np.abs(pose)) / h
        assert np.all(np.abs((qp - qm) / (2 * h) - want) <= tol)
    for d in (1e-12, 1e-9, 1e-6):
        # the first-order step off the end pose, up to d^2 |v w| / 2 and
        # a few ulps of the pose
        (pose,), _, _ = fs.desired_arrays(profile_set, prof.span + d)
        step = fs.unicycle_rate(end[2], held) * d
        tol = d * d * abs(v * w) / 2 + 4 * EPS * (1 + np.abs(end))
        assert np.all(np.abs(pose - end - step) <= tol)


def _short_table_config(dt, t_final, span):
    """Two robots sharing a sampled table that ends at ``span``."""
    table = {"kind": "sampled_twist", "times": [0.0, 0.5 * span, span],
             "twists": [[1.0, 0.3], [1.2, -0.2], [0.8, 0.5]],
             "rates": [[0.0, 0.0]] * 3}
    return fs.scenario_from_dict({
        "mode": "kinematic", "edges": [[1, 2]], "dt": dt,
        "t_final": t_final, "gains": {"formation": [1.0, 1.0, 1.0]},
        "robots": [{"start": [x, -1.0, 2.0],
                    "trajectory": {"start": [x, -1.0, 2.0], **table}}
                   for x in (0.0, 3.0)]})


@pytest.mark.parametrize("dt,t_final", [(0.1, 0.7), (0.01, 2.2),
                                        (0.3, 2.1), (0.001, 0.3)])
@pytest.mark.parametrize("ulps", [1, 2])
def test_run_past_a_short_span_keeps_its_end_pose_to_ulps(dt, t_final, ulps):
    # the loader takes a table ending within 3u of the run's last step,
    # round(t_final / dt) dt, so a run may evaluate a few ulps past the
    # span: there the pose moves by |twist| (t - span) and the roundings
    # of the pose from the span's pose, which is the pose every time past
    # the span had while the pose was held at the span
    steps = round(t_final / dt)
    end = steps * dt
    span = end
    for _ in range(ulps):
        span = np.nextafter(span, 0.0)
    engine = fs.Engine(_short_table_config(dt, t_final, float(span)))
    # the last step's last stage time, and the final sample's time
    times = np.array([(steps - 1) * dt + dt, end])
    assert np.all(times - span <= 3 * EPS * end) and times.max() > span
    q, _, _ = fs.desired_arrays(engine.profiles, times)
    q0, (twist, _), _ = fs.desired_arrays(engine.profiles, span)
    rate = np.abs(twist[[0, 0, 1]])
    tol = rate * (times - span)[:, None, None] + 2 * EPS * (1 + np.abs(q0))
    assert np.all(np.abs(q - q0) <= tol)


def test_sampled_twist_guards_singular_speed():
    ts = np.linspace(0.0, 1.0, 5)
    tw = np.stack([np.full(5, 1e-9), np.ones(5)], axis=1)
    rt = np.zeros((5, 2))
    with pytest.raises(fs.SingularSpeed):
        fs.SampledTwist(pose0=(0, 0, 0), times=ts, twists=tw, rates=rt)


def _speed_table(times, speeds, accels):
    """A sampled twist of the given knot speeds and their rates."""
    return fs.SampledTwist(pose0=(0.0, 0.0, 0.0), times=np.array(times),
                           twists=np.array([[v, 0.1] for v in speeds]),
                           rates=np.array([[a, 0.0] for a in accels]))


@pytest.mark.parametrize("speeds,accels,message", [
    # v = 1 at both knots, rates -20 and +20: v swings to -4 at t = 0.5
    ([1.0, 1.0], [-20.0, 20.0], "sampled speed -4 at t=0.5 "),
    # a sign change between knots
    ([1.0, -1.0], [0.0, 0.0], "sampled speed -1 at t=1 "),
    ([-1.0, 1.0], [0.0, 0.0], "sampled speed 1 at t=1 "),
    # the zero crossing at 1e160: its cubic's squares would overflow
    ([1e160, 1e160], [-2e161, 2e161], r"sampled speed -4e\+160 at t=0.5 "),
], ids=["zero-crossing", "sign-change", "sign-change-from-negative",
        "zero-crossing-at-1e160"])
def test_speed_certificate_refuses_a_sign_change(speeds, accels, message):
    with pytest.raises(fs.SingularSpeed, match=f"^{message}"):
        _speed_table([0.0, 1.0], speeds, accels)


def test_speed_certificate_accepts_a_knot_at_the_floor():
    # knots are returned exactly, so a knot speed of exactly SPEED_FLOOR
    # needs no margin: held there, left at the start, or reached at the
    # end in the negative sign
    floor = fs.trajectory.SPEED_FLOOR
    _speed_table([0.0, 1.0], [floor, floor], [0.0, 0.0])
    _speed_table([0.0, 1.0, 3.0], [floor, 1.0, 2.0], [1.0, 0.5, 0.5])
    _speed_table([0.0, 2.0], [-2.0, -floor], [1.0, 1.0])


def _exact_least_speeds(ts, tw, rt):
    """Per segment of a table, the least speed, in the first knot's sign,
    of its exact Hermite cubic (with h = t[k+1] - t[k] rounded as
    ``_hermite`` has it), from the knots and the roots in (0, 1) of the
    cubic's derivative; and the times of those roots. In Decimal at 200
    digits, so for the tables drawn here the knots, h and the products
    m = h vdot are exact, and the roots and the values at them correct
    far below an ulp."""
    least, extrema = [], []
    sign = 1 if tw[0, 0] > 0 else -1
    with localcontext() as ctx:
        ctx.prec = 200
        for k in range(len(ts) - 1):
            h = Decimal(float(ts[k + 1] - ts[k]))
            p0, p1 = Decimal(tw[k, 0]), Decimal(tw[k + 1, 0])
            m0, m1 = h * Decimal(rt[k, 0]), h * Decimal(rt[k + 1, 0])
            c = 3 * (p1 - p0) - 2 * m0 - m1
            d = 2 * (p0 - p1) + m0 + m1
            disc = c * c - 3 * d * m0
            if d:
                roots = [] if disc < 0 else [
                    (-c + s * disc.sqrt()) / (3 * d) for s in (1, -1)]
            else:
                roots = [-m0 / (2 * c)] if c else []
            roots = [u for u in roots if 0 < u < 1]
            least.append(min(sign * v for v in [p0, p1] + [
                p0 + u * (m0 + u * (c + u * d)) for u in roots]))
            extrema += [ts[k] + float(u) * float(h) for u in roots]
    return least, extrema


@st.composite
def speed_tables(draw):
    """Tables (times, twists, rates) of 2 to 5 knots, one sign, knot
    speeds from SPEED_FLOOR to 100 times it, and end slopes h vdot up to
    a few times the largest: the Hermite speed may stay clear of the
    floor, dip below it, or change sign between knots."""
    floor = fs.trajectory.SPEED_FLOOR
    n = draw(st.integers(2, 5))
    h = np.array([draw(st.floats(1e-3, 10.0)) for _ in range(n - 1)])
    ts = np.concatenate([[0.0], np.cumsum(h)])
    speeds = draw(st.sampled_from([-floor, floor])) * 10.0 ** np.array(
        [draw(st.floats(0.0, 2.0)) for _ in range(n)])
    rates = np.array([draw(st.floats(-300.0, 300.0)) for _ in range(n)])
    rates *= floor * (n - 1) / ts[-1]
    return (ts, np.stack([speeds, np.full(n, 0.1)], axis=1),
            np.stack([rates, np.zeros(n)], axis=1))


@settings(max_examples=300, deadline=None)
@given(speed_tables())
def test_speed_certificate_against_the_exact_cubic(table):
    ts, tw, rt = table
    floor = fs.trajectory.SPEED_FLOOR
    h = np.diff(ts)
    # S of each segment, and _hermite's rounding bound: under 8 units of
    # 2**-53 of S (see trajectory._check_speed_floor)
    scale = (np.abs(tw[:-1, 0]) + np.abs(tw[1:, 0]) + np.abs(h * rt[:-1, 0])
             + np.abs(h * rt[1:, 0]))
    rounding = 8 * 2.0 ** -53 / (1 - 8 * 2.0 ** -53) * scale
    least, extrema = _exact_least_speeds(ts, tw, rt)
    try:
        fs.SampledTwist(pose0=(0.0, 0.0, 0.0), times=ts, twists=tw,
                        rates=rt)
    except fs.SingularSpeed:
        # refused: somewhere the exact cubic comes within the margin,
        # 9 eps S, of the floor, give or take the rounding of the value
        # the certificate found
        assert any(v < floor + 9 * EPS * s + r
                   for v, s, r in zip(least, scale, rounding))
        return
    # accepted: the exact cubic clears the floor, but for a dip under
    # EPS S. The certificate finds interior extrema by rounded roots, and
    # one within a rounding of a knot may round out of (0, 1); the cubic
    # can dip below that knot there only by the square of that distance.
    assert all(v >= floor - EPS * s for v, s in zip(least, scale))
    # _hermite at a dense grid of times and at every extremum inside a
    # segment clears the floor, on every segment whose exact cubic clears
    # it by _hermite's own rounding; on the others it comes within that
    # rounding (and the dip above) of it. A knot exactly at the floor is
    # returned exactly, but a time next to it may read below it (a table
    # held at the floor reads an ulp below it between knots).
    u = np.concatenate([np.linspace(0.0, 1.0, 257), 10.0 ** -np.arange(1, 18),
                        1 - 10.0 ** -np.arange(1, 17)])
    t = np.concatenate([(ts[:-1, None] + u * h[:, None]).ravel(), extrema])
    k = np.searchsorted(ts[1:-1], t, side="right")
    v = np.sign(tw[0, 0]) * _hermite(ts, tw, rt, t)[0][:, 0]
    near = np.array([x < floor + r for x, r in zip(least, rounding)])
    assert np.all(v >= floor - rounding[k] - EPS * scale[k])
    assert np.all((v >= floor) | near[k])


def test_sampled_twist_table_validation():
    ts = np.array([0.0, 1.0, 0.5])
    tw = np.ones((3, 2))
    with pytest.raises(ValueError):
        fs.SampledTwist(pose0=(0, 0, 0), times=ts, twists=tw,
                        rates=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        fs.SampledTwist(pose0=(0, 0, 0), times=np.array([0.5, 1.0]),
                        twists=np.ones((2, 2)), rates=np.zeros((2, 2)))
    # two samples, but in a 2-D list
    with pytest.raises(ValueError, match="^times must be a 1-D list of at "
                                         "least two samples$"):
        fs.SampledTwist(pose0=(0, 0, 0), times=np.array([[0.0, 1.0]]),
                        twists=np.ones((2, 2)), rates=np.zeros((2, 2)))
    for grid_dt in (np.nan, np.inf, 0.0, -1e-3):
        with pytest.raises(ValueError, match="grid_dt"):
            fs.SampledTwist(pose0=(0, 0, 0), times=np.array([0.0, 1.0]),
                            twists=np.ones((2, 2)), rates=np.zeros((2, 2)),
                            grid_dt=grid_dt)


# (times, twists, rates) whose Hermite terms overflow a float: h v'
# past the largest float in v or in w, and in w a rate (p1 - p0) / h past
# it on a short segment
OVERFLOWING = [
    ([0.0, 10.0], [[1e300, 0.2], [1e300, 0.2]],
     [[-1e308, 0.0], [1e308, 0.0]]),
    ([0.0, 10.0], [[1.0, 1e300], [1.0, 1e300]],
     [[0.0, -1e308], [0.0, 1e308]]),
    ([0.0, 1e-10], [[1.0, 1e300], [1.0, -1e300]], [[0.0, 0.0]] * 2),
]


@pytest.mark.parametrize("times,twists,rates", OVERFLOWING)
def test_overflowing_hermite_terms_are_refused(times, twists, rates):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the table's Hermite terms "
                           r"overflow a float on \[0, "):
            fs.SampledTwist(pose0=(0, 0, 0), times=times, twists=twists,
                            rates=rates)


def test_large_finite_hermite_terms_are_accepted():
    # 2 S = 4e307 is a float: the twist and its rate stay finite
    samp = fs.SampledTwist(pose0=(0, 0, 0), times=[0.0, 1.0],
                           twists=[[1e307, 1e307], [1e307, -1e307]],
                           rates=[[0.0, 0.0], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, der = _hermite(samp.times, samp.twists, samp.rates,
                            np.linspace(0.0, 1.0, 101))
    assert np.isfinite(val).all() and np.isfinite(der).all()


@pytest.mark.parametrize("component", [0, 1])
def test_overflowing_pose_steps_are_refused(component):
    # v or w of 4e307 held on [0, 10]: 2 max(S, 1.5 S / h) = 1.6e308 passes
    # the Hermite bound, but an RK4 step sums about 6 v
    twists = [[1.0, 0.2], [1.0, 0.2]]
    twists[0][component] = twists[1][component] = 4e307
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^the table's pose steps "
                           r"overflow a float on \[0, 10\]$"):
            fs.SampledTwist(pose0=(0, 0, 0), times=[0.0, 10.0],
                            twists=twists, rates=[[0.0, 0.0]] * 2)


def test_overflowing_pose_grid_is_refused():
    # v = 1e306 held for 1000 s runs past the largest float; held for
    # 10 s it does not from the origin, but does from x = 1.75e308, and a
    # start the table serves later is bounded too
    table = {"times": [0.0, 1000.0], "twists": [[1e306, 0.2]] * 2,
             "rates": [[0.0, 0.0]] * 2}
    message = (r"^the pose grid from start \({}, 0, 0\) overflows a float "
               r"within the table's span$")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message.format(0)):
            fs.SampledTwist(pose0=(0, 0, 0), **table)
        table["times"] = [0.0, 10.0]
        short = fs.SampledTwist(pose0=(0, 0, 0), **table)
        with pytest.raises(ValueError, match=message.format(r"1\.75e\+308")):
            fs.SampledTwist(pose0=(1.75e308, 0, 0), **table)
        with pytest.raises(ValueError, match=message.format(r"1\.75e\+308")):
            short.started_at((1.75e308, 0.0, 0.0))
        with pytest.raises(ValueError,
                           match="^profile parameters must be finite$"):
            short.started_at((0.0, np.nan, 0.0))
    assert short.pose0 == (0.0, 0.0, 0.0)
    assert short.started_at((3e307, 0.0, 0.0)).pose0 == (3e307, 0.0, 0.0)


def test_pose_grid_of_an_accepted_large_table_is_finite():
    # v and w of 1.2e307 on [0, 1]: 7 S = 1.68e308 and 3 (|start| + span
    # S) are floats, so the grid and every pose read from it are finite,
    # with no overflow warning
    samp = fs.SampledTwist(pose0=(1e307, -1e307, 0.0), times=[0.0, 1.0],
                           twists=[[1.2e307, 1.2e307]] * 2,
                           rates=[[0.0, 0.0]] * 2, grid_dt=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        qd, _, _ = fs.desired_arrays([samp], np.linspace(0.0, 1.0, 23))
    assert np.isfinite(qd).all()
    assert qd[-1, 0, 2] == pytest.approx(1.2e307)


def test_shared_table_near_the_pose_bound_is_finite():
    # v = 1.2e307 and w = 0.5 held on [0, 2.4]: 7 S = 1.68e308 is a float,
    # and 3 (|start| + span S) = 3 (2e306 + 5.76e307) = 1.79e308 just is,
    # so two robots turned by pi/4 and 3pi/4 are accepted on one table;
    # a start 1e306 further out is not
    table = {"times": [0.0, 2.4], "twists": [[1.2e307, 0.5]] * 2,
             "rates": [[0.0, 0.0]] * 2}
    starts = [(2e306, -2e306, np.pi / 4), (-2e306, 2e306, 3 * np.pi / 4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        profs = [fs.SampledTwist(pose0=q, **table) for q in starts]
        with pytest.raises(ValueError, match="^the pose grid from start "):
            profs[0].started_at((3e306, 0.0, 0.0))
        qd, _, _ = fs.desired_arrays(fs.ProfileSet(profs), 2.4)
        arcs = [fs.ConstantTwist(pose0=q, v=1.2e307, omega=0.5)
                for q in starts]
        want, _, _ = fs.desired_arrays(arcs, 2.4)
    assert np.isfinite(qd).all()
    assert np.allclose(qd, want, rtol=1e-12, atol=0.0)


def test_sampled_pose_matches_constant_twist():
    # constant table must reproduce the closed-form arc
    ts = np.linspace(0.0, 3.0, 7)
    tw = np.tile([2.0, 0.5], (7, 1))
    rt = np.zeros((7, 2))
    samp = fs.SampledTwist(pose0=(1.0, 1.0, 0.2), times=ts, twists=tw,
                           rates=rt, grid_dt=1e-3)
    arc = fs.ConstantTwist(pose0=(1.0, 1.0, 0.2), v=2.0, omega=0.5)
    for t in (0.0, 0.6137, 1.5, 2.9):
        assert np.abs(fs.desired_arrays([samp], t)[0]
                      - fs.desired_arrays([arc], t)[0]).max() < 1e-11


def test_desired_arrays_shapes(rng):
    profs = [fs.ConstantTwist(pose0=(i, 0.0, 0.1), v=1.0, omega=0.2)
             for i in range(3)]
    qd, etad, etadd = fs.desired_arrays(profs, 1.5)
    assert qd.shape == (3, 3) and etad.shape == (3, 2)
    assert np.array_equal(etadd, np.zeros((3, 2)))


def _assert_arrays_match_states(profs, times):
    for t in times:
        qd, etad, etadd = fs.desired_arrays(profs, t)
        for i, prof in enumerate(profs):
            (pose,), (twist,), (accel,) = fs.desired_arrays([prof], t)
            assert np.array_equal(qd[i], pose)
            assert np.array_equal(etad[i], twist)
            assert np.array_equal(etadd[i], accel)


def test_desired_arrays_matches_desired_state_constant():
    profs = [fs.ConstantTwist(pose0=(5.0, 10.0, np.pi / 2), v=5.0, omega=1.0),
             fs.ConstantTwist(pose0=(-1.0, 0.5, 0.3), v=-2.0, omega=0.0)]
    _assert_arrays_match_states(profs, (0.0, 0.37, 2.9, 11.0))
    with pytest.raises(ValueError):
        fs.desired_arrays(profs, -0.1)


def test_desired_arrays_matches_desired_state_sampled():
    ts = np.linspace(0.0, 2.0, 9)
    tw = np.stack([2.0 + 0.3 * np.sin(ts), 0.8 + 0.1 * np.cos(ts)], axis=1)
    rt = np.stack([0.3 * np.cos(ts), -0.1 * np.sin(ts)], axis=1)
    profs = [fs.SampledTwist(pose0=(1.0, -0.5, 0.4), times=ts, twists=tw,
                             rates=rt, grid_dt=5e-4),
             fs.ConstantTwist(pose0=(0.0, 0.0, 0.0), v=1.0, omega=0.5)]
    _assert_arrays_match_states(profs, (0.0, 0.123, 0.9993, 1.777, 2.0))


def _grid(prof):
    """The pose grid (steps + 1, 3) of one sampled profile: its start
    composed with its table's path."""
    return _compose(_starts([prof.pose0]), _path_grid(prof).T)[:, 0].T


def _stepwise_grid(prof):
    """The pose grid integrated one ``rk4_step`` at a time, with the pose
    rate built from the Hermite twist."""
    def rate(t, q):
        v, w = _hermite(prof.times, prof.twists, prof.rates, [t])[0][0]
        return np.array([v * math.cos(q[2]), v * math.sin(q[2]), w])

    steps = math.ceil(prof.span / prof.grid_dt)
    q = np.array(prof.pose0)
    grid = [q]
    for k in range(steps):
        tk = k * prof.grid_dt
        q = rk4_step(rate, tk, q, min(prof.grid_dt, prof.span - tk))
        grid.append(q)
    return np.array(grid)


@pytest.mark.parametrize("span,grid_dt", [(0.1, 5e-4), (5.0, 5e-4),
                                          (1.0, 3e-4)])
def test_sampled_grid_matches_stepwise_rk4(span, grid_dt):
    # 1.0 / 3e-4 is not whole: the last step is shortened to end at span;
    # 5 s at 5e-4 is built in three chunks of steps
    prof = _sine_profile(span=span, grid_dt=grid_dt)
    want = _stepwise_grid(prof)
    grid = _grid(prof)
    assert grid.shape == want.shape
    # The path runs rk4_step's operations in rk4_step's order from the
    # origin, and the composition rotates and moves it to the start. Both
    # integrations round each step's running sums, and the cosines of the
    # stage headings, by a few ulps of the sums (the stepwise one at the
    # start's scale, the path at its own), and the composition adds a few
    # more; these accumulate at most linearly over the steps.
    tol = len(want) * 4 * EPS * (1 + np.abs(want))
    assert np.all(np.abs(grid - want) <= tol)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS,
                    reason="long double is no wider than double here")
def test_composed_grid_is_within_a_few_roundings_of_its_start():
    # twelve starts on one slow table (|v|, |w| <= 0.12 for 0.1 s), held
    # to a stepwise RK4 in long double from each start itself, driven by
    # the same double-precision Hermite stage twists at the same times
    ts = np.linspace(0.0, 0.1, 5)
    tw = np.stack([0.1 + 0.02 * np.sin(3 * ts), 0.1 * np.cos(2 * ts)],
                  axis=1)
    rt = np.stack([0.06 * np.cos(3 * ts), -0.2 * np.sin(2 * ts)], axis=1)
    prof = fs.SampledTwist(pose0=(0.0, 0.0, 0.0), times=ts, twists=tw,
                           rates=rt)
    rng = np.random.default_rng(12)
    starts = np.column_stack([rng.uniform(-4, 4, 12), rng.uniform(-4, 4, 12),
                              rng.uniform(-np.pi, np.pi, 12)])
    starts[:2] = [(4.0, -4.0, np.pi), (-4.0, 4.0, -3.0)]
    got = _compose(_starts(starts), _path_grid(prof).T)   # (3, 12, steps + 1)
    ld = np.longdouble
    q = starts.T.astype(ld)
    want = [q]
    for k in range(len(got[0, 0]) - 1):
        tk = k * prof.grid_dt
        h = min(prof.grid_dt, prof.span - tk)
        (v1, w1), (v2, w2), (v4, w4) = _hermite(
            prof.times, prof.twists, prof.rates,
            [tk, tk + 0.5 * h, tk + h])[0].astype(ld)
        h = ld(h)
        th = [q[2], q[2] + h / 2 * w1, q[2] + h / 2 * w2, q[2] + h * w2]
        weights = [v1, 2 * v2, 2 * v2, v4]
        q = q + h / 6 * np.array([
            sum(c * np.cos(a) for c, a in zip(weights, th)),
            sum(c * np.sin(a) for c, a in zip(weights, th)),
            np.full_like(q[2], w1 + 2 * w2 + 2 * w2 + w4)])
        want.append(q)
    err = np.abs(got - np.array(want).transpose(1, 2, 0)).astype(float)
    # With u = EPS / 2, the path's points stay within 0.011 of the origin
    # over its N = 200 steps. Against the reference a composed component
    # carries: one rounding of its sum with the start component, under
    # u (|start| + 0.011); the path's own error, each step rounding its
    # running sums (at most 0.011) once and adding its increment's few
    # roundings of the step, under (N + 10) u 0.011 = 2.3 u; the start's
    # cosine and sine (an ulp each), the rotation's two products and
    # their difference, under 5 u (|X| + |Y|) = 0.1 u; and the
    # reference's own N roundings in long double (unit 2**-64 or less)
    # of at most 4.02, under 0.4 u. That is under u |start| + 3 u, inside
    # 2 EPS (1 + |start|). A grid summed from each start instead rounds
    # every step at the start's scale, about sqrt(N) u |start| in all,
    # which this bound does not hold.
    bound = 2 * EPS * (1 + np.abs(starts.T))[..., None]
    assert np.all(err <= bound)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS,
                    reason="long double is no wider than double here")
def test_poses_between_grid_points_are_within_a_few_roundings_of_a_start():
    # forty starts on the composed-grid test's table, evaluated by a
    # ProfileSet at 300 times between grid points; held to a stepwise RK4
    # in long double from each start itself to the grid point at or
    # before each time, plus the short step from it to the time, driven
    # by the same double-precision Hermite stage twists at the same times
    ts = np.linspace(0.0, 0.1, 5)
    tw = np.stack([0.1 + 0.02 * np.sin(3 * ts), 0.1 * np.cos(2 * ts)],
                  axis=1)
    rt = np.stack([0.06 * np.cos(3 * ts), -0.2 * np.sin(2 * ts)], axis=1)
    prof = fs.SampledTwist(pose0=(0.0, 0.0, 0.0), times=ts, twists=tw,
                           rates=rt)
    rng = np.random.default_rng(40)
    starts = np.column_stack([rng.uniform(-4, 4, 40), rng.uniform(-4, 4, 40),
                              rng.uniform(-np.pi, np.pi, 40)])
    times = rng.uniform(0.0, prof.span, 300)
    got = fs.ProfileSet([prof.started_at(q) for q in starts]).evaluate(
        times)[0].transpose(0, 2, 1)                    # (300, 3, 40)
    ld = np.longdouble

    def step(q, tk, h):
        # one RK4 step in long double from the poses q (m, 3, 40) at the
        # times tk (m,) over h (m,)
        stages = _hermite(prof.times, prof.twists, prof.rates,
                          np.concatenate([tk, tk + 0.5 * h, tk + h]))[0]
        (v1, w1), (v2, w2), (v4, w4) = \
            stages.reshape(3, -1, 2, 1).transpose(0, 2, 1, 3).astype(ld)
        h = h.astype(ld)[:, None]
        th = [q[:, 2], q[:, 2] + h / 2 * w1, q[:, 2] + h / 2 * w2,
              q[:, 2] + h * w2]
        weights = [v1, 2 * v2, 2 * v2, v4]
        return q + (h / 6)[:, None] * np.stack([
            sum(c * np.cos(a) for c, a in zip(weights, th)),
            sum(c * np.sin(a) for c, a in zip(weights, th)),
            np.broadcast_to(w1 + 2 * w2 + 2 * w2 + w4, th[0].shape)], axis=1)

    steps = math.ceil(prof.span / prof.grid_dt)
    grid = [starts.T.astype(ld)[None]]
    for k in range(steps):
        tk = np.array([k * prof.grid_dt])
        grid.append(step(grid[-1], tk, np.minimum(prof.grid_dt,
                                                  prof.span - tk)))
    grid = np.concatenate(grid)
    k = np.minimum((times / prof.grid_dt).astype(np.intp), steps - 1)
    tk = k * prof.grid_dt
    err = np.abs(got - step(grid[k], tk, times - tk)).astype(float)
    # With u = EPS / 2, against the reference a component carries what a
    # composed grid point does (see the composed-grid test: the path
    # point's error under 2.3 u, the composition's rotation under 0.1 u
    # and its one sum with the start under u (|start| + 0.011), the
    # reference's roundings under 0.4 u), and the short step's: it is
    # added to the path point before the composition, so it rounds once
    # at the path's scale, under 0.011 u, and its increment (at most
    # 5e-4 * 0.12 long, from a path heading off by under 2.3 u) adds
    # under 0.001 u. That is under u (|start| + 3).
    bound = EPS / 2 * (np.abs(starts.T) + 3)
    assert np.all(err <= bound)


def _table(seed, span=1.0):
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, span, 11)
    a, b, f = rng.uniform(0.2, 0.5), rng.uniform(0.2, 1.0), \
        rng.uniform(1.0, 4.0)
    tw = np.stack([1.0 + a * np.sin(f * ts), b * np.cos(f * ts)], axis=1)
    rt = np.stack([a * f * np.cos(f * ts), -b * f * np.sin(f * ts)], axis=1)
    return ts, tw, rt


# Two tables shared by any number of sampled robots, and two whose Hermite
# speed dips below SPEED_FLOOR, for t in about (0.06, 0.38) and in about
# (0.63, 0.93), although every knot speed clears it: those two are
# refused when they are built.
TABLES = [_table(0), _table(1),
          (np.array([0.0, 1.0]), np.array([[1.5e-6, 0.1], [1.5e-6, 0.1]]),
           np.array([[-1e-5, 0.0], [-1e-5, 0.0]])),
          (np.array([0.0, 1.0]), np.array([[1.5e-6, 0.1], [1.5e-6, 0.1]]),
           np.array([[1e-5, 0.0], [1e-5, 0.0]]))]


@st.composite
def profile_mixes(draw):
    """Arcs, lines (omega = 0) and sampled profiles in any order."""
    profs = []
    for kind in draw(st.lists(st.sampled_from(["arc", "line", "sampled"]),
                              min_size=1, max_size=8)):
        pose0 = (draw(st.floats(-5, 5)), draw(st.floats(-5, 5)),
                 draw(st.floats(-4, 4)))
        if kind == "sampled":
            j = draw(st.sampled_from(range(len(TABLES))))
            ts, tw, rt = TABLES[j]
            make = partial(fs.SampledTwist, pose0=pose0, times=ts, twists=tw,
                           rates=rt,
                           grid_dt=draw(st.sampled_from([5e-4, 1e-3])))
            if j < 2:
                profs.append(make())
            else:
                with pytest.raises(fs.SingularSpeed):
                    make()
            continue
        v = draw(st.floats(0.2, 3.0)) * draw(st.sampled_from([-1, 1]))
        w = 0.0
        if kind == "arc":
            w = draw(st.floats(0.05, 2.0)) * draw(st.sampled_from([-1, 1]))
        profs.append(fs.ConstantTwist(pose0=pose0, v=v, omega=w))
    return profs


eval_times = st.one_of(
    st.integers(0, 2000).map(lambda k: k * 5e-4),    # on either grid
    st.floats(0.0, 1.0),                             # off grid
    st.floats(0.1, 0.3),                 # where the refused tables dip
    st.floats(0.7, 0.9),
    st.floats(1.0, 3.0),                             # past the tables
    st.floats(-1.0, -1e-9))                          # rejected


def _scalar_twist(p, t):
    """Cubic Hermite twist and rate of a sampled profile at t, in scalar
    arithmetic from the textbook basis, and its rounding scale."""
    ts = p.times
    if t <= ts[0] or t >= ts[-1]:
        end = 0 if t <= ts[0] else -1
        return p.twists[end], np.zeros(2), np.abs(p.twists[end]), 1.0
    k = bisect.bisect_right(ts, t) - 1
    h = ts[k + 1] - ts[k]
    u = (t - ts[k]) / h
    tw0, tw1 = p.twists[k], p.twists[k + 1]
    rt0, rt1 = h * p.rates[k], h * p.rates[k + 1]
    val = ((2 * u**3 - 3 * u**2 + 1) * tw0 + (u**3 - 2 * u**2 + u) * rt0
           + (-2 * u**3 + 3 * u**2) * tw1 + (u**3 - u**2) * rt1)
    der = ((6 * u**2 - 6 * u) * tw0 + (3 * u**2 - 4 * u + 1) * rt0
           + (6 * u - 6 * u**2) * tw1 + (3 * u**2 - 2 * u) * rt1) / h
    scale = np.abs(tw0) + np.abs(tw1) + np.abs(rt0) + np.abs(rt1)
    return val, der, scale, h


def _scalar_chord(pose0, v, omega, t):
    """The pose reached from ``pose0`` along the constant twist
    (v, omega) after t, in the chord form of ``ConstantTwist`` in
    math.sin and math.cos."""
    x0, y0, th0 = pose0
    h = 0.5 * (omega * t)
    chord = v * t * (math.sin(h) / h if h else 1.0)
    return np.array([x0 + chord * math.cos(th0 + h),
                     y0 + chord * math.sin(th0 + h), th0 + omega * t])


def _scalar_state(p, t):
    """Desired pose, twist and rate of one profile at t >= 0: the chord
    form for a constant twist; for a sampled profile one ``rk4_step`` of
    the pose rate from the stored grid point at or before t (clamped to
    the span), with the twist from ``_scalar_twist``, and past the span
    the chord of the held end twist from the pose at the span."""
    if isinstance(p, fs.ConstantTwist):
        return (_scalar_chord(p.pose0, p.v, p.omega, t),
                np.array([p.v, p.omega]), np.zeros(2))

    def rate(s, q):
        v, w = _scalar_twist(p, s)[0]
        return np.array([v * math.cos(q[2]), v * math.sin(q[2]), w])

    tc = min(t, p.span)
    grid = _grid(p)
    k = min(int(tc / p.grid_dt), len(grid) - 2)
    pose = rk4_step(rate, k * p.grid_dt, grid[k], tc - k * p.grid_dt)
    if t > p.span:
        pose = _scalar_chord(pose, *p.twists[-1], t - p.span)
    return (pose, *_scalar_twist(p, t)[:2])


@settings(max_examples=80, deadline=None)
@given(profile_mixes(), eval_times)
@example([], -1.0)   # a draw made only of refused tables
def test_profile_set_matches_each_profile(profs, t):
    profile_set = fs.ProfileSet(profs)
    if t < 0:
        with pytest.raises(ValueError) as got:
            fs.desired_arrays(profile_set, t)
        assert got.type is ValueError
        raised = set()
        for p in profs:
            try:
                fs.desired_arrays([p], t)
            except ValueError as exc:
                raised.add(type(exc))
        # with no profile left there is none to raise singly
        assert raised == ({ValueError} if profs else set())
        return
    qd, etad, etadd = fs.desired_arrays(profile_set, t)
    for i, p in enumerate(profs):
        pose, twist, accel = _scalar_state(p, t)
        # For a constant twist ProfileSet runs the oracle's operations in
        # the oracle's order, so the two agree bit for bit where array
        # sines and cosines round like math.sin/math.cos. Where they
        # differ by an ulp on some host:
        # a constant twist's heading involves no trig at all, and its
        # x - x0 = chord * cos(direction) (likewise y) moves by an ulp of
        # itself through the chord's sin(h) and through the cosine, a
        # displacement of at most |x| + 5 here, so about 4 EPS (1 + |x|);
        # unlike the arc's (v/omega)(sin th - sin th0), nothing scales the
        # difference by the radius. A sampled pose adds its short step to
        # the same composed grid point as the oracle's, rounding once at
        # the pose's scale; the step is formed along the path and rotated
        # by the start heading, so it differs from the oracle's by a few
        # ulps of itself (h times the speed), and the stage twists move it
        # by h times their own few-ulp difference, well inside this bound.
        # Past the span the chord of the held twist, at most |v| (t - span)
        # long, is formed along the path and rotated by the start heading,
        # and the oracle's in the plane: a few ulps of its length more.
        chord = 0.0
        if isinstance(p, fs.SampledTwist) and t > p.span:
            chord = abs(p.twists[-1][0]) * (t - p.span)
        tol = 4 * EPS * (1 + np.abs(pose) + chord)
        assert np.all(np.abs(qd[i] - pose) <= tol)
        if isinstance(p, fs.ConstantTwist):
            assert np.array_equal(etad[i], twist)
            assert np.array_equal(etadd[i], accel)
        else:
            # the Hermite weights are formed in another order: a few ulps
            # of the sum of the four terms' magnitudes, over h for the rate
            _, _, scale, h = _scalar_twist(p, t)
            assert np.all(np.abs(etad[i] - twist) <= 8 * EPS * scale)
            assert np.all(np.abs(etadd[i] - accel) <= 8 * EPS * scale / h)


@settings(max_examples=80, deadline=None)
@given(profile_mixes(), st.lists(eval_times, min_size=1, max_size=12))
def test_profile_set_times_match_each_time(profs, times):
    # every time goes through the same elementwise operations whether it
    # is evaluated alone or stacked with others, so rows are bit-identical
    profile_set = fs.ProfileSet(profs)
    each = []
    for t in times:
        try:
            each.append(fs.desired_arrays(profile_set, t))
        except ValueError as exc:
            each.append(exc)
    errors = [r for r in each if isinstance(r, Exception)]
    if errors:
        with pytest.raises(ValueError) as got:
            fs.desired_arrays(profile_set, np.array(times))
        assert type(got.value) is type(errors[0])
        assert str(got.value) == str(errors[0])
        return
    qd, etad, etadd = fs.desired_arrays(profile_set, np.array(times))
    n = len(profs)
    assert (qd.shape, etad.shape, etadd.shape) == \
        ((len(times), n, 3), (len(times), n, 2), (len(times), n, 2))
    for j, (pose, twist, accel) in enumerate(each):
        assert np.array_equal(qd[j], pose)
        assert np.array_equal(etad[j], twist)
        assert np.array_equal(etadd[j], accel)


def test_dipping_tables_are_refused_at_construction():
    # every knot speed clears the floor; the error names where the
    # Hermite speed is least, at the extremum inside the segment
    for (ts, tw, rt), at in zip(TABLES[2:], ("0.211325", "0.788675")):
        with pytest.raises(fs.SingularSpeed,
                           match=f"^sampled speed 5.3775e-07 at t={at} "):
            fs.SampledTwist(pose0=(0.0, 0.0, 0.0), times=ts, twists=tw,
                            rates=rt)


def test_profile_set_rejects_stacked_times():
    profile_set = fs.ProfileSet([_sine_profile(span=1.0)])
    with pytest.raises(ValueError):
        profile_set.evaluate(np.zeros((2, 2)))


@pytest.mark.parametrize("grid_dt", [5e-4, 3e-4])
def test_profile_set_is_exact_at_grid_points(grid_dt):
    # at a time k grid_dt whose stored point is k (not every k at 3e-4,
    # where k grid_dt / grid_dt may round below k), the short step is no
    # step and adds zeros: each pose is its start composed with path
    # point k, bit for bit
    ts, tw, rt = TABLES[0]
    prof = fs.SampledTwist(pose0=(0.0, 0.0, 0.0), times=ts, twists=tw,
                           rates=rt, grid_dt=grid_dt)
    starts = np.random.default_rng(7).uniform(-5.0, 5.0, (6, 3))
    path = _path_grid(prof)
    k = np.arange(len(path) - 1)
    t = k * grid_dt
    own = (t / grid_dt).astype(np.intp) == k
    assert own.mean() > 0.9
    got = fs.ProfileSet([prof.started_at(q) for q in starts]).evaluate(
        t[own])[0]
    want = _compose(_starts(starts), path[k[own]].T)
    assert np.array_equal(got, want.transpose(2, 1, 0))


def test_profile_set_evaluates_shared_tables_once(monkeypatch):
    ts, tw, rt = TABLES[0]
    profs = [fs.SampledTwist(pose0=(float(i), 0.0, 0.1 * i), times=ts,
                             twists=tw, rates=rt) for i in range(4)]
    profs.insert(2, fs.SampledTwist(pose0=(0.0, 0.0, 0.0), times=ts,
                                    twists=tw, rates=rt, grid_dt=1e-3))
    profs.append(fs.ConstantTwist(pose0=(0.0, 0.0, 0.0), v=1.0, omega=0.5))
    profile_set = fs.ProfileSet(profs)
    calls = []
    hermite = formsim.trajectory._hermite
    monkeypatch.setattr(formsim.trajectory, "_hermite",
                        lambda *args: calls.append(args) or hermite(*args))
    fs.desired_arrays(profile_set, 0.123)
    assert len(calls) == 2      # one per distinct (table, grid_dt)
    calls.clear()
    fs.desired_arrays(profile_set, np.linspace(0.0, 0.9, 7))
    assert len(calls) == 2      # at every time at once
    # each time's short step's three stage times, the last the time itself
    assert all(len(args[-1]) == 3 * 7 for args in calls)


@pytest.mark.parametrize("robots,chunk", [(5, 4096), (7, 30), (3, 1)])
def test_shared_table_grids_match_lone_builds(monkeypatch, robots, chunk):
    # robots on one table compose their starts with one path built in
    # passes of _GRID_CHUNK steps; each robot's column is, bit for bit,
    # the grid its profile builds alone from a path of 4096-step passes
    rng = np.random.default_rng(robots)
    base = _sine_profile(span=1.0, grid_dt=3e-4)
    profs = [replace(base, pose0=tuple(rng.normal(size=3) * 3))
             for _ in range(robots)]
    want = [_grid(p) for p in profs]
    monkeypatch.setattr(formsim.trajectory, "_GRID_CHUNK", chunk)
    grids = _compose(_starts([p.pose0 for p in profs]), _path_grid(base).T)
    assert grids.shape == (3, robots, len(want[0]))
    for j, grid in enumerate(want):
        assert np.array_equal(grids[:, j].T, grid)


def test_shared_table_grid_evaluates_hermite_once(monkeypatch):
    # the path's work does not grow with the robots sharing it: 1 and 50
    # robots both evaluate the Hermite twist once per pass of _GRID_CHUNK
    # steps, at the same stage times
    one = _sine_profile(span=5.0)
    rng = np.random.default_rng(50)
    many = [replace(one, pose0=tuple(rng.normal(size=3) * 3))
            for _ in range(50)]
    hermite = formsim.trajectory._hermite
    steps = math.ceil(one.span / one.grid_dt)
    lengths = []
    for profs in ([one], many):
        calls = []
        monkeypatch.setattr(formsim.trajectory, "_hermite",
                            lambda *args: calls.append(args) or hermite(*args))
        fs.ProfileSet(profs)
        assert len(calls) == math.ceil(
            steps / formsim.trajectory._GRID_CHUNK) == 3
        lengths.append([len(args[-1]) for args in calls])
    assert lengths[0] == lengths[1]


def test_profile_set_rejects_unknown_profile():
    with pytest.raises(TypeError):
        fs.ProfileSet([fs.ConstantTwist(pose0=(0, 0, 0), v=1.0, omega=0.0),
                       object()])

import bisect
import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formsim as fs
import formsim.trajectory
from formsim.engine import rk4_step
from formsim.trajectory import _hermite, _pose_grids

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


def test_sampled_twist_guards_singular_speed():
    ts = np.linspace(0.0, 1.0, 5)
    tw = np.stack([np.full(5, 1e-9), np.ones(5)], axis=1)
    rt = np.zeros((5, 2))
    with pytest.raises(fs.SingularSpeed):
        fs.SampledTwist(pose0=(0, 0, 0), times=ts, twists=tw, rates=rt)


def test_sampled_twist_table_validation():
    ts = np.array([0.0, 1.0, 0.5])
    tw = np.ones((3, 2))
    with pytest.raises(ValueError):
        fs.SampledTwist(pose0=(0, 0, 0), times=ts, twists=tw,
                        rates=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        fs.SampledTwist(pose0=(0, 0, 0), times=np.array([0.5, 1.0]),
                        twists=np.ones((2, 2)), rates=np.zeros((2, 2)))
    for grid_dt in (np.nan, np.inf, 0.0, -1e-3):
        with pytest.raises(ValueError, match="grid_dt"):
            fs.SampledTwist(pose0=(0, 0, 0), times=np.array([0.0, 1.0]),
                            twists=np.ones((2, 2)), rates=np.zeros((2, 2)),
                            grid_dt=grid_dt)


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
    grid = _pose_grids(prof, [prof.pose0])[:, :, 0]
    assert grid.shape == want.shape
    # The closed-stage form runs rk4_step's operations in rk4_step's order,
    # so it is exact where np.cos/np.sin round like math.cos/math.sin. A
    # host whose array and scalar cosines differ by an ulp perturbs each
    # step by a few ulps of the running sums, which accumulate at most
    # linearly over the steps.
    tol = len(want) * 4 * EPS * (1 + np.abs(want))
    assert np.all(np.abs(grid - want) <= tol)


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
# (0.63, 0.93), although every knot speed clears it.
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
            ts, tw, rt = TABLES[draw(st.sampled_from(range(len(TABLES))))]
            profs.append(fs.SampledTwist(
                pose0=pose0, times=ts, twists=tw, rates=rt,
                grid_dt=draw(st.sampled_from([5e-4, 1e-3]))))
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
    st.floats(0.1, 0.3),                             # in the speed dips
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


def _scalar_state(p, t):
    """Desired pose, twist and rate of one profile at t >= 0: the chord
    form in math.sin and math.cos for a constant twist (see
    ``ConstantTwist``); for a sampled profile one
    ``rk4_step`` of the pose rate from the stored grid point at or before t
    (clamped to the span), with the twist from ``_scalar_twist``."""
    if isinstance(p, fs.ConstantTwist):
        x0, y0, th0 = p.pose0
        h = 0.5 * (p.omega * t)
        chord = p.v * t * (math.sin(h) / h if h else 1.0)
        pose = [x0 + chord * math.cos(th0 + h),
                y0 + chord * math.sin(th0 + h), th0 + p.omega * t]
        return np.array(pose), np.array([p.v, p.omega]), np.zeros(2)

    def rate(s, q):
        v, w = _scalar_twist(p, s)[0]
        return np.array([v * math.cos(q[2]), v * math.sin(q[2]), w])

    tc = min(t, p.span)
    grid = _pose_grids(p, [p.pose0])[:, :, 0]
    k = min(int(tc / p.grid_dt), len(grid) - 2)
    pose = rk4_step(rate, k * p.grid_dt, grid[k], tc - k * p.grid_dt)
    return (pose, *_scalar_twist(p, t)[:2])


@settings(max_examples=80, deadline=None)
@given(profile_mixes(), eval_times)
def test_profile_set_matches_each_profile(profs, t):
    profile_set = fs.ProfileSet(profs)
    if t < 0:
        expected = ValueError
    elif any(abs(_hermite(p.times, p.twists, p.rates, [t])[0][0, 0])
             < fs.trajectory.SPEED_FLOOR
             for p in profs if isinstance(p, fs.SampledTwist)):
        expected = fs.SingularSpeed
    else:
        expected = None
    if expected is not None:
        with pytest.raises(ValueError) as got:
            fs.desired_arrays(profile_set, t)
        assert got.type is expected
        raised = set()
        for p in profs:
            try:
                fs.desired_arrays([p], t)
            except ValueError as exc:
                raised.add(type(exc))
        assert raised == {expected}
        return
    qd, etad, etadd = fs.desired_arrays(profile_set, t)
    for i, p in enumerate(profs):
        pose, twist, accel = _scalar_state(p, t)
        # ProfileSet runs the oracle's operations in the oracle's order,
        # so the two agree bit for bit where array sines and cosines round
        # like math.sin/math.cos. Where they differ by an ulp on some host:
        # a constant twist's heading involves no trig at all, and its
        # x - x0 = chord * cos(direction) (likewise y) moves by an ulp of
        # itself through the chord's sin(h) and through the cosine, a
        # displacement of at most |x| + 5 here, so about 4 EPS (1 + |x|);
        # unlike the arc's (v/omega)(sin th - sin th0), nothing scales the
        # difference by the radius. The short step's stage twists move a
        # sampled pose by h times their own few-ulp difference, well inside
        # this bound.
        tol = 4 * EPS * (1 + np.abs(pose))
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
    errors = [r for t, r in zip(times, each) if t < 0] \
        or [r for r in each if isinstance(r, Exception)]
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


def test_profile_set_names_first_singular_time():
    # the later-dipping table comes first in robot order, so its group is
    # evaluated first, but the earlier time in the array decides
    profs = [fs.SampledTwist(pose0=(0.0, 0.0, 0.0), times=ts, twists=tw,
                             rates=rt) for ts, tw, rt in TABLES[3:1:-1]]
    profile_set = fs.ProfileSet(profs)
    with pytest.raises(fs.SingularSpeed, match=r"at t=0\.8$"):
        profile_set.evaluate(np.array([0.5, 0.8, 0.2]))


def test_profile_set_rejects_stacked_times():
    profile_set = fs.ProfileSet([_sine_profile(span=1.0)])
    with pytest.raises(ValueError):
        profile_set.evaluate(np.zeros((2, 2)))


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
    assert all(len(args[-1]) == 4 * 7 for args in calls)


@pytest.mark.parametrize("robots,chunk", [(5, 4096), (7, 30), (3, 1)])
def test_shared_table_grids_match_lone_builds(monkeypatch, robots, chunk):
    # robots on one table integrate their grids in one pass of
    # _GRID_CHUNK // robots steps (at least one); each column is, bit for
    # bit, the grid its profile builds alone in passes of 4096 steps
    rng = np.random.default_rng(robots)
    base = _sine_profile(span=1.0, grid_dt=3e-4)
    profs = [replace(base, pose0=tuple(rng.normal(size=3) * 3))
             for _ in range(robots)]
    want = [_pose_grids(p, [p.pose0])[:, :, 0] for p in profs]
    monkeypatch.setattr(formsim.trajectory, "_GRID_CHUNK", chunk)
    (_, _, grids), = fs.ProfileSet(profs)._groups
    assert grids.shape == (len(want[0]), 3, robots)
    for j, grid in enumerate(want):
        assert np.array_equal(grids[:, :, j], grid)


def test_shared_table_grid_evaluates_hermite_once(monkeypatch):
    ts, tw, rt = TABLES[0]
    profs = [fs.SampledTwist(pose0=(float(i), 0.0, 0.1 * i), times=ts,
                             twists=tw, rates=rt) for i in range(6)]
    calls = []
    hermite = formsim.trajectory._hermite
    monkeypatch.setattr(formsim.trajectory, "_hermite",
                        lambda *args: calls.append(args) or hermite(*args))
    fs.ProfileSet(profs)
    # one call per pass of _GRID_CHUNK // 6 steps for the whole group
    steps = math.ceil(profs[0].span / profs[0].grid_dt)
    assert len(calls) == math.ceil(
        steps / (formsim.trajectory._GRID_CHUNK // len(profs)))


def test_profile_set_rejects_unknown_profile():
    with pytest.raises(TypeError):
        fs.ProfileSet([fs.ConstantTwist(pose0=(0, 0, 0), v=1.0, omega=0.0),
                       object()])

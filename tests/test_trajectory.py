import numpy as np
import pytest

import formsim as fs
from formsim.engine import rk4_step


def test_arc_closed_form_quarter_circle():
    prof = fs.ConstantTwist(pose0=(5.0, 10.0, np.pi / 2), v=5.0, omega=1.0)
    d = fs.desired_state(prof, np.pi)
    assert np.allclose(d.pose, [-5.0, 10.0, 3 * np.pi / 2], atol=1e-12)
    assert np.array_equal(d.twist, [5.0, 1.0])
    assert np.array_equal(d.accel, [0.0, 0.0])


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
    assert np.abs(q - fs.desired_state(prof, np.pi).pose).max() < 1e-10


def test_straight_line():
    prof = fs.ConstantTwist(pose0=(0.0, 0.0, 0.0), v=3.0, omega=0.0)
    d = fs.desired_state(prof, 2.0)
    assert np.allclose(d.pose, [6.0, 0.0, 0.0], atol=1e-15)


def test_profile_initial_condition_preserved():
    prof = fs.ConstantTwist(pose0=(4.0, 1.0, np.pi / 2), v=4.0, omega=1.0)
    assert np.array_equal(fs.desired_state(prof, 0.0).pose,
                          [4.0, 1.0, np.pi / 2])


def test_constant_twist_rejects_singular_speed():
    with pytest.raises(fs.SingularSpeed):
        fs.ConstantTwist(pose0=(0.0, 0.0, 0.0), v=0.0, omega=1.0)
    with pytest.raises(fs.SingularSpeed):
        fs.ConstantTwist(pose0=(0.0, 0.0, 0.0), v=1e-9, omega=1.0)


def test_negative_time_rejected():
    prof = fs.ConstantTwist(pose0=(0.0, 0.0, 0.0), v=1.0, omega=0.5)
    with pytest.raises(ValueError):
        fs.desired_state(prof, -0.1)


def test_arc_stays_on_circle():
    v, w = 5.0, 1.0
    prof = fs.ConstantTwist(pose0=(5.0, 10.0, np.pi / 2), v=v, omega=w)
    cx = 5.0 - (v / w) * np.sin(np.pi / 2)
    cy = 10.0 + (v / w) * np.cos(np.pi / 2)
    for t in np.linspace(0, 20, 97):
        q = fs.desired_state(prof, t).pose
        assert abs(np.hypot(q[0] - cx, q[1] - cy) - v / w) < 1e-10


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
        tw, _ = prof.twist_at(t)
        assert np.allclose(tw, prof.twists[k], atol=1e-13)


def test_sampled_rate_is_twist_derivative():
    prof = _sine_profile()
    for t in (0.31, 1.07, 2.553, 3.9):
        h = 1e-6
        tw_p, _ = prof.twist_at(t + h)
        tw_m, _ = prof.twist_at(t - h)
        fd = (tw_p - tw_m) / (2 * h)
        _, rate = prof.twist_at(t)
        assert np.abs(fd - rate).max() < 1e-7


@pytest.mark.parametrize("make", [
    lambda: fs.ConstantTwist(pose0=(2.0, 3.0, 0.7), v=2.5, omega=0.8),
    _sine_profile,
])
def test_pose_rate_consistency_second_order(make):
    # central difference of the desired pose vs steering(heading) @ twist
    prof = make()

    def gap(t, h):
        qp = fs.desired_state(prof, t + h).pose
        qm = fs.desired_state(prof, t - h).pose
        d = fs.desired_state(prof, t)
        want = fs.unicycle_rate(d.pose[2], d.twist)
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


def test_sampled_pose_matches_constant_twist():
    # constant table must reproduce the closed-form arc
    ts = np.linspace(0.0, 3.0, 7)
    tw = np.tile([2.0, 0.5], (7, 1))
    rt = np.zeros((7, 2))
    samp = fs.SampledTwist(pose0=(1.0, 1.0, 0.2), times=ts, twists=tw,
                           rates=rt, grid_dt=1e-3)
    arc = fs.ConstantTwist(pose0=(1.0, 1.0, 0.2), v=2.0, omega=0.5)
    for t in (0.0, 0.6137, 1.5, 2.9):
        assert np.abs(fs.desired_state(samp, t).pose
                      - fs.desired_state(arc, t).pose).max() < 1e-11


def test_omega_from_cartesian_circle():
    # x = 5 cos t, y = 5 sin t at t = 0.9
    t = 0.9
    xd, yd = -5 * np.sin(t), 5 * np.cos(t)
    xdd, ydd = -5 * np.cos(t), -5 * np.sin(t)
    assert abs(fs.omega_from_cartesian(xd, xdd, yd, ydd, 5.0) - 1.0) < 1e-14


def test_omega_from_cartesian_line_and_guard():
    assert fs.omega_from_cartesian(2.0, 0.0, 0.0, 0.0, 2.0) == 0.0
    with pytest.raises(fs.SingularSpeed):
        fs.omega_from_cartesian(1.0, 0.0, 0.0, 0.0, 1e-9)


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
            d = fs.desired_state(prof, t)
            assert np.array_equal(qd[i], d.pose)
            assert np.array_equal(etad[i], d.twist)
            assert np.array_equal(etadd[i], d.accel)


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

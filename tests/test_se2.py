import numpy as np
import pytest

import formsim as fs


def test_rotation_identity_at_zero():
    assert np.array_equal(fs.rotation_matrix(0.0), np.eye(3))


def test_rotation_quarter_turn():
    R = fs.rotation_matrix(np.pi / 2)
    assert np.allclose(R[:, 0], [0.0, 1.0, 0.0], atol=1e-15)


def test_rotation_orthogonal_random(rng):
    for th in rng.uniform(-50, 50, 200):
        R = fs.rotation_matrix(th)
        assert np.abs(R.T @ R - np.eye(3)).max() < 1e-14
        assert abs(np.linalg.det(R) - 1.0) < 1e-13
        assert np.abs(R.T - fs.rotation_matrix(-th)).max() < 1e-13


def test_steering_at_zero():
    assert np.array_equal(fs.steering_matrix(0.0),
                          [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])


def test_steering_columns_orthonormal(rng):
    for th in rng.uniform(-20, 20, 100):
        S = fs.steering_matrix(th)
        assert np.abs(S.T @ S - np.eye(2)).max() < 1e-15


def test_rotation_transpose_times_steering_is_select(rng):
    for th in rng.uniform(-30, 30, 100):
        prod = fs.rotation_matrix(th).T @ fs.steering_matrix(th)
        assert np.abs(prod - fs.SELECT).max() < 1e-15


def test_steering_pair_product(rng):
    for _ in range(100):
        ti, tj = rng.uniform(-20, 20, 2)
        prod = fs.steering_matrix(ti).T @ fs.steering_matrix(tj)
        want = np.diag([np.cos(ti - tj), 1.0])
        assert np.abs(prod - want).max() < 1e-13


def test_body_frame_error_identity():
    assert np.allclose(fs.body_frame_error(0.0, [1.0, 2.0, 3.0]),
                       [1.0, 2.0, 3.0])


def test_body_frame_error_quarter_turn():
    s = fs.body_frame_error(np.pi / 2, [1.0, 0.0, 0.0])
    assert np.allclose(s, [0.0, -1.0, 0.0], atol=1e-15)


def test_body_frame_error_is_isometry(rng):
    for _ in range(200):
        th = rng.uniform(-40, 40)
        e = rng.normal(size=3) * rng.uniform(0.1, 100)
        s = fs.body_frame_error(th, e)
        assert abs(np.linalg.norm(s) - np.linalg.norm(e)) < 1e-13 * (
            1 + np.linalg.norm(e))


@pytest.mark.parametrize("theta,twist,want", [
    (0.0, (1.0, 0.0), (1.0, 0.0, 0.0)),
    (np.pi / 2, (2.0, 3.0), (0.0, 2.0, 3.0)),
    (1.3, (0.0, 0.0), (0.0, 0.0, 0.0)),
])
def test_unicycle_rate(theta, twist, want):
    assert np.allclose(fs.unicycle_rate(theta, twist), want, atol=1e-15)


def test_rotation_transpose_rate_matches_skew(rng):
    # d/dt R(w t)^T should equal w * SKEW @ R^T, checked by central
    # differences with second-order shrinkage.
    w = 1.7
    t = 0.83

    def err(h):
        Rp = fs.rotation_matrix(w * (t + h)).T
        Rm = fs.rotation_matrix(w * (t - h)).T
        fd = (Rp - Rm) / (2 * h)
        return np.abs(fd - w * fs.SKEW @ fs.rotation_matrix(w * t).T).max()

    e1, e2 = err(1e-3), err(5e-4)
    assert e1 < 1e-6
    assert 3.0 < e1 / e2 < 5.0


def test_skew_quadratic_form_vanishes(rng):
    for _ in range(100):
        s = rng.normal(size=3) * 10
        w = rng.normal()
        val = s @ ((w * fs.SKEW) @ s)
        assert abs(val) <= 1e-15 * (1 + abs(w * s[0] * s[1]))

import numpy as np
import pytest

import formsim as fs


def test_regression_reconstructs_dynamics():
    Y = fs.regression_matrix([1.0, 2.0], (3.0, 4.0))
    phi = np.array([2.0, 3.0, 1.0, 0.0, 0.0, 1.0])
    assert np.array_equal(Y @ phi, [5.0, 10.0])
    params = fs.RobotParams(mass=2.0, inertia=3.0,
                            damping=[[1.0, 0.0], [0.0, 1.0]])
    want = np.diag([params.mass, params.inertia]) @ [1.0, 2.0] \
        + params.damping @ [3.0, 4.0]
    assert np.array_equal(Y @ phi, want)


def test_regression_zero_inputs():
    assert np.array_equal(fs.regression_matrix([0.0, 0.0], (0.0, 0.0)),
                          np.zeros((2, 6)))


def test_regression_random_reconstruction(rng):
    for _ in range(200):
        mu = rng.normal(size=2)
        eta = rng.normal(size=2)
        phi = rng.normal(size=6)
        phi[:2] = np.abs(phi[:2]) + 0.1
        M = np.diag(phi[:2])
        D = phi[2:].reshape(2, 2)
        got = fs.regression_matrix(mu, eta) @ phi
        want = M @ mu + D @ eta
        assert np.abs(got - want).max() < 1e-13 * (1 + np.abs(want).max())


def test_block_regression_matches_per_robot(rng):
    mus = rng.normal(size=(3, 2))
    twists = rng.normal(size=(3, 2))
    Y = fs.block_regression(mus, twists)
    for i in range(3):
        assert np.array_equal(Y[i], fs.regression_matrix(mus[i], twists[i]))


def test_params_vector_round_trip():
    p = fs.RobotParams(mass=3.6, inertia=0.0405,
                       damping=np.array([[0.3, 0.0], [0.0, 0.004]]))
    assert np.array_equal(fs.params_to_vector(p),
                          [3.6, 0.0405, 0.3, 0.0, 0.0, 0.004])


def test_params_validation():
    with pytest.raises(ValueError):
        fs.RobotParams(mass=0.0, inertia=1.0, damping=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        fs.RobotParams(mass=1.0, inertia=1.0, damping=np.zeros((2, 3)))


def test_control_pure_feedforward_when_errors_zero(rng):
    n = 2
    Y = fs.block_regression(rng.normal(size=(n, 2)), rng.normal(size=(n, 2)))
    phihat = rng.normal(size=6 * n)
    A = rng.normal(size=(3 * n, 2 * n))
    u = fs.adaptive_control(np.zeros(2 * n), np.zeros(3 * n), A, Y, phihat,
                            np.full(2 * n, 3.0))
    want = np.concatenate([Y[i] @ phihat[6 * i:6 * i + 6] for i in range(n)])
    assert np.array_equal(u, want)


def test_control_exact_inverse_dynamics_on_manifold(rng):
    # with true parameters and zero errors the torque is the model torque
    n = 3
    params = [fs.RobotParams(mass=3.6, inertia=0.0405,
                             damping=np.array([[0.3, 0.0], [0.0, 0.004]]))
              for _ in range(n)]
    phi = np.concatenate([fs.params_to_vector(p) for p in params])
    twists = rng.normal(size=(n, 2))
    mu = rng.normal(size=(n, 2))  # commanded twist rate
    Y = fs.block_regression(mu, twists)
    u = fs.adaptive_control(np.zeros(2 * n), np.zeros(3 * n),
                            np.zeros((3 * n, 2 * n)), Y, phi,
                            np.ones(2 * n))
    for i in range(n):
        want = np.diag([3.6, 0.0405]) @ mu[i] \
            + params[i].damping @ twists[i]
        assert np.abs(u[2 * i:2 * i + 2] - want).max() < 1e-13


def test_control_gain_scaling_linearity(rng):
    n = 2
    sigma = rng.normal(size=2 * n)
    z = rng.normal(size=3 * n)
    A = rng.normal(size=(3 * n, 2 * n))
    Y = fs.block_regression(rng.normal(size=(n, 2)), rng.normal(size=(n, 2)))
    phihat = rng.normal(size=6 * n)
    gain = np.full(2 * n, 3.0)
    u1 = fs.adaptive_control(sigma, z, A, Y, phihat, gain)
    u2 = fs.adaptive_control(sigma, z, A, Y, phihat, 2 * gain)
    assert np.abs((u2 - u1) - (-gain * sigma)).max() < 1e-12


def test_adaptation_freezes_at_zero_twist_error(rng):
    Y = fs.block_regression(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))
    rate = fs.adaptation_rate(Y, np.zeros(6), np.ones(18))
    assert np.array_equal(rate, np.zeros(18))


def test_adaptation_single_entry():
    Y = np.zeros((1, 2, 6))
    Y[0, 0, 0] = 1.0
    rate = fs.adaptation_rate(Y, np.array([1.0, 0.0]), np.ones(6))
    assert np.array_equal(rate, [-1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_estimate_energy_rate_identity(rng):
    # d/dt of the gain-weighted estimate-error energy equals minus the
    # twist error against the regressed estimate error
    for _ in range(50):
        n = 3
        Y = fs.block_regression(rng.normal(size=(n, 2)),
                                rng.normal(size=(n, 2)))
        sigma = rng.normal(size=2 * n)
        gamma = rng.uniform(0.2, 5.0, 6 * n)
        phitilde = rng.normal(size=6 * n)
        phidot = fs.adaptation_rate(Y, sigma, gamma)
        lhs = phitilde @ (phidot / gamma)
        rhs = -sum(sigma[2 * i:2 * i + 2] @ Y[i]
                   @ phitilde[6 * i:6 * i + 6] for i in range(n))
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))


def test_cancellation_identity(rng):
    for _ in range(200):
        n = int(rng.integers(1, 6))
        Y = fs.block_regression(rng.normal(size=(n, 2)),
                                rng.normal(size=(n, 2)))
        sigma = rng.normal(size=2 * n)
        gamma = rng.uniform(0.1, 10.0, 6 * n)
        phitilde = rng.normal(size=6 * n)
        a = sum(sigma[2 * i:2 * i + 2] @ Y[i] @ phitilde[6 * i:6 * i + 6]
                for i in range(n))
        b = phitilde @ (fs.adaptation_rate(Y, sigma, gamma) / gamma)
        assert abs(a + b) <= 1e-12 * (1 + abs(a))


def test_diagnostics_zero_state():
    V, Vdot = fs.lyapunov_diagnostics(np.zeros(15), np.zeros(10),
                                      np.zeros(30), np.ones(10),
                                      np.ones(30), np.ones(15),
                                      np.ones(10), np.zeros(15))
    assert V == 0.0 and Vdot == 0.0


def test_diagnostics_positive_at_pentagon_start(adaptive_engine):
    rec = adaptive_engine.diagnostics(0.0, adaptive_engine.initial_state())
    assert rec.Va > 0.0
    assert rec.V > 0.0

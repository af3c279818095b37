import numpy as np

import formsim as fs
from conftest import chain_tree, stage_terms
from formsim.controller import (_error_vector, feedforward_rate,
                                feedforward_term, fictitious_velocity)


def _random_profiles(rng, n, v=4.0, w=1.0):
    return [fs.ConstantTwist(pose0=tuple(rng.uniform(-3, 3, 3)), v=v,
                             omega=w) for _ in range(n)]


def _rand_state(rng, tree, t=1.7):
    profs = _random_profiles(rng, tree.n)
    qd, etad, etadd = fs.desired_arrays(profs, t)
    poses = qd + rng.normal(size=(tree.n, 3))
    twists = rng.normal(size=(tree.n, 2))
    return poses, twists, qd, etad, etadd


# ---- error state ----

def test_error_state_zero_on_trajectory(rng, chain5):
    qd = rng.normal(size=(5, 3))
    st, d = stage_terms(chain5, qd[:, 2], qd, np.zeros((5, 2)))
    z = _error_vector(st, qd, d.qd)
    assert np.array_equal(z, np.zeros(15))
    assert np.linalg.norm(z) == 0.0


def test_error_state_two_robot_shift():
    tree = chain_tree(2)
    qd = np.array([[1.0, 2.0, 0.5], [3.0, 4.0, 0.5]])
    poses = qd.copy()
    poses[1] -= [1.0, 0.0, 0.0]
    st, d = stage_terms(tree, poses[:, 2], qd, np.zeros((2, 2)))
    z = _error_vector(st, poses, d.qd)
    assert np.allclose(z[:3], 0.0)
    assert np.allclose(z[3:6], [-1.0, 0.0, 0.0])


def test_coordination_error_equals_tracking_difference(rng, chain5):
    # relative-position form vs difference of tracking errors
    poses, _, qd, etad, _ = _rand_state(rng, chain5)
    st, d = stage_terms(chain5, poses[:, 2], qd, etad)
    z = _error_vector(st, poses, d.qd)
    e = qd - poses
    for k, (i, j) in enumerate(chain5.edges):
        rel = (qd[i - 1] - qd[j - 1]) - (poses[i - 1] - poses[j - 1])
        edge = z[3 * (k + 1):3 * (k + 2)]
        assert np.abs(edge - (e[i - 1] - e[j - 1])).max() < 1e-13
        assert np.abs(edge - rel).max() < 1e-13


def test_leader_error_in_body_frame(rng, chain5):
    poses, _, qd, etad, _ = _rand_state(rng, chain5)
    st, d = stage_terms(chain5, poses[:, 2], qd, etad)
    z = _error_vector(st, poses, d.qd)
    want = fs.body_frame_error(poses[0, 2], qd[0] - poses[0])
    assert np.abs(z[:3] - want).max() < 1e-14


# ---- coupling matrix ----

def test_coupling_single_robot():
    tree = fs.validate_spanning_tree(1, [])
    assert np.array_equal(fs.coupling_matrix(tree, [0.7]), -fs.SELECT)


def test_coupling_block_structure(rng):
    tree = chain_tree(3)
    th = rng.uniform(-5, 5, 3)
    A = fs.coupling_matrix(tree, th)
    assert A.shape == (9, 6)
    assert np.array_equal(A[:3, :2], -fs.SELECT)
    assert np.array_equal(A[3:6, :2], -fs.steering_matrix(th[0]))
    assert np.array_equal(A[3:6, 2:4], fs.steering_matrix(th[1]))
    assert np.array_equal(A[6:9, 2:4], -fs.steering_matrix(th[1]))
    assert np.array_equal(A[6:9, 4:6], fs.steering_matrix(th[2]))


def test_coupling_gram_matches_chain_assembly(rng):
    tree = chain_tree(3)
    th = rng.uniform(-5, 5, 3)
    A = fs.coupling_matrix(tree, th)
    # the closed form of the linalg docstring: diagonal 2, but 1 for the
    # last robot; -cos of each edge's heading difference between its v
    # slots and -1 between its w slots
    want = np.diag([2.0, 2.0, 2.0, 2.0, 1.0, 1.0])
    for k in range(2):
        want[2 * k, 2 * k + 2] = want[2 * k + 2, 2 * k] = \
            -np.cos(th[k] - th[k + 1])
        want[2 * k + 1, 2 * k + 3] = want[2 * k + 3, 2 * k + 1] = -1.0
    assert np.abs(A.T @ A - want).max() < 1e-13


def test_coupling_full_rank_at_pentagon_start():
    cfg = fs.get_preset("kinematic-pentagon")
    th = np.array([spec.start[2] for spec in cfg.robots])
    det, _ = fs.chain_gram_determinant(th)
    assert det > 0


def test_coupling_rate_matches_finite_difference(rng):
    tree = chain_tree(4)
    th = rng.uniform(-3, 3, 4)
    om = rng.normal(size=4)
    h = 1e-6
    fd = (fs.coupling_matrix(tree, th + h * om)
          - fs.coupling_matrix(tree, th - h * om)) / (2 * h)
    got = fs.coupling_rate(tree, th, om)
    assert np.abs(fd - got).max() < 1e-9


# ---- feedforward ----

def test_feedforward_zero_for_zero_desired_twist(chain5):
    qd = np.zeros((5, 3))
    ff = feedforward_term(*stage_terms(chain5, [0.3, 0, 0, 0, 0], qd,
                                       np.zeros((5, 2))))
    assert np.array_equal(ff, np.zeros(15))


def test_feedforward_single_robot_aligned():
    tree = fs.validate_spanning_tree(1, [])
    ff = feedforward_term(*stage_terms(tree, [0.9], [[0.0, 0.0, 0.9]],
                                       [[4.0, 1.0]]))
    assert np.allclose(ff, [4.0, 0.0, 1.0], atol=1e-15)


def test_feedforward_edge_cancels_for_identical_trajectories():
    tree = chain_tree(2)
    ff = feedforward_term(*stage_terms(tree, [0.2, 0.0],
                                       [[0.0, 0.0, 1.1]] * 2,
                                       [[3.0, 0.5]] * 2))
    assert np.array_equal(ff[3:], np.zeros(3))


def test_feedforward_rate_matches_finite_difference(rng, chain5):
    profs = _random_profiles(rng, 5)
    t = 2.2
    th1 = 0.37
    om1 = -1.4
    h = 1e-6

    def ff_at(tau, th):
        qd, etad, _ = fs.desired_arrays(profs, tau)
        return feedforward_term(*stage_terms(chain5, [th, 0, 0, 0, 0], qd,
                                             etad))

    qd, etad, etadd = fs.desired_arrays(profs, t)
    st, d = stage_terms(chain5, [th1, 0, 0, 0, 0], qd, etad, etadd)
    got = feedforward_rate(st, om1, feedforward_term(st, d), d)
    fd = (ff_at(t + h, th1 + h * om1) - ff_at(t - h, th1 - h * om1)) / (2 * h)
    assert np.abs(got - fd).max() < 1e-8


# ---- kinematic control ----

def test_control_single_robot_hand_case():
    tree = fs.validate_spanning_tree(1, [])
    ff = np.zeros(3)
    eta = fs.kinematic_control(tree, [0.0], [1.0, 0.0, 0.0], ff,
                               [2.0, 2.0, 10.0])
    assert np.allclose(eta, [2.0, 0.0], atol=1e-13)


def test_control_exact_tracking_returns_desired(rng, chain5):
    profs = _random_profiles(rng, 5)
    qd, etad, _ = fs.desired_arrays(profs, 3.1)
    st, d = stage_terms(chain5, qd[:, 2], qd, etad)
    z = _error_vector(st, qd, d.qd)
    A = fs.coupling_matrix(chain5, qd[:, 2])
    ff = feedforward_term(st, d)
    gain = np.ones(15)
    eta = fs.kinematic_control(chain5, qd[:, 2], z, ff, gain)
    assert np.abs(eta - etad.reshape(-1)).max() < 1e-12
    assert np.linalg.norm(A @ eta + gain * z + ff) < 1e-12


def test_control_normal_equations(rng, chain5):
    gain = np.tile([2.0, 2.0, 10.0], 5)
    for _ in range(50):
        poses, _, qd, etad, _ = _rand_state(rng, chain5)
        st, d = stage_terms(chain5, poses[:, 2], qd, etad)
        z = _error_vector(st, poses, d.qd)
        A = fs.coupling_matrix(chain5, poses[:, 2])
        ff = feedforward_term(st, d)
        eta = fs.kinematic_control(chain5, poses[:, 2], z, ff, gain)
        b = -(gain * z) - ff
        assert np.abs(A.T @ (A @ eta - b)).max() \
            <= 1e-10 * (1 + np.linalg.norm(A) * np.linalg.norm(b))


def test_control_cost_optimality(rng, chain5):
    gain = np.ones(15)
    poses, _, qd, etad, _ = _rand_state(rng, chain5)
    st, d = stage_terms(chain5, poses[:, 2], qd, etad)
    z = _error_vector(st, poses, d.qd)
    A = fs.coupling_matrix(chain5, poses[:, 2])
    ff = feedforward_term(st, d)
    eta = fs.kinematic_control(chain5, poses[:, 2], z, ff, gain)
    b = -(gain * z) - ff
    J_star = np.sum((A @ eta - b) ** 2)
    for _ in range(100):
        delta = rng.normal(size=10) * rng.uniform(1e-5, 1.0)
        assert np.sum((A @ (eta + delta) - b) ** 2) >= J_star


# ---- fictitious velocity and its rate ----

def test_rate_zero_at_rest_with_zero_desired_twist(rng):
    # frozen world: robots at rest, zero desired twists, arbitrary error
    tree = chain_tree(3)
    poses = rng.normal(size=(3, 3))
    qd = rng.normal(size=(3, 3))
    st, d = stage_terms(tree, poses[:, 2], qd, np.zeros((3, 2)),
                        np.zeros((3, 2)))
    fv = fictitious_velocity(tree, st, np.zeros((3, 2)),
                             _error_vector(st, poses, d.qd),
                             feedforward_term(st, d), d, np.ones(9))
    assert np.abs(fv.rate).max() < 1e-12


def test_rate_zero_on_exact_tracking_circle(rng, chain5):
    profs = _random_profiles(rng, 5)
    for t in (0.0, 1.3, 4.8):
        qd, etad, etadd = fs.desired_arrays(profs, t)
        st, d = stage_terms(chain5, qd[:, 2], qd, etad, etadd)
        fv = fictitious_velocity(chain5, st, etad,
                                 _error_vector(st, qd, d.qd),
                                 feedforward_term(st, d), d, np.ones(15))
        assert np.abs(fv.twist - etad.reshape(-1)).max() < 1e-10
        assert np.abs(fv.rate).max() < 1e-8


def test_twist_matches_kinematic_control(rng, chain5):
    gain = np.tile([1.0, 2.0, 3.0], 5)
    poses, twists, qd, etad, etadd = _rand_state(rng, chain5)
    st, d = stage_terms(chain5, poses[:, 2], qd, etad, etadd)
    z = _error_vector(st, poses, d.qd)
    ff = feedforward_term(st, d)
    fv = fictitious_velocity(chain5, st, twists, z, ff, d, gain)
    assert np.abs(fv.twist - fs.kinematic_control(
        chain5, poses[:, 2], z, ff, gain)).max() < 1e-11


def test_stacked_error_rate_identity(rng, chain5, adaptive_engine):
    # finite-difference rate of the stacked error along the closed loop
    # equals coupling @ twists + feedforward plus the leader skew term
    eng = adaptive_engine
    y = eng.initial_state()
    *_, (y, _) = eng.integrate(y, [0], 700)
    t = 0.7
    rec = eng.diagnostics(t, y)
    n = eng.n
    twists = y[3 * n:5 * n]
    zdot = fs.coupling_matrix(eng.tree, rec.poses[:, 2]) @ twists \
        + rec.feedforward
    om1 = twists[1]
    zdot[0] += om1 * rec.z[1]
    zdot[1] -= om1 * rec.z[0]
    h = 1e-6
    zp = eng.diagnostics(t + h, fs.rk4_step(eng.rate, t, y, h)).z
    zm = eng.diagnostics(t - h, fs.rk4_step(eng.rate, t, y, -h)).z
    fd = (zp - zm) / (2 * h)
    assert np.abs(fd - zdot).max() < 1e-7

"""Acceptance suite: one test per shipping criterion.

Each test prints one line (run pytest with -s to see them inline). The
two pentagon scenarios are simulated once per session and shared.
"""

import numpy as np
import pytest

import formsim as fs
from conftest import chain_tree


def _report(num, slug):
    print(f"acceptance {num:02d} {slug}: PASS")


def _capture_states(engine, t_final, every_steps):
    """Advance a run capturing (t, y) at regular step marks."""
    dt = engine.config.dt
    total = int(round(t_final / dt))
    states = [(0.0, engine.initial_state())]
    y = states[0][1]
    for mark in range(every_steps, total + 1, every_steps):
        y = engine.advance(y, (mark - every_steps) * dt, every_steps)
        states.append((mark * dt, y))
    return states


@pytest.fixture(scope="module")
def dynamic_run():
    """Full torque-level pentagon run."""
    eng = fs.Engine(fs.get_preset("adaptive-pentagon"))
    return {"engine": eng, "trace": eng.run()}


@pytest.fixture(scope="module")
def kinematic_run():
    eng = fs.Engine(fs.get_preset("kinematic-pentagon"))
    return {"engine": eng, "trace": eng.run()}


@pytest.fixture(scope="module")
def dynamic_states(adaptive_engine):
    """States of the torque-level run sampled at 10 Hz over [0, 10] s."""
    return _capture_states(adaptive_engine, 10.0, 100)


def _error_matrices(trace, n=5):
    err = np.stack([trace.column(f"norm_e{i}") for i in range(1, n + 1)],
                   axis=1)
    eps_cols = [c for c in trace.columns if c.startswith("norm_eps_")]
    eps = np.stack([trace.column(c) for c in eps_cols], axis=1)
    return err, eps


def test_01_dynamic_pentagon_reproduction(dynamic_run):
    trace = dynamic_run["trace"]
    tt = trace.times
    err, eps = _error_matrices(trace)
    late = tt >= 20.0
    assert err[late].max() < 0.02 * err[0].max()
    assert eps[late].max() < 0.02 * eps[0].max()
    _report(1, "dynamic-pentagon-reproduction")


def test_02_kinematic_pentagon_reproduction(kinematic_run):
    trace = kinematic_run["trace"]
    tt = trace.times
    err, eps = _error_matrices(trace)
    mid = tt >= 10.0
    assert err[mid].max() < 0.05 * err[0].max()
    assert eps[mid].max() < 0.05 * eps[0].max()
    late = tt >= 20.0
    for i in range(1, 6):
        assert np.abs(trace.column(f"v{i}")[late] - 5.0).max() <= 0.05
        assert np.abs(trace.column(f"w{i}")[late] - 1.0).max() <= 0.01
    tail = tt >= 25.0
    assert err[tail].max() < 1e-4
    assert eps[tail].max() < 1e-4
    _report(2, "kinematic-pentagon-reproduction")


def test_03_determinant_equivalence(rng):
    for n in range(2, 9):
        tree = chain_tree(n)
        for _ in range(500):
            th = rng.uniform(-12.0, 12.0, n)
            d_rec, _ = fs.chain_gram_determinant(th)
            d_gen = fs.pentadiagonal_determinant(
                fs.chain_gram_pentadiagonal(th))
            A = fs.coupling_matrix(tree, th)
            d_lu = np.linalg.det(A.T @ A)
            assert d_rec > 0.0
            assert abs(d_rec - d_gen) <= 1e-9 * abs(d_rec)
            assert abs(d_rec - d_lu) <= 1e-9 * max(abs(d_rec), abs(d_lu))
    _report(3, "determinant-equivalence")


def test_04_pivot_bounds(rng):
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        m = 2 * n
        _, x = fs.chain_gram_determinant(rng.uniform(-30.0, 30.0, n))
        assert x[m - 1] == 2.0 / m  # assigned in closed form
        for i in range(1, m - 2, 2):  # 1-based odd up to m-3
            assert (i + 3) / (i + 1) - 1e-12 <= x[i - 1] <= 2.0 + 1e-12
        assert 2.0 / m - 1e-12 <= x[m - 2] <= 1.0 + 1e-12
    _report(4, "pivot-bounds")


def test_05_twist_rate_validation(adaptive_engine, dynamic_states):
    eng = adaptive_engine

    def fd_gap(t, y, h):
        fp = eng.diagnostics(t + h, eng.step(t, y, h)).etaf
        fm = eng.diagnostics(t - h, eng.step(t, y, -h)).etaf
        fd = (fp - fm) / (2 * h)
        return np.linalg.norm(eng.diagnostics(t, y).etafdot - fd), \
            np.linalg.norm(fd)

    probe_times = (0.2, 0.5, 1.0, 2.0, 5.0)
    lookup = {round(t, 6): y for t, y in dynamic_states}
    for t in probe_times:
        y = lookup[round(t, 6)]
        gap, scale = fd_gap(t, y, 1e-5)
        assert gap <= 1e-4 * scale
        # second-order shrinkage, measured where truncation dominates
        # the rounding floor of the difference quotient
        g1, _ = fd_gap(t, y, 1e-3)
        g2, _ = fd_gap(t, y, 5e-4)
        assert 3.2 < g1 / g2 < 4.8
    _report(5, "twist-rate-validation")


def test_06_energy_rate_identity(adaptive_engine, dynamic_states, rng):
    eng = adaptive_engine
    gz = np.asarray(eng.config.formation_gain)
    gs = np.asarray(eng.config.twist_gain)
    h = 1e-5
    for t, y in dynamic_states:
        if t - h < 0:
            continue
        rec = eng.diagnostics(t, y)
        pred = -(rec.z @ (gz * rec.z)) - (rec.sigma @ (gs * rec.sigma)) \
            + rec.z @ rec.residual
        vp = eng.diagnostics(t + h, eng.step(t, y, h)).Va
        vm = eng.diagnostics(t - h, eng.step(t, y, -h)).Va
        fd = (vp - vm) / (2 * h)
        assert abs(fd - pred) <= 1e-6 * abs(pred), f"t={t}"

    # gradient-update cancellation at random states
    for _ in range(10_000):
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
    _report(6, "energy-rate-identity")


def test_07_least_squares_contract(adaptive_engine, kinematic_run,
                                   dynamic_states, rng):
    def contract(rec, gain):
        A = rec.coupling
        b = -(gain * rec.z) - rec.feedforward
        defect = np.abs(A.T @ (A @ rec.etaf - b)).max()
        assert defect <= 1e-10 * (1 + np.linalg.norm(A) * np.linalg.norm(b))

    gz_dyn = np.asarray(adaptive_engine.config.formation_gain)
    for t, y in dynamic_states:
        contract(adaptive_engine.diagnostics(t, y), gz_dyn)

    kin = kinematic_run["engine"]
    gz_kin = np.asarray(kin.config.formation_gain)
    for t, y in _capture_states(kin, 10.0, 200):
        contract(kin.diagnostics(t, y), gz_kin)

    # cost optimality against random perturbations at random states
    tree = chain_tree(5)
    gain = np.tile([2.0, 2.0, 10.0], 5)
    for _ in range(100):
        poses = rng.normal(size=(5, 3)) * 3
        qd = poses + rng.normal(size=(5, 3))
        etad = rng.normal(size=(5, 2)) + [[4.0, 1.0]] * 5
        z = fs.error_state(tree, poses, qd).vector
        A = fs.coupling_matrix(tree, poses[:, 2])
        ff = fs.feedforward_term(tree, poses[0, 2], qd[:, 2], etad)
        eta = fs.kinematic_control(tree, poses[:, 2], z, ff, gain)
        b = -(gain * z) - ff
        J_star = np.sum((A @ eta - b) ** 2)
        for _ in range(100):
            delta = rng.normal(size=10) * rng.uniform(1e-5, 1.0)
            assert np.sum((A @ (eta + delta) - b) ** 2) >= J_star
    _report(7, "least-squares-contract")


def test_08_invariant_manifold():
    # kinematic: start exactly on the desired trajectories
    kin = fs.get_preset("kinematic-pentagon")
    doc = fs.scenario_to_dict(kin)
    for rd in doc["robots"]:
        rd["start"] = list(rd["trajectory"]["start"])
    trace = fs.simulate(fs.scenario_from_dict(doc))
    err, eps = _error_matrices(trace)
    assert err.max() < 1e-6
    assert eps.max() < 1e-6

    # dynamic: on-trajectory poses and twists, true parameters known
    dyn = fs.get_preset("adaptive-pentagon")
    doc = fs.scenario_to_dict(dyn)
    for rd in doc["robots"]:
        rd["start"] = list(rd["trajectory"]["start"])
        rd["start_twist"] = list(rd["trajectory"]["twist"])
        rd["estimate0"] = [rd["params"]["mass"], rd["params"]["inertia"],
                           rd["params"]["damping"][0][0],
                           rd["params"]["damping"][0][1],
                           rd["params"]["damping"][1][0],
                           rd["params"]["damping"][1][1]]
    trace = fs.simulate(fs.scenario_from_dict(doc))
    err, eps = _error_matrices(trace)
    assert err.max() < 1e-4
    assert eps.max() < 1e-4
    _report(8, "invariant-manifold")


def test_09_boundedness_and_settled_estimates(dynamic_run):
    trace = dynamic_run["trace"]
    assert np.isfinite(trace.data).all()
    tt = trace.times

    sup_twist = max(np.abs(trace.column(f"{c}{i}")).max()
                    for c in ("v", "w") for i in range(1, 6))
    sup_torque = max(np.abs(trace.column(f"{c}{i}")).max()
                     for c in ("F", "tau") for i in range(1, 6))
    est_cols = [f"phihat{i}_{k}" for i in range(1, 6) for k in range(1, 7)]
    sup_est = max(np.abs(trace.column(c)).max() for c in est_cols)
    assert np.isfinite([sup_twist, sup_torque, sup_est]).all()

    final_window = tt >= 40.0
    for c in est_cols:
        series = trace.column(c)[final_window]
        final = series[-1]
        assert np.abs(series - final).max() <= 0.01 * max(1.0, abs(final)), c
    _report(9, "boundedness-and-settled-estimates")

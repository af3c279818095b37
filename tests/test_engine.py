import functools
import threading
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

import formsim as fs
import formsim.engine as engine_module
from formsim.controller import _Desired, _desired_terms
from formsim.engine import _block_steps, rk4_step


# ---- integrator ----

def test_rk4_constant_derivative_exact():
    y = rk4_step(lambda t, y: np.array([3.0]), 0.0, np.array([1.0]), 0.25)
    assert y[0] == 1.0 + 3.0 * 0.25


def test_rk4_exponential_accuracy():
    # frozen from the oracle: ((1 + h + h^2/2 + h^3/6 + h^4/24)^10 - e)
    # evaluates to 2.0843e-6 at h = 0.1
    y = np.array([1.0])
    for k in range(10):
        y = rk4_step(lambda t, v: v, k * 0.1, y, 0.1)
    assert abs(y[0] - np.e) < 2.5e-6
    assert abs(y[0] - np.e) > 1e-6  # genuinely fourth order, not exact


def test_rk4_fourth_order_on_circle():
    prof = fs.ConstantTwist(pose0=(0.0, 0.0, 0.0), v=2.0, omega=1.0)

    def f(t, q):
        return fs.unicycle_rate(q[2], (2.0, 1.0))

    def err(h):
        q = np.array([0.0, 0.0, 0.0])
        steps = int(round(1.6 / h))
        for k in range(steps):
            q = rk4_step(f, k * h, q, h)
        return np.abs(q - fs.desired_arrays([prof], 1.6)[0][0]).max()

    e1, e2 = err(0.02), err(0.01)
    assert 12.0 < e1 / e2 < 20.0


def test_energy_decay_without_drive():
    # unforced twist dynamics with positive damping lose kinetic energy
    M = np.array([3.6, 0.0405])
    D = np.array([[0.3, 0.0], [0.0, 0.004]])

    def f(t, eta):
        return -(D @ eta) / M

    eta = np.array([2.0, 1.5])
    prev = 0.5 * eta @ (M * eta)
    for k in range(500):
        eta = rk4_step(f, 0.0, eta, 0.01)
        cur = 0.5 * eta @ (M * eta)
        assert cur <= prev + 1e-15
        prev = cur


# ---- engine state and rates ----

def _mini_dynamic(n=2, t_final=0.5, **overrides):
    cfg = fs.get_preset("adaptive-pentagon")
    doc = fs.scenario_to_dict(cfg)
    doc["robots"] = doc["robots"][:n]
    doc["edges"] = [[k, k + 1] for k in range(1, n)]
    doc["n"] = n
    doc["t_final"] = t_final
    doc["gains"] = {"formation": [1.0, 1.0, 1.0], "twist": [3.0, 3.0],
                    "adaptation": [1.0] * 6}
    doc.update(overrides)
    return fs.scenario_from_dict(doc)


def test_rest_state_stays_at_rest():
    # zero twists, zero estimates, on-trajectory poses, zero desired twist
    # rate: every state derivative component vanishes
    cfg = _mini_dynamic(n=2)
    eng = fs.Engine(cfg)
    y = eng.initial_state()
    n = cfg.n
    qd, _, _ = fs.desired_arrays(eng.profiles, 0.0)

    # hand-built runtime: overwrite poses to desired, keep rest twists
    y[:3 * n] = qd.reshape(-1)
    # zero desired twists cannot come from a profile (singular speed), so
    # evaluate the plant side directly: u = Y phihat = 0 at rest
    twists = np.zeros((n, 2))
    Y = fs.block_regression(np.zeros((n, 2)), twists)
    u = fs.adaptive_control(np.zeros(2 * n), np.zeros(3 * n),
                            np.zeros((3 * n, 2 * n)), Y, np.zeros(6 * n),
                            np.asarray(cfg.twist_gain))
    assert np.array_equal(u, np.zeros(2 * n))
    drag = np.einsum("nij,nj->ni", eng.damp, twists).reshape(-1)
    assert np.array_equal(eng.minv * (u - drag), np.zeros(2 * n))
    rate = fs.adaptation_rate(Y, np.zeros(2 * n), np.asarray(cfg.adapt_gain))
    assert np.array_equal(rate, np.zeros(6 * n))


def test_force_balance_holds_twist():
    # torque exactly canceling damping leaves the twist untouched
    D = np.array([[0.3, 0.05], [0.02, 0.004]])
    M = np.array([3.6, 0.0405])
    eta = np.array([1.2, -0.4])
    u = D @ eta
    assert np.abs((u - D @ eta) / M).max() == 0.0


def test_kinematic_rate_on_trajectory_matches_desired():
    cfg = fs.get_preset("kinematic-pentagon")
    eng = fs.Engine(cfg)
    qd, etad, _ = fs.desired_arrays(eng.profiles, 2.0)
    dy = eng.rate(2.0, qd.reshape(-1))
    want = np.concatenate([fs.unicycle_rate(qd[i, 2], etad[i])
                           for i in range(5)])
    assert np.abs(dy - want).max() < 1e-11


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("omega", [1e-6, 1e-9, 2e-12])
def test_near_straight_trajectory_keeps_robots_on_it(n, omega):
    # Robots started on their desired trajectories stay on them (the
    # invariant manifold) up to the integration's error. Over 10 s at
    # omega <= 1e-6 the path turns by at most 1e-5 rad, so RK4's
    # truncation is far below rounding; each step rounds a pose of size
    # |q| <= 13 by about an ulp (2e-15), and the unit gains forget an
    # error within about 1 s (100 steps), so the errors stay at a few
    # 1e-14. A desired pose off by more than 1e-13 shows here.
    start = [[0.5 * i, 2.0 - i, 0.3 + 0.1 * i] for i in range(n)]
    cfg = fs.scenario_from_dict({
        "mode": "kinematic", "dt": 0.01, "t_final": 10.0,
        "edges": [[k, k + 1] for k in range(1, n)],
        "gains": {"formation": [1.0, 1.0, 1.0]},
        "robots": [{"start": q, "trajectory": {"kind": "constant_twist",
                                               "start": q,
                                               "twist": [1.0, omega]}}
                   for q in start]})
    trace = fs.simulate(cfg)
    norms = [f"norm_e{i}" for i in range(1, n + 1)] + ["norm_z"]
    assert max(trace.column(c).max() for c in norms) < 1e-13


def test_unpack_round_trip():
    cfg = _mini_dynamic(n=3)
    eng = fs.Engine(cfg)
    y = eng.initial_state()
    # the state stacks poses (3n), twists (2n) and estimates (6n)
    assert y.shape == (3 * 3 + 2 * 3 + 6 * 3,)
    assert np.array_equal(y[:9].reshape(3, 3),
                          [spec.start for spec in cfg.robots])
    assert np.array_equal(y[9:15].reshape(3, 2),
                          [spec.start_twist for spec in cfg.robots])
    assert np.array_equal(y[15:].reshape(3, 6),
                          [spec.estimate0 for spec in cfg.robots])


# ---- simulate ----

def test_simulate_deterministic():
    cfg = replace(fs.get_preset("adaptive-pentagon"), t_final=0.2)
    t1 = fs.simulate(cfg)
    t2 = fs.simulate(cfg)
    assert np.array_equal(t1.data, t2.data)
    assert t1.columns == t2.columns


def test_trace_timestamps_strictly_increasing():
    cfg = replace(fs.get_preset("kinematic-pentagon"), t_final=0.5)
    trace = fs.simulate(cfg)
    assert np.all(np.diff(trace.times) > 0)
    assert trace.times[0] == 0.0
    assert abs(trace.times[-1] - 0.5) < 1e-12


def test_trace_final_partial_sample():
    cfg = replace(fs.get_preset("kinematic-pentagon"), t_final=0.105)
    trace = fs.simulate(cfg)
    assert abs(trace.times[-1] - 0.105) < 1e-12


def test_kinematic_error_norm_nonincreasing_after_transient():
    cfg = replace(fs.get_preset("kinematic-pentagon"), t_final=12.0,
                  sample_every=100)
    trace = fs.simulate(cfg)
    zn = trace.column("norm_z")
    mask = trace.times >= 1.0
    seg = zn[mask]
    assert np.all(np.diff(seg) <= 1e-12 * seg[:-1] + 1e-300)


def test_divergence_error_reports_time():
    cfg = replace(fs.get_preset("adaptive-pentagon"), dt=0.5, t_final=5.0)
    with pytest.raises(fs.DivergenceError):
        fs.simulate(cfg)


def test_energy_rate_identity_kinematic():
    cfg = fs.get_preset("kinematic-pentagon")
    eng = fs.Engine(cfg)
    gain = np.asarray(cfg.formation_gain)
    *_, (y, _) = eng.integrate(eng.initial_state(), [0], 200)
    h = 1e-5
    for t in (0.2, 0.7, 1.2):
        rec = eng.diagnostics(t, y)
        pred = -(rec.z @ (gain * rec.z)) + rec.z @ rec.residual
        assert abs(rec.Vdot - pred) <= 1e-12 * abs(pred)
        assert rec.Va == rec.V
        vp = eng.diagnostics(t + h, fs.rk4_step(eng.rate, t, y, h)).V
        vm = eng.diagnostics(t - h, fs.rk4_step(eng.rate, t, y, -h)).V
        fd = (vp - vm) / (2 * h)
        assert abs(fd - pred) < 1e-6 * abs(pred)
        *_, (y, _) = eng.integrate(y, [0], 500, t)


def test_leader_body_error_rate_identity(adaptive_engine):
    # finite-difference rate of the leader's body-frame error matches the
    # spin term plus rotated desired rate minus the selected twist
    eng = adaptive_engine
    *_, (y, _) = eng.integrate(eng.initial_state(), [0], 500)
    t = 0.5
    n = eng.n
    rec = eng.diagnostics(t, y)
    qd, etad, _ = fs.desired_arrays(eng.profiles, t)
    th1 = rec.poses[0, 2]
    eta1 = y[3 * n:3 * n + 2]
    s1 = rec.z[:3]
    want = eta1[1] * (fs.SKEW @ s1) \
        + fs.rotation_matrix(th1).T @ fs.unicycle_rate(qd[0, 2], etad[0]) \
        - fs.SELECT @ eta1
    h = 1e-6
    sp = eng.diagnostics(t + h, fs.rk4_step(eng.rate, t, y, h)).z[:3]
    sm = eng.diagnostics(t - h, fs.rk4_step(eng.rate, t, y, -h)).z[:3]
    assert np.abs((sp - sm) / (2 * h) - want).max() < 1e-7


def _star_doc(mode="kinematic"):
    doc = {
        "mode": mode, "edges": [[1, 2], [1, 3], [1, 4]], "dt": 1e-3,
        "t_final": 6.0, "sample_every": 100,
        "gains": {"formation": [2.0, 2.0, 10.0]},
        "robots": [],
    }
    starts = [[0.5, -0.3, 0.2], [2.0, 1.0, -0.4], [-1.0, 0.8, 0.9],
              [1.5, -1.2, 0.1]]
    desired = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
               [0.0, -1.0, 0.0]]
    for q0, qd0 in zip(starts, desired):
        doc["robots"].append(
            {"start": q0,
             "trajectory": {"kind": "constant_twist", "start": qd0,
                            "twist": [2.0, 0.7]}})
    return doc


def test_star_tree_formation_converges():
    # non-chain spanning trees run through the same control path, guarded
    # by the generic conditioning check; convergence is slower than for
    # the chain but still exponential
    doc = _star_doc()
    doc["t_final"] = 20.0
    cfg = fs.scenario_from_dict(doc)
    assert not cfg.tree.is_chain
    trace = fs.simulate(cfg)
    err = np.stack([trace.column(f"norm_e{i}") for i in range(1, 5)], axis=1)
    assert err[-1].max() < 0.01 * err[0].max()


def test_sampled_twist_scenario_runs():
    ts = np.linspace(0.0, 1.0, 11)
    tw = np.stack([3.0 + 0.5 * np.sin(2 * ts), 1.0 + 0.1 * ts], axis=1)
    rt = np.stack([1.0 * np.cos(2 * ts), np.full(11, 0.1)], axis=1)
    doc = {
        "mode": "kinematic", "edges": [[1, 2]], "dt": 1e-3, "t_final": 0.5,
        "sample_every": 50,
        "gains": {"formation": [1.0, 1.0, 1.0]},
        "robots": [
            {"start": [0.3, -0.2, 0.1],
             "trajectory": {"kind": "sampled_twist", "start": [0, 0, 0],
                            "times": ts.tolist(), "twists": tw.tolist(),
                            "rates": rt.tolist(), "grid_dt": 5e-4}},
            {"start": [1.4, 0.3, -0.2],
             "trajectory": {"kind": "sampled_twist", "start": [1, 0, 0],
                            "times": ts.tolist(), "twists": tw.tolist(),
                            "rates": rt.tolist(), "grid_dt": 5e-4}},
        ],
    }
    cfg = fs.scenario_from_dict(doc)
    trace = fs.simulate(cfg)
    assert np.isfinite(trace.data).all()
    assert trace.column("norm_z")[-1] < 0.5 * trace.column("norm_z")[0]


# ---- blocks of steps ----

def _stepwise(eng, y, t0, steps, k0=0):
    """The final state of ``Engine.integrate`` over ``steps`` steps from
    step index ``k0``, as a plain loop of ``rk4_step`` over
    ``Engine.rate``: step k starts at t0 + k*dt, and every stage evaluates
    the control law at its own time."""
    dt = eng.config.dt
    y = np.array(y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(k0, k0 + steps):
            t = t0 + k * dt
            x = rk4_step(eng.rate, t, y, dt)
            if not np.all(np.isfinite(x)):
                raise fs.DivergenceError(t + dt, k + 1, t, y, eng.n)
            y = x
    return y


def _sampled_doc():
    doc = {
        "mode": "kinematic", "edges": [[1, 2], [1, 3]], "dt": 1e-3,
        "t_final": 0.2, "gains": {"formation": [1.0, 1.0, 2.0]},
        "robots": [],
    }
    ts = np.linspace(0.0, 1.0, 11)
    table = {"times": ts.tolist(),
             "twists": np.stack([2.0 + 0.5 * np.sin(3 * ts),
                                 0.4 * np.cos(2 * ts)], axis=1).tolist(),
             "rates": np.stack([1.5 * np.cos(3 * ts),
                                -0.8 * np.sin(2 * ts)], axis=1).tolist()}
    for k, start in enumerate([[0.1, 0.2, 0.0], [1.2, -0.3, 0.1]]):
        doc["robots"].append(
            {"start": start,
             "trajectory": {"kind": "sampled_twist",
                            "start": [float(k), 0.0, 0.0], **table}})
    doc["robots"].append(
        {"start": [-0.8, 0.9, 0.3],
         "trajectory": {"kind": "constant_twist", "start": [-1.0, 1.0, 0.2],
                        "twist": [2.0, 0.3]}})
    return doc


def _dip_table(times, speeds, rates):
    """A sampled twist whose Hermite speed falls below the floor between
    knots whose speeds clear it."""
    return {"kind": "sampled_twist", "start": [0.0, 0.0, 0.0],
            "times": times, "twists": [[v, 0.1] for v in speeds],
            "rates": [[a, 0.0] for a in rates]}


def _large_doc(n=60):
    """A random tree of n robots."""
    rng = np.random.default_rng(3)
    doc = {"mode": "kinematic", "dt": 1e-2, "t_final": 0.5,
           "edges": [[int(rng.integers(1, k)), k] for k in range(2, n + 1)],
           "gains": {"formation": [1.0, 1.0, 2.0]}, "robots": []}
    for q in rng.uniform(-5.0, 5.0, size=(n, 3)):
        doc["robots"].append(
            {"start": (q + rng.normal(0.0, 0.3, 3)).tolist(),
             "trajectory": {"kind": "constant_twist", "start": q.tolist(),
                            "twist": [1.0, 0.2]}})
    return doc


CONFIGS = {
    "kinematic": lambda: replace(fs.get_preset("kinematic-pentagon"),
                                 t_final=0.2),
    "dynamic": lambda: replace(fs.get_preset("adaptive-pentagon"),
                               t_final=0.1),
    "sampled": lambda: fs.scenario_from_dict(_sampled_doc()),
    "large": lambda: fs.scenario_from_dict(_large_doc()),
}


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_advance_matches_stepwise_rk4(kind):
    eng = fs.Engine(CONFIGS[kind]())
    y0 = eng.initial_state()
    block = _block_steps(eng.n)
    for steps in (1, block, 2 * block + 5):
        *_, (y, _) = eng.integrate(y0, [0], steps, 0.05)
        assert np.array_equal(y, _stepwise(eng, y0, 0.05, steps))


def _reference_integrate(eng, y, marks, stop, t0=0.0):
    """``Engine.integrate`` as a plain loop: each mark before ``stop``
    evaluated on its own and yielded alone, with the state after the steps
    to the next mark by ``_stepwise``; last, the final state, with its own
    evaluation when ``stop`` is a mark. Step k starts at t0 + k*dt."""
    dt = eng.config.dt
    y = np.array(y, dtype=float)
    for mark, cur in zip(marks, [*marks[1:], stop]):
        if mark < stop:
            kept = [eng.rate(t0 + mark * dt, y, record=True)]
            y = _stepwise(eng, y, t0, cur - mark, mark)
            yield y, kept
    end = t0 + stop * dt
    yield y, [eng.rate(end, y, record=True)] if marks[-1] == stop else []


def _same_record(got, want):
    """Every EvalRecord field equal, bit for bit (None to None)."""
    for f in fields(fs.EvalRecord):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a is None) == (b is None), f.name
        if a is not None:
            assert type(a) is type(b), f.name
            assert np.array_equal(a, b), f.name


@pytest.mark.parametrize("marks,stop", [([0, 5, 21, 40], 40),
                                        ([0, 17, 34], 41), ([3], 3)])
@pytest.mark.parametrize("kind", ["dynamic", "sampled"])
def test_integrate_matches_reference_loop(kind, marks, stop):
    # a stop past the last mark yields the final state without a record
    eng = fs.Engine(CONFIGS[kind]())
    y0 = eng.initial_state()
    got = list(eng.integrate(y0, marks, stop, 0.05))
    want = list(_reference_integrate(eng, y0, marks, stop, 0.05))
    assert np.array_equal(got[-1][0], want[-1][0])
    kept = [mark for _, block in got for mark in block]
    kept_ref = [mark for _, block in want for mark in block]
    assert [mark.t for mark in kept] == [mark.t for mark in kept_ref]
    for mark, ref in zip(kept, kept_ref):
        assert np.array_equal(mark.y, ref.y)
        assert np.array_equal(mark.dy, ref.dy)
    for rec, ref in zip(eng.records(kept), kept_ref):
        _same_record(rec, eng.records([ref])[0])


def _record_row(eng, rec):
    """The trace row of one EvalRecord, assembled column block by column
    block as ``Engine.trace_columns`` names them."""
    parts = [[rec.t], rec.poses.reshape(-1), rec.eta]
    if eng.mode == "dynamic":
        parts += [rec.u, rec.phihat]
    parts += [np.linalg.norm(rec.error, axis=1),
              np.linalg.norm(rec.z[3:].reshape(-1, 3), axis=1),
              [np.linalg.norm(rec.z), rec.V, rec.Va,
               np.linalg.norm(rec.residual)]]
    return np.concatenate(parts)


def _reference_rows(eng):
    """``Engine.run``'s trace rows from a plain loop: every sample's row
    from its own ``diagnostics`` at its own time, the steps between
    samples by ``_stepwise``."""
    cfg = eng.config
    marks = [*range(0, cfg.steps, cfg.sample_every), cfg.steps]
    y = eng.initial_state()
    rows = [_record_row(eng, eng.diagnostics(0.0, y))]
    for prev, cur in zip(marks[:-1], marks[1:]):
        y = _stepwise(eng, y, 0.0, cur - prev, prev)
        rows.append(_record_row(eng, eng.diagnostics(cur * cfg.dt, y)))
    return np.vstack(rows)


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_long_sample_interval_matches_stepwise_trace(kind):
    # sample intervals of several blocks and a short last one
    base = CONFIGS[kind]()
    every = 3 * _block_steps(base.n) + 2
    cfg = replace(base, sample_every=every, t_final=(2 * every + 5) * base.dt)
    got = fs.Engine(cfg).run().data
    assert np.array_equal(got, _reference_rows(fs.Engine(cfg)))
    # one clock: the trace is the every-step run's, at every sample
    every_step = fs.Engine(replace(cfg, sample_every=1)).run().data
    assert np.array_equal(
        got, every_step[[*range(0, cfg.steps, every), cfg.steps]])


@pytest.mark.parametrize("every", [1, 3, 10, 16, 17, 40])
@pytest.mark.parametrize("kind", ["dynamic", "kinematic", "sampled"])
def test_run_matches_reference_loop(kind, every):
    # 41 steps: blocks straddle samples, and every sample_every above 1
    # leaves a short last interval
    base = CONFIGS[kind]()
    cfg = replace(base, t_final=41 * base.dt, sample_every=every)
    assert np.array_equal(fs.Engine(cfg).run().data,
                          _reference_rows(fs.Engine(cfg)))


@pytest.mark.parametrize("kind", ["dynamic", "kinematic", "sampled"])
def test_run_without_steps_is_one_row(kind):
    base = CONFIGS[kind]()
    cfg = replace(base, t_final=0.4 * base.dt)
    trace = fs.Engine(cfg).run()
    assert trace.times.tolist() == [0.0]
    assert np.array_equal(trace.data, _reference_rows(fs.Engine(cfg)))


@pytest.mark.parametrize("every", [1, 10])
@pytest.mark.parametrize("kind", ["dynamic", "sampled"])
def test_run_evaluates_once_per_stage_and_hoists_once_per_block(
        kind, every, monkeypatch):
    # a row reuses its step's first stage; only the final row evaluates
    # on its own, from the last block's hoist
    base = CONFIGS[kind]()
    block = _block_steps(base.n)
    steps = 2 * block + 9
    eng = fs.Engine(replace(base, t_final=steps * base.dt,
                            sample_every=every))
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(eng, "rate", counted("rate", eng.rate))
    monkeypatch.setattr(engine_module, "desired_arrays", counted(
        "desired_arrays", engine_module.desired_arrays))
    eng.run()
    assert calls == {"rate": 4 * steps + 1,
                     "desired_arrays": -(-steps // block)}


@pytest.mark.parametrize("name", fs.preset_names())
def test_every_evaluation_is_one_call_of_the_class_rate(name, monkeypatch):
    # Engine.rate wrapped on the class, as a tracer wraps it, sees every
    # evaluation of the law: 4N + 1 in a run of N steps (the final
    # sample's own), one per diagnostics and four per step
    rate, calls = fs.Engine.rate, []

    @functools.wraps(rate)
    def counted(*args, **kwargs):
        calls.append(args[1])
        return rate(*args, **kwargs)

    monkeypatch.setattr(fs.Engine, "rate", counted)
    base = fs.get_preset(name)
    steps = 2 * _block_steps(base.n) + 9
    eng = fs.Engine(replace(base, t_final=steps * base.dt))
    eng.run()
    assert len(calls) == 4 * steps + 1
    y = eng.initial_state()
    calls.clear()
    eng.diagnostics(0.3, y)
    assert calls == [0.3]
    calls.clear()
    fs.rk4_step(eng.rate, 0.3, y, base.dt)
    assert len(calls) == 4


@pytest.mark.parametrize("every", [1, 3, 10])
@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_block_length_is_only_a_cost_constant(kind, every, monkeypatch):
    # the block length sets how many steps share one hoist and one row
    # block, and nothing a run computes
    cfg = replace(CONFIGS[kind](), sample_every=every)
    want = fs.Engine(cfg).run().data
    for block in (1, 5, 16):
        monkeypatch.setattr(engine_module, "_block_steps",
                            lambda n, block=block: block)
        assert np.array_equal(fs.Engine(cfg).run().data, want), block


def _sampled_dynamic():
    """A three-robot dynamic scenario on ``_sampled_doc``'s trajectories:
    two sampled twists and a constant one."""
    doc = fs.scenario_to_dict(_mini_dynamic(n=3, t_final=0.2))
    for robot, kin in zip(doc["robots"], _sampled_doc()["robots"]):
        robot["trajectory"] = kin["trajectory"]
    return fs.scenario_from_dict(doc)


def _same_terms(got, want):
    """Every ``_Desired`` field equal, bit for bit: arrays by
    ``np.array_equal``, float rows by ``==`` (None to None)."""
    for name, a, b in zip(_Desired._fields, got, want):
        assert type(a) is type(b), name
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b), name
        else:
            assert a == b, name


@pytest.mark.parametrize("make", [
    *(lambda name=name: fs.get_preset(name) for name in fs.preset_names()),
    _sampled_dynamic, lambda: _mini_dynamic(n=1)],
    ids=[*fs.preset_names(), "sampled-dynamic", "one-robot"])
def test_hoisted_terms_equal_single_time_terms(make, monkeypatch):
    # the terms a block hoists at each stage time, and at the final
    # sample's, are those of that time evaluated alone by the scalar
    # desired_arrays
    eng = fs.Engine(make())
    dt, block, t0 = eng.config.dt, _block_steps(eng.n), 0.05
    hoist, hoisted = eng._hoist, []

    def capture(times):
        hoisted.append(hoist(times))
        return hoisted[-1]

    monkeypatch.setattr(eng, "_hoist", capture)
    list(eng.integrate(eng.initial_state(), [0, block], block, t0))
    [terms] = hoisted
    times = [t0 + block * dt]
    for s in range(block):
        rk4_step(lambda t, y: times.append(t) or y, t0 + s * dt,
                 np.zeros(1), dt)
    assert set(times) == terms.keys()
    dynamic = eng.mode == "dynamic"
    for t in times:
        qd, etad, etadd = fs.desired_arrays(eng.profiles, t)
        _same_terms(terms[t], _desired_terms(eng._lay, qd, etad,
                                             etadd if dynamic else None))


def _diverging():
    # at dt = 0.5 the torque loop overflows at t = 1
    return replace(fs.get_preset("adaptive-pentagon"), dt=0.5, t_final=5.0)


def _dipping():
    # the second robot's desired speed falls below the floor at t = 0.061
    # and is least, 5.4e-7, at t = 0.2113
    doc = _sampled_doc()
    doc["robots"][1]["trajectory"] = _dip_table(
        [0.0, 1.0], [1.5e-6, 1.5e-6], [-1e-5, -1e-5])
    return doc


@pytest.mark.parametrize("every", [1, 3, 16, 40])
@pytest.mark.parametrize("make,error", [(_diverging, fs.DivergenceError)])
def test_mid_run_error_matches_reference_loop(make, error, every):
    cfg = replace(make(), sample_every=every)
    with pytest.raises(error) as got:
        fs.Engine(cfg).run()
    with pytest.raises(error) as want:
        _reference_rows(fs.Engine(cfg))
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_write_csv_matches_per_value_formatting(tmp_path):
    data = np.array([[0.0, -0.0, 1e-300, np.nan],
                     [np.inf, -np.inf, 5e-324, -1e-300],
                     [1.0 / 3.0, -2.5e300, 0.1, 123456789.0]])
    trace = fs.Trace(columns=["t", "a", "b", "c"], data=data)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    want = "t,a,b,c\n" + "".join(",".join("%.17g" % v for v in row) + "\n"
                                 for row in data)
    assert path.read_bytes() == want.encode()


def test_dipping_table_is_refused_at_load():
    # the table's knots clear the floor, but its speed dips below it
    # between them; the config is refused before any step, naming the
    # robot and where the speed is least
    with pytest.raises(fs.SingularSpeed,
                       match=r"^robots\[2\]: sampled speed 5\.3775e-07 at "
                             r"t=0\.211325 "):
        fs.scenario_from_dict(_dipping())


def test_later_dip_is_refused_before_a_diverging_run():
    # at dt = 0.5 the torque loop overflows at t = 1; the speed falls below
    # the floor just after t = 3 and changes sign later, least at
    # t = 4.479, yet the config is refused when it loads, before the run
    # could diverge. Without the dip the run diverges.
    doc = fs.scenario_to_dict(fs.get_preset("adaptive-pentagon"))
    doc.update(dt=0.5, t_final=5.0)
    doc["robots"][0]["trajectory"] = _dip_table(
        [0.0, 2.0, 3.0, 10.0], [1.0, 1.0, 1.5e-6, 1.5e-6],
        [0.0, 0.0, -1e-5, -1e-5])
    with pytest.raises(fs.SingularSpeed, match=r"^robots\[1\]: sampled speed "
                                                r".* at t=4\.479"):
        fs.scenario_from_dict(doc)
    doc["robots"][0]["trajectory"].update(twists=[[1.0, 0.1]] * 4,
                                          rates=[[0.0, 0.0]] * 4)
    with pytest.raises(fs.DivergenceError, match="at t=1$"):
        fs.simulate(fs.scenario_from_dict(doc))


def test_trace_column_unknown_name_raises():
    trace = fs.Trace(columns=["t", "x1"], data=np.zeros((2, 2)))
    with pytest.raises(KeyError, match="no trace column 'nosuch'"):
        trace.column("nosuch")


@pytest.mark.parametrize("name", fs.preset_names())
def test_integration_nested_in_a_stage_leaves_the_outer_run_unchanged(
        name, monkeypatch):
    # an Engine keeps no per-block state: a second integration started on
    # it from inside a stage of a run neither sees nor removes the run's
    # hoisted terms
    cfg = replace(fs.get_preset(name), t_final=0.05)
    want = fs.Engine(cfg).run().data
    eng = fs.Engine(cfg)
    rate, calls, nested = eng.rate, [], []

    def reentering(t, y, *args, **kwargs):
        calls.append(t)
        if len(calls) == 1:
            stop = 2 * _block_steps(eng.n)
            nested.extend(eng.integrate(y, [0, stop], stop, t))
        return rate(t, y, *args, **kwargs)

    monkeypatch.setattr(eng, "rate", reentering)
    assert np.array_equal(eng.run().data, want)
    # the nested run took its own two blocks, keeping its start and end
    assert [len(kept) for _, kept in nested] == [1, 1]


@pytest.mark.parametrize("name", fs.preset_names())
def test_two_threads_share_one_engine(name):
    cfg = replace(fs.get_preset(name), t_final=0.3)
    want = fs.Engine(cfg).run().data
    eng = fs.Engine(cfg)
    got = []
    threads = [threading.Thread(target=lambda: got.append(eng.run().data))
               for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(got) == 2
    assert all(np.array_equal(data, want) for data in got)

"""Property tests of the control law on random spanning trees.

Trees are chains, stars and random recursive trees with 2 to 30 robots
(2 to 60 for the Gram factor); headings are drawn so that aligned and
antiparallel neighbours are common. The vectorized builders are pinned to
their per-edge block forms on trees other than chains, the engine's single
evaluation to a composition of those block forms with dense numpy solves
(no controller code at all), the least-squares command to
``np.linalg.lstsq``, and the leaves-first Gram factor to the dense A^T A
it stands in for.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formsim as fs
import formsim.controller
import formsim.engine
from conftest import stage_terms
from formsim.controller import (_error_vector, feedforward_term,
                                fictitious_velocity)
from formsim.engine import _BLOCK_STEPS

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def trees(draw, max_n=30, min_n=2, kinds=("chain", "star", "random")):
    n = draw(st.integers(min_n, max_n))
    kind = draw(st.sampled_from(kinds))
    if kind == "chain":
        edges = [(k, k + 1) for k in range(1, n)]
    elif kind == "star":
        edges = [(1, k) for k in range(2, n + 1)]
    else:
        edges = [(draw(st.integers(1, k - 1)), k) for k in range(2, n + 1)]
    return fs.validate_spanning_tree(n, edges)


@st.composite
def headings(draw, n):
    """Headings around one base angle, each offset by 0, pi or anything."""
    base = draw(st.floats(-10.0, 10.0))
    offsets = draw(st.lists(
        st.one_of(st.sampled_from([0.0, np.pi, -np.pi]),
                  st.floats(-np.pi, np.pi)),
        min_size=n, max_size=n))
    return base + np.array(offsets)


@st.composite
def scenes(draw, mode, tree_strategy=trees()):
    """A random scenario in ``mode`` over a tree ``tree_strategy`` draws,
    and a state (t, y) to evaluate at."""
    tree = draw(tree_strategy)
    n = tree.n
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    th = draw(headings(n))
    desired = draw(headings(n))
    robots = []
    for i in range(n):
        rd = {"start": [*rng.normal(size=2) * 3, th[i]],
              "trajectory": {"kind": "constant_twist",
                             "start": [*rng.normal(size=2) * 3, desired[i]],
                             "twist": [rng.uniform(0.5, 5.0)
                                       * rng.choice([-1, 1]),
                                       rng.uniform(-2.0, 2.0)]}}
        if mode == "dynamic":
            rd["start_twist"] = rng.normal(size=2).tolist()
            rd["estimate0"] = rng.normal(size=6).tolist()
            rd["params"] = {"mass": rng.uniform(0.5, 5.0),
                            "inertia": rng.uniform(0.01, 1.0),
                            "damping": rng.normal(size=(2, 2)).tolist()}
        robots.append(rd)
    doc = {"mode": mode, "edges": [list(e) for e in tree.edges],
           "dt": 1e-3, "t_final": 1.0, "robots": robots,
           "gains": {"formation": rng.uniform(0.5, 10.0, 3 * n).tolist(),
                     "twist": rng.uniform(0.5, 5.0, 2 * n).tolist(),
                     "adaptation": rng.uniform(0.1, 5.0, 6 * n).tolist()}}
    engine = fs.Engine(fs.scenario_from_dict(doc))
    return engine, float(rng.uniform(0.0, 5.0)), engine.initial_state()


# ---- per-edge block forms of the builders ----

def _coupling_blocks(tree, th):
    A = np.zeros((3 * tree.n, 2 * tree.n))
    A[:3, :2] = -fs.SELECT
    for k, (i, j) in enumerate(tree.edges):
        r = 3 * (k + 1)
        A[r:r + 3, 2 * i - 2:2 * i] = -fs.steering_matrix(th[i - 1])
        A[r:r + 3, 2 * j - 2:2 * j] = fs.steering_matrix(th[j - 1])
    return A


def _error_blocks(tree, poses, qd):
    e = qd - poses
    out = [fs.body_frame_error(poses[0, 2], e[0])]
    out += [e[i - 1] - e[j - 1] for i, j in tree.edges]
    return np.concatenate(out)


def _steering_rate(theta):
    """d/dtheta of steering_matrix."""
    return np.array([[-np.sin(theta), 0.0], [np.cos(theta), 0.0],
                     [0.0, 0.0]])


def _coupling_rate_blocks(tree, th, w):
    Adot = np.zeros((3 * tree.n, 2 * tree.n))
    for k, (i, j) in enumerate(tree.edges):
        r = 3 * (k + 1)
        Adot[r:r + 3, 2 * i - 2:2 * i] = -w[i - 1] * _steering_rate(th[i - 1])
        Adot[r:r + 3, 2 * j - 2:2 * j] = w[j - 1] * _steering_rate(th[j - 1])
    return Adot


def _feedforward_blocks(tree, th1, qd, etad):
    g = [fs.steering_matrix(qd[i, 2]) @ etad[i] for i in range(tree.n)]
    out = [fs.body_frame_error(th1, g[0])]
    out += [g[i - 1] - g[j - 1] for i, j in tree.edges]
    return np.concatenate(out)


def _feedforward_rate_blocks(tree, th1, om1, qd, etad, etadd):
    # each desired rate S(theta_d) eta_d moves with theta_d and eta_d; the
    # leader block R^T g also spins with the leader: d/dt R^T = om1 SKEW R^T
    g = [fs.steering_matrix(qd[i, 2]) @ etad[i] for i in range(tree.n)]
    gdot = [etad[i, 1] * _steering_rate(qd[i, 2]) @ etad[i]
            + fs.steering_matrix(qd[i, 2]) @ etadd[i] for i in range(tree.n)]
    out = [fs.body_frame_error(th1, gdot[0])
           + om1 * fs.SKEW @ fs.body_frame_error(th1, g[0])]
    out += [gdot[i - 1] - gdot[j - 1] for i, j in tree.edges]
    return np.concatenate(out)


def _dense_fictitious(tree, poses, twists, qd, etad, etadd, gain):
    """The least-squares twist command by ``np.linalg.lstsq`` and its rate
    from the differentiated normal equations G etaf = -A^T w, solved
    densely: G etafdot = -(Gdot etaf + Adot^T w + A^T wdot)."""
    th, om = poses[:, 2], twists[:, 1]
    A = _coupling_blocks(tree, th)
    Adot = _coupling_rate_blocks(tree, th, om)
    z = _error_blocks(tree, poses, qd)
    ff = _feedforward_blocks(tree, th[0], qd, etad)
    w = gain * z + ff
    etaf = np.linalg.lstsq(A, -w, rcond=None)[0]
    zdot = A @ twists.reshape(-1) + ff
    zdot[:3] += om[0] * fs.SKEW @ z[:3]
    wdot = gain * zdot + _feedforward_rate_blocks(tree, th[0], om[0], qd,
                                                  etad, etadd)
    G = A.T @ A
    Gdot = Adot.T @ A + A.T @ Adot
    etafdot = np.linalg.solve(G, -(Gdot @ etaf + Adot.T @ w + A.T @ wdot))
    return etaf, etafdot


def _close(got, want, rtol):
    return np.abs(got - want).max() <= rtol * max(np.abs(want).max(), 1.0)


@SETTINGS
@given(data=st.data())
def test_builders_match_block_forms(data):
    eng, t, y = data.draw(scenes("dynamic"))
    tree, n = eng.tree, eng.n
    poses = y[:3 * n].reshape(n, 3)
    th, w = poses[:, 2], y[3 * n + 1:5 * n:2]
    qd, etad, _ = fs.desired_arrays(eng.profiles, t)
    assert np.array_equal(fs.coupling_matrix(tree, th),
                          _coupling_blocks(tree, th))
    h = 1e-6
    fd = (_coupling_blocks(tree, th + h * w)
          - _coupling_blocks(tree, th - h * w)) / (2 * h)
    assert np.abs(fs.coupling_rate(tree, th, w) - fd).max() < 1e-8
    stage, d = stage_terms(tree, th, qd, etad)
    assert _close(_error_vector(stage, poses, d.qd),
                  _error_blocks(tree, poses, qd), 1e-14)
    assert _close(feedforward_term(stage, d),
                  _feedforward_blocks(tree, th[0], qd, etad), 1e-14)


# ---- the engine's single evaluation ----

def _composed_rate(eng, t, y):
    """The state derivative from the block forms of the stacked error,
    coupling matrix and feedforward (and their rates) and dense solves,
    none of which the engine runs."""
    n, tree = eng.n, eng.tree
    qd, etad, etadd = fs.desired_arrays(eng.profiles, t)
    poses = y[:3 * n].reshape(n, 3)
    th = poses[:, 2]
    z = _error_blocks(tree, poses, qd)
    A = _coupling_blocks(tree, th)
    dy = np.empty_like(y)
    if eng.mode == "kinematic":
        ff = _feedforward_blocks(tree, th[0], qd, etad)
        eta = np.linalg.lstsq(A, -(eng.gz * z) - ff, rcond=None)[0]
        v, w = eta[0::2], eta[1::2]
    else:
        twists = y[3 * n:5 * n].reshape(n, 2)
        phihat = y[5 * n:]
        etaf, etafdot = _dense_fictitious(tree, poses, twists, qd, etad,
                                          etadd, eng.gz)
        sigma = twists.reshape(-1) - etaf
        Y = fs.block_regression(etafdot, twists)
        u = fs.adaptive_control(sigma, z, A, Y, phihat, eng.gs)
        drag = np.einsum("nij,nj->ni", eng.damp, twists).reshape(-1)
        dy[3 * n:5 * n] = eng.minv * (u - drag)
        dy[5 * n:] = fs.adaptation_rate(Y, sigma, eng.ga)
        v, w = twists[:, 0], twists[:, 1]
    dy[0:3 * n:3] = v * np.cos(th)
    dy[1:3 * n:3] = v * np.sin(th)
    dy[2:3 * n:3] = w
    return dy


@SETTINGS
@given(data=st.data())
def test_engine_rate_matches_composition(data):
    mode = data.draw(st.sampled_from(["kinematic", "dynamic"]))
    eng, t, y = data.draw(scenes(mode))
    mark = eng.evaluate(t, y, record=True)
    got, rec = mark.dy, eng.records([mark])[0]
    assert _close(got, _composed_rate(eng, t, y), 1e-12)
    assert np.array_equal(eng.rate(t, y), got)
    # the record's residual, formed without A, against the dense block
    # form: each side sums three terms, so both are within a few ulps of
    # the largest term's magnitude
    terms = (_coupling_blocks(eng.tree, y[2:3 * eng.n:3]) @ rec.etaf,
             eng.gz * rec.z, rec.feedforward)
    scale = max(np.abs(term).max() for term in terms)
    assert np.abs(rec.residual - sum(terms)).max() <= 1e-14 * scale


def _max_gap(got, want, *terms):
    """The largest entry of |got - want| over the largest magnitude among
    ``terms`` (``want`` when none are given), the sum each side rounds."""
    scale = max(np.abs(term).max(initial=0.0) for term in terms or (want,))
    return np.abs(got - want).max(initial=0.0) / max(scale, 1e-300)


@SETTINGS
@given(data=st.data())
def test_torque_record_matches_dense_oracles(data):
    # a dynamic record's fields, from the one-call float stage, against
    # fictitious_velocity and adaptive_control with coupling_matrix's A.
    # The dense and the float stage round different sums of the same
    # terms, so a difference or a sum (sigma, u, the residual) is held to
    # its terms' magnitude, and a solve (etaf, etafdot) to its own: cond
    # of A^T A stays below 1e3 on these trees, and 1e-12 leaves 10x.
    eng, t, y = data.draw(scenes("dynamic",
                                 trees(min_n=1, kinds=("random",))))
    n = eng.n
    rec = eng.diagnostics(t, y)
    poses = y[:3 * n].reshape(n, 3)
    twists = y[3 * n:5 * n].reshape(n, 2)
    stage, d = stage_terms(eng.tree, poses[:, 2],
                           *fs.desired_arrays(eng.profiles, t))
    z = _error_vector(stage, poses, d.qd)
    ff = feedforward_term(stage, d)
    fv = fictitious_velocity(eng.tree, stage, twists, z, ff, d, eng.gz)
    A = fs.coupling_matrix(eng.tree, poses[:, 2])
    sigma = twists.reshape(-1) - fv.twist
    Y = fs.block_regression(fv.rate, twists)
    u = fs.adaptive_control(sigma, z, A, Y, y[5 * n:], eng.gs)
    gaps = [
        _max_gap(rec.z, z),
        _max_gap(rec.feedforward, ff),
        _max_gap(rec.etaf, fv.twist),
        _max_gap(rec.etafdot, fv.rate),
        _max_gap(rec.sigma, sigma, twists, fv.twist),
        _max_gap(rec.u, u, eng.gs * sigma, A.T @ z,
                 (Y @ y[5 * n:].reshape(n, 6, 1)).reshape(-1)),
        _max_gap(rec.residual, A @ fv.twist + eng.gz * z + ff,
                 A @ fv.twist, eng.gz * z, ff),
    ]
    assert max(gaps) <= 1e-12, gaps


@SETTINGS
@given(scene=scenes("dynamic", trees(min_n=2, kinds=("random",))),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]), data=st.data())
def test_dynamic_non_finite_heading_raises_rank_deficient(scene, bad, data):
    # the torque-level stage takes its cosines from the stage, so a
    # non-finite heading, the leader's or a follower's, reaches the
    # factor's finite check as in the kinematic stage
    eng, t, y = scene
    y = y.copy()
    y[3 * data.draw(st.integers(0, eng.n - 1)) + 2] = bad
    with np.errstate(invalid="ignore"), pytest.raises(fs.RankDeficient):
        eng.rate(t, y)


@SETTINGS
@given(data=st.data())
def test_kinematic_control_matches_lstsq(data):
    eng, t, y = data.draw(scenes("kinematic"))
    rec = eng.diagnostics(t, y)
    b = -(eng.gz * rec.z) - rec.feedforward
    A = _coupling_blocks(eng.tree, y[2:3 * eng.n:3])
    want = np.linalg.lstsq(A, b, rcond=None)[0]
    assert np.linalg.norm(rec.etaf - want) <= 1e-10 * np.linalg.norm(want)


@SETTINGS
@given(data=st.data())
def test_twist_rate_matches_flow_difference(data):
    # a record's etafdot against the central difference of etaf along the
    # flow, with the states at t +- h from Engine.step: an oracle that
    # shares no code with fictitious_velocity
    eng, t, y = data.draw(scenes("dynamic"))
    n, u = eng.n, 2.0 ** -53
    rec = eng.diagnostics(t, y)

    def quotient(h):
        ahead, back = (eng.diagnostics(t + k, eng.step(t, y, k)).etaf
                       for k in (h, -h))
        return (ahead - back) / (2 * h)

    # Rounding. etaf solves min |A x - b| at a state rounded to u P, P the
    # largest magnitude among the poses, the desired poses and A's
    # entries (at most 1). Each entry of b = K z + ff is an edge
    # difference of four such poses, off by 4 u P max(K), and each entry
    # of A by u P, so to first order (Golub & Van Loan, sec. 5.3) etaf is
    # off by at most eps = (|db| + |dA| |x|) / s + |dA| |r| / s^2, with s
    # the least singular value of A, and a quotient at h by eps / h.
    A = fs.coupling_matrix(eng.tree, y[2:3 * n:3])
    s = np.linalg.svd(A, compute_uv=False)[-1]
    qd = fs.desired_arrays(eng.profiles, t)[0]
    P = max(np.abs(y[:3 * n]).max(), np.abs(qd).max(), 1.0)
    dA = u * P * np.sqrt(4 * n - 2)
    db = 4 * u * P * eng.gz.max() * np.sqrt(3 * n)
    eps = (db + dA * np.linalg.norm(rec.etaf)) / s \
        + dA * np.linalg.norm(rec.residual) / s ** 2
    # Truncation. A quotient at h is off by h^2 |D3| / 6 + O(h^4), D3 the
    # third time derivative of etaf, so those at h0 and h0 / 2 differ by
    # h0^2 |D3| / 8 up to their rounding, 3 eps / h0. At h0 = 1e-4 the h^2
    # term leads on these scenes: quotients there and at h0 / 10 differ
    # from etafdot in the ratio 100.
    h0 = 1e-4
    d3 = 8 * (np.linalg.norm(quotient(h0) - quotient(h0 / 2))
              + 3 * eps / h0) / h0 ** 2
    # the h (at most h0 / 2) that minimizes h^2 d3 / 6 + eps / h
    h = (3 * eps / d3) ** (1 / 3)
    gap = np.linalg.norm(quotient(h) - rec.etafdot)
    assert gap <= h ** 2 * d3 / 6 + eps / h


@SETTINGS
@given(data=st.data())
def test_coupling_norm_has_its_closed_form(data):
    # ||A||_F^2 = 4n - 2: the leader's two entries of 1 and, per edge,
    # four columns (cos, sin, 0), (0, 0, 1) of unit norm. The dense norm
    # rounds each cosine and sine (2 u), its square (u) and 4n - 3 sums,
    # and the square root halves that and adds u: (2n + 2) u relative.
    tree = data.draw(trees(max_n=30, min_n=1))
    n = tree.n
    th = np.array(data.draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=n, max_size=n)))
    want = np.sqrt(4 * n - 2)
    got = np.linalg.norm(fs.coupling_matrix(tree, th))
    assert abs(got - want) <= (2 * n + 2) * 2.0 ** -53 * want


# ---- the leaves-first Gram factor ----

@SETTINGS
@given(data=st.data())
def test_tree_gram_matches_dense_gram(data):
    # cond(A^T A) grows about as n^2 on chains (about 6e3 at n = 60), so a
    # dense solve carries about 1e-12 relative error: 1e-10 leaves 100x
    tree = data.draw(trees(max_n=60))
    th = data.draw(headings(tree.n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    A = fs.coupling_matrix(tree, th)
    G = A.T @ A
    gram = fs.tree_gram(tree, th)
    assert gram.pivots.min() >= 1.0 - 1e-12
    # the pivots are those of an elimination of G: their product is det G
    logdet = np.log(gram.pivots).sum()
    assert abs(logdet - np.linalg.slogdet(G)[1]) <= 1e-10 * max(logdet, 1.0)
    rhs = rng.normal(size=2 * tree.n)
    want = np.linalg.solve(G, rhs)
    assert np.linalg.norm(gram.solve(rhs) - want) \
        <= 1e-10 * np.linalg.norm(want)


@SETTINGS
@given(data=st.data())
def test_non_finite_heading_raises_rank_deficient(data):
    tree = data.draw(trees(max_n=60))
    n = tree.n
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    poses = rng.normal(size=(n, 3))
    poses[:, 2] = data.draw(headings(n))
    poses[data.draw(st.integers(0, n - 1)), 2] = data.draw(
        st.sampled_from([np.nan, np.inf, -np.inf]))
    qd, etad, etadd = (rng.normal(size=(n, k)) for k in (3, 2, 2))
    gain = np.ones(3 * n)
    with np.errstate(invalid="ignore"):
        stage, d = stage_terms(tree, poses[:, 2], qd, etad, etadd)
        z = _error_vector(stage, poses, d.qd)
        ff = feedforward_term(stage, d)
        with pytest.raises(fs.RankDeficient):
            fs.kinematic_control(tree, poses[:, 2], z, ff, gain)
        with pytest.raises(fs.RankDeficient):
            fictitious_velocity(tree, stage, rng.normal(size=(n, 2)), z, ff,
                                d, gain)


def _counter(monkeypatch, name, owners):
    """Count the calls of ``name`` looked up in any of ``owners``."""
    calls = []
    original = getattr(owners[0], name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    for owner in owners:
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_one_coupling_build_per_rate(monkeypatch):
    # no rate or record forms the dense coupling matrix or its rate, or
    # calls the dense twist command or the feedforward's rate: those are
    # the oracles of the tests and formsim check. A stage is one call of
    # its mode's one-pass stage (controller._kinematic_twist, or
    # controller._torque_stage, which also gives a dynamic record its
    # stacked error and feedforward); only a kinematic record builds those
    # two, once per block of records. Integrating one sample interval
    # evaluates the desired trajectory once, for all its stages, keeps its
    # first stage and builds no record, and no stage looks the tree's
    # layout up. A run builds its rows once per block of steps.
    owners = [formsim.controller, formsim.engine]
    dense = [_counter(monkeypatch, "coupling_matrix", owners),
             _counter(monkeypatch, "coupling_rate", [formsim.controller]),
             _counter(monkeypatch, "fictitious_velocity", owners),
             _counter(monkeypatch, "feedforward_rate", [formsim.controller])]
    desired = _counter(monkeypatch, "desired_arrays", [formsim.engine])
    layouts = _counter(monkeypatch, "_layout", owners)
    ffs = _counter(monkeypatch, "feedforward_term", owners)
    errors = _counter(monkeypatch, "_error_vector", owners)
    energies = _counter(monkeypatch, "lyapunov_diagnostics",
                        [formsim.engine])
    stages = _counter(monkeypatch, "_kinematic_twist", [formsim.engine])
    torques = _counter(monkeypatch, "_torque_stage", [formsim.engine])
    counts = (*dense, desired, layouts, ffs, errors, energies, stages,
              torques)
    for name, dynamic in (("kinematic-pentagon", 0),
                          ("adaptive-pentagon", 1)):
        cfg = fs.get_preset(name)
        eng = fs.Engine(cfg)
        y = eng.initial_state()
        eng.rate(0.3, y)
        for evaluate, record in ((eng.rate, 0), (eng.diagnostics, 1)):
            for calls in counts:
                calls.clear()
            evaluate(0.3, y)
            assert [len(calls) for calls in dense] == [0] * 4, name
            assert len(ffs) == len(errors) == record * (1 - dynamic), name
            assert len(energies) == record * dynamic, name
            assert len(stages) == 1 - dynamic, name
            assert len(torques) == dynamic, name
        for calls in counts:
            calls.clear()
        # the interval's first stage is kept, and no record is built
        *_, (y, kept) = eng.integrate(y, [0], cfg.sample_every, 0.3)
        n_stages = 4 * cfg.sample_every
        assert len(kept) == 1, name
        assert len(desired) == 1, name
        assert len(layouts) == 0, name
        assert [len(calls) for calls in dense] == [0] * 4, name
        assert len(ffs) == len(errors) == len(energies) == 0, name
        assert len(stages) == n_stages * (1 - dynamic), name
        assert len(torques) == n_stages * dynamic, name
        # a run of N steps: 4N + 1 stages (the final row's own), one row
        # block per block of steps, and no error, feedforward or energy
        # call beyond those blocks
        steps = 3 * _BLOCK_STEPS + 5
        eng = fs.Engine(replace(cfg, t_final=steps * cfg.dt))
        rows = _counter(monkeypatch, "_row", [eng])
        for calls in counts:
            calls.clear()
        eng.run()
        assert len(rows) == -(-steps // _BLOCK_STEPS), name
        assert len(stages) == (4 * steps + 1) * (1 - dynamic), name
        assert len(torques) == (4 * steps + 1) * dynamic, name
        assert len(ffs) == len(errors) == len(rows) * (1 - dynamic), name
        assert len(energies) == len(rows) * dynamic, name
        assert [len(calls) for calls in dense] == [0] * 4, name


@st.composite
def runs(draw, mode):
    """A scenario in ``mode`` on a random recursive tree of 1 to 30 robots
    whose run stays finite: random starts, estimates and constant twists,
    with the adaptive preset's step, gains and plant; and a horizon of a
    block's steps give or take three, sampled every 1 to 20 steps."""
    tree = draw(trees(min_n=1, kinds=("random",)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    preset = fs.scenario_to_dict(fs.get_preset("adaptive-pentagon"))
    robots = [{"start": rng.uniform(-6.0, 6.0, 3).tolist(),
               "trajectory": {"kind": "constant_twist",
                              "start": rng.uniform(-6.0, 6.0, 3).tolist(),
                              "twist": [rng.uniform(0.5, 4.0),
                                        rng.uniform(-1.0, 1.0)]}}
              for _ in range(tree.n)]
    if mode == "dynamic":
        for rd in robots:
            rd.update(start_twist=rng.normal(size=2).tolist(),
                      estimate0=rng.uniform(0.0, 4.0, 6).tolist(),
                      params=preset["robots"][0]["params"])
    steps = draw(st.integers(_BLOCK_STEPS - 3, 2 * _BLOCK_STEPS + 3))
    doc = {"mode": mode, "edges": [list(e) for e in tree.edges],
           "dt": preset["dt"], "t_final": steps * preset["dt"],
           "sample_every": draw(st.integers(1, 20)), "robots": robots,
           "gains": {key: gain[:size] for (key, gain), size in zip(
               preset["gains"].items(), (3, 2, 6))}}
    return fs.Engine(fs.scenario_from_dict(doc)), steps


@SETTINGS
@given(data=st.data())
def test_block_rows_are_single_mark_records(data):
    # every record read from a block of marks is its mark's own
    # evaluation, and every trace row the row of that record, bit for bit
    from test_engine import _record_row, _same_record
    mode = data.draw(st.sampled_from(["kinematic", "dynamic"]))
    eng, steps = data.draw(runs(mode))
    every = eng.config.sample_every
    marks = [*range(0, steps, every), steps]
    rows = []
    for _, kept in eng.integrate(eng.initial_state(), marks, steps):
        for mark, rec in zip(kept, eng.records(kept)):
            alone = eng.diagnostics(mark.t, mark.y)
            _same_record(rec, alone)
            rows.append(_record_row(eng, alone))
    assert len(rows) == len(marks)
    assert np.array_equal(eng.run().data, np.vstack(rows))


@st.composite
def kinematic_scenes(draw):
    """A kinematic Engine on a random recursive tree of 2 to 30 robots,
    with random poses, headings in (-pi, pi], constant twists and a
    random diagonal gain, and a time to evaluate at."""
    n = draw(st.integers(2, 30))
    edges = [[draw(st.integers(1, k - 1)), k] for k in range(2, n + 1)]
    th = draw(st.lists(st.floats(-np.pi, np.pi, exclude_min=True),
                       min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    robots = [{"start": [*rng.normal(size=2) * 3, th[i]],
               "trajectory": {"kind": "constant_twist",
                              "start": [*rng.normal(size=2) * 3,
                                        rng.uniform(-np.pi, np.pi)],
                              "twist": [rng.uniform(0.5, 5.0)
                                        * rng.choice([-1, 1]),
                                        rng.uniform(-2.0, 2.0)]}}
              for i in range(n)]
    doc = {"mode": "kinematic", "edges": edges, "dt": 1e-3,
           "t_final": 1.0, "robots": robots,
           "gains": {"formation": rng.uniform(0.5, 10.0, 3 * n).tolist()}}
    engine = fs.Engine(fs.scenario_from_dict(doc))
    return engine, float(rng.uniform(0.0, 5.0)), engine.initial_state()


@SETTINGS
@given(scene=kinematic_scenes(), bad=st.sampled_from([np.nan, np.inf,
                                                      -np.inf]),
       data=st.data())
def test_one_pass_stage_matches_composition(scene, bad, data):
    # the one-pass kinematic stage is the old composition of the stacked
    # error, the feedforward and kinematic_control, bit for bit
    eng, t, y = scene
    n = eng.n
    poses = y[:3 * n].reshape(n, 3)
    qd, etad, _ = fs.desired_arrays(eng.profiles, t)
    stage, d = stage_terms(eng.tree, poses[:, 2], qd, etad)
    eta = fs.kinematic_control(eng.tree, poses[:, 2],
                               _error_vector(stage, poses, d.qd),
                               feedforward_term(stage, d), eng.gz)
    want = np.empty(3 * n)
    want[0::3] = eta[0::2] * stage.cos
    want[1::3] = eta[0::2] * stage.sin
    want[2::3] = eta[1::2]
    assert np.array_equal(eng.rate(t, y), want)
    # and a non-finite heading, the leader's or a follower's, raises
    y = y.copy()
    y[3 * data.draw(st.integers(0, n - 1)) + 2] = bad
    with np.errstate(invalid="ignore"), pytest.raises(fs.RankDeficient):
        eng.rate(t, y)

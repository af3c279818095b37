"""Property tests of the control law on random spanning trees.

Trees are chains, stars and random recursive trees with 2 to 30 robots;
headings are drawn so that aligned and antiparallel neighbours are
common. The vectorized builders are pinned to their per-edge block forms
on trees other than chains, the engine's single evaluation to the
composition of public functions it replaces, and the least-squares
command to ``np.linalg.lstsq``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import formsim as fs
import formsim.controller
import formsim.engine

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def trees(draw):
    n = draw(st.integers(2, 30))
    kind = draw(st.sampled_from(["chain", "star", "random"]))
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
def scenes(draw, mode):
    """A random scenario in ``mode`` and a state (t, y) to evaluate at."""
    tree = draw(trees())
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


def _close(got, want, rtol):
    return np.abs(got - want).max() <= rtol * max(np.abs(want).max(), 1.0)


@SETTINGS
@given(data=st.data())
def test_builders_match_block_forms(data):
    eng, t, y = data.draw(scenes("dynamic"))
    tree, n = eng.tree, eng.n
    poses = y[:3 * n].reshape(n, 3)
    th, w = poses[:, 2], y[3 * n + 1:5 * n:2]
    qd = fs.desired_arrays(eng.profiles, t)[0]
    assert np.array_equal(fs.coupling_matrix(tree, th),
                          _coupling_blocks(tree, th))
    h = 1e-6
    fd = (_coupling_blocks(tree, th + h * w)
          - _coupling_blocks(tree, th - h * w)) / (2 * h)
    assert np.abs(fs.coupling_rate(tree, th, w) - fd).max() < 1e-8
    assert _close(fs.error_state(tree, poses, qd).vector,
                  _error_blocks(tree, poses, qd), 1e-14)


# ---- the engine's single evaluation ----

def _composed_rate(eng, t, y):
    """The state derivative as separate public-function calls build it,
    stacked error and coupling matrix rebuilt for the torque law."""
    n, tree = eng.n, eng.tree
    qd, etad, etadd = fs.desired_arrays(eng.profiles, t)
    poses = y[:3 * n].reshape(n, 3)
    th = poses[:, 2]
    z = fs.error_state(tree, poses, qd).vector
    A = fs.coupling_matrix(tree, th)
    dy = np.empty_like(y)
    if eng.mode == "kinematic":
        ff = fs.feedforward_term(tree, th[0], qd[:, 2], etad)
        eta = fs.kinematic_control(z, A, ff, eng.gz)
        v, w = eta[0::2], eta[1::2]
    else:
        twists = y[3 * n:5 * n].reshape(n, 2)
        phihat = y[5 * n:]
        fv = fs.fictitious_velocity(tree, poses, twists, qd, etad, etadd,
                                    eng.gz)
        sigma = twists.reshape(-1) - fv.twist
        Y = fs.block_regression(fv.rate, twists)
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
    got, rec = eng.evaluate(t, y, record=True)
    assert _close(got, _composed_rate(eng, t, y), 1e-12)
    assert np.array_equal(eng.rate(t, y), got)
    assert np.array_equal(rec.coupling, fs.coupling_matrix(
        eng.tree, y[2:3 * eng.n:3]))


@SETTINGS
@given(data=st.data())
def test_kinematic_control_matches_lstsq(data):
    eng, t, y = data.draw(scenes("kinematic"))
    rec = eng.diagnostics(t, y)
    b = -(eng.gz * rec.z) - rec.feedforward
    want = np.linalg.lstsq(rec.coupling, b, rcond=None)[0]
    assert np.linalg.norm(rec.etaf - want) <= 1e-10 * np.linalg.norm(want)


def test_one_coupling_build_per_rate(monkeypatch):
    calls = []
    original = formsim.controller.coupling_matrix

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(formsim.controller, "coupling_matrix", counted)
    monkeypatch.setattr(formsim.engine, "coupling_matrix", counted)
    for name in ("kinematic-pentagon", "adaptive-pentagon"):
        eng = fs.Engine(fs.get_preset(name))
        calls.clear()
        eng.rate(0.3, eng.initial_state())
        assert len(calls) == 1, name

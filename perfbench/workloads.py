"""Scenario YAML generators for the four benchmark workloads.

Each generator takes the benchmark seed and a horizon (simulated
seconds) and returns the YAML text that formsim parses; formsim never
sees the seed. The two presets are serialized exactly as
``formsim preset <name>`` emits them, with only ``t_final`` shortened the
way ``formsim run --t-final`` would, so they do not depend on the seed.
"""

import math
from dataclasses import replace

import numpy as np
import yaml

from formsim.presets import get_preset
from formsim.scenario import serialize_scenario

# Default horizon per workload, in simulated seconds: long enough that a
# run is dominated by the layer the workload targets, short enough that
# one measurement window holds several runs.
HORIZONS = {
    "kin-pentagon": 0.25,
    "adaptive-pentagon": 0.2,
    "tree-200": 0.05,
    "sampled-dense": 0.1,
}

# Knot spacing of the shared sampled twist table, in seconds.
TABLE_SPACING = 0.05


def _preset(name, horizon):
    return serialize_scenario(replace(get_preset(name), t_final=horizon))


def random_recursive_tree(rng, n):
    """Edges of a random recursive tree rooted at robot 1: robot j picks
    its parent uniformly among robots 1..j-1."""
    return [[int(rng.integers(1, j)), j] for j in range(2, n + 1)]


def _formation(rng, n, spread):
    """Desired start offsets (common heading) and perturbed actual starts."""
    heading = float(rng.uniform(-math.pi, math.pi))
    xy = rng.uniform(-spread, spread, size=(n, 2))
    desired = [[float(x), float(y), heading] for x, y in xy]
    starts = [[d[0] + float(rng.normal(0.0, 0.5)),
               d[1] + float(rng.normal(0.0, 0.5)),
               heading + float(rng.normal(0.0, 0.2))] for d in desired]
    return desired, starts


def _kinematic_doc(name, n, edges, dt, horizon, sample_every, robots):
    return yaml.safe_dump({
        "name": name,
        "unit": "m",
        "mode": "kinematic",
        "n": n,
        "edges": edges,
        "dt": dt,
        "t_final": horizon,
        "sample_every": sample_every,
        "gains": {"formation": [1.0, 1.0, 2.0]},
        "robots": robots,
    }, sort_keys=False)


def tree_200(seed, horizon):
    """n=200 random recursive tree sharing one constant twist."""
    rng = np.random.default_rng(seed)
    n = 200
    edges = random_recursive_tree(rng, n)
    v = float(rng.uniform(0.5, 1.5))
    w = float(rng.uniform(-0.5, 0.5))
    desired, starts = _formation(rng, n, spread=10.0)
    robots = [{"start": q0,
               "trajectory": {"kind": "constant_twist", "start": qd0,
                              "twist": [v, w]}}
              for q0, qd0 in zip(starts, desired)]
    return _kinematic_doc("tree-200", n, edges, 0.01, horizon, 10, robots)


def twist_table(rng, span):
    """Smooth sampled twist: v = v0 + a sin(fv t + pv), w = b sin(fw t + pw),
    with exact rates, on knots every TABLE_SPACING covering ``span``."""
    knots = max(2, math.ceil(span / TABLE_SPACING - 1e-9) + 1)
    t = np.linspace(0.0, (knots - 1) * TABLE_SPACING, knots)
    v0, a, b = rng.uniform(0.8, 1.2), rng.uniform(0.1, 0.3), \
        rng.uniform(0.2, 0.6)
    fv, fw = rng.uniform(2.0, 6.0, size=2)
    pv, pw = rng.uniform(0.0, 2 * math.pi, size=2)
    twists = np.stack([v0 + a * np.sin(fv * t + pv),
                       b * np.sin(fw * t + pw)], axis=1)
    rates = np.stack([a * fv * np.cos(fv * t + pv),
                      b * fw * np.cos(fw * t + pw)], axis=1)
    return t.tolist(), twists.tolist(), rates.tolist()


def sampled_dense(seed, horizon):
    """n=20 random recursive tree sharing one sampled twist table, with a
    trace row (and CSV line) every step."""
    rng = np.random.default_rng(seed)
    n = 20
    edges = random_recursive_tree(rng, n)
    times, twists, rates = twist_table(rng, horizon)
    desired, starts = _formation(rng, n, spread=3.0)
    robots = [{"start": q0,
               "trajectory": {"kind": "sampled_twist", "start": qd0,
                              "times": times, "twists": twists,
                              "rates": rates}}
              for q0, qd0 in zip(starts, desired)]
    return _kinematic_doc("sampled-dense", n, edges, 0.005, horizon, 1,
                          robots)


GENERATORS = {
    "kin-pentagon": lambda seed, horizon: _preset("kinematic-pentagon",
                                                  horizon),
    "adaptive-pentagon": lambda seed, horizon: _preset("adaptive-pentagon",
                                                       horizon),
    "tree-200": tree_200,
    "sampled-dense": sampled_dense,
}


def scenario_text(workload, seed, horizon=None):
    """YAML text of ``workload`` for ``seed`` at ``horizon`` (default:
    the workload's benchmark horizon)."""
    if horizon is None:
        horizon = HORIZONS[workload]
    return GENERATORS[workload](seed, horizon)

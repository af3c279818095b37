import numpy as np
import pytest
from dataclasses import replace

import formsim as fs
import formsim.metrics as metrics
import formsim.scenario as scenario
from formsim.metrics import report_to_yaml

import yaml


# ---- loading and validation ----

def _tiny_doc(**overrides):
    doc = {
        "mode": "kinematic",
        "edges": [[1, 2]],
        "dt": 1e-3,
        "t_final": 1.0,
        "gains": {"formation": [1.0, 1.0, 1.0]},
        "robots": [
            {"start": [0.0, 0.0, 0.0],
             "trajectory": {"kind": "constant_twist", "start": [0, 0, 0],
                            "twist": [1.0, 0.5]}},
            {"start": [1.0, 0.0, 0.0],
             "trajectory": {"kind": "constant_twist", "start": [1, 0, 0],
                            "twist": [1.0, 0.5]}},
        ],
    }
    doc.update(overrides)
    return doc


def test_load_from_text_and_dict():
    doc = _tiny_doc()
    cfg1 = fs.scenario_from_dict(doc)
    cfg2 = fs.load_scenario(yaml.safe_dump(doc))
    assert fs.scenario_to_dict(cfg1) == fs.scenario_to_dict(cfg2)


def test_round_trip_through_yaml():
    for name in fs.preset_names():
        cfg = fs.get_preset(name)
        back = fs.load_scenario(fs.serialize_scenario(cfg))
        assert fs.scenario_to_dict(back) == fs.scenario_to_dict(cfg)
        assert back.formation_gain == cfg.formation_gain
        for a, b in zip(back.robots, cfg.robots):
            assert a.start == b.start
            assert a.profile.pose0 == b.profile.pose0


def test_parse_error_on_bad_yaml():
    with pytest.raises(fs.ParseError):
        fs.load_scenario("mode: [unclosed\n  nonsense: {\n")


def _random_tree_text(n, seed):
    rng = np.random.default_rng(seed)
    doc = _tiny_doc(edges=[[int(rng.integers(1, k)), k]
                           for k in range(2, n + 1)])
    doc["robots"] = [{"start": rng.normal(size=3).tolist(),
                      "trajectory": {"kind": "constant_twist",
                                     "start": rng.normal(size=3).tolist(),
                                     "twist": [1.0, 0.5]}}
                     for _ in range(n)]
    return yaml.safe_dump(doc)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                    reason="PyYAML built without libyaml")
def test_libyaml_and_python_loaders_agree(monkeypatch):
    texts = [fs.serialize_scenario(fs.get_preset(name))
             for name in fs.preset_names()]
    texts.append(_random_tree_text(200, 7))
    for text in texts:
        configs = []
        for loader in (yaml.CSafeLoader, yaml.SafeLoader):
            monkeypatch.setattr(scenario, "_LOADER", loader)
            configs.append(fs.load_scenario(text))
            with pytest.raises(fs.ParseError):
                fs.load_scenario("mode: [unclosed\n")
        fast, slow = configs
        # dataclass == cannot compare the damping arrays of dynamic configs
        assert fs.scenario_to_dict(fast) == fs.scenario_to_dict(slow)
        assert fast.tree == slow.tree
        assert fast.mode == "dynamic" or fast == slow


def test_schema_error_on_missing_fields():
    with pytest.raises(fs.SchemaError):
        fs.scenario_from_dict({"mode": "kinematic"})
    with pytest.raises(fs.SchemaError):
        fs.scenario_from_dict(_tiny_doc(mode="warp"))
    doc = _tiny_doc()
    del doc["robots"][0]["trajectory"]
    with pytest.raises(fs.SchemaError):
        fs.scenario_from_dict(doc)


def test_validation_rejects_nonpositive_gain():
    doc = _tiny_doc()
    doc["gains"]["formation"] = [1.0, 0.0, 1.0]
    with pytest.raises(fs.ValidationError):
        fs.scenario_from_dict(doc)


def test_validation_rejects_zero_twist_gain():
    cfg = fs.get_preset("adaptive-pentagon")
    doc = fs.scenario_to_dict(cfg)
    doc["gains"]["twist"] = [3.0, 0.0]
    with pytest.raises(fs.ValidationError):
        fs.scenario_from_dict(doc)


def test_validation_rejects_bad_tree():
    with pytest.raises(fs.ValidationError):
        fs.scenario_from_dict(_tiny_doc(edges=[[2, 1]]))


def test_validation_rejects_bad_steps():
    with pytest.raises(fs.ValidationError):
        fs.scenario_from_dict(_tiny_doc(dt=-1e-3))
    with pytest.raises(fs.ValidationError):
        fs.scenario_from_dict(_tiny_doc(t_final=0.0))


def test_singular_speed_surfaces():
    doc = _tiny_doc()
    doc["robots"][0]["trajectory"]["twist"] = [0.0, 1.0]
    with pytest.raises(fs.SingularSpeed):
        fs.scenario_from_dict(doc)


def test_robot_count_cross_check():
    with pytest.raises(fs.ValidationError):
        fs.scenario_from_dict(_tiny_doc(n=7))


# ---- presets vs published constants ----

def test_kinematic_pentagon_preset_values():
    cfg = fs.get_preset("kinematic-pentagon")
    assert cfg.mode == "kinematic" and cfg.unit == "cm"
    assert cfg.edges == ((1, 2), (2, 3), (3, 4), (4, 5))
    assert cfg.formation_gain == tuple([2.0, 2.0, 10.0] * 5)
    half = np.pi / 2
    desired0 = [
        (5.0, 10.0, half),
        (5.0 + 10 * np.cos(np.pi / 10), 10 * np.sin(np.pi / 10), half),
        (5.0 + 10 * np.sin(np.pi / 5), -10 * np.cos(np.pi / 5), half),
        (5.0 - 10 * np.sin(np.pi / 5), -10 * np.cos(np.pi / 5), half),
        (5.0 - 10 * np.cos(np.pi / 10), 10 * np.sin(np.pi / 10), half),
    ]
    starts = [
        (2.37, 8.0, 0.0162),
        (17.5, 6.0, 0.0218),
        (2.06, -1.36, -0.0031),
        (-9.9, -11.49, 0.0517),
        (-4.45, 8.62, -0.0452),
    ]
    for spec, qd0, q0 in zip(cfg.robots, desired0, starts):
        assert spec.start == q0
        assert spec.profile.pose0 == qd0
        assert (spec.profile.v, spec.profile.omega) == (5.0, 1.0)


def test_adaptive_pentagon_preset_values():
    cfg = fs.get_preset("adaptive-pentagon")
    assert cfg.mode == "dynamic" and cfg.unit == "m"
    assert cfg.formation_gain == tuple([1.0] * 15)
    assert cfg.twist_gain == tuple([3.0] * 10)
    assert cfg.adapt_gain == tuple([1.0] * 30)
    half = np.pi / 2
    desired0 = [
        (4.0, 1.0, half),
        (4.0 + np.cos(np.pi / 10), np.sin(np.pi / 10), half),
        (4.0 + np.sin(np.pi / 5), -np.cos(np.pi / 5), half),
        (4.0 - np.sin(np.pi / 5), -np.cos(np.pi / 5), half),
        (4.0 - np.cos(np.pi / 10), np.sin(np.pi / 10), half),
    ]
    starts = [
        (0.3200, 2.8857, 0.0139),
        (2.3247, 2.4519, 2.6061),
        (0.2533, 1.1993, 0.7796),
        (2.4002, 1.2942, 2.7319),
        (0.5455, 0.7914, 0.4366),
    ]
    for spec, qd0, q0 in zip(cfg.robots, desired0, starts):
        assert spec.start == q0
        assert spec.profile.pose0 == qd0
        assert (spec.profile.v, spec.profile.omega) == (4.0, 1.0)
        assert spec.params.mass == 3.6
        assert spec.params.inertia == 0.0405
        assert np.array_equal(spec.params.damping,
                              [[0.3, 0.0], [0.0, 0.004]])
        assert spec.start_twist == (0.0, 0.0)
        assert spec.estimate0 == (0.0,) * 6


def test_unknown_preset():
    with pytest.raises(KeyError):
        fs.get_preset("hexagon")


# ---- trace CSV ----

def test_trace_csv_round_trip(tmp_path):
    cfg = replace(fs.get_preset("adaptive-pentagon"), t_final=0.05)
    trace = fs.simulate(cfg)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    back = fs.Trace.read_csv(path)
    assert back.columns == trace.columns
    assert np.array_equal(back.data, trace.data)  # 17 digits round-trip


def test_trace_column_contract():
    cfg = replace(fs.get_preset("adaptive-pentagon"), t_final=0.05)
    trace = fs.simulate(cfg)
    for col in ["t", "x1", "y1", "th1", "v1", "w1", "F1", "tau1",
                "phihat1_1", "norm_e1", "norm_eps_1_2", "norm_z", "V",
                "Va", "ls_residual"]:
        assert col in trace.columns
    with pytest.raises(KeyError):
        trace.column("bogus")


# ---- metrics ----

def _synthetic_trace(times, err_norms, zvals=None):
    cols = ["t", "x1", "y1", "th1", "v1", "w1", "norm_e1", "norm_z", "V",
            "Va", "ls_residual"]
    rows = []
    for k, t in enumerate(times):
        z = zvals[k] if zvals is not None else err_norms[k]
        rows.append([t, 0, 0, 0, 1.0, 0.5, err_norms[k], z, 0.5 * z * z,
                     0.5 * z * z, 0.0])
    return fs.Trace(columns=cols, data=np.array(rows))


def test_metrics_zero_error_converges_at_zero():
    tr = _synthetic_trace(np.linspace(0, 1, 11), np.zeros(11))
    rep = fs.compute_metrics(tr)
    assert rep.convergence_times == [0.0]
    assert rep.converged_all


def test_metrics_exponential_decay_rate():
    ts = np.linspace(0, 5, 501)
    tr = _synthetic_trace(ts, np.exp(-2 * ts), zvals=np.exp(-2 * ts))
    rep = fs.compute_metrics(tr)
    assert abs(rep.decay_rate - 2.0) < 1e-3


def test_metrics_unconverged_flagged():
    ts = np.linspace(0, 1, 11)
    tr = _synthetic_trace(ts, np.ones(11))
    rep = fs.compute_metrics(tr, threshold=0.1)
    assert rep.convergence_times == [None]
    assert rep.unconverged == [1]
    assert not rep.converged_all


def test_metrics_threshold_default_is_two_percent():
    ts = np.linspace(0, 1, 101)
    errs = np.maximum(4.0 - 8 * ts, 0.001)
    tr = _synthetic_trace(ts, errs)
    rep = fs.compute_metrics(tr)
    assert abs(rep.threshold - 0.08) < 1e-12


def test_metrics_empty_trace():
    tr = fs.Trace(columns=["t", "norm_e1", "norm_z", "V", "Va",
                           "ls_residual", "v1", "w1"],
                  data=np.empty((0, 8)))
    with pytest.raises(fs.EmptyTrace):
        fs.compute_metrics(tr)


def test_metrics_report_yaml_loads():
    cfg = replace(fs.get_preset("kinematic-pentagon"), t_final=0.2)
    rep = fs.compute_metrics(fs.simulate(cfg))
    doc = yaml.safe_load(report_to_yaml(rep))
    assert set(doc) >= {"threshold", "converged_all", "convergence_times",
                        "decay_rate", "peak_controls", "residual"}


@pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"),
                    reason="PyYAML built without libyaml")
def test_libyaml_and_python_dumpers_agree(monkeypatch):
    configs = [replace(fs.get_preset(name), t_final=2.0)
               for name in fs.preset_names()]
    configs.append(replace(fs.load_scenario(_random_tree_text(200, 7)),
                           t_final=0.05))
    for cfg in configs:
        rep = fs.compute_metrics(fs.simulate(cfg))
        texts = []
        for dumper in (yaml.CSafeDumper, yaml.SafeDumper):
            monkeypatch.setattr(metrics, "_DUMPER", dumper)
            texts.append(report_to_yaml(rep))
        assert texts[0] == texts[1]

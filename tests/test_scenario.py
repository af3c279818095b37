import json
import math
import re

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_threshold_round_trips_through_yaml():
    cfg = replace(fs.get_preset("kinematic-pentagon"), threshold=0.25)
    text = fs.serialize_scenario(cfg)
    assert "threshold: 0.25" in text.splitlines()
    back = fs.load_scenario(text)
    assert back.threshold == 0.25
    assert fs.scenario_to_dict(back) == fs.scenario_to_dict(cfg)


def test_long_one_line_text_is_yaml_not_a_path():
    # JSON is YAML; one line of it longer than a file name may be must
    # still load as text
    cfg = fs.get_preset("kinematic-pentagon")
    text = json.dumps(fs.scenario_to_dict(cfg))
    assert "\n" not in text and len(text) > 255
    assert fs.scenario_to_dict(fs.load_scenario(text)) \
        == fs.scenario_to_dict(cfg)


def test_missing_path_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        fs.load_scenario(tmp_path / "missing.yaml")


def test_parse_error_on_bad_yaml():
    with pytest.raises(fs.ParseError):
        fs.load_scenario("mode: [unclosed\n  nonsense: {\n")


@pytest.mark.parametrize("line", [
    "dt: !!int abc",            # ValueError in PyYAML's constructor
    'dt: !!float ""',           # IndexError
    "dt: !!bool maybe",         # KeyError
    "dt: !!timestamp soon",     # AttributeError
])
def test_parse_error_on_unconstructible_value(line):
    # PyYAML's constructors raise untyped errors for these tagged scalars
    text = yaml.safe_dump(_tiny_doc()).replace("dt: 0.001\n", "")
    assert "dt:" not in text
    with pytest.raises(fs.ParseError, match="cannot construct"):
        fs.load_scenario(text + line + "\n")


@pytest.mark.parametrize("path,value,message", [
    (("sample_every",), 10 ** 400, "sample_every: value must be finite"),
    (("sample_every",), -10 ** 400, "sample_every: value must be finite"),
    (("edges",), [[1, 10 ** 400]], "edges[1]: value must be finite"),
    (("gains", "formation"), [2, 10 ** 400, 10],
     "gains.formation: values must be finite"),
    (("robots", 0, "start"), [10 ** 400, 0, 0],
     "robots[1].start: values must be finite"),
    (("robots", 1, "trajectory"),
     {"kind": "sampled_twist", "start": [1, 0, 0], "times": [0.0, 2.0],
      "twists": [[1.0, 0.5], [10 ** 400, 0.5]], "rates": [[0.0, 0.0]] * 2},
     "robots[2].trajectory.twists: values must be finite"),
], ids=["sample_every", "-sample_every", "edges", "gains", "start", "table"])
def test_int_beyond_float_is_not_finite(path, value, message):
    # a number too large for a float is refused like .inf, naming its field
    doc = _tiny_doc()
    _set(doc, path, value)
    with pytest.raises(fs.ValidationError, match=re.escape(message)):
        fs.load_scenario(yaml.safe_dump(doc))


def _table(**fields):
    table = {"kind": "sampled_twist", "start": [1, 0, 0],
             "times": [0.0, 2.0], "twists": [[1.0, 0.5]] * 2,
             "rates": [[0.0, 0.0]] * 2}
    table.update(fields)
    return table


@pytest.mark.parametrize("path,value,error,message", [
    (("robots", 1, "trajectory"),
     _table(times=[0.0], twists=[[1.0, 0.5]], rates=[[0.0, 0.0]]),
     fs.ValidationError, "robots[2].trajectory: times must be a 1-D list of "
     "at least two samples"),
    (("robots", 1, "trajectory"), _table(twists=[[1.0, 0.5]] * 3),
     fs.ValidationError,
     "robots[2].trajectory: twists and rates must be (len(times), 2)"),
    (("robots", 1, "trajectory"), _table(rates=[[0.0, 0.0, 0.0]] * 2),
     fs.ValidationError,
     "robots[2].trajectory: twists and rates must be (len(times), 2)"),
    (("robots", 1, "trajectory"),
     _table(rates=[[0.0, 0.0], [float("nan"), 0.0]]), fs.ValidationError,
     "robots[2].trajectory: profile tables must be finite"),
    (("robots", 1, "trajectory", "kind"), "spiral", fs.SchemaError,
     "robots[2].trajectory: unknown trajectory kind 'spiral'"),
    (("robots",), [], fs.SchemaError, "robots must be a non-empty list"),
], ids=["one-sample", "twists-shape", "rates-shape", "non-finite",
        "kind", "no-robots"])
def test_config_error_names_its_field(path, value, error, message):
    doc = _tiny_doc()
    _set(doc, path, value)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        fs.load_scenario(yaml.safe_dump(doc))


@pytest.mark.parametrize("text,kind", [("- 1\n- 2\n", "list"),
                                       ("42\n", "int")])
def test_top_level_not_a_mapping(text, kind):
    with pytest.raises(fs.SchemaError,
                       match=f"^top level must be a mapping, got {kind}$"):
        fs.load_scenario(text)


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


@pytest.mark.parametrize("edge", [[0, 2], [1, -1], [1, 3]])
def test_edge_outside_the_robots_is_a_bad_graph(edge):
    # an endpoint that names no robot is a fault of the graph like any
    # other, not an untyped error
    with pytest.raises(fs.ValidationError,
                       match=r"bad coordination graph: edge .* outside "
                             r"vertex range 1\.\.2"):
        fs.scenario_from_dict(_tiny_doc(edges=[edge]))


def test_config_stores_the_tree_in_topological_order():
    # one tree, its edges parents first: the config serializes it, loads
    # back equal, and runs the trace of the in-order text
    doc = _tiny_doc(edges=[[3, 4], [1, 2], [2, 3]])
    doc["robots"] = [dict(doc["robots"][0], start=[0.3 * k, -0.2 * k, 0.1])
                     for k in range(4)]
    cfg = fs.scenario_from_dict(doc)
    assert cfg.tree.edges == ((1, 2), (2, 3), (3, 4))
    assert fs.scenario_to_dict(cfg)["edges"] == [[1, 2], [2, 3], [3, 4]]
    assert fs.load_scenario(fs.serialize_scenario(cfg)) == cfg
    in_order = fs.scenario_from_dict(dict(doc, edges=[[1, 2], [2, 3],
                                                      [3, 4]]))
    assert in_order == cfg
    a = fs.simulate(replace(cfg, t_final=0.05))
    b = fs.simulate(replace(in_order, t_final=0.05))
    assert a.columns == b.columns
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("loader", [yaml.SafeLoader] + (
    [yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else []),
    ids=lambda c: c.__name__)
def test_file_is_decoded_as_yaml(tmp_path, monkeypatch, loader):
    # a file's bytes are decoded by YAML's rules, not the locale's: UTF-8,
    # or UTF-16 with a byte-order mark, load to the same config, and bytes
    # that decode as neither are a ParseError like any unreadable YAML
    monkeypatch.setattr(scenario, "_LOADER", loader)
    for name in fs.preset_names():
        text = fs.serialize_scenario(fs.get_preset(name))
        utf8, utf16 = tmp_path / "utf8.yaml", tmp_path / "utf16.yaml"
        utf8.write_bytes(text.encode("utf-8"))
        utf16.write_bytes(text.encode("utf-16"))
        assert utf16.read_bytes()[:2] in (b"\xff\xfe", b"\xfe\xff")
        want = fs.scenario_to_dict(fs.load_scenario(text))
        assert fs.scenario_to_dict(fs.load_scenario(utf8)) == want
        assert fs.scenario_to_dict(fs.load_scenario(utf16)) == want
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"name: x\n\xff\n")
    with pytest.raises(fs.ParseError, match="not valid YAML"):
        fs.load_scenario(bad)


def test_validation_rejects_bad_steps():
    with pytest.raises(fs.ValidationError):
        fs.scenario_from_dict(_tiny_doc(dt=-1e-3))
    with pytest.raises(fs.ValidationError):
        fs.scenario_from_dict(_tiny_doc(t_final=0.0))


def test_step_counts_just_below_2_53_are_accepted():
    # 2**53 steps are rejected (see the cases below and in test_cli.py);
    # past them a step index times the step is no longer exact
    assert fs.scenario_from_dict(_tiny_doc(dt=2.0 ** -52)).dt == 2.0 ** -52
    doc = _tiny_doc()
    table = {"kind": "sampled_twist", "start": [1, 0, 0],
             "times": [0.0, 2.0], "twists": [[1.0, 0.5]] * 2,
             "rates": [[0.0, 0.0]] * 2}
    doc["robots"][1]["trajectory"] = {**table, "grid_dt": 2.0 ** -52}
    with pytest.raises(fs.ValidationError, match=re.escape(
            "robots[2].trajectory: grid_dt")):
        fs.scenario_from_dict(doc)
    doc["robots"][1]["trajectory"] = {**table, "grid_dt": 2.0 ** -51}
    assert fs.scenario_from_dict(doc).robots[1].profile.grid_dt \
        == 2.0 ** -51


@pytest.mark.parametrize("field,value,error", [
    ("dt", "fast", fs.SchemaError),
    ("t_final", [1.0, 2.0], fs.SchemaError),
    ("threshold", "tight", fs.SchemaError),
    ("sample_every", 2.5, fs.ValidationError),
    ("sample_every", 0, fs.ValidationError),
    ("threshold", 0.0, fs.ValidationError),
    ("t_final", -np.inf, fs.ValidationError),
    ("dt", 1e-300, fs.ValidationError),
    ("t_final", 1e300, fs.ValidationError),
    ("dt", 2.0 ** -53, fs.ValidationError),     # exactly 2**53 steps
    ("t_final", 4e-4, fs.ValidationError),      # rounds to no step
])
def test_validation_rejects_bad_run_scalars(field, value, error):
    with pytest.raises(error, match=field):
        fs.scenario_from_dict(_tiny_doc(**{field: value}))


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


_PENTAGON = fs.scenario_to_dict(fs.get_preset("adaptive-pentagon"))


@pytest.mark.parametrize("path,value,message", [
    (("dt",), True, "dt: expected a number, got True"),
    (("sample_every",), True, "sample_every: expected a number, got True"),
    (("threshold",), False, "threshold: expected a number, got False"),
    (("n",), True, "n: expected a number, got True"),
    (("edges",), [[1, True]], "edges[1]: expected a number, got True"),
    (("gains", "formation"), [1.0, True, 1.0],
     "gains.formation: expected numbers, got [1.0, True, 1.0]"),
    (("gains", "formation"), [1.0] * 5 + [False], "gains.formation"),
    (("robots", 0, "start"), [True, 0.0, 0.0],
     "robots[1].start: expected numbers, got [True, 0.0, 0.0]"),
    (("robots", 0, "start"), [[0.0, False, 0.0]], "robots[1].start"),
    (("robots", 0, "start"), True, "robots[1].start: expected numbers, got "
                                   "True"),
    (("robots", 1, "trajectory", "twist"), [1.0, True],
     "robots[2].trajectory.twist"),
    (("robots", 1, "trajectory", "start"), (0, 0, False),
     "robots[2].trajectory.start"),
    (("robots", 0, "start"), [None, 0, 0],
     "robots[1].start: expected numbers, got [None, 0, 0]"),
])
def test_booleans_are_not_numbers(path, value, message):
    # YAML reads yes, on and true as booleans and ~ as a null; numpy and
    # float() would take a bool for 1 and numpy a null for nan, so
    # wherever a number goes either is a schema error
    doc = _tiny_doc(threshold=0.1)
    _set(doc, path, value)
    with pytest.raises(fs.SchemaError, match=re.escape(message)):
        fs.scenario_from_dict(doc)


@pytest.mark.parametrize("path,value", [
    (("robots", 2, "start_twist"), [0.0, True]),
    (("robots", 2, "estimate0"), [0.0] * 5 + [True]),
    (("robots", 2, "params", "damping"), [[0.3, True], [0.0, 0.004]]),
    (("robots", 2, "params", "mass"), True),
    (("gains", "twist"), [3.0, True]),
    (("gains", "adaptation"), [True] * 6),
    (("robots", 2, "params", "damping"), [[None, 0], [0, 0.004]]),
    (("gains", "twist"), [None, 1]),
    (("robots", 2, "start_twist"), None),
])
def test_booleans_are_not_numbers_in_dynamic_fields(path, value):
    doc = json.loads(json.dumps(_PENTAGON))
    _set(doc, path, value)
    context = "".join(f"[{k + 1}]" if isinstance(k, int) else f".{k}"
                      for k in path).lstrip(".")
    with pytest.raises(fs.SchemaError, match=re.escape(context)):
        fs.scenario_from_dict(doc)


def test_boolean_in_sampled_table_is_schema_error():
    doc = _tiny_doc()
    doc["robots"][1]["trajectory"] = {
        "kind": "sampled_twist", "start": [1, 0, 0], "times": [0.0, 2.0],
        "twists": [[1.0, 0.5], [True, 0.5]], "rates": [[0.0, 0.0]] * 2}
    with pytest.raises(fs.SchemaError,
                       match=re.escape("robots[2].trajectory.twists")):
        fs.scenario_from_dict(doc)


@pytest.mark.parametrize("path,flat,nested", [
    (("robots", 0, "start"), [1.0, 2.0], [[1.0, 2.0]]),
    (("robots", 0, "start"), [1, 2, float("nan")], [[1, 2, float("nan")]]),
    (("robots", 0, "start"), [1, 2, 3], [[1], [2], [3]]),
    (("robots", 0, "trajectory", "twist"), [1, "x"], [[1, "x"]]),
    (("gains", "formation"), [1.0, 0.0, 1.0], [[1.0, 0.0, 1.0]]),
    (("gains", "formation"), [1, 2], [[1, 2]]),
    (("gains", "formation"), [1, 2, float("inf")], [[1, 2, float("inf")]]),
    (("gains", "formation"), [1, 2, 3] * 2, [[1, 2, 3]] * 2),
    (("robots", 0, "start"), [10 ** 400, 0, 0], [[10 ** 400, 0, 0]]),
])
def test_flat_and_nested_numbers_check_alike(path, flat, nested):
    # a flat list of Python numbers is checked without numpy, anything
    # else through an array; both give the same values or the same error
    outcomes = []
    for value in (flat, nested):
        doc = _tiny_doc()
        _set(doc, path, value)
        try:
            cfg = fs.scenario_from_dict(doc)
            outcomes.append((cfg.robots[0].start, cfg.robots[0].profile,
                             cfg.formation_gain))
        except (ValueError, OverflowError) as exc:
            outcomes.append((type(exc), str(exc).replace(repr(value), "")))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("field,value,error,message", [
    ("mass", float("nan"), fs.ValidationError,
     "robots[3].params.mass: value must be finite, got nan"),
    ("mass", float("inf"), fs.ValidationError,
     "robots[3].params.mass: value must be finite, got inf"),
    ("mass", "abc", fs.SchemaError,
     "robots[3].params.mass: expected a number, got 'abc'"),
    ("inertia", 0.0, fs.ValidationError,
     "robots[3].params.inertia must be positive, got 0"),
    ("damping", "abc", fs.SchemaError,
     "robots[3].params.damping: expected numbers, got 'abc'"),
    ("damping", [[1.0, 0.0]], fs.ValidationError,
     "robots[3].params: damping must be a finite 2x2 matrix"),
])
def test_plant_parameters_are_checked_numbers(field, value, error, message):
    doc = json.loads(json.dumps(_PENTAGON))
    doc["robots"][2]["params"][field] = value
    with pytest.raises(error) as info:
        fs.scenario_from_dict(doc)
    assert str(info.value) == message


def test_robot_params_reject_non_finite():
    for mass, inertia in [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.inf),
                          (1.0, -np.inf)]:
        with pytest.raises(ValueError, match="finite and positive"):
            fs.RobotParams(mass=mass, inertia=inertia,
                           damping=np.zeros((2, 2)))


# every number in exponent-only form, which YAML 1.1 reads as a string
_EXPONENT_ONLY = """\
mode: dynamic
edges: [[1, 2]]
dt: 1e-3
t_final: 5e-2
sample_every: 1e1
gains:
  formation: [1e0, 2e0, 3e0]
  twist: [3e0, 25e-1]
  adaptation: [1e0, 1e0, 2e0, 1e0, 1e0, 1e0]
robots:
- start: [1e-1, 0e0, 0e0]
  trajectory:
    kind: constant_twist
    start: [0e0, 0e0, 0e0]
    twist: [1e0, 5e-1]
  start_twist: [0e0, 0e0]
  estimate0: [0e0, 0e0, 0e0, 0e0, 0e0, 0e0]
  params: &plant
    mass: 36e-1
    inertia: 405e-4
    damping: [[3e-1, 0e0], [0e0, 4e-3]]
- start: [-4e-1, 3e-1, 2e-1]
  trajectory:
    kind: sampled_twist
    start: [0e0, 0e0, 0e0]
    times: [0e0, 1e0]
    twists: [[1e0, 2e-1], [1e0, 2e-1]]
    rates: [[0e0, 0e0], [0e0, 0e0]]
    grid_dt: 5e-4
  start_twist: [0e0, 0e0]
  estimate0: [0e0, 0e0, 0e0, 0e0, 0e0, 0e0]
  params: *plant
"""


def _leaves(node):
    if isinstance(node, (dict, list)):
        for child in node.values() if isinstance(node, dict) else node:
            yield from _leaves(child)
    else:
        yield node


def test_exponent_only_numbers_load_as_their_dotted_form():
    # 1e-3 is the string '1e-3' to YAML 1.1 and 1.0e-3 the float; every
    # number field reads the string as the number it spells
    dotted = re.sub(r"\b(\d+)e([-+]?)(\d+)\b",
                    lambda m: f"{m[1]}.0e{m[2] or '+'}{m[3]}", _EXPONENT_ONLY)
    pairs = list(zip(_leaves(yaml.safe_load(_EXPONENT_ONLY)),
                     _leaves(yaml.safe_load(dotted))))
    numbers = [(a, b) for a, b in pairs if type(b) is float]
    assert len(numbers) == 67
    assert all(type(a) is str and float(a) == b for a, b in numbers)
    assert {b for a, b in pairs if type(b) is not float} == {
        "dynamic", "constant_twist", "sampled_twist", 1, 2}
    got, want = fs.load_scenario(_EXPONENT_ONLY), fs.load_scenario(dotted)
    for field in ("dt", "t_final", "sample_every", "formation_gain",
                  "twist_gain", "adapt_gain"):
        assert getattr(got, field) == getattr(want, field), field
    assert (got.dt, got.t_final, got.sample_every) == (1e-3, 5e-2, 10)
    for spec, ref in zip(got.robots, want.robots):
        assert spec.start == ref.start
        assert spec.params.mass == ref.params.mass == 3.6
        assert spec.params.inertia == ref.params.inertia == 0.0405
        assert np.array_equal(spec.params.damping, ref.params.damping)
    table, ref = got.robots[1].profile, want.robots[1].profile
    assert table.grid_dt == ref.grid_dt == 5e-4
    for name in ("times", "twists", "rates"):
        assert np.array_equal(getattr(table, name), getattr(ref, name))
    assert np.array_equal(fs.simulate(got).data, fs.simulate(want).data)


def test_whole_sample_every_accepted():
    assert fs.scenario_from_dict(_tiny_doc(sample_every=4.0)).sample_every \
        == 4


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
    assert cfg.tree.edges == ((1, 2), (2, 3), (3, 4), (4, 5))
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


def test_unknown_preset_message_lists_the_presets():
    # the library's own refusal; the CLI's argument parser refuses an
    # unknown name before it is reached
    with pytest.raises(KeyError) as info:
        fs.get_preset("nosuch")
    assert info.value.args[0] == ("unknown preset 'nosuch'; available: "
                                  "adaptive-pentagon, kinematic-pentagon")


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


def _table_doc(dt, t_final, span):
    doc = _tiny_doc(dt=dt, t_final=t_final)
    table = {"kind": "sampled_twist", "start": [0.0, 0.0, 0.0],
             "times": [0.0, span], "twists": [[1.0, 0.5]] * 2,
             "rates": [[0.0, 0.0]] * 2}
    for rd in doc["robots"]:
        rd["trajectory"] = table
    return doc


def test_sampled_table_must_reach_the_last_whole_step():
    # 1 / 0.6 rounds to 2 steps, so the run ends at 1.2, past the table
    with pytest.raises(fs.ValidationError,
                       match=r"robots\[1\]\.trajectory: sampled trajectory "
                             r"spans 1 < 1\.2, t_final 1 rounded"):
        fs.scenario_from_dict(_table_doc(0.6, 1.0, 1.0))
    # 1 / 0.3 rounds down to 3 steps: a table reaching 0.9 covers the run
    fs.scenario_from_dict(_table_doc(0.3, 1.0, 0.9))


def test_a_shared_table_is_checked_once(monkeypatch):
    # robots holding the same three lists share the first one's checked,
    # read-only arrays, at the same grid_dt without a second check
    checks = []
    post_init = fs.SampledTwist.__post_init__
    monkeypatch.setattr(fs.SampledTwist, "__post_init__",
                        lambda self: checks.append(post_init(self)))
    doc = _table_doc(0.01, 1.0, 1.0)
    doc["robots"].append({"start": [2.0, 0.0, 0.0], "trajectory": {
        **doc["robots"][0]["trajectory"], "start": [2.0, 1.0, 0.0]}})
    doc["robots"].append({"start": [3.0, 0.0, 0.0], "trajectory": {
        **doc["robots"][0]["trajectory"], "grid_dt": 1e-3}})
    doc["edges"] += [[1, 3], [1, 4]]
    first, same, moved, other = (spec.profile for spec in
                                 fs.scenario_from_dict(doc).robots)
    assert len(checks) == 2
    for key in ("times", "twists", "rates"):
        arrays = [getattr(p, key) for p in (first, same, moved, other)]
        assert all(a is arrays[0] for a in arrays[:3])
        assert not any(a.flags.writeable for a in arrays)
    assert moved.pose0 == (2.0, 1.0, 0.0) and same.pose0 == first.pose0
    assert (first.grid_dt, other.grid_dt) == (5e-4, 1e-3)
    # a fault in the shared table names the first robot that holds it
    doc["robots"][0]["trajectory"]["times"][1] = 0.0
    with pytest.raises(fs.ValidationError, match=re.escape(
            "robots[1].trajectory: times must be strictly increasing")):
        fs.scenario_from_dict(doc)


def test_sampled_table_ending_at_a_whole_t_final_loads():
    # a table meant to end at t_final = k dt can fall up to three
    # roundings short of round(t_final / dt) * dt (for 3 steps of 0.1 the
    # product is 0.30000000000000004); every such config loads
    from decimal import Decimal
    above = 0
    for step in ("0.1", "0.3", "0.05", "0.007", "1e-4"):
        dt = float(step)
        for k in range(1, 400):
            t_final = float(k * Decimal(step))
            above += round(t_final / dt) * dt > t_final
            fs.scenario_from_dict(_table_doc(dt, t_final, t_final))
    assert above > 0


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


def test_metrics_zero_start_floor_keeps_a_later_error():
    # the robot starts on its trajectory (error 0), moves out to x = 10
    # with rounding-sized errors, and is 1e-3 off at one sample mid-run:
    # the default threshold is the rounding floor N u P, above the
    # rounding and far below that error, so the robot converges after it
    ts = np.linspace(0.0, 1.0, 101)
    errs = np.full(101, 4e-15)
    errs[0], errs[60] = 0.0, 1e-3
    tr = _synthetic_trace(ts, errs)
    tr.data[:, 1] = 10.0 * ts
    tr.meta["sample_every"] = 10
    rep = fs.compute_metrics(tr)
    assert rep.threshold == 100 * 10 * 10.0 * 2.0 ** -53
    assert rep.convergence_times == [ts[61]]
    assert rep.converged_all


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


DUMPERS = [yaml.SafeDumper] + ([yaml.CSafeDumper]
                               if hasattr(yaml, "CSafeDumper") else [])


def _assert_dumped_as_pyyaml(rep):
    doc = {
        "threshold": rep.threshold,
        "converged_all": rep.converged_all,
        "unconverged_robots": rep.unconverged,
        "convergence_times": rep.convergence_times,
        "final_tracking_errors": rep.final_tracking_errors,
        "final_coordination_errors": rep.final_coordination_errors,
        "decay_rate": rep.decay_rate,
        "peak_controls": rep.peak_controls,
        "residual": rep.residual_stats,
    }
    text = report_to_yaml(rep)
    for dumper in DUMPERS:
        assert text == yaml.dump(doc, Dumper=dumper, sort_keys=False)


def test_libyaml_and_python_dumpers_agree():
    # the directly written metrics YAML is the text both of PyYAML's safe
    # dumpers write for the report
    configs = [replace(fs.get_preset(name), t_final=2.0)
               for name in fs.preset_names()]
    configs.append(replace(fs.load_scenario(_random_tree_text(200, 7)),
                           t_final=0.05))
    for cfg in configs:
        _assert_dumped_as_pyyaml(fs.compute_metrics(fs.simulate(cfg)))


# every float, and the ones whose repr is easy to get wrong: a signed
# zero, the least subnormal, 1e16 and 1e17 (repr "1e+16", no point), and
# a tiny normal
_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 5e-324, 1e16, 1e17, 1.5e-300, math.nan, math.inf, -math.inf]))


@st.composite
def _reports(draw):
    n = draw(st.integers(1, 50))
    times = draw(st.lists(st.none() | _FLOATS, min_size=n, max_size=n))
    return metrics.MetricsReport(
        threshold=draw(_FLOATS),
        convergence_times=times,
        final_tracking_errors=draw(st.lists(_FLOATS, min_size=n,
                                            max_size=n)),
        final_coordination_errors=draw(st.lists(_FLOATS, min_size=n - 1,
                                                max_size=n - 1)),
        decay_rate=draw(st.none() | _FLOATS),
        peak_controls=draw(st.lists(_FLOATS, min_size=n, max_size=n)),
        residual_stats=dict(zip(("max", "mean", "final"),
                                draw(st.tuples(_FLOATS, _FLOATS, _FLOATS)))),
        unconverged=[i + 1 for i, t in enumerate(times) if t is None],
    )


@settings(max_examples=200, deadline=None)
@given(rep=_reports())
def test_report_yaml_is_pyyaml_safe_dump(rep):
    _assert_dumped_as_pyyaml(rep)

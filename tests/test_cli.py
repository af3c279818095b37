import functools
import os
import random
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import formsim as fs
from formsim import cli
from formsim.cli import main
from formsim.controller import _Torque
from formsim.metrics import report_to_yaml

REPO = Path(__file__).resolve().parents[1]


def _write_short_preset(tmp_path, name="kinematic-pentagon", **edits):
    cfg = fs.get_preset(name)
    doc = fs.scenario_to_dict(cfg)
    doc["t_final"] = 0.2
    doc.update(edits)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_preset_emits_loadable_config(capsys):
    for name in fs.preset_names():
        assert main(["preset", name]) == 0
        text = capsys.readouterr().out
        cfg = fs.load_scenario(text)
        assert cfg.name == name


def test_preset_to_file(tmp_path):
    out = tmp_path / "preset.yaml"
    assert main(["preset", "adaptive-pentagon", "-o", str(out)]) == 0
    assert fs.load_scenario(out).mode == "dynamic"


def test_unknown_preset_exits_2(capsys):
    # argparse refuses a name outside the presets before the command runs
    with pytest.raises(SystemExit) as info:
        main(["preset", "nosuch"])
    assert info.value.code == 2
    assert "invalid choice: 'nosuch'" in capsys.readouterr().err


def test_preset_into_a_missing_directory_exits_4(tmp_path, capsys):
    out = tmp_path / "missing" / "k.yaml"
    assert main(["preset", "kinematic-pentagon", "-o", str(out)]) == 4
    assert f"cannot write {out}" in capsys.readouterr().err


def test_run_produces_trace_and_metrics(tmp_path, capsys):
    cfg_path = _write_short_preset(tmp_path)
    trace_path = tmp_path / "trace.csv"
    metrics_path = tmp_path / "metrics.yaml"
    code = main(["run", "--config", str(cfg_path), "--trace",
                 str(trace_path), "--metrics", str(metrics_path)])
    assert code == 0
    trace = fs.Trace.read_csv(trace_path)
    assert trace.columns[0] == "t"
    assert trace.columns[-1] == "ls_residual"
    doc = yaml.safe_load(metrics_path.read_text())
    assert "convergence_times" in doc
    assert "wrote trace" in capsys.readouterr().out


_SHARED_RUN = {"adaptive-pentagon": "dynamic_run",
               "kinematic-pentagon": "kinematic_run"}


@pytest.mark.parametrize("name,bound", [
    ("adaptive-pentagon", 20.0),
    ("kinematic-pentagon", 12.0),
])
def test_run_full_preset_reports_convergence(tmp_path, request, name, bound):
    # the CLI path on a short horizon; the convergence assertions read the
    # metrics of the full-horizon run conftest.py shares, which is the
    # same scenario: the emitted preset loads equal to the built-in one
    cfg_path = tmp_path / "cfg.yaml"
    assert main(["preset", name, "-o", str(cfg_path)]) == 0
    metrics_path = tmp_path / "metrics.yaml"
    code = main(["run", "--config", str(cfg_path), "--trace",
                 str(tmp_path / "trace.csv"), "--metrics",
                 str(metrics_path), "--t-final", "0.2"])
    assert code == 0
    assert "converged_all" in yaml.safe_load(metrics_path.read_text())
    cfg = fs.load_scenario(cfg_path)
    assert fs.scenario_to_dict(cfg) == fs.scenario_to_dict(
        fs.get_preset(name))
    trace = request.getfixturevalue(_SHARED_RUN[name])["trace"]
    report = fs.compute_metrics(trace, threshold=cfg.threshold)
    doc = yaml.safe_load(report_to_yaml(report))
    assert doc["converged_all"]
    assert max(doc["convergence_times"]) < bound


def test_run_overrides_t_final(tmp_path):
    cfg_path = _write_short_preset(tmp_path)
    trace_path = tmp_path / "t.csv"
    code = main(["run", "--config", str(cfg_path), "--trace",
                 str(trace_path), "--metrics", str(tmp_path / "m.yaml"),
                 "--t-final", "0.1"])
    assert code == 0
    assert abs(fs.Trace.read_csv(trace_path).times[-1] - 0.1) < 1e-12


def test_run_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("mode: kinematic\n")
    code = main(["run", "--config", str(path), "--trace",
                 str(tmp_path / "t.csv"), "--metrics",
                 str(tmp_path / "m.yaml")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_run_singular_speed_exits_nonzero(tmp_path, capsys):
    cfg = fs.get_preset("kinematic-pentagon")
    doc = fs.scenario_to_dict(cfg)
    doc["robots"][0]["trajectory"]["twist"] = [0.0, 1.0]
    path = tmp_path / "singular.yaml"
    path.write_text(yaml.safe_dump(doc))
    code = main(["run", "--config", str(path), "--trace",
                 str(tmp_path / "t.csv"), "--metrics",
                 str(tmp_path / "m.yaml")])
    assert code != 0
    assert "SingularSpeed" in capsys.readouterr().err


def _sampled_doc(**trajectory):
    ts = [0.0, 0.3, 0.6, 1.0]
    traj = {"kind": "sampled_twist", "start": [0.0, 0.0, 0.0], "times": ts,
            "twists": [[1.0, 0.2]] * 4, "rates": [[0.0, 0.0]] * 4}
    traj.update(trajectory)
    return {"mode": "kinematic", "edges": [], "dt": 0.01, "t_final": 0.5,
            "gains": {"formation": [1.0, 1.0, 1.0]},
            "robots": [{"start": [0.1, 0.0, 0.0], "trajectory": traj}]}


@pytest.mark.parametrize("trajectory", [
    {"grid_dt": float("nan")},
    {"grid_dt": float("inf")},
    {"grid_dt": 0.0},
    {"times": [0.0, 0.6, 0.3, 1.0]},
    {"grid_dt": 1e-300},
])
def test_run_bad_sampled_table_exits_2(tmp_path, capsys, trajectory):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(_sampled_doc(**trajectory)))
    code = main(["run", "--config", str(path), "--trace",
                 str(tmp_path / "t.csv"), "--metrics",
                 str(tmp_path / "m.yaml")])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error: ValidationError: robots[1].trajectory" in err


def test_run_unknown_trajectory_kind_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(_sampled_doc(kind="spiral")))
    code = main(["run", "--config", str(path), "--trace",
                 str(tmp_path / "t.csv"), "--metrics",
                 str(tmp_path / "m.yaml")])
    assert code == 2
    assert ("config error: SchemaError: robots[1].trajectory: unknown "
            "trajectory kind 'spiral'") in capsys.readouterr().err


@pytest.mark.parametrize("grid_dt", [[0.001], [[0.001]]])
def test_run_list_grid_dt_exits_2(tmp_path, capsys, grid_dt):
    # grid_dt is one number, as dt is
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(_sampled_doc(grid_dt=grid_dt)))
    code = main(["run", "--config", str(path), "--trace",
                 str(tmp_path / "t.csv"), "--metrics",
                 str(tmp_path / "m.yaml")])
    err = capsys.readouterr().err
    assert code == 2
    assert ("config error: SchemaError: robots[1].trajectory.grid_dt: "
            "expected a number") in err


@pytest.mark.parametrize("command,failed", [("run", "run failed"),
                                            ("check", "check run failed")])
def test_unallocatable_pose_grid_exits_3(tmp_path, capsys, command, failed):
    # 1e15 grid steps pass the 2**53 step bound, but their pose grid (24
    # PB) cannot be allocated; the request fails at once, touching no
    # memory
    path = tmp_path / "huge.yaml"
    path.write_text(yaml.safe_dump(_sampled_doc(grid_dt=1e-15)))
    args = ["--trace", str(tmp_path / "t.csv"), "--metrics",
            str(tmp_path / "m.yaml")] if command == "run" else []
    code = main([command, "--config", str(path), *args])
    err = capsys.readouterr().err
    assert code == 3
    assert f"{failed}: GridAllocationError" in err
    assert "grid_dt 1e-15" in err


def _star_doc(n, trajectory, **edits):
    doc = {"mode": "kinematic", "edges": [[1, k] for k in range(2, n + 1)],
           "dt": 0.01, "t_final": 1.0, "gains": {"formation": [1.0] * 3},
           "robots": [{"start": [0.1 * k, 0.0, 0.0], "trajectory": trajectory}
                      for k in range(n)]}
    doc.update(edits)
    return doc


@pytest.mark.parametrize("command,failed", [("run", "run failed"),
                                            ("check", "check run failed")])
def test_pose_grid_too_large_to_index_exits_3(tmp_path, capsys,
                                              command, failed):
    # 50 robots share one table of 8.3e15 grid steps, under the 2**53
    # bound: the path they share (178 PiB) is beyond any address space,
    # so numpy's MemoryError comes at once, touching no memory
    table = _sampled_doc(times=[0.0, 1.0], twists=[[1.0, 0.2]] * 2,
                         rates=[[0.0, 0.0]] * 2, grid_dt=1.2e-16)
    path = tmp_path / "huge.yaml"
    path.write_text(yaml.safe_dump(
        _star_doc(50, table["robots"][0]["trajectory"])))
    assert _run_or_check(command, path, tmp_path) == 3
    err = capsys.readouterr().err
    assert f"{failed}: GridAllocationError" in err
    assert "shape (8333333333333334, 3)" in err


@pytest.mark.parametrize("doc,shape", [
    # 5e14 steps of the preset, under the 2**53 bound: its trace (14 PiB)
    # is beyond any address space, so the request fails at once, touching
    # no memory
    (lambda: {**fs.scenario_to_dict(fs.get_preset("kinematic-pentagon")),
              "dt": 1.0e-13}, (50000000000001, 39)),
    # a trace whose byte count is past what numpy can index
    (lambda: _star_doc(50, {"kind": "constant_twist",
                            "start": [0.0, 0.0, 0.0], "twist": [1.0, 0.2]},
                       dt=1.2e-16, sample_every=1),
     (8333333333333334, 354)),
], ids=["preset", "star"])
def test_unallocatable_trace_exits_3(tmp_path, capsys, doc, shape):
    path = tmp_path / "huge.yaml"
    path.write_text(yaml.safe_dump(doc()))
    assert _run_or_check("run", path, tmp_path) == 3
    err = capsys.readouterr().err
    assert ("run failed: GridAllocationError: cannot allocate the trace of "
            f"shape {shape}") in err
    assert not (tmp_path / "t.csv").exists()


def _unstable_star(seed):
    """An 80-robot star at the torque level with the adaptive preset's
    first robot's gains and plant, constant twist (1, 0.3), and each
    robot's start then desired start drawn uniform in +-6 m with headings
    in +-3 rad from ``random.Random(seed)``; at dt 0.01 its closed loop
    outruns RK4's stability region."""
    pre = fs.scenario_to_dict(fs.get_preset("adaptive-pentagon"))
    g, rng = pre["gains"], random.Random(seed)

    def pose():
        return [rng.uniform(-6, 6), rng.uniform(-6, 6), rng.uniform(-3, 3)]

    robots = []
    for _ in range(80):
        start = pose()
        robots.append({"start": start, "start_twist": [0.0, 0.0],
                       "estimate0": [0.0] * 6,
                       "params": pre["robots"][0]["params"],
                       "trajectory": {"kind": "constant_twist",
                                      "start": pose(), "twist": [1.0, 0.3]}})
    return {"mode": "dynamic", "edges": [[1, k] for k in range(2, 81)],
            "dt": 0.01, "t_final": 1.0, "sample_every": 1,
            "gains": {"formation": g["formation"][:3],
                      "twist": g["twist"][:2],
                      "adaptation": g["adaptation"][:6]},
            "robots": robots}


def test_unstable_star_diverges_alike_from_run_and_check(tmp_path, capsys):
    # max |y| explodes within a few steps and a stage meets a non-finite
    # heading; whichever stage meets it, the step's finite check names
    # the blow-up, with the last finite state, from run and check alike:
    # seed 2's check keeps every step, as the run does, and seed 5's
    # default-horizon check every 12th, on the same clock
    for seed, step, horizon in [(2, 4, ["--horizon", "0.05"]), (5, 42, [])]:
        doc = _unstable_star(seed)
        cfg = fs.scenario_from_dict(doc)
        with pytest.raises(fs.DivergenceError) as got:
            fs.simulate(cfg)
        exc = got.value
        assert exc.step == step
        assert exc.t == pytest.approx(step * cfg.dt)
        assert exc.t_last == pytest.approx((step - 1) * cfg.dt)
        assert str(exc).endswith(f" at t={step / 100:g}")
        eng = fs.Engine(cfg)
        *_, (y, _) = eng.integrate(eng.initial_state(), [0], step - 1)
        assert np.isfinite(y).all()
        # the state is 80 poses, then 80 twists, then 80 estimates
        i = int(np.abs(y).argmax())
        assert exc.y_max == abs(y[i])
        assert exc.robot == 1 + (i // 3 if i < 240 else (i - 240) // 2
                                 if i < 400 else (i - 400) // 6)
        path = tmp_path / f"star{seed}.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert _run_or_check("run", path, tmp_path) == 3
        run_err = capsys.readouterr().err
        assert main(["check", "--config", str(path), *horizon]) == 3
        check_err = capsys.readouterr().err
        assert run_err == f"run failed: DivergenceError: {exc}\n"
        assert check_err == f"check run failed: DivergenceError: {exc}\n"
    # a fifth of the step holds seed 2's star
    trace = fs.simulate(replace(fs.scenario_from_dict(_unstable_star(2)),
                                dt=0.002, t_final=0.05))
    assert trace.times[-1] == pytest.approx(0.05)
    assert np.isfinite(trace.data).all()


@pytest.mark.parametrize("field,value", [
    ("dt", float("nan")),
    ("t_final", float("inf")),
    ("sample_every", float("nan")),
    ("dt", float("inf")),
    ("threshold", float("nan")),
])
def test_run_non_finite_scalar_exits_2(tmp_path, capsys, field, value):
    cfg_path = _write_short_preset(tmp_path, **{field: value})
    code = main(["run", "--config", str(cfg_path), "--trace",
                 str(tmp_path / "t.csv"), "--metrics",
                 str(tmp_path / "m.yaml")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: ValidationError: {field}" in err


@pytest.mark.parametrize("flag,value,field", [
    ("--dt", "nan", "dt"),
    ("--t-final", "inf", "t_final"),
    ("--threshold", "-1", "threshold"),
    ("--dt", "1e-300", "dt"),
    ("--t-final", "1e300", "dt"),
    ("--t-final", "0.0004", "t_final"),
])
def test_run_bad_override_exits_2(tmp_path, capsys, flag, value, field):
    # command-line overrides are validated like the file's own values
    cfg_path = _write_short_preset(tmp_path)
    code = main(["run", "--config", str(cfg_path), "--trace",
                 str(tmp_path / "t.csv"), "--metrics",
                 str(tmp_path / "m.yaml"), flag, value])
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: ValidationError: {field}" in err


_CHAIN_TAIL = [[2, 3], [3, 4], [4, 5]]


@pytest.mark.parametrize("field,value,message", [
    ("n", "abc", "SchemaError: n"),
    ("n", float("nan"), "ValidationError: n"),
    ("edges", [[1, "x"]] + _CHAIN_TAIL, "SchemaError: edges[1]"),
    ("edges", [1, 2], "SchemaError: edges[1]"),
    ("edges", [[1, 2, 3]] + _CHAIN_TAIL, "SchemaError: edges[1]"),
    ("gains", {"formation": "abc"}, "SchemaError: gains.formation"),
    ("n", 5.9, "ValidationError: n"),
    ("edges", [[1, 2.7]] + _CHAIN_TAIL, "ValidationError: edges[1]"),
    ("edges", 5, "SchemaError: edges"),
    ("gains", 5, "SchemaError: gains: expected a mapping, got int"),
    ("gains", [1.0, 2.0], "SchemaError: gains: expected a mapping, got list"),
    pytest.param("sample_every", 10 ** 400, "ValidationError: sample_every",
                 id="sample_every-10**400"),
    pytest.param("gains", {"formation": [2, 10 ** 400, 10]},
                 "ValidationError: gains.formation", id="gains-10**400"),
])
def test_run_malformed_count_edge_or_gain_exits_2(tmp_path, capsys, field,
                                                  value, message):
    # counts and vertices are whole numbers, an edge is a pair, gains are
    # a mapping, and a gain that is not a number is a schema error; each
    # names its field
    cfg_path = _write_short_preset(tmp_path, **{field: value})
    code = main(["run", "--config", str(cfg_path), "--trace",
                 str(tmp_path / "t.csv"), "--metrics",
                 str(tmp_path / "m.yaml")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: {message}" in err


@pytest.mark.parametrize("line,message", [
    ("dt: yes", "SchemaError: dt: expected a number, got True"),
    ("sample_every: on", "SchemaError: sample_every: expected a number, "
                         "got True"),
    ("t_final: true", "SchemaError: t_final: expected a number, got True"),
    ("threshold: off", "SchemaError: threshold: expected a number, "
                       "got False"),
    ("n: yes", "SchemaError: n: expected a number, got True"),
    ("edges: [[1, on], [2, 3], [3, 4], [4, 5]]",
     "SchemaError: edges[1]: expected a number, got True"),
    ("gains: {formation: [2, yes, 10]}",
     "SchemaError: gains.formation: expected numbers, got [2, True, 10]"),
    ("gains: {formation: yes}",
     "SchemaError: gains.formation: expected numbers, got True"),
])
def test_run_boolean_for_number_exits_2(tmp_path, capsys, line, message):
    # YAML 1.1 reads yes, on and true (no, off, false) as booleans; where
    # a number goes each is a schema error, not a silent 1 (or 0)
    doc = fs.scenario_to_dict(fs.get_preset("kinematic-pentagon"))
    doc["t_final"] = 0.2
    doc.pop(line.split(":")[0], None)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc) + line + "\n")
    code = main(["run", "--config", str(path), "--trace",
                 str(tmp_path / "t.csv"), "--metrics",
                 str(tmp_path / "m.yaml")])
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("edits,args,field", [
    ({"dt": 1e-300}, [], "dt"),
    ({}, ["--dt", "1e-300"], "dt"),
    ("sampled", [], "robots[1].trajectory: grid_dt"),
])
def test_check_step_count_past_2_53_exits_2(tmp_path, capsys, edits, args,
                                            field):
    # integrating 2**53 steps or more would not end; it is a config error
    # naming its field, as in ``formsim run``
    if edits == "sampled":
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(_sampled_doc(grid_dt=1e-300)))
    else:
        path = _write_short_preset(tmp_path, **edits)
    assert main(["check", "--config", str(path), *args]) == 2
    err = capsys.readouterr().err
    assert f"config error: ValidationError: {field} " in err
    assert "2**53" in err


def _run_or_check(command, path, tmp_path):
    args = ["--trace", str(tmp_path / "t.csv"), "--metrics",
            str(tmp_path / "m.yaml")] if command == "run" else []
    return main([command, "--config", str(path), *args])


@pytest.mark.parametrize("trajectory", [
    # knots v = 1 with rates -20 and +20: v swings to -4 between them
    {"times": [0.0, 1.0], "twists": [[1.0, 0.2]] * 2,
     "rates": [[-20.0, 0.0], [20.0, 0.0]]},
    # v falls below the floor after t = 3, past check's default horizon
    {"times": [0.0, 2.0, 3.0, 4.0],
     "twists": [[v, 0.2] for v in (1.0, 1.0, 1.5e-6, 1.5e-6)],
     "rates": [[a, 0.0] for a in (0.0, 0.0, -1e-5, -1e-5)]},
], ids=["zero-crossing", "dip-after-horizon"])
def test_speed_dip_between_knots_exits_2_from_run_and_check(
        tmp_path, capsys, trajectory):
    # every knot clears the floor; the table is refused when it is read,
    # whatever span a command would integrate
    doc = _sampled_doc(**trajectory)
    doc["t_final"] = trajectory["times"][-1]
    path = tmp_path / "dip.yaml"
    path.write_text(yaml.safe_dump(doc))
    errs = []
    for command in ("run", "check"):
        assert _run_or_check(command, path, tmp_path) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith(
        "config error: SingularSpeed: robots[1]: sampled speed ")


@pytest.mark.parametrize("component", [0, 1])
def test_overflowing_table_exits_2_from_run_and_check(tmp_path, capsys,
                                                     component):
    # v or w of 1e300 with rates -1e308 and +1e308: h times the rate
    # overflows, so the table is refused when it is read, without a
    # RuntimeWarning, from either command
    twists, rates = [[1.0, 0.2], [1.0, 0.2]], [[0.0, 0.0], [0.0, 0.0]]
    for k, rate in enumerate((-1e308, 1e308)):
        twists[k][component], rates[k][component] = 1e300, rate
    doc = _sampled_doc(times=[0.0, 10.0], twists=twists, rates=rates)
    path = tmp_path / "overflow.yaml"
    path.write_text(yaml.safe_dump(doc))
    errs = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in ("run", "check"):
            assert _run_or_check(command, path, tmp_path) == 2
            errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0] == ("config error: ValidationError: robots[1].trajectory: "
                       "the table's Hermite terms overflow a float on "
                       "[0, 10]\n")


@pytest.mark.parametrize("robot,start,message", [
    # v = 4e307 held on [0, 10]: each RK4 step of the pose grid sums
    # about 6 v, past the largest float
    (1, [0.0, 0.0, 0.0],
     "the table's pose steps overflow a float on [0, 10]"),
    # v = 1e306 held for 10 s from x = 1.75e308, in the second robot's
    # start on the first one's table: the grid runs past the largest float
    (2, [1.75e308, 0.0, 0.0],
     "the pose grid from start (1.75e+308, 0, 0) overflows a float "
     "within the table's span"),
], ids=["steps", "start"])
def test_overflowing_pose_grid_exits_2_from_run_and_check(
        tmp_path, capsys, robot, start, message):
    v = 4e307 if robot == 1 else 1e306
    doc = _sampled_doc(times=[0.0, 10.0], twists=[[v, 0.2]] * 2,
                       rates=[[0.0, 0.0]] * 2)
    first = doc["robots"][0]
    traj = dict(first["trajectory"], start=start)
    doc["robots"].append({"start": [0.0, 0.0, 0.0], "trajectory": traj})
    doc["edges"] = [[1, 2]]
    path = tmp_path / "overflow.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert "*id" in path.read_text()      # the robots share one table
    errs = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in ("run", "check"):
            assert _run_or_check(command, path, tmp_path) == 2
            errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0] == (f"config error: ValidationError: "
                       f"robots[{robot}].trajectory: {message}\n")


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("name", fs.preset_names())
@pytest.mark.parametrize("k,edge", [(0, [0, 2]), (0, [1, -1]),
                                    (3, [4, 7])])
def test_edge_outside_the_robots_exits_2(tmp_path, capsys, command, name,
                                         k, edge):
    # an endpoint naming no robot is a bad graph, from either command
    edges = [[1, 2], [2, 3], [3, 4], [4, 5]]
    edges[k] = edge
    path = _write_short_preset(tmp_path, name=name, edges=edges)
    assert _run_or_check(command, path, tmp_path) == 2
    assert (f"config error: ValidationError: bad coordination graph: edge "
            f"({edge[0]}, {edge[1]}) outside vertex range 1..5"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["run", "check"])
def test_undecodable_config_exits_2(tmp_path, capsys, command):
    # a 0xFF byte is neither UTF-8 nor UTF-16: the file is not YAML
    path = tmp_path / "config.yaml"
    path.write_bytes(b"name: x\n\xff\n")
    assert _run_or_check(command, path, tmp_path) == 2
    assert "config error: ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["dt: !!int abc", 'dt: !!float ""'])
def test_run_unconstructible_value_exits_2(tmp_path, capsys, line):
    # PyYAML's constructors fail untyped on these tagged scalars
    doc = fs.scenario_to_dict(fs.get_preset("kinematic-pentagon"))
    doc["t_final"] = 0.2
    doc.pop("dt")
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc) + line + "\n")
    code = main(["run", "--config", str(path), "--trace",
                 str(tmp_path / "t.csv"), "--metrics",
                 str(tmp_path / "m.yaml")])
    assert code == 2
    assert "config error: ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("robot,field,value,message", [
    (0, "mass", float("nan"),
     "ValidationError: robots[1].params.mass: value must be finite"),
    (0, "mass", float("inf"),
     "ValidationError: robots[1].params.mass: value must be finite"),
    (0, "mass", "abc",
     "SchemaError: robots[1].params.mass: expected a number, got 'abc'"),
    (3, "inertia", float("nan"),
     "ValidationError: robots[4].params.inertia: value must be finite"),
    (3, "inertia", float("-inf"),
     "ValidationError: robots[4].params.inertia: value must be finite"),
    (3, "inertia", "abc",
     "SchemaError: robots[4].params.inertia: expected a number"),
    (4, "mass", True,
     "SchemaError: robots[5].params.mass: expected a number, got True"),
])
def test_run_bad_plant_parameter_exits_2(tmp_path, capsys, robot, field,
                                         value, message):
    # a plant parameter is checked like every other number, and the
    # error names it (a nan mass used to fail at run time, an infinite
    # one to run)
    doc = fs.scenario_to_dict(fs.get_preset("adaptive-pentagon"))
    doc["t_final"] = 0.2
    doc["robots"][robot]["params"][field] = value
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    code = main(["run", "--config", str(path), "--trace",
                 str(tmp_path / "t.csv"), "--metrics",
                 str(tmp_path / "m.yaml")])
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("name,key,message", [
    ("kinematic-pentagon", None, "robots[1]: expected a mapping, got int"),
    ("kinematic-pentagon", "trajectory",
     "robots[1].trajectory: expected a mapping, got int"),
    ("adaptive-pentagon", "params",
     "robots[1].params: expected a mapping, got int"),
])
def test_run_non_mapping_robot_field_exits_2(tmp_path, capsys, name, key,
                                             message):
    # a number where the first robot, its trajectory or its params go
    doc = fs.scenario_to_dict(fs.get_preset(name))
    if key is None:
        doc["robots"][0] = 5
    else:
        doc["robots"][0][key] = 5
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    code = main(["run", "--config", str(path), "--trace",
                 str(tmp_path / "t.csv"), "--metrics",
                 str(tmp_path / "m.yaml")])
    assert code == 2
    assert f"config error: SchemaError: {message}" in capsys.readouterr().err


def test_run_divergence_exits_3(tmp_path, capsys):
    cfg_path = _write_short_preset(tmp_path, name="adaptive-pentagon",
                                   t_final=5.0, dt=0.5)
    code = main(["run", "--config", str(cfg_path), "--trace",
                 str(tmp_path / "t.csv"), "--metrics",
                 str(tmp_path / "m.yaml")])
    assert code == 3
    assert "run failed" in capsys.readouterr().err


def test_run_unwritable_trace_exits_4(tmp_path, capsys):
    cfg_path = _write_short_preset(tmp_path)
    code = main(["run", "--config", str(cfg_path), "--trace",
                 "/nonexistent-dir/trace.csv", "--metrics",
                 str(tmp_path / "m.yaml")])
    assert code == 4


def test_run_missing_config_exits_io(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.yaml"),
                 "--trace", str(tmp_path / "t.csv"), "--metrics",
                 str(tmp_path / "m.yaml")])
    assert code == 4


def test_check_passes_on_presets(tmp_path, capsys):
    for name in fs.preset_names():
        cfg_path = tmp_path / f"{name}.yaml"
        cfg_path.write_text(fs.serialize_scenario(fs.get_preset(name)))
        code = main(["check", "--config", str(cfg_path),
                     "--horizon", "0.5"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "PASS least-squares-contract" in out
        assert "PASS energy-rate-identity" in out
        assert "PASS chain-pivot-certificate" in out


@pytest.mark.parametrize("field,factor,line,detail", [
    ("etaf", 1 + 1e-6, "least-squares-contract", r"defect \S+ at t="),
    ("Vdot", 1 + 1e-4, "energy-rate-identity", r"fd \S+ vs \S+ at t="),
], ids=["etaf", "Vdot"])
@pytest.mark.parametrize("name", fs.preset_names())
def test_check_fails_on_a_perturbed_record(tmp_path, capsys, monkeypatch,
                                           name, field, factor, line,
                                           detail):
    # every record the check reads carries one field off by a relative
    # factor: the twist command that the least-squares contract holds, or
    # the predicted energy rate that Va's rate along the flow holds
    records = fs.Engine.records

    def perturbed(self, marks):
        return [replace(rec, **{field: getattr(rec, field) * factor})
                for rec in records(self, marks)]

    monkeypatch.setattr(fs.Engine, "records", perturbed)
    cfg_path = tmp_path / f"{name}.yaml"
    cfg_path.write_text(fs.serialize_scenario(fs.get_preset(name)))
    code = main(["check", "--config", str(cfg_path), "--horizon", "0.5"])
    out = capsys.readouterr().out
    assert code == 3, out
    assert re.search(rf"^FAIL {line}  \({detail}[^)]*\)$", out, re.M), out
    assert len(re.findall("^FAIL ", out, re.M)) == 1, out


def _low_pivots(stage):
    # every pivot a stage hands on 1e-9 below its own value, so each
    # leaf's, exactly 1, is under the guard's 1 - 1e-12; eta_f and the
    # rest of the stage's output stay as they are
    def low(*args):
        out = stage(*args)
        piv = [p * (1 - 1e-9) for p in out[1]]
        if isinstance(out, _Torque):
            return out._replace(piv=piv)
        return out[0], piv
    return low


def _high_pinned_pivots(recursion):
    # the chain pivots the bounds pin (lower = upper) 1e-9 above their
    # closed forms, past the certificate's 1e-12 slack
    def high(headings):
        det, x = recursion(headings)
        lower, upper = fs.chain_pivot_bounds(x)
        return det, np.where(lower == upper, x * (1 + 1e-9), x)
    return high


@pytest.mark.parametrize("module,targets,wrap,line,detail", [
    (fs.engine, ["_kinematic_twist", "_torque_stage"], _low_pivots,
     "conditioning-guard", r"min pivot \S+ at t="),
    (cli, ["chain_gram_determinant"], _high_pinned_pivots,
     "chain-pivot-certificate", r"det="),
], ids=["tree-pivots", "chain-pivots"])
@pytest.mark.parametrize("name", fs.preset_names())
def test_check_fails_on_a_perturbed_certificate(tmp_path, capsys,
                                                monkeypatch, name, module,
                                                targets, wrap, line, detail):
    # the pivots that check's certificate lines read, moved off what the
    # lines accept while the records stay as they are: the tree pivots
    # as either mode's stage hands them on, the chain pivots as check
    # computes them
    for target in targets:
        monkeypatch.setattr(module, target, wrap(getattr(module, target)))
    cfg_path = tmp_path / f"{name}.yaml"
    cfg_path.write_text(fs.serialize_scenario(fs.get_preset(name)))
    code = main(["check", "--config", str(cfg_path), "--horizon", "0.5"])
    out = capsys.readouterr().out
    assert code == 3, out
    assert re.search(rf"^FAIL {line}  \({detail}[^)]*\)$", out, re.M), out
    assert len(re.findall("^FAIL ", out, re.M)) == 1, out


@pytest.mark.parametrize("name", fs.preset_names())
def test_check_passes_the_whole_run_at_a_coarser_step(tmp_path, capsys,
                                                      name):
    # Va's rate along the flow holds the predicted rate at every mark of
    # the full horizon, late marks where both are near rounding included
    cfg_path = tmp_path / f"{name}.yaml"
    cfg_path.write_text(fs.serialize_scenario(fs.get_preset(name)))
    code = main(["check", "--config", str(cfg_path), "--horizon", "inf",
                 "--dt", "0.004"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert len(re.findall("^PASS ", out, re.M)) == 4, out
    assert re.search(r"^PASS energy-rate-identity  \(worst \S+ of bound\)$",
                     out, re.M), out


def test_check_fails_only_the_energy_line_on_a_wrong_torque(tmp_path, capsys,
                                                           monkeypatch):
    # robot 1's surge acceleration off by 1e-4 relative moves the flow
    # and not the records' predicted rate or twist command
    stage = fs.engine._torque_stage

    def wrong(*args):
        out = stage(*args)
        return out._replace(tail=[out.tail[0] * (1 + 1e-4), *out.tail[1:]])

    monkeypatch.setattr(fs.engine, "_torque_stage", wrong)
    cfg_path = tmp_path / "a.yaml"
    cfg_path.write_text(fs.serialize_scenario(
        fs.get_preset("adaptive-pentagon")))
    code = main(["check", "--config", str(cfg_path), "--horizon", "0.5"])
    out = capsys.readouterr().out
    assert code == 3, out
    assert re.search(r"^FAIL energy-rate-identity  \(fd \S+ vs \S+ at t=",
                     out, re.M), out
    assert len(re.findall("^FAIL ", out, re.M)) == 1, out


@pytest.mark.parametrize("horizon", ["0.5", "0.4"])
@pytest.mark.parametrize("name", fs.preset_names())
def test_check_evaluates_the_law_only_in_its_integration(tmp_path,
                                                        monkeypatch, name,
                                                        horizon):
    # Engine.rate wrapped on the class sees every evaluation: four per
    # step, and the final state's own when the horizon is a mark
    rate, calls = fs.Engine.rate, []

    @functools.wraps(rate)
    def counted(*args, **kwargs):
        calls.append(args[1])
        return rate(*args, **kwargs)

    monkeypatch.setattr(fs.Engine, "rate", counted)
    cfg = fs.get_preset(name)
    cfg_path = tmp_path / f"{name}.yaml"
    cfg_path.write_text(fs.serialize_scenario(cfg))
    assert main(["check", "--config", str(cfg_path),
                 "--horizon", horizon]) == 0
    steps = round(float(horizon) / cfg.dt)
    last = steps % max(1, steps // 8) == 0
    assert len(calls) == 4 * steps + last


@pytest.mark.parametrize("horizon", ["0.04", "0.037"])
@pytest.mark.parametrize("name", fs.preset_names())
def test_check_output_matches_reference_loop(tmp_path, capsys, monkeypatch,
                                            name, horizon):
    # 0.04 s probes its last step; 0.037 s takes one step past the last
    # probe
    from test_engine import _reference_integrate
    cfg_path = tmp_path / f"{name}.yaml"
    cfg_path.write_text(fs.serialize_scenario(fs.get_preset(name)))
    args = ["check", "--config", str(cfg_path), "--horizon", horizon]
    code = main(args)
    got = capsys.readouterr().out
    monkeypatch.setattr(fs.Engine, "integrate", _reference_integrate)
    assert main(args) == code == 0
    assert capsys.readouterr().out == got


def test_check_passes_at_the_end_of_a_sampled_table(tmp_path, capsys):
    # the tables end at t_final, and past their span the desired poses
    # are clamped: the energy rate at t_final is taken from that mark's
    # own derivative and desired terms, so the kink there is not crossed
    twists = [[1.0, 0.2], [1.2, 0.5], [0.9, -0.3]]
    rates = [[2.0, 1.0], [0.0, -4.0], [-3.0, 2.0]]
    doc = _sampled_doc(times=[0.0, 0.05, 0.1], twists=twists, rates=rates)
    second = yaml.safe_load(yaml.safe_dump(doc["robots"][0]))
    second["start"] = [-0.4, 0.3, 0.2]
    second["trajectory"]["start"] = [-0.5, 0.0, 0.0]
    doc.update(edges=[[1, 2]], dt=0.005, t_final=0.1, sample_every=1,
               robots=[doc["robots"][0], second])
    path = tmp_path / "table.yaml"
    path.write_text(yaml.safe_dump(doc))
    for horizon in ("0.1", "0.09"):
        code = main(["check", "--config", str(path), "--horizon", horizon])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "PASS energy-rate-identity" in out


def test_check_skips_a_probe_that_would_reach_before_t0(tmp_path, capsys):
    # one step as short as the tables: every mark, the first instant and
    # t_final among them, is checked at its own state, so none reaches
    # outside [0, t_final]
    ts = [0.0, 1.5e-5]
    doc = _sampled_doc(times=ts, twists=[[1.0, 0.5]] * 2,
                       rates=[[0.0, 0.0]] * 2)
    second = yaml.safe_load(yaml.safe_dump(doc["robots"][0]))
    second["start"] = [-0.4, 0.3, 0.2]
    doc.update(edges=[[1, 2]], dt=ts[1], t_final=ts[1],
               robots=[doc["robots"][0], second])
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["check", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS ") == 4 and "FAIL" not in out


@pytest.mark.parametrize("command", ["run", "check"])
def test_table_short_of_the_last_step_exits_2(tmp_path, capsys, command):
    # 1 / 0.6 rounds to 2 steps: the run would end at 1.2, past the table,
    # where the desired pose stops while the held twist keeps moving
    doc = _sampled_doc()
    doc.update(dt=0.6, t_final=1.0)
    path = tmp_path / "short.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert _run_or_check(command, path, tmp_path) == 2
    assert ("config error: ValidationError: robots[1].trajectory: sampled "
            "trajectory spans 1 < 1.2" in capsys.readouterr().err)


def test_robot_started_on_a_straight_trajectory_converges_at_0(tmp_path,
                                                               capsys):
    # its tracking error is rounding alone, a few u times the poses, which
    # the default threshold's floor covers
    traj = {"kind": "constant_twist", "start": [0.0, 0.0, 0.3],
            "twist": [1.0, 1e-9]}
    doc = {"mode": "kinematic", "dt": 0.01, "t_final": 10,
           "gains": {"formation": [1.0, 1.0, 1.0]},
           "robots": [{"start": [0.0, 0.0, 0.3], "trajectory": traj}]}
    path = tmp_path / "straight.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert _run_or_check("run", path, tmp_path) == 0
    assert "all robots converged" in capsys.readouterr().out
    report = yaml.safe_load((tmp_path / "m.yaml").read_text())
    assert report["convergence_times"] == [0.0]
    assert 0 < report["threshold"] < 2e-12


def test_single_robot_runs_and_checks(tmp_path, capsys):
    # n = 1: no edges, so no coordination-error columns and no chain
    # certificate
    path = tmp_path / "one.yaml"
    path.write_text(yaml.safe_dump(_sampled_doc()))
    assert _run_or_check("run", path, tmp_path) == 0
    trace = fs.Trace.read_csv(tmp_path / "t.csv")
    assert not any(c.startswith("norm_eps") for c in trace.columns)
    assert "norm_e1" in trace.columns
    assert main(["check", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS ") == 3 and "chain-pivot-certificate" not in out


@pytest.mark.parametrize("horizon", ["nan", "-1"])
def test_check_bad_horizon_exits_2(tmp_path, capsys, horizon):
    cfg_path = _write_short_preset(tmp_path)
    code = main(["check", "--config", str(cfg_path), "--horizon", horizon])
    assert code == 2
    assert "config error: --horizon" in capsys.readouterr().err


def test_check_horizon_zero_and_inf(tmp_path, capsys):
    # zero probes the start alone; inf is cut to t_final
    cfg_path = _write_short_preset(tmp_path)
    for horizon in ("0", "inf"):
        code = main(["check", "--config", str(cfg_path),
                     "--horizon", horizon])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "PASS least-squares-contract" in out


@pytest.mark.parametrize("name", fs.preset_names())
def test_check_lines_do_not_depend_on_the_block_length(tmp_path, capsys,
                                                       monkeypatch, name):
    cfg_path = _write_short_preset(tmp_path, name)
    args = ["check", "--config", str(cfg_path), "--horizon", "inf"]
    assert main(args) == 0
    want = capsys.readouterr().out
    for block in (1, 5, 16):
        monkeypatch.setattr(fs.engine, "_block_steps",
                            lambda n, block=block: block)
        assert main(args) == 0
        assert capsys.readouterr().out == want, block


def test_check_skips_chain_certificate_for_star_tree(tmp_path, capsys):
    from test_engine import _star_doc
    path = tmp_path / "star.yaml"
    path.write_text(yaml.safe_dump(_star_doc()))
    code = main(["check", "--config", str(path), "--horizon", "0.3"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "chain-pivot-certificate" not in out
    assert "PASS conditioning-guard" in out


def test_module_entry_point(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "formsim", "preset", "kinematic-pentagon"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0
    assert "kinematic-pentagon" in proc.stdout

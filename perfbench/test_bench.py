"""Smoke tests for the benchmark itself.

    python3 -m pytest perfbench/test_bench.py -q

Each workload runs at a tiny horizon for a fraction of a second, with
tracing off and on, and must report every metric BENCHMARK.json names,
with its unit. The tests also pin which inputs depend on the seed, that
tracing restores every wrapper, that the output check catches a
deviation, and that the benchmark refuses to run without the program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import check  # noqa: E402
import tracing  # noqa: E402
from workloads import GENERATORS, scenario_text  # noqa: E402

from formsim.engine import Engine  # noqa: E402
from formsim.metrics import compute_metrics, report_to_yaml  # noqa: E402
from formsim.scenario import load_scenario  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_HORIZON = "0.01"


def _bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0",
         "--seconds", "0.01", "--trace", str(trace),
         "--horizon", TINY_HORIZON],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_names_the_workloads_the_benchmark_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(GENERATORS)


@pytest.mark.parametrize("workload", list(GENERATORS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_appears_with_its_unit(workload, trace):
    out = _bench(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert np.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_seed_changes_random_workloads_but_not_presets():
    for workload in GENERATORS:
        same = scenario_text(workload, 0) == scenario_text(workload, 1)
        assert same == workload.endswith("pentagon"), workload
        assert scenario_text(workload, 3) == scenario_text(workload, 3)


def test_tracing_restores_every_wrapper():
    before = [(owner, attr, vars(owner)[attr])
              for _, owners, attr in tracing.TARGETS for owner in owners]
    with tracing.installed(tracing.Recorder()):
        for owner, attr, original in before:
            assert vars(owner)[attr] is not original
    for owner, attr, original in before:
        assert vars(owner)[attr] is original


def test_output_check_catches_a_small_deviation(tmp_path):
    text = scenario_text("kin-pentagon", 0, horizon=0.05)
    doc = yaml.safe_load(text)
    trace = Engine(load_scenario(text)).run()
    csv_path, yaml_path = tmp_path / "t.csv", tmp_path / "m.yaml"
    trace.write_csv(csv_path)
    yaml_path.write_text(report_to_yaml(compute_metrics(trace)))
    ref = check.reference_entry(doc, csv_path, yaml_path, kappa=50.0)
    assert check.check_run(doc, trace, csv_path, yaml_path, ref) == []
    ref["final_row"][1] *= 1 + 1e-6
    assert check.check_run(doc, trace, csv_path, yaml_path, ref)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("kin-pentagon", 0, cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

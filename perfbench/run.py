#!/usr/bin/env python3
"""The formsim benchmark: one workload per process, closed loop.

    python3 perfbench/run.py --workload kin-pentagon --seed 0 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0   # all four, in turn
    python3 perfbench/run.py --write-reference         # regenerate

Run from the repository root; formsim is imported from ``src/``. The
workload's scenario YAML is generated from the seed. A single thread
then repeats the path of ``formsim run`` (parse the YAML text,
validate, build the Engine, integrate, compute metrics, write the trace
CSV and the metrics YAML) one run at a time for ``--seconds`` seconds,
after one untimed warm-up run. Every run's outputs are checked
(check.py); a run that raises or fails the check counts as failed.

With ``--trace 0`` each run is bracketed by the host calibration loop
(calibrate.py). The end-to-end timings are reported calibrated (raw
time times the reference loop time over the run's own loop time), with
the raw forms printed beside them as ``*.raw``. With ``--trace 1``
traced and untraced runs alternate; the traced ones give per-layer
counts and self times (tracing.py), and the ratio of their medians gives
the tracing overhead.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics. The lines before it give each metric's median,
quartiles and sample count, the failed fraction and the environment.
"""

import os

# BLAS threads are held fixed (at most nproc) before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_PATH = HERE / "reference.json"


def import_formsim():
    """Import formsim from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import formsim
    except ImportError as exc:
        sys.exit(f"cannot import formsim from {SRC}: {exc}")
    if Path(formsim.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"formsim imported from {formsim.__file__}, not {SRC}")


import_formsim()

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import formsim.engine as engine  # noqa: E402
import formsim.metrics as metrics  # noqa: E402
import formsim.scenario as scenario  # noqa: E402
from formsim.controller import coupling_matrix  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
from calibrate import REFERENCE_S, calibration_seconds  # noqa: E402
from workloads import GENERATORS, scenario_text  # noqa: E402

WORKLOADS = tuple(GENERATORS)

# End-to-end metrics and their units. The three timings are reported in
# host-calibrated form (see calibrate.py); their raw forms are printed
# beside them, unbounded, because a shared host's speed drifts between
# processes by more than any useful bound.
END_TO_END = {"wall_s": "s", "setup_s": "s", "realtime_factor": "s/s",
              "peak_rss_mb": "MiB"}


def timed_run(text, csv_path, yaml_path):
    """One run as ``formsim run`` does it. Returns (engine, trace,
    setup seconds, Engine.run seconds, wall seconds, simulated seconds)."""
    t0 = perf_counter()
    config = scenario.load_scenario(text)
    eng = engine.Engine(config)
    t1 = perf_counter()
    trace = eng.run()
    t2 = perf_counter()
    report = metrics.compute_metrics(trace, threshold=config.threshold)
    trace.write_csv(csv_path)
    Path(yaml_path).write_text(metrics.report_to_yaml(report))
    t3 = perf_counter()
    return eng, trace, t1 - t0, t2 - t1, t3 - t0, config.t_final


class Runner:
    """Runs one workload repeatedly and keeps the tallies."""

    def __init__(self, workload, seed, horizon, outdir):
        self.text = scenario_text(workload, seed, horizon)
        self.doc = yaml.safe_load(self.text)
        references = json.loads(REFERENCE_PATH.read_text())["workloads"]
        self.reference = check.matching_reference(references, workload,
                                                  self.doc)
        self.csv = Path(outdir) / "trace.csv"
        self.yaml = Path(outdir) / "metrics.yaml"
        self.attempted = 0
        self.failed = 0
        self.driver = None

    def attempt(self, recorder=None):
        """One checked run; None when it raised, else its timings."""
        self.attempted += 1
        args = (self.text, self.csv, self.yaml)
        try:
            if recorder is None:
                result = timed_run(*args)
            else:
                with tracing.installed(recorder):
                    result = recorder.span(tracing.ROOT, timed_run, *args)
            problems = check.check_run(self.doc, result[1], self.csv,
                                       self.yaml, self.reference)
        except Exception:  # a run that raises is a failed run; keep going
            traceback.print_exc()
            self.failed += 1
            return None
        if problems:
            print("output check failed: " + "; ".join(problems),
                  file=sys.stderr)
            self.failed += 1
        self.driver = getattr(result[0], "driver", None)
        return result[2:]


def quartiles(values):
    """(q1, median, q3) of a sample, as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def measure_end_to_end(runner, seconds):
    """Calibrated and raw per-run samples of the timings, peak RSS, and
    every calibration loop time."""
    raw = {"wall_s": [], "setup_s": [], "realtime_factor": []}
    cal = {name: [] for name in raw}
    runner.attempt()
    calibrations = [calibration_seconds()]
    deadline = perf_counter() + seconds
    while True:
        timing = runner.attempt()
        calibrations.append(calibration_seconds())
        if timing is not None:
            setup, run, wall, sim = timing
            scale = REFERENCE_S / statistics.fmean(calibrations[-2:])
            raw["wall_s"].append(wall)
            raw["setup_s"].append(setup)
            raw["realtime_factor"].append(sim / run)
            cal["wall_s"].append(wall * scale)
            cal["setup_s"].append(setup * scale)
            cal["realtime_factor"].append(sim / (run * scale))
        if perf_counter() >= deadline:
            break
    cal["peak_rss_mb"] = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    return cal, raw, calibrations


class LayerTally:
    """Per-span-name calls and times summed over the traced runs after
    the warm-up, and each function's first-call self time."""

    def __init__(self):
        self.calls = dict.fromkeys(tracing.SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(tracing.SPAN_NAMES, 0.0)
        self.total_s = dict.fromkeys(tracing.SPAN_NAMES, 0.0)
        self.first_s = {}
        self.root_s = 0.0
        self.root_self_s = 0.0
        self.runs = 0
        self.guard_trips = 0
        self.csv_bytes = 0

    def add_first_calls(self, recorder):
        for name, _, _, own in recorder.self_times():
            self.first_s.setdefault(name, own)

    def add(self, recorder):
        for name, _, duration, own in recorder.self_times():
            if name == tracing.ROOT:
                self.root_s += duration
                self.root_self_s += own
            else:
                self.calls[name] += 1
                self.self_s[name] += own
                self.total_s[name] += duration
        self.runs += 1
        self.guard_trips += recorder.guard_trips


def measure_layers(runner, seconds):
    tally = LayerTally()
    recorder = tracing.Recorder()
    runner.attempt(recorder)
    tally.add_first_calls(recorder)
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while True:
        timing = runner.attempt()
        if timing is not None:
            plain.append(timing[2])
        recorder = tracing.Recorder()
        timing = runner.attempt(recorder)
        if timing is not None:
            traced.append(timing[2])
            tally.add(recorder)
            tally.csv_bytes += runner.csv.stat().st_size
        if perf_counter() >= deadline:
            break
    return tally, plain, traced


def per_call_us(seconds, calls):
    return 1e6 * seconds / calls if calls else 0.0


def layer_metrics(tally, plain, traced, steps):
    """Per-layer metrics: name -> (value, unit)."""
    runs = max(tally.runs, 1)
    wall = tally.root_s or 1.0
    out = {}
    for name in tracing.SPAN_NAMES:
        out[f"{name}.calls"] = (tally.calls[name] / runs, "count")
        out[f"{name}.share"] = (tally.self_s[name] / wall, "ratio")
        if name not in tracing.NOT_EVERYWHERE:
            out[f"{name}.us"] = (
                per_call_us(tally.self_s[name], tally.calls[name]), "us")
            out[f"{name}.first_us"] = (
                per_call_us(tally.first_s.get(name, 0.0), 1), "us")
    rates = tally.calls["engine.rate"]
    out["controller.coupling_matrix.per_rate"] = (
        tally.calls["controller.coupling_matrix"] / rates if rates else 0.0,
        "calls/rate")
    out["engine.rate.per_step"] = (rates / (runs * max(steps, 1)),
                                   "calls/step")
    guards = tally.calls["linalg.cond_guard"]
    out["linalg.cond_guard.trips"] = (
        tally.guard_trips / guards if guards else 0.0, "ratio")
    out["engine.write_csv.bytes"] = (tally.csv_bytes / runs, "B")
    out["bench.traced_wall_s"] = (tally.root_s / runs, "s")
    out["bench.remainder.share"] = (tally.root_self_s / wall, "ratio")
    overhead = (statistics.median(traced) / statistics.median(plain)
                if plain and traced else 0.0)
    out["bench.tracing.overhead"] = (overhead, "ratio")
    return out


def openblas_threads():
    """Threads OpenBLAS reports using, or None when it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(driver, calibrations):
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        openblas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_used": openblas_threads(),
        "numba": importlib.util.find_spec("numba") is not None,
        "engine_driver": driver,
        "calibration_s": (statistics.median(calibrations)
                          if calibrations else None),
        "calibration_reference_s": REFERENCE_S,
    }


def report_layers(values, tally, plain):
    """Print the per-layer table; return the per-layer JSON metrics."""
    wall = tally.root_s or 1.0
    runs = max(tally.runs, 1)
    print(f"{'layer.function':<32} {'calls':>9} {'self us':>11} "
          f"{'share':>8} {'first us':>11} {'inclusive':>9}")
    for name in sorted(tracing.SPAN_NAMES, key=lambda k: -tally.self_s[k]):
        calls = tally.calls[name]
        if calls:
            print(f"{name:<32} {calls / runs:>9.6g} "
                  f"{per_call_us(tally.self_s[name], calls):>11.5g} "
                  f"{tally.self_s[name] / wall:>8.2%} "
                  f"{per_call_us(tally.first_s.get(name, 0.0), 1):>11.5g} "
                  f"{tally.total_s[name] / wall:>9.2%}")
    print(f"traced runs {tally.runs}  untraced runs {len(plain)}  "
          f"traced wall per run {wall / runs:.6g} s  "
          f"remainder outside traced calls "
          f"{values['bench.remainder.share'][0]:.3%}  tracing overhead "
          f"{values['bench.tracing.overhead'][0]:.4g}x")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def report_end_to_end(cal, raw):
    """Print median, quartiles and sample count of every end-to-end metric
    and of the raw timings; return the end-to-end JSON metrics."""
    print(f"{'metric':<22} {'unit':>5} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'n':>4}")
    rows = [(name, unit, cal[name]) for name, unit in END_TO_END.items()]
    rows += [(f"{name}.raw", END_TO_END[name], vals)
             for name, vals in raw.items()]
    result = {}
    for name, unit, vals in rows:
        q1, med, q3 = quartiles(vals) if vals else (0.0, 0.0, 0.0)
        print(f"{name:<22} {unit:>5} {med:>12.6g} {q1:>12.6g} "
              f"{q3:>12.6g} {len(vals):>4}")
        if name in END_TO_END:
            result[name] = {"value": med, "unit": unit}
    return result


def run_workload(args):
    with tempfile.TemporaryDirectory(prefix=".bench_out-",
                                     dir=ROOT) as outdir:
        runner = Runner(args.workload, args.seed, args.horizon, outdir)
        if args.trace:
            tally, plain, traced = measure_layers(runner, args.seconds)
            calibrations = []
        else:
            cal, raw, calibrations = measure_end_to_end(runner,
                                                        args.seconds)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  horizon {runner.doc['t_final']} s  reference "
          f"{'applied' if runner.reference else 'none for this input'}")
    print(f"attempted {runner.attempted}  failed {runner.failed}  "
          f"failed_frac {runner.failed / runner.attempted:.4g} (ratio)")
    print("environment " + json.dumps(environment(runner.driver,
                                                  calibrations)))
    if args.trace:
        steps = int(round(runner.doc["t_final"] / runner.doc["dt"]))
        result = report_layers(layer_metrics(tally, plain, traced, steps),
                               tally, plain)
    else:
        result = report_end_to_end(cal, raw)
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": result}))
    return 0


def run_all(args):
    """Each workload in its own process, one after another."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.horizon is not None:
            cmd += ["--horizon", str(args.horizon)]
        sys.stdout.flush()
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def write_reference():
    """Record reference.json: one run per workload at REFERENCE_SEED."""
    entries = {}
    with tempfile.TemporaryDirectory(prefix=".bench_out-",
                                     dir=ROOT) as outdir:
        csv_path = Path(outdir) / "trace.csv"
        yaml_path = Path(outdir) / "metrics.yaml"
        for workload in WORKLOADS:
            text = scenario_text(workload, check.REFERENCE_SEED)
            doc = yaml.safe_load(text)
            eng, trace = timed_run(text, csv_path, yaml_path)[:2]
            headings = [trace.columns.index(f"th{i}")
                        for i in range(1, eng.n + 1)]
            kappa = max(np.linalg.cond(coupling_matrix(eng.tree, row)) ** 2
                        for row in trace.data[:, headings])
            entries[workload] = check.reference_entry(
                doc, csv_path, yaml_path, float(kappa))
    REFERENCE_PATH.write_text(json.dumps(
        {"seed": check.REFERENCE_SEED, "workloads": entries}) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=check.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--horizon", type=float, default=None,
                        help="simulated seconds per run (default: the "
                             "workload's benchmark horizon)")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

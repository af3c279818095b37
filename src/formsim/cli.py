"""Command-line interface: run scenarios, emit presets, check invariants.

Exit codes: 0 success, 2 config error, 3 runtime failure (divergence,
rank deficiency, singular desired speed, a pose grid too large to
allocate), 4 I/O error. ``run`` and ``check`` load a config in one place,
so a fault of the file is the same config error from either.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from .controller import coupling_matrix, tree_gram
from .engine import DivergenceError, Engine, simulate
from .linalg import RankDeficient, chain_gram_determinant, \
    chain_pivot_bounds
from .metrics import compute_metrics, report_to_yaml
from .presets import get_preset, preset_names
from .scenario import ParseError, SchemaError, ValidationError, \
    load_scenario, serialize_scenario
from .trajectory import GridAllocationError, SampledTwist, SingularSpeed

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

_CONFIG_ERRORS = (ParseError, SchemaError, ValidationError, SingularSpeed)
_RUNTIME_ERRORS = (DivergenceError, RankDeficient, SingularSpeed,
                   GridAllocationError)


def _load(args, *fields):
    """The config ``args.config`` names, validated with the ``fields``
    given on the command line in place of its own, or the exit code after
    saying why it cannot be loaded."""
    try:
        return load_scenario(Path(args.config), {
            k: getattr(args, k) for k in fields
            if getattr(args, k) is not None})
    except _CONFIG_ERRORS as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot read config {args.config}: {exc}", file=sys.stderr)
        return EXIT_IO


def _cmd_run(args):
    config = _load(args, "dt", "t_final", "threshold")
    if isinstance(config, int):
        return config
    try:
        trace = simulate(config)
    except _RUNTIME_ERRORS as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    report = compute_metrics(trace, threshold=config.threshold)
    try:
        trace.write_csv(args.trace)
        Path(args.metrics).write_text(report_to_yaml(report))
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote trace to {args.trace} ({len(trace.data)} samples)")
    print(f"wrote metrics to {args.metrics}")
    if report.converged_all:
        worst = max(t for t in report.convergence_times)
        print(f"all robots converged (threshold {report.threshold:.4g}, "
              f"slowest at t={worst:.3g})")
    else:
        print(f"unconverged robots: {report.unconverged}")
    return EXIT_OK


def _cmd_preset(args):
    try:
        text = serialize_scenario(get_preset(args.name))
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return EXIT_CONFIG
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            print(f"cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"wrote preset {args.name} to {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _check_lines(config, horizon):
    """Yield (name, passed, detail) for the diagnostic suite."""
    engine = Engine(config)
    dt = config.dt
    steps_total = int(round(min(horizon, config.t_final) / dt))
    probe_every = max(1, steps_total // 8)
    marks = range(0, steps_total + 1, probe_every)
    h = 1e-5
    end = min((spec.profile.span for spec in config.robots
               if isinstance(spec.profile, SampledTwist)), default=np.inf)

    def va(t, y, k):   # Va after one probe step of k h from (t, y)
        return engine.diagnostics(t + k * h, engine.step(t, y, k * h)).Va

    def probes():   # each mark (a _Mark) and its EvalRecord, in order
        for _, kept in engine.integrate(engine.initial_state(), marks,
                                        steps_total):
            yield from zip(kept, engine.records(kept))

    # ||A||_F: two leader entries of 1 and, per edge, four columns of unit
    # norm (cos, sin, 0) and (0, 0, 1)
    norm_a = np.sqrt(4 * config.n - 2)
    lsq_ok, rate_ok, chain_ok = True, True, True
    details = {"lsq": "", "rate": ""}
    min_pivot = np.inf
    # the steps after the last probe are still taken, so a divergence
    # before the horizon still fails the check
    for (t, y, *_), rec in probes():
        # the contract is checked against an independent dense A
        A = coupling_matrix(config.tree, rec.poses[:, 2])
        # the leaves-first pivots are >= 1 in exact arithmetic; the 1e-12
        # slack covers edge cosines rounded a few ulps above 1
        min_pivot = min(min_pivot,
                        tree_gram(config.tree, rec.poses[:, 2]).pivots.min())
        b = -(np.asarray(config.formation_gain) * rec.z) - rec.feedforward
        defect = np.max(np.abs(A.T @ (A @ rec.etaf - b)))
        bound = 1e-10 * (1 + norm_a * np.linalg.norm(b))
        if defect > bound:
            lsq_ok, details["lsq"] = False, f"defect {defect:.2e} at t={t:g}"
        # energy-rate identity, finite differences vs prediction, where the
        # probe stays in t >= 0; past a sampled table's end the desired pose
        # is clamped, so a probe there looks back, at second order
        ahead = t + h <= end
        if t - (1 if ahead else 2) * h >= 0:
            if ahead:
                fd = (va(t, y, 1) - va(t, y, -1)) / (2 * h)
            else:
                fd = (3 * rec.Va - 4 * va(t, y, -1) + va(t, y, -2)) / (2 * h)
            pred = rec.Vdot
            floor = 1e3 * np.finfo(float).eps * max(rec.Va, 1.0) / h
            if abs(pred) > floor and abs(fd - pred) > 1e-5 * abs(pred):
                rate_ok = False
                details["rate"] = f"fd {fd:.6e} vs {pred:.6e} at t={t:g}"

    yield "conditioning-guard", bool(min_pivot >= 1.0 - 1e-12), \
        f"min pivot {min_pivot:.17g}"
    yield "least-squares-contract", lsq_ok, details["lsq"]
    yield "energy-rate-identity", rate_ok, details["rate"]
    if config.tree.is_chain and config.n >= 2:
        det, pivots = chain_gram_determinant(
            engine.initial_state()[2:3 * config.n:3])
        lower, upper = chain_pivot_bounds(pivots)
        chain_ok = det > 0 and np.all(pivots >= lower - 1e-12) \
            and np.all(pivots <= upper + 1e-12)
        yield "chain-pivot-certificate", bool(chain_ok), f"det={det:.6g}"


def _cmd_check(args):
    # a horizon past t_final is cut to it, so inf is the whole run
    if not args.horizon >= 0:
        print(f"config error: --horizon must be a non-negative number of "
              f"seconds, got {args.horizon}", file=sys.stderr)
        return EXIT_CONFIG
    config = _load(args, "dt")
    if isinstance(config, int):
        return config
    failed = False
    try:
        for name, ok, detail in _check_lines(config, args.horizon):
            status = "PASS" if ok else "FAIL"
            suffix = f"  ({detail})" if detail else ""
            print(f"{status} {name}{suffix}")
            failed = failed or not ok
    except _RUNTIME_ERRORS as exc:
        print(f"check run failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_RUNTIME if failed else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="formsim",
        description="Formation maneuvering simulator for unicycle robots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--trace", required=True, help="output CSV path")
    p_run.add_argument("--metrics", required=True, help="output YAML path")
    p_run.add_argument("--dt", type=float, default=None)
    p_run.add_argument("--t-final", type=float, default=None)
    p_run.add_argument("--threshold", type=float, default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_pre = sub.add_parser("preset", help="emit a built-in scenario config")
    p_pre.add_argument("name", choices=preset_names())
    p_pre.add_argument("-o", "--output", default=None)
    p_pre.set_defaults(fn=_cmd_preset)

    p_chk = sub.add_parser("check",
                           help="run the diagnostic suite on a config")
    p_chk.add_argument("--config", required=True)
    p_chk.add_argument("--dt", type=float, default=None)
    p_chk.add_argument("--horizon", type=float, default=2.0,
                       help="seconds of simulation to probe")
    p_chk.set_defaults(fn=_cmd_check)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

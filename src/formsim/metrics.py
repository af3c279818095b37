"""Run metrics computed from a trace.

Convergence time per robot is the first sample time after which its
tracking-error norm never rises back above the threshold. The threshold
defaults to 2% of the largest initial tracking-error norm; runs whose
errors start at exactly zero therefore converge at t = 0 (comparisons
are inclusive). The decay rate is the least-squares slope of the log of
the stacked-error norm over its leading strictly decreasing segment.
"""

from dataclasses import dataclass, field

import numpy as np
import yaml

__all__ = ["EmptyTrace", "MetricsReport", "compute_metrics",
           "report_to_yaml"]

DEFAULT_THRESHOLD_FRACTION = 0.02

# libyaml's emitter when PyYAML was built with it; both emit the same text
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


class EmptyTrace(ValueError):
    """Metrics requested for a trace with no rows."""


@dataclass
class MetricsReport:
    threshold: float
    convergence_times: list          # per robot; None when unconverged
    final_tracking_errors: list
    final_coordination_errors: list  # per edge, trace column order
    decay_rate: float                # None when no decreasing segment
    peak_controls: list              # per robot, max 2-norm over the run
    residual_stats: dict
    unconverged: list = field(default_factory=list)

    @property
    def converged_all(self):
        return not self.unconverged


def _edge_columns(columns):
    return [c for c in columns if c.startswith("norm_eps_")]


def _settle_time(times, norms, threshold):
    above = norms > threshold
    if not above.any():
        return float(times[0])
    last = int(np.nonzero(above)[0][-1])
    if last == len(times) - 1:
        return None
    return float(times[last + 1])


def _decay_rate(times, norm_z):
    start = int(np.argmax(norm_z))
    end = start
    while end + 1 < len(norm_z) and 0 < norm_z[end + 1] < norm_z[end]:
        end += 1
    if end - start < 1 or norm_z[start] <= 0:
        return None
    seg_t = times[start:end + 1]
    seg = np.log(norm_z[start:end + 1])
    slope = np.polyfit(seg_t, seg, 1)[0]
    return float(-slope)


def compute_metrics(trace, threshold=None):
    if len(trace.data) == 0:
        raise EmptyTrace("trace has no samples")
    times = trace.times
    n = sum(1 for c in trace.columns if c.startswith("norm_e")
            and not c.startswith("norm_eps"))
    err = np.stack([trace.column(f"norm_e{i}") for i in range(1, n + 1)],
                   axis=1)
    if threshold is None:
        threshold = float(trace.meta.get("threshold") or 0.0) or \
            DEFAULT_THRESHOLD_FRACTION * float(err[0].max())

    conv, unconverged = [], []
    for i in range(n):
        t_c = _settle_time(times, err[:, i], threshold)
        conv.append(t_c)
        if t_c is None:
            unconverged.append(i + 1)

    peaks = []
    has_torque = "F1" in trace.columns
    for i in range(1, n + 1):
        if has_torque:
            mag = np.hypot(trace.column(f"F{i}"), trace.column(f"tau{i}"))
        else:
            mag = np.hypot(trace.column(f"v{i}"), trace.column(f"w{i}"))
        peaks.append(float(mag.max()))

    res = trace.column("ls_residual")
    return MetricsReport(
        threshold=float(threshold),
        convergence_times=conv,
        final_tracking_errors=[float(v) for v in err[-1]],
        final_coordination_errors=[float(trace.column(c)[-1])
                                   for c in _edge_columns(trace.columns)],
        decay_rate=_decay_rate(times, trace.column("norm_z")),
        peak_controls=peaks,
        residual_stats={"max": float(res.max()), "mean": float(res.mean()),
                        "final": float(res[-1])},
        unconverged=unconverged,
    )


def report_to_yaml(report):
    doc = {
        "threshold": report.threshold,
        "converged_all": report.converged_all,
        "unconverged_robots": report.unconverged,
        "convergence_times": report.convergence_times,
        "final_tracking_errors": report.final_tracking_errors,
        "final_coordination_errors": report.final_coordination_errors,
        "decay_rate": report.decay_rate,
        "peak_controls": report.peak_controls,
        "residual": report.residual_stats,
    }
    return yaml.dump(doc, Dumper=_DUMPER, sort_keys=False)

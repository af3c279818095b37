"""Run metrics computed from a trace.

The header is read once for the blocks of ``Engine.trace_columns``: the
poses from ``x1``, the control pairs from ``F1`` (dynamic) or ``v1``, the
n ``norm_e*`` and n - 1 ``norm_eps_*`` errors up to ``norm_z``, and
``ls_residual``. Every per-robot and per-edge number is then an array
operation on those slices.

A robot converges at the first sample after which its tracking-error
norm never rises back above the threshold (a norm at it is not above).
An explicit threshold is used as given. The default is 2% of the largest
initial norm, floored at N u P, the most that N steps can round an error
that is zero in exact arithmetic to: each step rounds a pose of
magnitude at most P (the pose block's largest) once, by at most u P
(u = 2**-53), and the feedback pulls the error back, not further off.
N is the sample intervals times the meta's ``sample_every`` (1 when it
has none, as a trace read back from CSV). The decay rate is the
least-squares slope of log ``norm_z`` over its leading strictly
decreasing segment.

``report_to_yaml`` writes the report's fixed, flat schema directly, as
the text of PyYAML's safe dump (``sort_keys=False``).
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["EmptyTrace", "MetricsReport", "compute_metrics",
           "report_to_yaml"]

DEFAULT_THRESHOLD_FRACTION = 0.02


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
    data, cols = trace.data, trace.columns
    if len(data) == 0:
        raise EmptyTrace("trace has no samples")
    times = trace.times
    e1, z = cols.index("norm_e1"), cols.index("norm_z")
    n = (z - e1 + 1) // 2       # n errors, then n - 1 edge errors
    err = data[:, e1:e1 + n]
    if threshold is None:
        x1 = cols.index("x1")
        steps = (len(data) - 1) * trace.meta.get("sample_every", 1)
        floor = steps * np.finfo(float).eps / 2 \
            * np.abs(data[:, x1:x1 + 3 * n]).max()
        threshold = max(DEFAULT_THRESHOLD_FRACTION * err[0].max(), floor)

    # each robot's first sample after its last one above the threshold;
    # len(times) when its last sample is above, 0 when none is
    above = err > threshold
    settle = len(times) - np.argmax(above[::-1], axis=0)
    settle[~above.any(axis=0)] = 0
    conv = [float(times[k]) if k < len(times) else None for k in settle]

    c = cols.index("F1" if "F1" in cols else "v1")
    pairs = data[:, c:c + 2 * n]
    res = trace.column("ls_residual")
    return MetricsReport(
        threshold=float(threshold),
        convergence_times=conv,
        final_tracking_errors=err[-1].tolist(),
        final_coordination_errors=data[-1, e1 + n:z].tolist(),
        decay_rate=_decay_rate(times, data[:, z]),
        peak_controls=np.hypot(pairs[:, 0::2], pairs[:, 1::2]).max(
            axis=0).tolist(),
        residual_stats={"max": float(res.max()), "mean": float(res.mean()),
                        "final": float(res[-1])},
        unconverged=[i + 1 for i, t in enumerate(conv) if t is None],
    )


def _yaml_scalar(x):
    """``x``, None, a bool, an int or a float, as ``SafeRepresenter``
    writes it; ``.0`` goes before a bare exponent, as YAML's floats need."""
    if not isinstance(x, float):
        return "null" if x is None else str(x).lower()
    if not math.isfinite(x):
        return ".nan" if x != x else ".inf" if x > 0 else "-.inf"
    text = repr(x)
    return text if "." in text or "e" not in text else text.replace("e", ".0e")


def report_to_yaml(report):
    def seq(values):
        return "".join(f"\n- {_yaml_scalar(v)}" for v in values) or " []"

    residual = "".join(f"\n  {key}: {_yaml_scalar(value)}"
                       for key, value in report.residual_stats.items())
    return (f"threshold: {_yaml_scalar(report.threshold)}\n"
            f"converged_all: {_yaml_scalar(report.converged_all)}\n"
            f"unconverged_robots:{seq(report.unconverged)}\n"
            f"convergence_times:{seq(report.convergence_times)}\n"
            f"final_tracking_errors:{seq(report.final_tracking_errors)}\n"
            f"final_coordination_errors:"
            f"{seq(report.final_coordination_errors)}\n"
            f"decay_rate: {_yaml_scalar(report.decay_rate)}\n"
            f"peak_controls:{seq(report.peak_controls)}\n"
            f"residual:{residual}\n")

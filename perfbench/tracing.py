"""In-memory span tracing of formsim's public functions, from outside.

Wrappers are installed where each function is looked up at call time:
``formsim.engine`` and ``formsim.controller`` bind their imports by name,
so both module attributes are patched; engine methods and the
``SampledTwist`` constructor hook are patched on their classes; the
rank guard and the dense solves are patched on ``numpy.linalg``. Every
wrapper is restored when the ``installed`` block exits.

A span is [name, parent id, start, end]. A span's self time is its
duration minus the durations of its direct children, so the self times
of all spans under one root add up exactly to the root's duration.
"""

import functools
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import formsim.controller
import formsim.engine
import formsim.linalg
import formsim.metrics
import formsim.scenario
import formsim.trajectory

# The threshold above which the rank guard rejects a Gram matrix.
COND_LIMIT = getattr(formsim.linalg, "COND_LIMIT", np.inf)

ROOT = "bench.run"

# (span name, owners whose attribute is patched, attribute). A span name
# is "<layer>.<function>", the prefix of its per-layer metrics. An owner
# that no longer has the attribute is skipped, and its counts read zero.
TARGETS = [
    ("scenario.load_scenario", [formsim.scenario], "load_scenario"),
    ("trajectory.SampledTwist", [formsim.trajectory.SampledTwist],
     "__post_init__"),
    ("trajectory.desired_arrays", [formsim.engine], "desired_arrays"),
    ("controller._error_vector", [formsim.engine, formsim.controller],
     "_error_vector"),
    ("controller.coupling_matrix", [formsim.engine, formsim.controller],
     "coupling_matrix"),
    ("controller.feedforward_term", [formsim.engine, formsim.controller],
     "feedforward_term"),
    ("controller.kinematic_control", [formsim.engine], "kinematic_control"),
    ("controller.fictitious_velocity", [formsim.engine],
     "fictitious_velocity"),
    ("controller.coupling_rate", [formsim.controller], "coupling_rate"),
    ("controller.feedforward_rate", [formsim.controller],
     "feedforward_rate"),
    ("linalg.least_squares_solve", [formsim.controller],
     "least_squares_solve"),
    ("linalg.cond_guard", [np.linalg], "cond"),
    ("linalg.dense_solve", [np.linalg], "solve"),
    ("adaptive.block_regression", [formsim.engine], "block_regression"),
    ("adaptive.adaptive_control", [formsim.engine], "adaptive_control"),
    ("adaptive.adaptation_rate", [formsim.engine], "adaptation_rate"),
    ("adaptive.lyapunov_diagnostics", [formsim.engine],
     "lyapunov_diagnostics"),
    ("engine.Engine", [formsim.engine.Engine], "__init__"),
    ("engine.run", [formsim.engine.Engine], "run"),
    ("engine.rate", [formsim.engine.Engine], "rate"),
    ("engine.diagnostics", [formsim.engine.Engine], "diagnostics"),
    ("engine._row", [formsim.engine.Engine], "_row"),
    ("engine.write_csv", [formsim.engine.Trace], "write_csv"),
    ("metrics.compute_metrics", [formsim.metrics], "compute_metrics"),
    ("metrics.report_to_yaml", [formsim.metrics], "report_to_yaml"),
]

SPAN_NAMES = [name for name, _, _ in TARGETS]

# Functions that some workloads never call. They report calls and share
# only: a per-call time would read exactly zero on every run of those
# workloads. The printed table still shows their times.
NOT_EVERYWHERE = {
    "trajectory.SampledTwist", "controller.kinematic_control",
    "controller.fictitious_velocity", "controller.coupling_rate",
    "controller.feedforward_rate", "linalg.least_squares_solve",
    "adaptive.block_regression", "adaptive.adaptive_control",
    "adaptive.adaptation_rate", "adaptive.lyapunov_diagnostics",
}


class Recorder:
    """Collects spans of one traced run, plus the rank-guard trip count."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.guard_trips = 0

    def span(self, name, fn, *args, **kwargs):
        spans, stack = self.spans, self.stack
        record = [name, stack[-1], 0.0, 0.0]
        stack.append(len(spans))
        spans.append(record)
        record[2] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = perf_counter()
            stack.pop()

    def wrap(self, name, fn):
        if name == "linalg.cond_guard":
            @functools.wraps(fn)
            def guarded(*args, **kwargs):
                value = self.span(name, fn, *args, **kwargs)
                if not np.all(np.isfinite(value)) \
                        or np.any(value > COND_LIMIT):
                    self.guard_trips += 1
                return value
            return guarded

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def self_times(self):
        """Per-span (name, parent id, duration, self time) in call order."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(name, parent, end - start, end - start - child[k])
                for k, (name, parent, start, end) in enumerate(self.spans)]


@contextmanager
def installed(recorder):
    """Patch every target with ``recorder``'s wrappers; always restore."""
    saved = []
    try:
        for name, owners, attr in TARGETS:
            for owner in owners:
                original = vars(owner).get(attr)
                if original is None:
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, recorder.wrap(name, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

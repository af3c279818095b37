"""Host calibration loop: a fixed numpy workload that never imports formsim.

Timed between consecutive benchmark runs, so each run has a loop timing
right before and right after it. Its mix mirrors what formsim spends time
on: many small-matrix operations of the shape of the control law (a
10x10 Gram matrix, its condition number and a solve, block assembly into
a 15x10 array), which carry the per-call overhead of the pentagon
workloads, and a few dense 300x300 SVDs, the LAPACK work of the n=200
workload. On a shared host this mix slows down and speeds up with the
workloads, so dividing a run's time by the loop time cancels most of the
host's drift.

The numpy functions are bound here at import, before any tracing wrapper
is installed, so the loop never shows up in a traced run.
"""

import math
import time

import numpy as np

_cond = np.linalg.cond
_solve = np.linalg.solve
_svd = np.linalg.svd

SMALL_ROUNDS = 400
SVDS = 3

# A round value near the loop time on the 2-CPU x86_64 host where the
# benchmark was defined (one BLAS thread, OpenBLAS 0.3.31), which varied
# with the host's load. Corrected metrics are raw metrics rescaled by
# this value over the loop time of their own run, so they read in
# seconds of that host.
REFERENCE_S = 0.05


def _operands():
    rng = np.random.default_rng(12345)
    tall = rng.standard_normal((15, 10))
    rhs = rng.standard_normal(10)
    block = rng.standard_normal((3, 2))
    dense = rng.standard_normal((300, 300))
    return tall, rhs, block, dense


_TALL, _RHS, _BLOCK, _DENSE = _operands()


def calibration_seconds():
    """Wall seconds of one pass of the fixed loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(SMALL_ROUNDS):
        gram = _TALL.T @ _TALL
        acc += _cond(gram) + _solve(gram, _RHS)[0]
        assembled = np.zeros((15, 10))
        for row in range(0, 15, 3):
            assembled[row:row + 3, 0:2] = _BLOCK
        acc += float(np.array([math.cos(k), math.sin(k), 0.0])
                     @ assembled[:3, :3] @ np.ones(3))
    for _ in range(SVDS):
        acc += _svd(_DENSE, compute_uv=False)[0]
    elapsed = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise RuntimeError("calibration loop produced a non-finite value")
    return elapsed

"""Fixed-step closed-loop integration and trace recording.

One Engine instance owns one scenario run: classical fourth-order
Runge-Kutta at the scenario step, with the control law re-evaluated in
every stage (continuous-control idealization). One evaluator,
``Engine.evaluate``, computes the law at a state; every RK4 stage
(through ``Engine.rate``), trace row, probe and ``formsim check`` line
reads it, and one loop, ``Engine.integrate``, takes the steps of
``run`` and ``formsim check``.

An evaluation has a state-independent half: the desired poses, the
desired pose rates and their edge differences (the feedforward's edge
rows), and in dynamic mode the rates of both. ``integrate`` evaluates it
in one pass for a block of steps (``_BLOCK_STEPS``), at every stage time
t, t + h/2 and t + h as ``rk4_step`` computes them, and at the final
sample's time in the last block; it is the same numbers as evaluating
each time alone, since it does not depend on the state. If some time is
outside the trajectory's domain, the block keeps no terms and each stage
evaluates its own time, so the stage that reaches it raises. The
state-dependent half runs per stage: the headings' cosines and sines
once, then in kinematic mode one call of ``controller._kinematic_twist``,
which forms the normal equations' right-hand side from the poses and
eliminates it in the leaves-first factor, and from whose v and w the pose
rates are written, and in dynamic mode one call of
``controller._torque_stage``, which computes the twist command and its
rate, the torque and the estimates' rate in floats over the edges, with
one factor for both solves. No stage forms A.

A sample costs nothing beyond its own stage. At each mark ``integrate``
keeps the evaluation that is also the next step's first stage
(``rk4_step``'s ``k1``) as a ``_Mark``: t, y, the derivative, the desired
terms the stage read, the leader's (cos, sin), and the stage's own
output (v in kinematic mode, the ``_Torque`` in dynamic mode); only the
final sample is evaluated on its own. ``Engine._row`` then derives the
records of a whole block of marks at once, along a leading sample axis:
the errors, the stacked error, the feedforward and the residual K z + ff
+ A eta_f (in kinematic mode from the poses and the pose rates, without
A; in dynamic mode read from the ``_Torque``s), their norms, the energy
and its predicted rate, and writes the trace rows straight into the
trace's array. ``Engine.diagnostics``, and so every probe and ``formsim
check`` line, is ``_row`` at one mark: row j of a block is the record of
mark j alone, bit for bit.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import islice
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .adaptive import lyapunov_diagnostics, params_to_vector
from .controller import (_coupled, _Desired, _desired_terms, _error_vector,
                         _kinematic_gains, _kinematic_twist, _layout,
                         _Stage, _stage, _torque_plant, _torque_stage,
                         feedforward_term)
# Not called here, but bound where perfbench/tracing.py looks up the
# layers it traces.
from .adaptive import (adaptation_rate, adaptive_control,  # noqa: F401
                       block_regression)
from .controller import (coupling_matrix, fictitious_velocity,  # noqa: F401
                         kinematic_control)
from .trajectory import ProfileSet, desired_arrays, rk4_step

__all__ = ["DivergenceError", "Trace", "EvalRecord", "Engine", "simulate",
           "rk4_step"]


# Steps whose desired terms ``Engine.integrate`` evaluates in one pass;
# at three stage times per step, plus the final sample's, a block's arrays
# hold at most 49 rows.
_BLOCK_STEPS = 16


class DivergenceError(RuntimeError):
    """State left the finite range during integration."""


@dataclass
class Trace:
    """Uniformly sampled run record: named columns, one row per sample."""

    columns: list
    data: np.ndarray
    meta: dict = field(default_factory=dict)

    def column(self, name):
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no trace column {name!r}") from None
        return self.data[:, idx]

    @property
    def times(self):
        return self.column("t")

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(self.columns) + "\n")
            line = ",".join(["%.17g"] * len(self.columns)) + "\n"
            fh.writelines(line % tuple(row.tolist()) for row in self.data)

    @classmethod
    def read_csv(cls, path):
        with open(path) as fh:
            header = fh.readline().strip()
            columns = header.split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if data.size == 0:
            data = data.reshape(0, len(columns))
        return cls(columns=columns, data=data)


@dataclass(frozen=True)
class EvalRecord:
    """Controller evaluation at one state, for trace rows, probes, and the
    verification CLI. ``Engine._row`` builds the records of a block of
    states as one EvalRecord whose every field has a leading sample axis,
    and ``_record_at`` reads one state's back."""

    t: float
    poses: np.ndarray
    error: np.ndarray          # per-robot tracking errors (n, 3)
    z: np.ndarray
    eta: np.ndarray            # commanded (kinematic) or actual twists
    u: np.ndarray              # torque command, dynamic mode only
    phihat: np.ndarray
    etaf: np.ndarray
    etafdot: np.ndarray
    sigma: np.ndarray
    residual: np.ndarray       # least-squares residual vector
    V: float
    Va: float                  # composite energy; V in kinematic mode
    Vdot: float                # predicted rate of Va
    feedforward: np.ndarray


def _record_at(block, j):
    """The EvalRecord of mark j of a block record (see ``Engine._row``)."""
    return EvalRecord(*(
        None if col is None else col[j] if col.ndim > 1 else col[j].item()
        for col in (getattr(block, f.name) for f in fields(EvalRecord))))


class _Mark(NamedTuple):
    """What a record needs of one evaluation of the law at (t, y): the
    derivative, the desired terms the stage read, the leader's (cos, sin)
    and the stage's own output, v (an array) in kinematic mode and the
    ``_Torque`` in dynamic mode."""

    t: float
    y: np.ndarray
    dy: np.ndarray
    d: _Desired
    rot: tuple
    out: object


class Engine:
    """Closed-loop integrator for one validated scenario."""

    def __init__(self, config):
        self.config = config
        self.tree = config.tree
        self.n = config.n
        self.mode = config.mode
        self.profiles = ProfileSet(spec.profile for spec in config.robots)
        self.gz = np.asarray(config.formation_gain, dtype=float)
        if self.mode == "kinematic":
            self._gains = _kinematic_gains(self.gz)
        else:
            self.gs = np.asarray(config.twist_gain, dtype=float)
            self.ga = np.asarray(config.adapt_gain, dtype=float)
            params = [spec.params for spec in config.robots]
            self.mdiag = np.array([[p.mass, p.inertia] for p in params]
                                  ).reshape(-1)
            self.minv = 1.0 / self.mdiag
            self.damp = np.array([p.damping for p in params])
            self.phi_true = np.concatenate([params_to_vector(p)
                                            for p in params])
            self._plant = _torque_plant(self.gz, self.gs, self.ga,
                                        self.minv, self.damp)

    # ---- state packing ----

    def initial_state(self):
        cfg = self.config
        poses = np.array([spec.start for spec in cfg.robots], dtype=float)
        if self.mode == "kinematic":
            return poses.reshape(-1).copy()
        twists = np.array([spec.start_twist for spec in cfg.robots],
                          dtype=float)
        phihat = np.concatenate([np.asarray(spec.estimate0, dtype=float)
                                 for spec in cfg.robots])
        return np.concatenate([poses.reshape(-1), twists.reshape(-1),
                               phihat])

    # ---- the control law ----

    # stage time -> its hoisted _Desired while ``integrate`` takes a
    # block's steps; empty otherwise, and every stage evaluates its own time
    _block = MappingProxyType({})

    @cached_property
    def _lay(self):
        return _layout(self.tree)

    def _desired(self, times):
        """The state-independent half of the control law at one time, or
        stacked along a leading axis at a 1-D array of times."""
        qd, etad, etadd = desired_arrays(self.profiles, times)
        return _desired_terms(self._lay, qd, etad,
                              etadd if self.mode == "dynamic" else None)

    def _hoist(self, starts, h, also=()):
        """Stage time -> _Desired for RK4 steps of size h from each start
        time, with the stage times ``rk4_step`` computes, and for the
        times ``also``. Empty when some time is outside the profiles'
        domain: the stage that reaches it then raises as its own
        evaluation would, after any earlier stage has raised first."""
        times = {}
        for t in starts:
            times.update(dict.fromkeys((t, t + 0.5 * h, t + h)))
        times.update(dict.fromkeys(also))
        try:
            d = self._desired(np.fromiter(times, float, len(times)))
        except ValueError:
            return {}
        return {t: _Desired(*(None if col is None else col[j] for col in d))
                for j, t in enumerate(times)}

    def evaluate(self, t, y, record=False):
        """Evaluate the control law once at (t, y).

        Returns the state derivative, or with ``record`` the ``_Mark``
        that holds it and what ``_row`` reads of the evaluation.
        """
        n = self.n
        d = self._block.get(t)
        if d is None:
            d = self._desired(t)
        poses = y[:3 * n].reshape(n, 3)
        st = _stage(self._lay, poses[:, 2])
        dy = np.empty_like(y)
        if self.mode == "kinematic":
            v, w = _kinematic_twist(st, poses, d, self._gains)
            out = v = np.array(v)
        else:
            eta = y[3 * n:5 * n]
            out = _torque_stage(st, poses, eta, y[5 * n:], d, self._plant)
            v, w = eta[0::2], eta[1::2]
            dy[3 * n:5 * n] = out.twist_rate
            dy[5 * n:] = out.phidot
        dy[0:3 * n:3] = v * st.cos
        dy[1:3 * n:3] = v * st.sin
        dy[2:3 * n:3] = w
        if not record:
            return dy
        return _Mark(t, y, dy, d, st.rot, out)

    def rate(self, t, y):
        """State derivative: one evaluation of the control law."""
        return self.evaluate(t, y)

    def records(self, marks):
        """The EvalRecord of each ``_Mark`` in ``marks``, from one block
        of ``_row``."""
        if not marks:
            return []
        block = self._row(marks)
        return [_record_at(block, j) for j in range(len(marks))]

    def diagnostics(self, t, y):
        """The EvalRecord of one evaluation of the control law at (t, y)."""
        return self.records([self.evaluate(t, y, record=True)])[0]

    def step(self, t, y, h):
        """Single RK4 step; h may be negative (used by probes)."""
        return rk4_step(self.rate, t, np.asarray(y, dtype=float), h)

    @contextmanager
    def _hoisted(self, block):
        """Let every evaluation in the block look its terms up in it."""
        self._block = block
        try:
            yield
        finally:
            del self._block

    def integrate(self, y, marks, stop, t0=0.0):
        """Integrate y by RK4 steps of ``config.dt`` from step index
        ``marks[0]`` to ``stop``, keeping the evaluation at each step
        index in ``marks`` (increasing, none past ``stop``).

        Step k starts at t0 + mark*dt + s*dt, with mark the last mark at
        or before k and s = k - mark. Steps go in blocks of up to
        ``_BLOCK_STEPS`` across the marks, each block's desired terms
        evaluated in one pass (``_hoist``) before its first stage. Yields
        (y, kept) once per block, once it is integrated: the state at its
        end and the ``_Mark`` of each mark in it, the mark's first stage
        (``rk4_step``'s k1). The last block's list ends with the final
        state's own evaluation when ``stop`` is a mark; with no steps,
        that is the one yield."""
        dt = self.config.dt
        y = np.array(y, dtype=float)
        steps = ((t0 + mark * dt + s * dt, s == 0)
                 for mark, cur in zip(marks, [*marks[1:], stop])
                 for s in range(cur - mark))
        total = stop - marks[0]
        end, final = t0 + stop * dt, marks[-1] == stop
        for a in range(0, total or 1, _BLOCK_STEPS):
            starts = list(islice(steps, _BLOCK_STEPS))
            last = a + _BLOCK_STEPS >= total and final
            kept = []
            with self._hoisted(self._hoist([t for t, _ in starts], dt,
                                           (end,) if last else ())):
                # overflow here is the divergence signal, not a numpy error
                with np.errstate(over="ignore", invalid="ignore"):
                    for t, lead in starts:
                        k1 = None
                        if lead:
                            kept.append(self.evaluate(t, y, record=True))
                            k1 = kept[-1].dy
                        y = rk4_step(self.rate, t, y, dt, k1)
                        if not np.isfinite(y).all():
                            raise DivergenceError(
                                f"non-finite state at t={t + dt:g}")
                if last:
                    kept.append(self.evaluate(end, y, record=True))
            yield y, kept

    # ---- trace ----

    def trace_columns(self):
        n = self.n
        cols = ["t"]
        for i in range(1, n + 1):
            cols += [f"x{i}", f"y{i}", f"th{i}"]
        for i in range(1, n + 1):
            cols += [f"v{i}", f"w{i}"]
        if self.mode == "dynamic":
            for i in range(1, n + 1):
                cols += [f"F{i}", f"tau{i}"]
            for i in range(1, n + 1):
                cols += [f"phihat{i}_{k}" for k in range(1, 7)]
        cols += [f"norm_e{i}" for i in range(1, n + 1)]
        cols += [f"norm_eps_{i}_{j}" for i, j in self.tree.edges]
        cols += ["norm_z", "V", "Va", "ls_residual"]
        return cols

    def _row(self, marks, out=None):
        """The records of a block of m ``_Mark``s, as one EvalRecord whose
        every field has a leading sample axis; with ``out``, their trace
        rows too, written into that (m, columns) array.

        A kinematic record forms the stacked error, the feedforward and
        the residual K z + ff + A eta_f (A eta_f by ``_coupled``, from the
        pose rates), a dynamic one reads them from the stage's
        ``_Torque``. Every operation is elementwise along the sample axis
        or a row-wise dot, so row j is the record of mark j alone, bit
        for bit."""
        n, m = self.n, len(marks)
        t = np.array([mark.t for mark in marks])
        y = np.array([mark.y for mark in marks])
        poses = y[:, :3 * n].reshape(m, n, 3)
        qd = np.array([mark.d.qd for mark in marks])
        if self.mode == "kinematic":
            dy = np.array([mark.dy for mark in marks])
            v = np.array([mark.out for mark in marks])
            st = _Stage(self._lay, None, None,
                        tuple(np.array([mark.rot for mark in marks]).T))
            d = _Desired(qd, np.array([mark.d.rows for mark in marks]),
                         np.array([mark.d.edges for mark in marks]), None)
            z = _error_vector(st, poses, qd)
            ff = feedforward_term(st, d)
            eta = etaf = np.empty((m, 2 * n))
            eta[:, 0::2] = v
            eta[:, 1::2] = dy[:, 2::3]
            u = phihat = etafdot = sigma = None
            res = self.gz * z + ff + _coupled(self._lay, v[:, 0], dy)
            zz = np.vecdot(z, z)
            V = Va = 0.5 * zz
            Vdot = -np.vecdot(z, self.gz * z) + np.vecdot(z, res)
        else:
            laws = [mark.out for mark in marks]
            z, ff, res, u = (np.array([getattr(law, k) for law in laws])
                             for k in ("z", "ff", "residual", "u"))
            # (v, w) list pairs, interleaved
            etaf, etafdot = (np.array([getattr(law, k) for law in laws])
                             .transpose(0, 2, 1).reshape(m, 2 * n)
                             for k in ("etaf", "etafdot"))
            eta, phihat = y[:, 3 * n:5 * n], y[:, 5 * n:]
            sigma = eta - etaf
            zz = np.vecdot(z, z)
            V = 0.5 * zz
            Va, Vdot = lyapunov_diagnostics(z, sigma, phihat - self.phi_true,
                                            self.mdiag, self.ga, self.gz,
                                            self.gs, res)
        error = qd - poses
        if out is not None:
            out[:, 0] = t
            out[:, 1:1 + 3 * n] = y[:, :3 * n]
            c = 1 + 3 * n
            for block in (eta, u, phihat):
                if block is not None:
                    out[:, c:c + block.shape[1]] = block
                    c += block.shape[1]
            norms = out[:, c:c + 2 * n - 1]
            np.multiply(error, error).sum(axis=2, out=norms[:, :n])
            edges = z[:, 3:].reshape(m, n - 1, 3)
            np.multiply(edges, edges).sum(axis=2, out=norms[:, n:])
            np.sqrt(norms, out=norms)
            c += 2 * n - 1
            out[:, c] = np.sqrt(zz)
            out[:, c + 1] = V
            out[:, c + 2] = Va
            out[:, c + 3] = np.sqrt(np.vecdot(res, res))
        return EvalRecord(
            t=t, poses=poses, error=error, z=z, eta=eta, u=u, phihat=phihat,
            etaf=etaf, etafdot=etafdot, sigma=sigma, residual=res, V=V,
            Va=Va, Vdot=Vdot, feedforward=ff)

    def run(self):
        cfg = self.config
        total = int(round(cfg.t_final / cfg.dt))
        marks = list(range(0, total + 1, cfg.sample_every))
        if marks[-1] != total:
            marks.append(total)
        columns = self.trace_columns()
        data = np.empty((len(marks), len(columns)))
        row = 0
        for _, kept in self.integrate(self.initial_state(), marks, total):
            if kept:
                self._row(kept, data[row:row + len(kept)])
                row += len(kept)
        meta = {"mode": self.mode, "n": self.n,
                "edges": list(self.tree.edges), "unit": cfg.unit,
                "dt": cfg.dt, "sample_every": cfg.sample_every,
                "name": cfg.name}
        return Trace(columns=columns, data=data, meta=meta)


def simulate(config):
    """Run a scenario to completion and return its Trace."""
    return Engine(config).run()

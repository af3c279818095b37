"""Fixed-step closed-loop integration and trace recording.

One Engine instance owns one scenario run: classical fourth-order
Runge-Kutta at the scenario step dt, with the control law re-evaluated
in every stage (continuous-control idealization), on one clock: step k
starts at t0 + k*dt whatever steps are kept as samples. One evaluator,
``Engine.rate``, computes the law at a state; every RK4 stage, trace
row and ``formsim check`` line reads it, and one loop,
``Engine.integrate``, takes the steps of ``run`` and ``formsim check``.

An evaluation has a state-independent half: the desired poses, the
desired pose rates and their edge differences (the feedforward's edge
rows), and in dynamic mode the rates of both, which the torque-level
stage reads as one row of Python floats per time. ``integrate``
evaluates it in one pass for a block of steps (``_block_steps``: 64 for
small formations, fewer for large ones, so that a block's arrays stay
small), at every stage time t, t + h/2 and t + h as ``rk4_step``
computes them, and at the final sample's time in the last block; it is
the same numbers as evaluating each time alone, since it does not depend
on the state, and the block length changes no output. No stage time can
fail it: the times are nonnegative, and every profile proved its speed
floor when it was built. Each stage receives its time's terms as its
argument ``d``, and an evaluation without one (``diagnostics``) hoists
its own time alone; an Engine keeps no per-block state, so integrations
on one Engine may nest. The state-dependent half runs per stage: the
headings' cosines and sines once, then in kinematic mode one call of
``controller._kinematic_twist``, which forms the normal equations'
right-hand side from the poses and eliminates it in the leaves-first
factor, and from whose v and w the pose rates are written, and in
dynamic mode one call of
``controller._torque_stage``, which computes the twist command and its
rate in floats, in four sweeps over the edges that form the normal
equations' factor and eliminate both right-hand sides as they go (leaves
first, root first, twice), then the torque and the estimates' rate per
robot, and returns the twists' and the estimates' rates as one list,
written into the derivative in one assignment. The pose rates are
written from arrays in both modes. No stage forms A.

A sample costs nothing beyond its own stage. At each mark ``integrate``
keeps the evaluation that is also the next step's first stage
(``rk4_step``'s ``k1``) as a ``_Mark``: t, y, the derivative, the desired
terms and the ``_Stage`` the stage read, and the stage's own output,
which opens with the twist command's (v, w) and the pivots it divided
by; only the final sample is evaluated on its own. ``Engine._row``
then derives the records of a whole block of marks at once, along a
leading sample axis and by one code path in both modes: the errors, the
stacked error, the feedforward and the residual K z + ff + A eta_f (A
eta_f from the stage's eta_f steered by the mark's own cosines and
sines, without A), their norms, the energy and its predicted rate, and
writes the trace rows straight into the trace's array.
``Engine.diagnostics`` is ``_row`` at one mark: row j of a block is the
record of mark j alone, bit for bit. ``formsim check`` reads its marks'
records, and takes Va's rate along the flow from each mark's own
derivative.
"""

from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import repeat
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
from .trajectory import (GridAllocationError, ProfileSet, desired_arrays,
                         rk4_step)

__all__ = ["DivergenceError", "Trace", "EvalRecord", "Engine", "simulate",
           "rk4_step"]


def _block_steps(n):
    """Steps whose desired terms ``Engine.integrate`` evaluates in one
    pass, for n robots: 64, capped at 4096 robot-steps so that a large
    formation's block arrays stay no larger than at the floor of 16
    steps. At three stage times per step, plus the final sample's, a
    block's arrays hold at most 3 * _block_steps(n) + 1 rows. The length
    sets what a block costs, never what it computes."""
    return max(16, min(64, 4096 // n))


class DivergenceError(RuntimeError):
    """State left the finite range during integration: step ``step``,
    ending at ``t``, made it non-finite from the last finite state y at
    ``t_last``, whose largest |entry| ``y_max`` is robot ``robot``'s."""

    def __init__(self, t, step, t_last, y, n):
        # y holds n poses (3 entries each), then in dynamic mode n twists
        # (2 each) and n estimates (6 each)
        i, r = int(np.abs(y).argmax()), np.arange(1, n + 1)
        self.t, self.step, self.t_last = t, step, t_last
        self.y_max = float(abs(y[i]))
        self.robot = int(np.r_[r.repeat(3), r.repeat(2), r.repeat(6)][i])
        super().__init__(f"non-finite state after step {step} (last finite "
                         f"at t={t_last:g}: max |y| {self.y_max:.3g}, "
                         f"robot {self.robot}) at t={t:g}")


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
    derivative, the desired terms and the ``_Stage`` the stage read, and
    the stage's own output: ((v, w), piv) in kinematic mode, the
    ``_Torque`` in dynamic mode, both opening with eta_f and the pivots."""

    t: float
    y: np.ndarray
    dy: np.ndarray
    d: _Desired
    st: _Stage
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

    @cached_property
    def _lay(self):
        return _layout(self.tree)

    def _hoist(self, times):
        """Time -> _Desired at each of ``times``, evaluated in one pass:
        the ``d`` that ``rate`` reads at each of those times."""
        times = dict.fromkeys(times)
        qd, etad, etadd = desired_arrays(
            self.profiles, np.fromiter(times, float, len(times)))
        d = _desired_terms(self._lay, qd, etad,
                           etadd if self.mode == "dynamic" else None)
        return dict(zip(times, map(_Desired._make, zip(
            *(repeat(None) if col is None else col for col in d)))))

    def rate(self, t, y, d=None, record=False):
        """Evaluate the control law once at (t, y), with ``d`` the
        ``_Desired`` at t when it is already known (``_hoist``); with
        ``d`` None the evaluation hoists its one time.

        Returns the state derivative, or with ``record`` the ``_Mark``
        that holds it and what ``_row`` reads of the evaluation.
        """
        n = self.n
        if d is None:
            d = self._hoist((t,))[t]
        poses = y[:3 * n].reshape(n, 3)
        st = _stage(self._lay, poses[:, 2])
        dy = np.empty_like(y)
        if self.mode == "kinematic":
            out = (v, w), _ = _kinematic_twist(st, poses, d, self._gains)
            v = np.array(v)
        else:
            eta = y[3 * n:5 * n]
            out = _torque_stage(st, poses, eta, y[5 * n:], d, self._plant)
            v, w = eta[0::2], eta[1::2]
            dy[3 * n:] = out.tail
        np.multiply(v, st.cos, out=dy[0:3 * n:3])
        np.multiply(v, st.sin, out=dy[1:3 * n:3])
        dy[2:3 * n:3] = w
        if not record:
            return dy
        return _Mark(t, y, dy, d, st, out)

    def records(self, marks):
        """The EvalRecord of each ``_Mark`` in ``marks``, from one block
        of ``_row``."""
        if not marks:
            return []
        block = self._row(marks)
        return [_record_at(block, j) for j in range(len(marks))]

    def diagnostics(self, t, y):
        """The EvalRecord of one evaluation of the control law at (t, y)."""
        return self.records([self.rate(t, y, record=True)])[0]

    def integrate(self, y, marks, stop, t0=0.0):
        """Integrate y by RK4 steps of ``config.dt`` from step index
        ``marks[0]`` to ``stop``, keeping the evaluation at each step
        index in ``marks`` (increasing, none past ``stop``).

        Step k starts at t0 + k*dt, whatever the marks, so the states do
        not depend on which steps are kept. Steps go in blocks of up to
        ``_block_steps(n)`` across the marks, each block's desired terms
        evaluated in one pass (``_hoist``) before its first stage and
        handed to each stage as its ``d``, through ``Engine.rate``. Yields
        (y, kept) once per block, once it is integrated: the state at its
        end and the ``_Mark`` of each mark in it, the mark's first stage
        (``rk4_step``'s k1). The last block's list ends with the final
        state's own evaluation when ``stop`` is a mark; with no steps,
        that is the one yield."""
        dt, keep, block = self.config.dt, set(marks), _block_steps(self.n)
        y, end = np.array(y, dtype=float), t0 + stop * dt
        for a in range(marks[0], max(stop, marks[0] + 1), block):
            starts = [t0 + k * dt for k in range(a, min(a + block, stop))]
            last = a + block >= stop and stop in keep
            # rk4_step's stage times, as it computes them, and the final
            # sample's
            terms = self._hoist([s for t in starts
                                 for s in (t, t + 0.5 * dt, t + dt)]
                                + ([end] if last else []))

            def rate(s, x):
                return self.rate(s, x, terms[s])

            kept = []
            # overflow here is the divergence signal, not a numpy error
            with np.errstate(over="ignore", invalid="ignore"):
                for k, t in enumerate(starts, a):
                    if k in keep:
                        kept.append(self.rate(t, y, terms[t], record=True))
                    x = rk4_step(rate, t, y, dt,
                                 kept[-1].dy if k in keep else None)
                    if not np.isfinite(x).all():
                        raise DivergenceError(t + dt, k + 1, t, y, self.n)
                    y = x
            if last:
                kept.append(self.rate(end, y, terms[end], record=True))
            # the marks hold their own terms; the block's go before the
            # caller builds its rows and the next block hoists, so that
            # two blocks' terms never add up in the peak memory
            del terms
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

        In either mode a record forms the stacked error, the feedforward
        and the residual K z + ff + A eta_f from its mark: A eta_f by
        ``_coupled``, from the stage's eta_f steered by the mark's own
        cosines and sines. Every operation is elementwise along the sample
        axis or a row-wise dot, so row j is the record of mark j alone,
        bit for bit."""
        n, m = self.n, len(marks)
        t = np.array([mark.t for mark in marks])
        y = np.array([mark.y for mark in marks])
        poses = y[:, :3 * n].reshape(m, n, 3)
        qd = np.array([mark.d.qd for mark in marks])
        st = _Stage(self._lay, np.array([mark.st.cos for mark in marks]),
                    np.array([mark.st.sin for mark in marks]),
                    tuple(np.array([mark.st.rot for mark in marks]).T))
        d = _Desired(qd, np.array([mark.d.rows for mark in marks]),
                     np.array([mark.d.edges for mark in marks]), None)
        z = _error_vector(st, poses, qd)
        ff = feedforward_term(st, d)
        # (m, 2, n): the (v, w) lists of each mark's eta_f
        vw = np.array([mark.out[0] for mark in marks])
        vf = vw[:, 0]
        g = np.empty((m, 3 * n))
        g[:, 0::3] = vf * st.cos
        g[:, 1::3] = vf * st.sin
        g[:, 2::3] = vw[:, 1]
        res = self.gz * z + ff + _coupled(self._lay, vf[:, 0], g)
        etaf = vw.transpose(0, 2, 1).reshape(m, 2 * n)
        zz = np.vecdot(z, z)
        V = 0.5 * zz
        if self.mode == "kinematic":
            eta = etaf
            u = phihat = etafdot = sigma = None
            Va = V
            Vdot = -np.vecdot(z, self.gz * z) + np.vecdot(z, res)
        else:
            laws = [mark.out for mark in marks]
            u = np.array([law.u for law in laws])
            etafdot = (np.array([law.etafdot for law in laws])
                       .transpose(0, 2, 1).reshape(m, 2 * n))
            eta, phihat = y[:, 3 * n:5 * n], y[:, 5 * n:]
            sigma = eta - etaf
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
        total, columns = cfg.steps, self.trace_columns()
        marks = range(0, total, cfg.sample_every)
        try:
            data = np.empty(shape := (len(marks) + 1, len(columns)))
        except (MemoryError, ValueError):
            raise GridAllocationError(f"cannot allocate the trace of shape "
                                      f"{shape}") from None
        marks = [*marks, total]
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

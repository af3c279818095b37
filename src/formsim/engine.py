"""Fixed-step closed-loop integration and trace recording.

One Engine instance owns one scenario run: classical fourth-order
Runge-Kutta at the scenario step, with the control law re-evaluated in
every stage (continuous-control idealization). One evaluator,
``Engine.evaluate``, computes the law at a state; every RK4 stage
(through ``Engine.rate``), trace row, probe and ``formsim check`` line
goes through it, and one loop, ``Engine.integrate``, takes the steps of
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

A trace row or check line at a sample reads the ``EvalRecord`` of the
evaluation that is also the next step's first stage (``rk4_step``'s
``k1``); only the final sample is evaluated on its own. A kinematic
record also builds the stacked error, the feedforward and the
interleaved twists, and its residual K z + ff + A eta_f (A eta_f by
``controller._coupled``, without A); a dynamic record reads them from
the stage's call. Either costs O(n) more, with the predicted energy rate.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from types import MappingProxyType

import numpy as np

from .adaptive import lyapunov_diagnostics, params_to_vector
from .controller import (_coupled, _Desired, _desired_terms, _error_vector,
                         _interleave, _kinematic_twist, _layout, _stage,
                         _torque_plant, _torque_stage, feedforward_term)
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
    verification CLI."""

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


class Engine:
    """Closed-loop integrator for one validated scenario."""

    def __init__(self, config):
        self.config = config
        self.tree = config.tree
        self.n = config.n
        self.mode = config.mode
        self.profiles = ProfileSet(spec.profile for spec in config.robots)
        self.gz = np.asarray(config.formation_gain, dtype=float)
        if self.mode == "dynamic":
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

        Returns the state derivative, or with ``record`` the pair of the
        derivative and the EvalRecord a trace row or a probe reads.
        """
        n = self.n
        d = self._block.get(t)
        if d is None:
            d = self._desired(t)
        poses = y[:3 * n].reshape(n, 3)
        st = _stage(self._lay, poses[:, 2])
        dy = np.empty_like(y)
        if self.mode == "kinematic":
            v, w = _kinematic_twist(st, poses, d, self.gz)
            v = np.array(v)
        else:
            eta = y[3 * n:5 * n]
            phihat = y[5 * n:]
            law = _torque_stage(st, poses, eta, phihat, d, self._plant)
            v, w = eta[0::2], eta[1::2]
            dy[3 * n:5 * n] = law.twist_rate
            dy[5 * n:] = law.phidot
        dy[0:3 * n:3] = v * st.cos
        dy[1:3 * n:3] = v * st.sin
        dy[2:3 * n:3] = w
        if not record:
            return dy
        if self.mode == "kinematic":
            z = _error_vector(st, poses, d.qd)
            ff = feedforward_term(st, d)
            eta = etaf = _interleave(v, w)
            u = phihat = etafdot = sigma = None
            res = self.gz * z + ff + _coupled(st, etaf)
        else:
            z, ff, res, u = map(np.array, (law.z, law.ff, law.residual,
                                           law.u))
            etaf, etafdot = _interleave(*law.etaf), _interleave(*law.etafdot)
            sigma = eta - etaf
        V = Va = 0.5 * float(z @ z)
        if self.mode == "kinematic":
            Vdot = float(-(z @ (self.gz * z)) + z @ res)
        else:
            Va, Vdot = lyapunov_diagnostics(z, sigma, phihat - self.phi_true,
                                            self.mdiag, self.ga, self.gz,
                                            self.gs, res)
            phihat = phihat.copy()
        return dy, EvalRecord(
            t=t, poses=poses.copy(), error=d.qd - poses, z=z, eta=eta, u=u,
            phihat=phihat, etaf=etaf, etafdot=etafdot, sigma=sigma,
            residual=res, V=V, Va=Va, Vdot=Vdot, feedforward=ff)

    def rate(self, t, y):
        """State derivative: one evaluation of the control law."""
        return self.evaluate(t, y)

    def diagnostics(self, t, y):
        """The EvalRecord of one evaluation of the control law at (t, y)."""
        return self.evaluate(t, y, record=True)[1]

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
        ``marks[0]`` to ``stop``, recording the state at each step index
        in ``marks`` (increasing, none past ``stop``).

        Step k starts at t0 + mark*dt + s*dt, with mark the last mark at
        or before k and s = k - mark. Steps go in blocks of up to
        ``_BLOCK_STEPS`` across the marks, each block's desired terms
        evaluated in one pass (``_hoist``) before its first stage. Yields
        (t, y, rec) at each mark before ``stop``, rec being the
        EvalRecord of the mark's first stage, once its block is
        integrated; last, at ``stop``, the final state and, when ``stop``
        is a mark, its own record, else None."""
        dt = self.config.dt
        y = np.array(y, dtype=float)
        steps = ((t0 + mark * dt + s * dt, s == 0)
                 for mark, cur in zip(marks, [*marks[1:], stop])
                 for s in range(cur - mark))
        total = stop - marks[0]
        end, final = t0 + stop * dt, marks[-1] == stop
        block = {}
        for a in range(0, total, _BLOCK_STEPS):
            starts = list(islice(steps, _BLOCK_STEPS))
            last = a + _BLOCK_STEPS >= total and final
            block = self._hoist([t for t, _ in starts], dt,
                                (end,) if last else ())
            done = []
            # overflow here is the divergence signal, not a numpy error
            with self._hoisted(block), \
                    np.errstate(over="ignore", invalid="ignore"):
                for t, lead in starts:
                    k1 = None
                    if lead:
                        k1, rec = self.evaluate(t, y, record=True)
                        done.append((t, y, rec))
                    y = rk4_step(self.rate, t, y, dt, k1)
                    if not np.all(np.isfinite(y)):
                        raise DivergenceError(
                            f"non-finite state at t={t + dt:g}")
            yield from done
        rec = None
        if final:
            with self._hoisted(block):
                rec = self.evaluate(end, y, record=True)[1]
        yield end, y, rec

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

    def _row(self, rec):
        parts = [np.array([rec.t]), rec.poses.reshape(-1), rec.eta]
        if self.mode == "dynamic":
            parts += [rec.u, rec.phihat]
        parts.append(np.linalg.norm(rec.error, axis=1))
        parts.append(np.linalg.norm(rec.z[3:].reshape(-1, 3), axis=1))
        parts.append(np.array([np.linalg.norm(rec.z), rec.V, rec.Va,
                               np.linalg.norm(rec.residual)]))
        return np.concatenate(parts)

    def run(self):
        cfg = self.config
        total = int(round(cfg.t_final / cfg.dt))
        marks = list(range(0, total + 1, cfg.sample_every))
        if marks[-1] != total:
            marks.append(total)
        rows = [self._row(rec) for _, _, rec in self.integrate(
            self.initial_state(), marks, total)]
        meta = {"mode": self.mode, "n": self.n,
                "edges": list(self.tree.edges), "unit": cfg.unit,
                "dt": cfg.dt, "sample_every": cfg.sample_every,
                "name": cfg.name}
        return Trace(columns=self.trace_columns(), data=np.vstack(rows),
                     meta=meta)


def simulate(config):
    """Run a scenario to completion and return its Trace."""
    return Engine(config).run()

"""Fixed-step closed-loop integration and trace recording.

One Engine instance owns one scenario run. Integration is classical
fourth-order Runge-Kutta at the scenario step, with the control law
re-evaluated inside every stage (continuous-control idealization). One
evaluator, ``Engine.evaluate``, computes the control law at a state: it
builds the stacked error and feedforward once and factors their normal
equations once, over the spanning tree in O(n). The dense coupling
matrix is built in kinematic mode only for a trace row, probe or check,
which read the residual and the matrix itself. Every RK4 stage, trace
row, probe and ``formsim check`` line goes through it.
"""

from dataclasses import dataclass, field

import numpy as np

from .adaptive import (adaptation_rate, adaptive_control, block_regression,
                       lyapunov_diagnostics, params_to_vector)
from .controller import (_error_vector, coupling_matrix, feedforward_term,
                         fictitious_velocity, kinematic_control)
from .trajectory import desired_arrays, rk4_step

__all__ = ["DivergenceError", "SimState", "Trace", "EvalRecord", "Engine",
           "simulate", "rk4_step"]


class DivergenceError(RuntimeError):
    """State left the finite range during integration."""


@dataclass(frozen=True)
class SimState:
    """Unpacked simulation state at one instant."""

    t: float
    poses: np.ndarray
    twists: np.ndarray = None
    phihat: np.ndarray = None


@dataclass
class Trace:
    """Uniformly sampled run record: named columns, one row per sample."""

    columns: list
    data: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        # the first of repeated names wins, as with list.index
        self._index = {}
        for k, name in enumerate(self.columns):
            self._index.setdefault(name, k)

    def column(self, name):
        try:
            idx = self._index[name]
        except KeyError:
            raise KeyError(f"no trace column {name!r}") from None
        return self.data[:, idx]

    @property
    def times(self):
        return self.column("t")

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.data:
                fh.write(",".join("%.17g" % v for v in row) + "\n")

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
    Va: float
    coupling: np.ndarray
    feedforward: np.ndarray


class Engine:
    """Closed-loop integrator for one validated scenario."""

    def __init__(self, config):
        self.config = config
        self.tree = config.tree
        self.n = config.n
        self.mode = config.mode
        self.profiles = [spec.profile for spec in config.robots]
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

    def unpack(self, t, y):
        n = self.n
        poses = y[:3 * n].reshape(n, 3).copy()
        if self.mode == "kinematic":
            return SimState(t=t, poses=poses)
        return SimState(t=t, poses=poses,
                        twists=y[3 * n:5 * n].reshape(n, 2).copy(),
                        phihat=y[5 * n:].copy())

    # ---- the control law ----

    def evaluate(self, t, y, record=False):
        """Evaluate the control law once at (t, y).

        Returns the state derivative, or with ``record`` the pair of the
        derivative and the EvalRecord a trace row or a probe reads.
        """
        n = self.n
        qd, etad, etadd = desired_arrays(self.profiles, t)
        poses = y[:3 * n].reshape(n, 3)
        th = poses[:, 2]
        dy = np.empty_like(y)
        if self.mode == "kinematic":
            z = _error_vector(self.tree, poses, qd)
            ff = feedforward_term(self.tree, th[0], qd[:, 2], etad)
            eta = etaf = kinematic_control(self.tree, th, z, ff, self.gz)
            A = u = phihat = etafdot = sigma = None
        else:
            twists = y[3 * n:5 * n].reshape(n, 2)
            phihat = y[5 * n:]
            fv = fictitious_velocity(self.tree, poses, twists, qd, etad,
                                     etadd, self.gz)
            z, A, ff, etaf, etafdot = fv.z, fv.A, fv.ff, fv.twist, fv.rate
            eta = twists.reshape(-1)
            sigma = eta - etaf
            Y = block_regression(etafdot, twists)
            u = adaptive_control(sigma, z, A, Y, phihat, self.gs)
            drag = (self.damp @ twists[:, :, None]).reshape(-1)
            dy[3 * n:5 * n] = self.minv * (u - drag)
            dy[5 * n:] = adaptation_rate(Y, sigma, self.ga)
        v = eta[0::2]
        dy[0:3 * n:3] = v * np.cos(th)
        dy[1:3 * n:3] = v * np.sin(th)
        dy[2:3 * n:3] = eta[1::2]
        if not record:
            return dy
        if A is None:
            A = coupling_matrix(self.tree, th)
        res = A @ etaf + self.gz * z + ff
        V = Va = 0.5 * float(z @ z)
        if self.mode == "dynamic":
            Va, _ = lyapunov_diagnostics(z, sigma, phihat - self.phi_true,
                                         self.mdiag, self.ga, self.gz,
                                         self.gs, res)
            phihat = phihat.copy()
        return dy, EvalRecord(
            t=t, poses=poses.copy(), error=qd - poses, z=z, eta=eta, u=u,
            phihat=phihat, etaf=etaf, etafdot=etafdot, sigma=sigma,
            residual=res, V=V, Va=Va, coupling=A, feedforward=ff)

    def rate(self, t, y):
        """State derivative: one evaluation of the control law."""
        return self.evaluate(t, y)

    def diagnostics(self, t, y):
        """The EvalRecord of one evaluation of the control law at (t, y)."""
        return self.evaluate(t, y, record=True)[1]

    def step(self, t, y, h):
        """Single RK4 step; h may be negative (used by probes)."""
        return rk4_step(self.rate, t, np.asarray(y, dtype=float), h)

    def advance(self, y, t0, steps):
        """Advance ``steps`` fixed steps from t0, returning the new state."""
        dt = self.config.dt
        y = np.array(y, dtype=float)
        # overflow here is the divergence signal, not a numpy error
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(steps):
                t = t0 + s * dt
                y = rk4_step(self.rate, t, y, dt)
                if not np.all(np.isfinite(y)):
                    raise DivergenceError(
                        f"non-finite state at t={t + dt:g}")
        return y

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
        eps = rec.z[3:].reshape(-1, 3)
        parts.append(np.linalg.norm(eps, axis=1) if len(eps) else np.empty(0))
        parts.append(np.array([np.linalg.norm(rec.z), rec.V, rec.Va,
                               np.linalg.norm(rec.residual)]))
        return np.concatenate(parts)

    def run(self):
        cfg = self.config
        total = int(round(cfg.t_final / cfg.dt))
        marks = list(range(0, total + 1, cfg.sample_every))
        if marks[-1] != total:
            marks.append(total)
        y = self.initial_state()
        rows = [self._row(self.diagnostics(0.0, y))]
        for prev, cur in zip(marks[:-1], marks[1:]):
            y = self.advance(y, prev * cfg.dt, cur - prev)
            rows.append(self._row(self.diagnostics(cur * cfg.dt, y)))
        meta = {"mode": self.mode, "n": self.n,
                "edges": list(self.tree.edges), "unit": cfg.unit,
                "dt": cfg.dt, "sample_every": cfg.sample_every,
                "name": cfg.name}
        return Trace(columns=self.trace_columns(), data=np.vstack(rows),
                     meta=meta)


def simulate(config):
    """Run a scenario to completion and return its Trace."""
    return Engine(config).run()

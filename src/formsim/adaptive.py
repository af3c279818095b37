"""Torque-level adaptive backstepping controller.

The vehicle dynamics are linear in six constant parameters per robot
(mass, inertia, four damping entries), so a 2x6 regression matrix turns
the model into a product with that parameter vector. The control torque
combines twist-error feedback, a coupling-transpose term that cancels the
formation error's cross term, and regression feedforward on the current
estimates; estimates evolve by a gradient law driven by the twist error.
No projection or leakage is added, so estimates may settle anywhere the
error dynamics stop exciting them.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RobotParams",
    "params_to_vector",
    "regression_matrix",
    "block_regression",
    "adaptive_control",
    "adaptation_rate",
    "lyapunov_diagnostics",
]


@dataclass(frozen=True)
class RobotParams:
    """True plant parameters: finite positive mass and inertia, and a
    finite 2x2 damping matrix."""

    mass: float
    inertia: float
    damping: np.ndarray

    def __post_init__(self):
        if not (0 < self.mass < math.inf and 0 < self.inertia < math.inf):
            raise ValueError("mass and inertia must be finite and positive")
        d = np.asarray(self.damping, dtype=float)
        if d.shape != (2, 2) or not np.all(np.isfinite(d)):
            raise ValueError("damping must be a finite 2x2 matrix")
        object.__setattr__(self, "damping", d)


def params_to_vector(params):
    """Parameter vector (mass, inertia, d11, d12, d21, d22)."""
    d = params.damping
    return np.array([params.mass, params.inertia,
                     d[0, 0], d[0, 1], d[1, 0], d[1, 1]])


def regression_matrix(mu, twist):
    """2x6 matrix Y with Y @ phi = M @ mu + D @ twist for every phi."""
    v, w = twist
    return np.array([
        [mu[0], 0.0, v, w, 0.0, 0.0],
        [0.0, mu[1], 0.0, 0.0, v, w],
    ])


def block_regression(mus, twists):
    """Per-robot regression blocks stacked as an (n, 2, 6) array."""
    mus = np.asarray(mus, dtype=float).reshape(-1, 2)
    twists = np.asarray(twists, dtype=float).reshape(-1, 2)
    n = len(twists)
    Y = np.zeros((n, 2, 6))
    Y[:, 0, 0] = mus[:, 0]
    Y[:, 1, 1] = mus[:, 1]
    Y[:, 0, 2:4] = twists
    Y[:, 1, 4:6] = twists
    return Y


def adaptive_control(sigma, z, A, Y, phihat, twist_gain):
    """Torque command: -twist_gain*sigma - A^T z + regression feedforward.

    ``Y`` is the (n, 2, 6) block regression evaluated at the commanded
    twist rate and the actual twists; ``phihat`` is the stacked (6n,)
    estimate vector.
    """
    sigma = np.asarray(sigma, dtype=float)
    phihat = np.asarray(phihat, dtype=float)
    twist_gain = np.asarray(twist_gain, dtype=float)
    u = -twist_gain * sigma - A.T @ np.asarray(z, dtype=float)
    return u + (Y @ phihat.reshape(-1, 6, 1)).reshape(-1)


def adaptation_rate(Y, sigma, adapt_gain):
    """Gradient estimate update: minus gain times Y^T sigma, blockwise."""
    sigma = np.asarray(sigma, dtype=float)
    adapt_gain = np.asarray(adapt_gain, dtype=float)
    return -adapt_gain * (sigma.reshape(-1, 1, 2) @ Y).reshape(-1)


def lyapunov_diagnostics(z, sigma, phitilde, inertia_diag, adapt_gain,
                         formation_gain, twist_gain, residual):
    """Simulation-only energy bookkeeping against the true parameters.

    Returns (V, Vdot): the composite energy (error, weighted twist error,
    gain-weighted estimate error) and its predicted rate, which is the
    negative gain-weighted error quadratics plus the unsigned term from
    the least-squares residual ``residual = A @ twist_cmd + gain*z + ff``.
    Given z, sigma, phitilde and residual along a leading axis of m
    states, V and Vdot are (m,) arrays, each entry the same float as the
    state's own evaluation: every product is a row-wise dot.
    """
    z = np.asarray(z, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    phitilde = np.asarray(phitilde, dtype=float)
    inertia_diag = np.asarray(inertia_diag, dtype=float)
    adapt_gain = np.asarray(adapt_gain, dtype=float)
    dot = np.vecdot
    value = 0.5 * dot(z, z) + 0.5 * dot(sigma, inertia_diag * sigma) \
        + 0.5 * dot(phitilde, phitilde / adapt_gain)
    rate = -dot(z, np.asarray(formation_gain) * z) \
        - dot(sigma, np.asarray(twist_gain) * sigma) \
        + dot(z, np.asarray(residual, dtype=float))
    if value.ndim == 0:
        return float(value), float(rate)
    return value, rate

"""Grid-level Young integration and explicit Euler schemes.

Everything is left-point: the Young integral of g against f is the Riemann
sum sum_k g(tau_k) (f(tau_{k+1}) - f(tau_k)), and both solvers below are the
matching first-order explicit recursions. For H > 1/2 drivers and gamma-Holder
integrands with gamma > 1 - H this converges pathwise, no Ito correction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError
from .fbm import FbmPath, TimeGrid

__all__ = [
    "SolutionPath",
    "ControlledCoeffs",
    "young_integral",
    "euler_solve",
    "euler_solve_batch",
    "linear_solve",
    "check_finite",
]

DIVERGENCE_LIMIT = 1e12


def young_integral(g: np.ndarray, f: np.ndarray) -> float:
    """Left-point Riemann sum of int g df on a common grid."""
    g = np.asarray(g, dtype=float)
    f = np.asarray(f, dtype=float)
    if g.shape != f.shape or g.ndim != 1:
        raise ConfigError(f"integrand and integrator grids differ: {g.shape} vs {f.shape}")
    return float(g[:-1] @ np.diff(f))


@dataclass
class SolutionPath:
    """Solution values on the grid; values[:, 0] is the initial condition."""

    grid: TimeGrid
    values: np.ndarray  # shape (q, M+1)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @property
    def terminal(self) -> np.ndarray:
        return self.values[:, -1]


@dataclass
class ControlledCoeffs:
    """Coefficients of the generic controlled linear (affine) equation.

    dZ = (xi2 Z + drift_forcing) du + sum_j (xi1[j] Z + diffusion_forcing[j]) dB^j,
    started at node `start` with value alpha (Z == 0 before `start`).

    xi2: (M+1, q, q); xi1: (d, M+1, q, q); alpha: (q,);
    drift_forcing: (M+1, q) or None; diffusion_forcing: (d, M+1, q) or None.
    """

    xi2: np.ndarray
    xi1: np.ndarray
    alpha: np.ndarray
    drift_forcing: np.ndarray | None = None
    diffusion_forcing: np.ndarray | None = None

    def __post_init__(self):
        self.xi2 = np.asarray(self.xi2, dtype=float)
        self.xi1 = np.asarray(self.xi1, dtype=float)
        self.alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        q = self.alpha.size
        if self.xi2.shape[1:] != (q, q) or self.xi1.shape[2:] != (q, q):
            raise ConfigError("coefficient matrices inconsistent with state dimension")
        if self.xi2.shape[0] != self.xi1.shape[1]:
            raise ConfigError("xi1 and xi2 sampled on different grids")


def check_finite(state: np.ndarray, step: int, context: str = ""):
    """Raise DivergenceError at `step` if a state is not finite or passes DIVERGENCE_LIMIT."""
    if not np.all(np.isfinite(state)) or np.max(np.abs(state)) > DIVERGENCE_LIMIT:
        raise DivergenceError(step, context)


def linear_solve(coeffs: ControlledCoeffs, fbm: FbmPath, start: int = 0) -> SolutionPath:
    """Explicit Euler for the controlled affine equation, activated at node `start`."""
    grid = fbm.grid
    m1 = grid.steps + 1
    if coeffs.xi2.shape[0] != m1:
        raise ConfigError("coefficient paths not sampled on the driving grid")
    if not 0 <= start <= grid.steps:
        raise ConfigError(f"start index {start} outside grid")
    q = coeffs.alpha.size
    d = coeffs.xi1.shape[0]
    db = fbm.increments
    dt = grid.dt
    z = np.zeros((q, m1))
    z[:, start] = coeffs.alpha
    state = coeffs.alpha.copy()
    for k in range(start, grid.steps):
        drift = coeffs.xi2[k] @ state
        if coeffs.drift_forcing is not None:
            drift = drift + coeffs.drift_forcing[k]
        incr = drift * dt
        for j in range(d):
            noise = coeffs.xi1[j, k] @ state
            if coeffs.diffusion_forcing is not None:
                noise = noise + coeffs.diffusion_forcing[j, k]
            incr = incr + noise * db[j, k]
        state = state + incr
        check_finite(state, k + 1, "linear_solve")
        z[:, k + 1] = state
    return SolutionPath(grid=grid, values=z)


def euler_solve(model, theta: np.ndarray, fbm: FbmPath, a: np.ndarray) -> SolutionPath:
    """Explicit Euler for dY = mu(Y; theta) dt + sigma(Y; theta) dB from Y_0 = a."""
    values = euler_solve_batch(model, theta, fbm.increments[None, ...], a, fbm.grid.dt)
    return SolutionPath(grid=fbm.grid, values=values[0].T)


def euler_solve_batch(
    model, theta: np.ndarray, increments: np.ndarray, a: np.ndarray, dt: float
) -> np.ndarray:
    """Euler over a batch of driving increments.

    increments: (N, d, M); returns paths of shape (N, M+1, m). Model coefficient
    callables receive states of shape (N, m) and must broadcast.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    n, d, m_steps = increments.shape
    if d != model.d:
        raise ConfigError(f"driving dimension {d} != model noise dimension {model.d}")
    out = np.empty((n, m_steps + 1, model.m))
    state = np.broadcast_to(a, (n, model.m)).copy()
    out[:, 0] = state
    for k in range(m_steps):
        mu = model.mu(state, theta)
        sig = model.sigma(state, theta)
        state = state + mu * dt + np.einsum("...ij,...j->...i", sig, increments[:, :, k])
        check_finite(state, k + 1, "euler_solve")
        out[:, k + 1] = state
    return out

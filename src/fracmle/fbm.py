"""Fractional Brownian motion: exact simulation, covariance kernels, R/S analysis.

Simulation uses the Davies-Harte circulant embedding of the increment
(fractional Gaussian noise) covariance: the 2M-circulant built from the
autocovariance row is diagonalized by the FFT, so sampling costs O(M log M)
and is exact in law. The singular kernel c_H |r-u|^(2H-2) that defines the
inner product of step functions is integrated in closed form on each grid
cell pair, which removes the diagonal singularity without adaptive
quadrature:

    c_H * int_[a,b] int_[c,d] |r-u|^(2H-2) dr du
        = 0.5 * (|b-c|^2H - |a-c|^2H - |b-d|^2H + |a-d|^2H).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DegenerateSeriesError, EmbeddingError

__all__ = [
    "HurstParam",
    "TimeGrid",
    "FbmPath",
    "fbm_covariance",
    "simulate_fbm",
    "fgn_from_normals",
    "fgn_adjoint",
    "fgn_autocovariance",
    "singular_cell_weights",
    "weighted_inner",
    "indicator_cells",
    "estimate_hurst_rs",
]


@dataclass(frozen=True)
class HurstParam:
    """Hurst index restricted to the long-memory regime (1/2, 1)."""

    h: float

    def __post_init__(self):
        if not 0.5 < self.h < 1.0:
            raise ConfigError(f"Hurst parameter must lie in (1/2, 1), got {self.h}")

    @property
    def c(self) -> float:
        """Kernel constant H(2H-1), positive on (1/2, 1)."""
        return self.h * (2.0 * self.h - 1.0)

    @classmethod
    def coerce(cls, value: "HurstParam | float") -> "HurstParam":
        return value if isinstance(value, HurstParam) else cls(float(value))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = tau_0 < ... < tau_M = T."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.horizon <= 0:
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def node_index(self, t: float) -> int:
        """Index of the grid node equal to t (to 1e-9 of max(1, T))."""
        k = round(t / self.dt)
        if not 0 <= k <= self.steps or abs(k * self.dt - t) > 1e-9 * max(1.0, self.horizon):
            raise ConfigError(f"time {t} is not a node of {self}")
        return int(k)


@dataclass
class FbmPath:
    """One d-dimensional fBm sample on a grid, coordinates independent."""

    grid: TimeGrid
    hurst: HurstParam
    seed: int
    values: np.ndarray = field(repr=False)  # shape (d, M+1), values[:, 0] == 0

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=1)


def fbm_covariance(s: float, t: float, h: HurstParam | float) -> float:
    """Covariance of one fBm coordinate, (s^2H + t^2H - |t-s|^2H) / 2."""
    hp = HurstParam.coerce(h)
    if s < 0 or t < 0:
        raise ConfigError(f"times must be nonnegative, got ({s}, {t})")
    e = 2.0 * hp.h
    return 0.5 * (s**e + t**e - abs(t - s) ** e)


def fgn_autocovariance(h: float, m: int, dt: float) -> np.ndarray:
    """Autocovariance of fGn increments at lags 0..m on a dt-spaced grid: the
    sampler's circulant row and the Toeplitz covariance behind gamma_t.

    rho(k) = ((k+1)^2H - 2 k^2H + (k-1)^2H) / 2 is evaluated as
    k^2H (expm1(2H log1p(1/k)) + expm1(2H log1p(-1/k))) / 2, so the second
    difference loses digits in proportion to k instead of k^2.
    """
    k = np.arange(1, m + 1, dtype=float)
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf at k = 1, where (k-1)^2H = 0
        diff = np.expm1(2 * h * np.log1p(1 / k)) + np.expm1(2 * h * np.log1p(-1 / k))
    return dt ** (2 * h) * np.concatenate([[1.0], 0.5 * k ** (2 * h) * diff])


@lru_cache(maxsize=32)
def _embedding_eigenvalues(h: float, m: int, dt: float) -> np.ndarray:
    rho = fgn_autocovariance(h, m, dt)
    row = np.concatenate([rho, rho[-2:0:-1]])  # length 2M, symmetric circulant row
    eig = np.fft.fft(row).real
    tol = 1e-8 * max(eig.max(), 1.0)
    if eig.min() < -tol:
        raise EmbeddingError(min_eigenvalue=eig.min(), tolerance=tol)
    return np.clip(eig, 0.0, None)


def fgn_from_normals(h: float, m: int, dt: float, z: np.ndarray) -> np.ndarray:
    """Synthesize exact fGn from standard normals (the linear Davies-Harte map).

    z has shape (..., 2M); the fixed slot layout is z[..., 0] -> frequency 0,
    z[..., 1] -> frequency M, z[..., 2:M+1] + i*z[..., M+1:2M] (scaled by
    1/sqrt(2)) -> frequencies 1..M-1. Returns increments of shape (..., M).
    """
    if z.shape[-1] != 2 * m:
        raise ConfigError(f"need {2 * m} normals per path, got {z.shape[-1]}")
    eig = _embedding_eigenvalues(h, m, dt)
    zeta = np.zeros(z.shape[:-1] + (2 * m,), dtype=complex)
    zeta[..., 0] = z[..., 0]
    zeta[..., m] = z[..., 1]
    half = (z[..., 2 : m + 1] + 1j * z[..., m + 1 : 2 * m]) / np.sqrt(2.0)
    zeta[..., 1:m] = half
    zeta[..., m + 1 :] = np.conj(half[..., ::-1])
    spectrum = np.sqrt(eig) * zeta
    path = np.fft.fft(spectrum, axis=-1) / np.sqrt(2 * m)
    return path[..., :m].real


def fgn_adjoint(h: float, m: int, dt: float, v: np.ndarray) -> np.ndarray:
    """Transpose of the Davies-Harte map: <v, fgn_from_normals(z)> = <fgn_adjoint(v), z>.

    v has shape (..., M); returns (..., 2M) in the slot layout of
    fgn_from_normals. With u = sqrt(eig) * FFT_2M(v zero-padded) / sqrt(2M),
    slot 0 gets Re u_0, slot 1 gets Re u_M, slots 2..M get sqrt(2) Re u_1..M-1
    and slots M+1..2M-1 get -sqrt(2) Im u_1..M-1: one real FFT per row.
    """
    if v.shape[-1] != m:
        raise ConfigError(f"need {m} increments per row, got {v.shape[-1]}")
    eig = _embedding_eigenvalues(h, m, dt)
    u = np.sqrt(eig[: m + 1]) * np.fft.rfft(v, n=2 * m, axis=-1) / np.sqrt(2 * m)
    out = np.empty(v.shape[:-1] + (2 * m,))
    out[..., 0] = u[..., 0].real
    out[..., 1] = u[..., m].real
    out[..., 2 : m + 1] = np.sqrt(2.0) * u[..., 1:m].real
    out[..., m + 1 :] = -np.sqrt(2.0) * u[..., 1:m].imag
    return out


def simulate_fbm(
    grid: TimeGrid, d: int, h: HurstParam | float, seed: int
) -> FbmPath:
    """Exact-in-law d-dimensional fBm sample, deterministic in (seed, grid, h, d)."""
    hp = HurstParam.coerce(h)
    if d < 1:
        raise ConfigError(f"dimension must be >= 1, got {d}")
    if grid.steps < 2:
        raise ConfigError(f"need at least 2 steps, got {grid.steps}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z = rng.standard_normal((d, 2 * grid.steps))
    incr = fgn_from_normals(hp.h, grid.steps, grid.dt, z)
    values = np.zeros((d, grid.steps + 1))
    np.cumsum(incr, axis=1, out=values[:, 1:])
    return FbmPath(grid=grid, hurst=hp, seed=int(seed), values=values)


@lru_cache(maxsize=16)
def _cell_weight_matrix(h: float, m: int, dt: float) -> np.ndarray:
    nodes = dt * np.arange(m + 1)
    p = np.abs(nodes[:, None] - nodes[None, :]) ** (2 * h)
    w = 0.5 * (p[1:, :-1] - p[:-1, :-1] - p[1:, 1:] + p[:-1, 1:])
    w.setflags(write=False)
    return w


def singular_cell_weights(grid: TimeGrid, h: HurstParam | float) -> np.ndarray:
    """Matrix W with W[k,l] = c_H * int over cell k x cell l of |r-u|^(2H-2).

    The c_H factor is folded in: the diagonal entry equals dt^2H, and
    phi @ W @ psi is the exact inner product of cell-wise constant functions.
    Also equals the exact covariance matrix of the fBm increments.
    """
    hp = HurstParam.coerce(h)
    return _cell_weight_matrix(hp.h, grid.steps, grid.dt)


def weighted_inner(
    phi: np.ndarray, psi: np.ndarray, grid: TimeGrid, h: HurstParam | float
) -> float:
    """Inner product c_H * int int phi_r psi_u |r-u|^(2H-2) dr du on [0, T].

    phi and psi are cell values (length M), treated as constant on each cell;
    the kernel is integrated exactly per cell pair.
    """
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if phi.shape != (grid.steps,) or psi.shape != (grid.steps,):
        raise ConfigError(
            f"cell arrays must have length {grid.steps}, got {phi.shape} and {psi.shape}"
        )
    w = singular_cell_weights(grid, h)
    return float(phi @ w @ psi)


def indicator_cells(grid: TimeGrid, t: float) -> np.ndarray:
    """Cell values of the indicator of [0, t] for a node-aligned t."""
    k = grid.node_index(t)
    out = np.zeros(grid.steps)
    out[:k] = 1.0
    return out


def _rs_statistic(block: np.ndarray) -> float:
    """Rescaled range of one block; nan if the block is degenerate."""
    dev = block - block.mean()
    z = np.cumsum(dev)
    r = z.max() - z.min()
    s = block.std(ddof=1)
    if s <= 0.0:
        return np.nan
    return r / s


def rs_window_sizes(n: int, min_window: int = 32) -> list[int]:
    """Dyadic window sizes min_window, 2*min_window, ... up to n/4.

    Series too short for two dyadic sizes fall back to {n//8, n//4} so that a
    slope is still defined (needed for short grouped series). A minimum
    window below 2 raises ConfigError: the doubling would never pass n/4.
    """
    if min_window < 2:
        raise ConfigError(f"minimum window must be >= 2, got {min_window}")
    sizes = []
    w = min_window
    while w <= n // 4:
        sizes.append(w)
        w *= 2
    if len(sizes) < 2:
        sizes = sorted({max(4, n // 8), max(5, n // 4)})
    if len(sizes) < 2 or sizes[-1] > n // 2:
        raise ConfigError(f"series of length {n} too short for R/S analysis")
    return sizes


def estimate_hurst_rs(series: np.ndarray, min_window: int = 32) -> float:
    """Hurst estimate: slope of log mean(R/S) against log window size.

    Blocks are non-overlapping; degenerate blocks (zero standard deviation)
    are dropped, and a fully degenerate series raises. The default minimum
    window of 32 keeps the short-window upward bias of the statistic within
    a few hundredths at series lengths in the thousands; one below 2 raises
    ConfigError.
    """
    if min_window < 2:
        raise ConfigError(f"minimum window must be >= 2, got {min_window}")
    x = np.asarray(series, dtype=float).ravel()
    if x.size < 32:
        raise ConfigError(f"series length must be >= 32, got {x.size}")
    if np.ptp(x) == 0.0:
        raise DegenerateSeriesError("constant series has zero range")
    log_w, log_rs = [], []
    for w in rs_window_sizes(x.size, min_window):
        nblocks = x.size // w
        blocks = x[: nblocks * w].reshape(nblocks, w)
        vals = np.array([_rs_statistic(b) for b in blocks])
        vals = vals[np.isfinite(vals)]
        if vals.size == 0:
            continue
        log_w.append(np.log(w))
        log_rs.append(np.log(vals.mean()))
    if len(log_w) < 2:
        raise DegenerateSeriesError("no window size produced a finite R/S value")
    slope = np.polyfit(log_w, log_rs, 1)[0]
    return float(slope)

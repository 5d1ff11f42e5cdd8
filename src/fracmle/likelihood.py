"""Monte-Carlo estimation of the density, the per-observation kernels and the score.

The density of Y_t is estimated as E[1_(Y_t > x) H_(1..m)] over N independent
driving paths (exact indicator, no smoothing); the positive-part
representation E[(Y_t - x)_+ H_(1..m,1..m)] is available as a cross-check.
The score for one parameter coordinate is sum_i V_i / W_i with

    W_i = E[1_(Y_ti > y_i) H_(1..m)],
    V_i = E[ sum_c grad Y^c 1_(Y^c > y^c) prod_{c' != c}(Y^c' - y^c')_+ H_(1..m,1..m)
             + prod(Y - y)_+ grad H_(1..m,1..m) ],

i.e. V_i is the exact pathwise theta-derivative of the positive-part
representation, evaluated on the same paths as W_i (common random numbers).

Determinism: draws come in fixed-size blocks from seed substreams keyed by
(observation, block) for the standalone estimators and by (block,) for the
score. The score draws d x 2M normals per path for the fGn sampler and the
Euler solver; the standalone linear-additive estimators draw m normals per
path, the node state's own Gaussian coordinates. All reductions are
fixed-order numpy pairwise sums, so results are reproducible bit-for-bit for
a given seed regardless of how many workers a caller would dispatch blocks to.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, ConfigError, UnreliableScoreError
from .fbm import HurstParam, TimeGrid, fgn_from_normals, FbmPath
from .malliavin import (
    AdditiveKernels, PathBundle, eigenframe_weight_2m, h_weight, theta_gradient_batch,
)
from .models import ModelSpec
from .pathwise import check_finite, euler_solve_batch, SolutionPath

__all__ = [
    "Observations",
    "Budget",
    "ScoreValue",
    "allocate_budget",
    "estimate_density",
    "estimate_W",
    "estimate_V",
    "score",
]

_BLOCK = 8192  # fixed block size; part of the reproducibility contract
_N_MAX = 10**6  # cap on the path count the budget rule may request


@dataclass
class Observations:
    """Discrete observations with times snapped to grid nodes."""

    grid: TimeGrid
    times: np.ndarray  # (n,)
    values: np.ndarray  # (n, m)
    node_indices: np.ndarray = field(init=False)

    def __post_init__(self):
        self.times = np.atleast_1d(np.asarray(self.times, dtype=float))
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.values.shape[0] != self.times.size:
            raise ConfigError("observation times and values disagree in length")
        if self.times.size < 1:
            raise ConfigError("need at least one observation")
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("observation times must be strictly increasing")
        self.node_indices = np.array([self.grid.node_index(t) for t in self.times])
        if self.node_indices[0] < 1:
            raise ConfigError("observations must occur after time zero")

    @property
    def n(self) -> int:
        return self.times.size


@dataclass
class Budget:
    """Euler/Monte-Carlo budget for one estimation run."""

    euler_steps: int
    mc_paths: int
    gamma: float = 0.55
    hurst: float | None = None

    def __post_init__(self):
        if self.euler_steps < 2:
            raise ConfigError(f"euler_steps must be >= 2, got {self.euler_steps}")
        if self.mc_paths < 1:
            raise ConfigError(f"mc_paths must be >= 1, got {self.mc_paths}")
        if not 0.5 < self.gamma < 1.0:
            raise ConfigError(f"gamma must lie in (1/2, 1), got {self.gamma}")
        if self.hurst is not None and self.gamma >= self.hurst:
            raise ConfigError(f"gamma={self.gamma} must be below the Hurst index {self.hurst}")


def gamma_tilde(horizon: float, m: int, d: int) -> float:
    """Cost exponent T * m * (d + 1) of one discretized kernel evaluation."""
    return horizon * m * (d + 1)


def allocate_budget(
    euler_steps: int,
    gamma: float,
    horizon: float,
    m: int,
    d: int,
    scale: float = 1.0,
) -> int:
    """Monte-Carlo path count N = ceil(scale * M^(gt/(2 gamma - 1) - 3)).

    gt = T m (d+1). The asymptotic rule can demand infeasible N, so the result
    is capped at _N_MAX = 10^6 with a warning.
    """
    if gamma <= 0.5:
        raise ConfigError(f"gamma must exceed 1/2, got {gamma}")
    if not (np.isfinite(scale) and scale > 0):
        raise ConfigError(f"budget scale must be positive and finite, got {scale}")
    exponent = gamma_tilde(horizon, m, d) / (2.0 * gamma - 1.0) - 3.0
    # compared in log space: the power itself overflows a float for long horizons
    log10_n = np.log10(scale) + exponent * np.log10(euler_steps)
    if log10_n > np.log10(_N_MAX):
        warnings.warn(
            f"budget rule requests N=10^{log10_n:.1f} paths; capping at {_N_MAX}", stacklevel=2
        )
        return _N_MAX
    return max(int(np.ceil(scale * float(euler_steps) ** exponent)), 1)


@dataclass
class ScoreValue:
    """Per-observation kernels and the assembled score with standard errors."""

    w: np.ndarray  # (n,)
    w_se: np.ndarray  # (n,)
    v: np.ndarray  # (n, q)
    v_se: np.ndarray  # (n, q)
    score: np.ndarray  # (q,)
    score_se: np.ndarray  # (q,)
    n_paths: int
    used: np.ndarray | None = None  # boolean mask of observations in the sum
    flagged: tuple = ()  # observation indices whose W failed the threshold


def _block_seeds(seed: int, key: tuple, n_paths: int):
    """Yield (block_index, n_block, generator) with a fixed block structure."""
    done = 0
    b = 0
    while done < n_paths:
        nb = min(_BLOCK, n_paths - done)
        ss = np.random.SeedSequence(entropy=seed, spawn_key=key + (b,))
        yield b, nb, np.random.default_rng(ss)
        done += nb
        b += 1


def _draw_increments(rng, n_block: int, d: int, grid: TimeGrid, h: HurstParam) -> np.ndarray:
    """fGn increments (n_block, d, M) of one block, from (n_block, d, 2M) standard normals."""
    z = rng.standard_normal((n_block, d, 2 * grid.steps))
    return fgn_from_normals(h.h, grid.steps, grid.dt, z)


def _phi_bar(z: np.ndarray) -> np.ndarray:
    """Standard normal upper tail probability, floored away from zero."""
    import math

    out = np.array([0.5 * math.erfc(float(v) / math.sqrt(2.0)) for v in np.atleast_1d(z)])
    return np.maximum(out, 1e-300)


def _tail_sides(x: np.ndarray, mean: np.ndarray, var: np.ndarray) -> tuple[np.ndarray, float]:
    """Side signs of the tail representation at x: (per coordinate, joint).

    The driving Gaussians are exactly centered and a depth-k weight has parity
    (-1)^k under their reflection about the deterministic mean, so every
    orthant term below may sit on either side of x (s = +1 upper, s = -1
    lower). Coordinate c takes the side of x_c relative to the mean; the joint
    side is the orthant with the smaller Gaussian mass, where fewer paths land
    and the indicator variance is smallest.
    """
    z = (x - mean) / np.sqrt(var)
    lower = np.sum(np.log(_phi_bar(-z))) < np.sum(np.log(_phi_bar(z)))
    return np.where(z < 0.0, -1.0, 1.0), (-1.0 if lower else 1.0)


def _indicator(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.prod(y > x, axis=-1).astype(float)


def _indicator_term(y: np.ndarray, x: np.ndarray, h_m: np.ndarray, s: float) -> np.ndarray:
    """Density term s^m 1(sY > sx) H_(1..m) on side s."""
    return s ** y.shape[-1] * _indicator(s * y, s * x) * h_m


def _w_factors(y: np.ndarray, x: np.ndarray, g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Per-coordinate depth-1 W factors s_c 1(s_c Y_c > s_c x_c) G_c on sides s."""
    return s * (s * y > s * x) * g


def _positive_part(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.prod(np.maximum(y - x, 0.0), axis=-1)


def _positive_part_grad_factor(y: np.ndarray, x: np.ndarray, grad_y: np.ndarray) -> np.ndarray:
    """Pathwise theta-derivative of prod(Y - x)_+: (..., q)."""
    m = y.shape[-1]
    out = np.zeros(grad_y.shape[:-1])
    for c in range(m):
        rest = np.ones(y.shape[:-1])
        for c2 in range(m):
            if c2 != c:
                rest = rest * np.maximum(y[..., c2] - x[c2], 0.0)
        out = out + grad_y[..., c] * ((y[..., c] > x[c]) * rest)[..., None]
    return out


def _v_term(
    y: np.ndarray, x: np.ndarray, dy: np.ndarray, h_2m: np.ndarray, dh_2m: np.ndarray, s: float
) -> np.ndarray:
    """V term on side s: the exact theta-derivative of prod(s(Y - x))_+ H_(1..m,1..m).

    y (N, m), dy (N, q, m), h_2m (N,), dh_2m (N, q); returns (N, q).
    """
    return (
        s * _positive_part_grad_factor(s * y, s * x, dy) * h_2m[:, None]
        + _positive_part(s * y, s * x)[:, None] * dh_2m
    )


def _mean_se(total: float, total_sq: float, n: int) -> tuple[float, float]:
    mean = total / n
    if n < 2:
        return mean, float("nan")
    var = max(total_sq / n - mean**2, 0.0) * n / (n - 1)
    return mean, float(np.sqrt(var / n))


def estimate_density(
    model: ModelSpec,
    theta,
    t: float,
    x,
    budget: Budget,
    seed: int,
    h,
    a=None,
    representation: str = "indicator",
    stream_key: tuple = (0,),
) -> tuple[float, float]:
    """Monte-Carlo density estimate of Y_t at x, with its standard error.

    representation: "indicator" (the defining form E[1_(Y>x) H_(1..m)]),
    "positive-part" (E[(Y-x)_+ H_(1..m,1..m)]), or "auto" (the indicator on
    the tail side of x, an exact rearrangement through E[H] = 0 that keeps
    the estimator variance small at both tails).

    Linear-additive models draw the Euler state at the node from its exact
    Gaussian law, Y_t = E[Y_t] + z @ f_t with m standard normals z per path and
    f_t = diag(sqrt(lam)) r^T from AdditiveKernels (f_t^T f_t = gamma_t), with no
    fGn synthesis and no Euler loop; a state beyond pathwise.DIVERGENCE_LIMIT
    raises DivergenceError as the Euler solver does. Nonlinear models solve Euler
    per block.
    """
    theta = model.check_theta(theta)
    hp = HurstParam.coerce(h)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    a = np.asarray(model.initial_state if a is None else a, dtype=float)
    grid = TimeGrid(horizon=float(t), steps=budget.euler_steps)
    t_node = grid.steps
    total = total_sq = 0.0
    if model.linear_additive:
        if representation not in ("indicator", "positive-part", "auto"):
            raise ConfigError(f"unknown representation {representation!r}")
        kernels = AdditiveKernels(model, theta, grid, hp, [t_node], with_grad=False)
        mean, _ = kernels.mean(a, t_node)
        idx_m = tuple(range(1, model.m + 1))
        s = 1.0  # the defining upper side
        if representation == "auto":
            _, s = _tail_sides(x, mean, np.diag(kernels.at(t_node)["gamma"]))
        depth = 2 if representation == "positive-part" else 1
        poly = kernels.levels(idx_m * depth, t_node)[-1]
        f = kernels.at(t_node)["f"]
        for _, nb, rng in _block_seeds(seed, stream_key, budget.mc_paths):
            y_c = rng.standard_normal((nb, model.m)) @ f
            y_t = mean + y_c
            check_finite(y_t, t_node, "estimate_density")
            h = poly(kernels.read_off(y_c, t_node)[0])
            if representation == "positive-part":
                vals = _positive_part(y_t, x) * h
            else:
                vals = _indicator_term(y_t, x, h, s)
            total += float(vals.sum())
            total_sq += float((vals**2).sum())
    else:
        if model.m != 1 or representation != "indicator":
            raise CapabilityError(
                "nonlinear models support the scalar indicator representation only"
            )
        for _, nb, rng in _block_seeds(seed, stream_key, budget.mc_paths):
            incr = _draw_increments(rng, nb, model.d, grid, hp)
            paths = euler_solve_batch(model, theta, incr, a, grid.dt)
            for k in range(nb):
                fbm = FbmPath(grid=grid, hurst=hp, seed=-1, values=np.concatenate(
                    [np.zeros((model.d, 1)), np.cumsum(incr[k], axis=1)], axis=1))
                sol = SolutionPath(grid=grid, values=paths[k].T)
                bundle = PathBundle(model, theta, fbm, sol, hp)
                wv = h_weight((1,), bundle, t_node)
                val = float(paths[k, t_node, 0] > x[0]) * wv.value
                total += val
                total_sq += val**2
    return _mean_se(total, total_sq, budget.mc_paths)


def estimate_W(
    model: ModelSpec,
    theta,
    obs: Observations,
    i: int,
    budget: Budget,
    seed: int,
    h,
    a=None,
) -> tuple[float, float]:
    """W_i: the density estimate at (t_i, y_i) on the observation grid."""
    if not 0 <= i < obs.n:
        raise ConfigError(f"observation index {i} outside 0..{obs.n - 1}")
    sub = TimeGrid(horizon=float(obs.times[i]), steps=int(obs.node_indices[i]))
    sub_budget = Budget(sub.steps, budget.mc_paths, budget.gamma, budget.hurst)
    return estimate_density(
        model, theta, obs.times[i], obs.values[i], sub_budget, seed, h, a,
        stream_key=(i,),
    )


def estimate_V(
    model: ModelSpec,
    theta,
    l: int,
    obs: Observations,
    i: int,
    budget: Budget,
    seed: int,
    h,
    a=None,
) -> tuple[float, float]:
    """V_i for parameter coordinate l, on the same stream and draws as W_i.

    The node state is drawn as in estimate_density, y_c = z @ f_t, and its theta-gradient
    is its conditional expectation given the state, E[dY_t - dE[Y_t] | Y_t] = C_t eta_t y_c
    with C_t = Cov(dY_t, Y_t) (conditional Monte Carlo: V reads a path only through Y_t).
    For m = 1 that is the pathwise derivative of mean + f_t z, so V is the common-random-
    number derivative of the positive-part density estimate.
    """
    theta = model.check_theta(theta)
    if not model.linear_additive:
        raise CapabilityError("V estimation needs depth-2m weight gradients (linear-additive class)")
    if not 0 <= l < model.q:
        raise ConfigError(f"parameter index {l} outside 0..{model.q - 1}")
    if not 0 <= i < obs.n:
        raise ConfigError(f"observation index {i} outside 0..{obs.n - 1}")
    hp = HurstParam.coerce(h)
    a = np.asarray(model.initial_state if a is None else a, dtype=float)
    sub = TimeGrid(horizon=float(obs.times[i]), steps=int(obs.node_indices[i]))
    t_node = sub.steps
    x = obs.values[i]
    idx2m = tuple(range(1, model.m + 1)) * 2
    kernels = AdditiveKernels(model, theta, sub, hp, [t_node], with_grad=True)
    mean, dmean = kernels.mean(a, t_node)
    poly = kernels.levels(idx2m, t_node)[-1]
    e = kernels.at(t_node)
    total = total_sq = 0.0
    for _, nb, rng in _block_seeds(seed, (i,), budget.mc_paths):
        y_c = rng.standard_normal((nb, model.m)) @ e["f"]
        y_t = mean + y_c
        check_finite(y_t, t_node, "estimate_V")
        dy_c = np.einsum("nk,lik->nli", y_c @ e["eta"].T, e["c"])
        g, dg = kernels.read_off(y_c, t_node, dy_c)
        h_2m, dh_2m = poly(g), kernels.grad_weight(idx2m, g, dg, t_node)
        vals = _v_term(y_t, x, dmean + dy_c, h_2m, dh_2m, 1.0)[:, l]
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
    return _mean_se(total, total_sq, budget.mc_paths)


def score(
    model: ModelSpec,
    theta,
    obs: Observations,
    budget: Budget,
    seed: int,
    h,
    a=None,
    w_floor: float = 1e-8,
    on_unreliable: str = "raise",
) -> ScoreValue:
    """Assembled score sum_i V_i / W_i over all parameter coordinates.

    One batch of N full-horizon paths serves every observation (the state and
    its theta-gradient at each t_i are read off the same trajectory), so the
    whole score is a deterministic function of (theta, seed).

    An observation whose W_i falls below max(3 SE, w_floor) has a density
    denominator statistically indistinguishable from zero. With
    on_unreliable="raise" (default) the first such observation raises
    UnreliableScoreError naming it. With "clamp" the denominator of a flagged
    term is replaced by its threshold: the term keeps the sign of V_i (it
    still votes for parameters that make its observation likelier) but its
    magnitude is capped, so one tail observation cannot blow up the sum.
    Clamping is what iterative estimation uses; dropping flagged terms
    instead would remove exactly the observations that disagree with the
    current parameter and make every parameter self-consistent. Clamp mode
    still raises, naming the first flagged observation, when fewer than
    max(1, n // 10) of the n observations survive unclamped.
    """
    theta = model.check_theta(theta)
    if not model.linear_additive:
        raise CapabilityError("score needs depth-2m weight gradients (linear-additive class)")
    hp = HurstParam.coerce(h)
    a = np.asarray(model.initial_state if a is None else a, dtype=float)
    grid = obs.grid
    if budget.euler_steps != grid.steps:
        raise ConfigError(
            f"budget euler_steps {budget.euler_steps} != observation grid steps {grid.steps}"
        )
    n, q, n_paths = obs.n, model.q, budget.mc_paths
    nodes = [int(k) for k in obs.node_indices]
    kernels = AdditiveKernels(model, theta, grid, hp, nodes, with_grad=True)
    # Two exact variance reductions, both inside the exact-indicator class:
    #
    # * decorrelation: each observation is scored through Z = R^T Y with R
    #   the eigenvectors of gamma_t at the current theta (held fixed inside
    #   the evaluation, so no eigenvector derivatives enter). Z is again a
    #   linear-additive functional of the driving noise with f_Y(y) =
    #   f_Z(R^T y), and its orthant masses factor into marginal tails, which
    #   matters when the state coordinates are strongly correlated. Its
    #   Gaussians are R^T G, with covariance diag(1/lam).
    #
    # * tail-side selection (_tail_sides): reflecting about the deterministic
    #   mean gives the exact lower-side representations
    #   (-1)^m E[prod 1_(Z<=z) H_m] and E[prod (z-Z)_+ H_2m]; each observation
    #   uses the side with the smaller mass, far less noisy in the tails.
    w_fac = np.empty((n_paths, n, model.m))  # per-coordinate depth-1 factors
    v_all = np.empty((n_paths, n, q))
    frames = []
    for i, t_node in enumerate(nodes):
        e = kernels.at(t_node)
        mean, dmean = kernels.mean(a, t_node)
        x_z = obs.values[i] @ e["r"]
        frames.append((e, mean, dmean, x_z, _tail_sides(x_z, mean @ e["r"], e["lam"])))
    done = 0
    for _, nb, rng in _block_seeds(seed, (), n_paths):
        incr = _draw_increments(rng, nb, model.d, grid, hp)
        paths = euler_solve_batch(model, theta, incr, a, grid.dt)
        grads = theta_gradient_batch(model, theta, incr, paths, grid.dt)
        for i, t_node in enumerate(nodes):
            e, mean, dmean, x_z, (w_sides, v_side) = frames[i]
            r = e["r"]
            g, dg = kernels.read_off(paths[:, t_node] - mean, t_node, grads[:, t_node] - dmean)
            g, dg = g @ r, dg @ r
            y_t, dy_t = paths[:, t_node] @ r, grads[:, t_node] @ r
            # W factors: in the decorrelated frame the coordinates are
            # independent at the evaluation theta and the depth-m weight is
            # the product of the per-coordinate depth-1 weights, so
            # E[prod 1_(Z_c>x_c) G_c] = prod_c E[1_(Z_c>x_c) G_c]; averaging
            # each factor separately removes the product-noise inflation.
            w_fac[done : done + nb, i] = _w_factors(y_t, x_z, g, w_sides)
            h_2m, dh_2m = eigenframe_weight_2m(g, dg, e["lam"], e["deta_r"])
            v_all[done : done + nb, i] = _v_term(y_t, x_z, dy_t, h_2m, dh_2m, v_side)
        done += nb
    fac_mean = w_fac.mean(axis=0)  # (n, m)
    w_mean = fac_mean.prod(axis=1)
    v_mean = v_all.mean(axis=0)
    if n_paths > 1:
        fac_se = w_fac.std(axis=0, ddof=1) / np.sqrt(n_paths)
        # exact product-of-independent-estimates variance:
        # Var(prod) = prod(se^2 + mean^2) - prod(mean^2)
        w_var = (fac_se**2 + fac_mean**2).prod(axis=1) - (fac_mean**2).prod(axis=1)
        w_se = np.sqrt(np.maximum(w_var, 0.0))
        v_se = v_all.std(axis=0, ddof=1) / np.sqrt(n_paths)
    else:
        w_se = np.full(n, np.nan)
        v_se = np.full((n, q), np.nan)
    if on_unreliable not in ("raise", "clamp"):
        raise ConfigError(f"on_unreliable must be 'raise' or 'clamp', got {on_unreliable!r}")
    used = np.ones(n, dtype=bool)
    flagged = []
    wm = w_mean.copy()
    for i in range(n):
        se_i = w_se[i] if np.isfinite(w_se[i]) else 0.0
        threshold = max(3.0 * se_i, w_floor)
        if not np.isfinite(w_mean[i]) or w_mean[i] <= threshold:
            if on_unreliable == "raise":
                raise UnreliableScoreError(observation=i, value=w_mean[i], threshold=threshold)
            used[i] = False
            flagged.append(i)
            # denominator floored at one standard error: a flagged term keeps
            # as much of its magnitude as the sample can actually resolve
            wm[i] = max(w_mean[i], se_i, w_floor)
    if used.sum() < max(1, n // 10):
        i = flagged[0]
        raise UnreliableScoreError(observation=i, value=w_mean[i], threshold=w_floor)
    total = (v_mean / wm[:, None]).sum(axis=0)
    # delta-method: per-path influence of the ratio sum captures cross-observation
    # correlation from the shared paths; a clamped denominator is a constant
    safe_fac = np.where(np.abs(fac_mean) > 1e-300, fac_mean, 1.0)
    w_dev = ((w_fac - fac_mean[None, :, :]) / safe_fac[None, :, :]).sum(axis=2)
    infl = v_all / wm[None, :, None] - (
        (v_mean / wm[:, None])[None, :, :] * w_dev[:, :, None]
    ) * used[None, :, None]
    infl = infl.sum(axis=1)  # (n_paths, q)
    if n_paths > 1:
        score_se = infl.std(axis=0, ddof=1) / np.sqrt(n_paths)
    else:
        score_se = np.full(q, np.nan)
    return ScoreValue(
        w=w_mean, w_se=w_se, v=v_mean, v_se=v_se, score=total,
        score_se=score_se, n_paths=n_paths, used=used, flagged=tuple(flagged),
    )

"""Robbins-Monro stochastic approximation and the estimation pipeline.

robbins_monro iterates theta_{k+1} = Pi_box(theta_k - a_k g(theta_k)) with
a_k = a0 / (b + k)^rho, the classical setup for driving an *increasing* noisy
map to its root. The log-likelihood gradient decreases through the optimum,
so the estimation pipeline hands the iteration the negated score; the root is
unchanged and the iteration contracts toward it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FracmleError
from .fbm import HurstParam
from .likelihood import Budget, Observations, score
from .models import ModelSpec

__all__ = [
    "StepSchedule",
    "validate_schedule",
    "EstimationReport",
    "robbins_monro",
    "moment_start",
    "regression_start",
    "estimate_parameters",
]


@dataclass(frozen=True)
class StepSchedule:
    """Step sizes a_k = a0 / (b + k)^rho; summable squares, divergent sum."""

    a0: float = 1.0
    b: float = 10.0
    rho: float = 1.0

    def __post_init__(self):
        problems = validate_schedule(self)
        if problems:
            raise ConfigError("; ".join(problems))

    def step(self, k: int) -> float:
        return self.a0 / (self.b + k) ** self.rho


def validate_schedule(schedule) -> list[str]:
    """Empty list iff the schedule satisfies a_k > 0, sum a_k = inf, sum a_k^2 < inf."""
    problems = []
    if not schedule.a0 > 0:
        problems.append(f"a0 must be positive, got {schedule.a0}")
    if schedule.b < 0:
        problems.append(f"offset b must be nonnegative, got {schedule.b}")
    if not 0.5 < schedule.rho <= 1.0:
        problems.append(
            f"exponent rho must lie in (1/2, 1] for summability, got {schedule.rho}"
        )
    return problems


@dataclass
class EstimationReport:
    """Trace and read-out of one stochastic-approximation run."""

    trace: np.ndarray  # (K+1, q)
    theta_hat: np.ndarray  # (q,) tail average
    scores: np.ndarray  # (K, q) evaluated g at each visited iterate
    score_ses: np.ndarray  # (K, q)
    seed: int
    wall_clock: float
    aborted: bool = False
    abort_reason: str = ""
    abort_error: Exception | None = None
    info: dict = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return self.trace.shape[0] - 1


def _tail_average(trace: np.ndarray) -> np.ndarray:
    k = trace.shape[0] - 1
    tail = max(1, int(np.ceil(k / 5)))
    return trace[-tail:].mean(axis=0)


def robbins_monro(
    score_fn,
    theta0,
    schedule: StepSchedule,
    iterations: int,
    box,
    seed: int = 0,
) -> EstimationReport:
    """Projected stochastic approximation.

    score_fn(theta, seed) must return (g, se) vectors. Iteration k receives
    the derived seed `seed + 101 k`, so the Monte-Carlo noise is independent
    across iterations and averages out, which is what stochastic
    approximation relies on; freezing one stream across all iterations would
    turn that noise into a deterministic distortion of the score and can
    create spurious fixed points. The whole trace is a deterministic function
    of (seed, config). A failed evaluation is retried once with a perturbed
    seed; a second failure aborts with a partial report.
    """
    theta = np.atleast_1d(np.asarray(theta0, dtype=float))
    box = np.atleast_2d(np.asarray(box, dtype=float))
    if box.shape != (theta.size, 2):
        raise ConfigError(f"projection box must have shape ({theta.size}, 2)")
    if np.any(theta < box[:, 0]) or np.any(theta > box[:, 1]):
        raise ConfigError("theta0 must lie inside the projection box")
    if iterations < 1:
        raise ConfigError("need at least one iteration")
    start = time.perf_counter()
    trace = [theta.copy()]
    gs, ses = [], []
    aborted, reason, abort_error = False, "", None
    for k in range(iterations):
        attempt_seed = seed + 101 * k
        g = se = None
        for attempt in range(2):
            try:
                g, se = score_fn(theta, attempt_seed)
                break
            except FracmleError as exc:
                reason = f"iteration {k}: {exc}"
                abort_error = exc
                attempt_seed = seed + 0x5EED + k  # fresh paths for the retry
                if attempt == 1:
                    aborted = True
        if aborted:
            break
        g = np.atleast_1d(np.asarray(g, dtype=float))
        gs.append(g)
        ses.append(np.atleast_1d(np.asarray(se, dtype=float)))
        theta = np.clip(theta - schedule.step(k) * g, box[:, 0], box[:, 1])
        trace.append(theta.copy())
    trace = np.array(trace)
    return EstimationReport(
        trace=trace,
        theta_hat=_tail_average(trace),
        scores=np.array(gs) if gs else np.zeros((0, theta.size)),
        score_ses=np.array(ses) if ses else np.zeros((0, theta.size)),
        seed=int(seed),
        wall_clock=time.perf_counter() - start,
        aborted=aborted,
        abort_reason=reason if aborted else "",
        abort_error=abort_error if aborted else None,
    )


def moment_start(model: ModelSpec, obs: Observations, h, box) -> np.ndarray:
    """Variance-matching starting point for scalar one-parameter models.

    Bisects the parameter so that the average model variance over the
    observation nodes matches the average squared observation; the variance
    is decreasing in the mean-reversion parameter for the built-in class.
    """
    from .malliavin import AdditiveKernels

    if model.q != 1 or model.m != 1:
        raise ConfigError("moment_start supports scalar one-parameter models")
    box = np.atleast_2d(np.asarray(box, dtype=float))
    nodes = [int(k) for k in obs.node_indices]
    target = float(np.mean(obs.values[:, 0] ** 2))

    def mean_variance(lam):
        kern = AdditiveKernels(model, [lam], obs.grid, h, nodes)
        return float(np.mean([kern.at(t)["gamma"][0, 0] for t in nodes]))

    def euler_factor(lam):
        a_mat = np.broadcast_to(np.asarray(model.dmu(np.zeros(1), [lam]), float), (1, 1))
        return np.linalg.eigvals(np.eye(1) + a_mat * obs.grid.dt).real

    lo, hi = box[0]
    # the discrete variance map is monotone in the parameter only while the
    # Euler factor stays a nonnegative contraction (an oscillating factor has
    # the same variance as its mirror image, making the map U-shaped)
    for _ in range(200):
        ev = euler_factor(hi)
        if (np.all(ev >= 0.0) and np.all(ev <= 1.0)) or hi <= lo:
            break
        hi = lo + 0.9 * (hi - lo)
    if mean_variance(lo) < target:
        return np.array([lo])
    if mean_variance(hi) > target:
        return np.array([hi])
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if mean_variance(mid) > target:
            lo = mid
        else:
            hi = mid
    return np.array([0.5 * (lo + hi)])


def _drift_regression(model: ModelSpec, y: np.ndarray, dt_obs: np.ndarray, hurst: float) -> np.ndarray:
    """One least-squares pass of increments on tau * grad_mu(y)."""
    dy = np.diff(y, axis=0)
    theta_probe = np.full(model.q, 1.0)
    drift_cols = []
    for l in range(model.q):
        g = np.stack(
            [np.asarray(model.grad_mu(y[i], theta_probe), float)[l] for i in range(dy.shape[0])]
        )
        drift_cols.append(g * dt_obs[:, None])
    # columns with no drift response are diffusion-only parameters
    active = [l for l in range(model.q) if np.max(np.abs(drift_cols[l])) > 0]
    theta0 = np.zeros(model.q)
    if active:
        x_mat = np.stack([drift_cols[l].ravel() for l in active], axis=1)
        coef, *_ = np.linalg.lstsq(x_mat, dy.ravel(), rcond=None)
        for l, c in zip(active, coef):
            theta0[l] = c
    resid = dy.copy()
    for l in active:
        resid -= theta0[l] * drift_cols[l]
    for l in range(model.q):
        if l not in active:
            theta0[l] = np.sqrt(np.mean(resid**2) / np.mean(dt_obs ** (2 * hurst)))
    return theta0


def regression_start(model: ModelSpec, obs: Observations, h, box, a=None) -> np.ndarray:
    """Euler-regression starting point for models with drift linear in theta.

    Least squares of the observation increments on tau * grad_mu(y) recovers
    the drift parameters; parameters entering only the (constant) diffusion
    are matched to the residual increment variance over one observation gap.
    The leading O(tau) discretization bias is removed by Richardson
    extrapolation against the same regression on every second observation.
    """
    hp = HurstParam.coerce(h)
    box = np.atleast_2d(np.asarray(box, dtype=float))
    start = np.zeros(model.m) if a is None else np.atleast_1d(np.asarray(a, dtype=float))
    y = np.vstack([start[None, :], obs.values])
    times = np.concatenate([[0.0], obs.times])
    theta_fine = _drift_regression(model, y, np.diff(times), hp.h)
    if obs.n >= 8:
        theta_coarse = _drift_regression(model, y[::2], np.diff(times[::2]), hp.h)
        theta_fine = 2.0 * theta_fine - theta_coarse
    return np.clip(theta_fine, box[:, 0], box[:, 1])


def estimate_parameters(
    model: ModelSpec,
    theta0,
    obs: Observations,
    budget: Budget,
    schedule: StepSchedule,
    iterations: int,
    box,
    seed: int,
    h,
    a=None,
) -> EstimationReport:
    """Full pipeline: root of the score via the negated-gradient iteration.

    theta0 may be the string "moment" (variance matching, scalar models) or
    "regression" (Euler drift regression) instead of explicit values.
    """
    hp = HurstParam.coerce(h)
    if isinstance(theta0, str):
        if theta0 == "moment":
            theta0 = moment_start(model, obs, hp, box)
        elif theta0 == "regression":
            theta0 = regression_start(model, obs, hp, box, a=a)
        else:
            raise ConfigError(f"unknown starting rule {theta0!r}")
    dropped: set[int] = set()

    def negated_score(theta, sd):
        sv = score(model, theta, obs, budget, seed=sd, h=hp, a=a, on_unreliable="clamp")
        dropped.update(sv.flagged)
        return -sv.score, sv.score_se

    report = robbins_monro(negated_score, theta0, schedule, iterations, box, seed=seed)
    report.info.update(
        {
            "model": model.name,
            "budget": {"euler_steps": budget.euler_steps, "mc_paths": budget.mc_paths},
            "hurst": hp.h,
            "observations": obs.n,
            "flagged_observations": sorted(dropped),
        }
    )
    return report

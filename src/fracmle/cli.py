"""Command-line surface: simulate, estimate, hurst, rate-study.

Configuration is a JSON document (schema in the README); every command writes
its outputs atomically (temp file + rename) together with a sidecar JSON
carrying the config hash, seed and package version, which is sufficient to
reproduce the outputs bit-for-bit.

Exit codes: 0 ok, 2 configuration error, 3 numeric failure, 4 unreliable score.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import ConfigError, FracmleError, NumericError, UnreliableScoreError
from .estimator import EstimationReport, StepSchedule, estimate_parameters
from .fbm import HurstParam, TimeGrid, estimate_hurst_rs, simulate_fbm
from .likelihood import Budget, Observations, allocate_budget
from .models import ModelSpec, get_model, load_model_file
from .pathwise import euler_solve

PRESETS: dict[str, dict] = {
    "fou-0.5": {
        "model": "fou",
        "theta_true": [0.5],
        "theta0": "moment",
        "box": [[0.01, 10.0]],
        "hurst": 0.6,
        "horizon": 200.0,
        "euler_steps": 500,
        "observations": 50,
        "mc_paths": 500,
        "gamma": 0.55,
        "schedule": {"a0": 0.05, "b": 10.0, "rho": 1.0},
        "iterations": 50,
        "replications": 20,
        "seed": 413301,
        "initial_state": [0.0],
    },
    "fou-4": {
        "model": "fou",
        "theta_true": [4.0],
        "theta0": "moment",
        "box": [[0.01, 10.0]],
        "hurst": 0.6,
        "horizon": 25.0,
        "euler_steps": 500,
        "observations": 50,
        "mc_paths": 500,
        "gamma": 0.55,
        "schedule": {"a0": 0.5, "b": 10.0, "rho": 1.0},
        "iterations": 50,
        "replications": 20,
        "seed": 413202,
        "initial_state": [0.0],
    },
    "linear2d": {
        "model": "linear2d",
        "theta_true": [2.0, 4.0],
        "theta0": "regression",
        "box": [[0.1, 10.0], [0.1, 10.0]],
        "hurst": 0.6,
        "horizon": 2.0,
        "euler_steps": 500,
        "observations": 50,
        "mc_paths": 500,
        "gamma": 0.55,
        "schedule": {"a0": 0.0005, "b": 10.0, "rho": 1.0},
        "iterations": 50,
        "replications": 20,
        "seed": 413103,
        "initial_state": [0.0, 0.0],
    },
}


@dataclass
class RunConfig:
    """Validated run configuration; mirrors the JSON schema."""

    model: str
    hurst: float
    horizon: float
    euler_steps: int
    observations: int
    mc_paths: int | str = 500
    gamma: float = 0.55
    budget_scale: float = 1.0
    theta_true: list = field(default_factory=list)
    theta0: list | str = field(default_factory=list)
    box: list = field(default_factory=list)
    schedule: dict = field(default_factory=lambda: {"a0": 0.1, "b": 10.0, "rho": 1.0})
    iterations: int = 50
    replications: int = 20
    seed: int = 1
    initial_state: list | None = None
    observations_csv: str | None = None
    model_spec_path: str | None = None
    include_fbm_columns: bool = False
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__ if f != "raw"}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**{k: v for k, v in doc.items() if k in known})
        cfg.raw = dict(doc)
        cfg.validate()
        return cfg

    def validate(self):
        if not isinstance(self.model, str):
            raise ConfigError(f"model must be a model name, got {self.model!r}")
        for name in ("observations_csv", "model_spec_path"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ConfigError(f"{name} must be a file path, got {getattr(self, name)!r}")
        if not isinstance(self.include_fbm_columns, bool):
            raise ConfigError(
                f"include_fbm_columns must be true or false, got {self.include_fbm_columns!r}"
            )
        for name in ("hurst", "horizon", "gamma", "budget_scale"):
            if not _is_number(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if not self.budget_scale > 0:
            raise ConfigError(f"budget_scale must be positive, got {self.budget_scale!r}")
        for name in ("euler_steps", "observations", "iterations", "replications"):
            if not _is_int(getattr(self, name), 1):
                raise ConfigError(f"{name} must be a positive integer, got {getattr(self, name)!r}")
        if self.mc_paths != "auto" and not _is_int(self.mc_paths, 1):
            raise ConfigError(f"mc_paths must be a positive integer or 'auto', got {self.mc_paths!r}")
        if not _is_int(self.seed, 0):
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not _is_vector(self.theta_true):
            raise ConfigError(f"theta_true must be a list of numbers, got {self.theta_true!r}")
        if not (isinstance(self.theta0, str) or _is_vector(self.theta0)):
            raise ConfigError(
                f"theta0 must be a starting rule name or a list of numbers, got {self.theta0!r}"
            )
        if not (isinstance(self.box, list)
                and all(_is_vector(r) and len(r) == 2 and r[0] < r[1] for r in self.box)):
            raise ConfigError(
                f"box must be a list of [low, high] number pairs with low < high, got {self.box!r}"
            )
        if self.initial_state is not None and not (_is_vector(self.initial_state) and self.initial_state):
            raise ConfigError(
                f"initial_state must be a nonempty list of numbers, got {self.initial_state!r}"
            )
        HurstParam(self.hurst)
        if not 0.5 < self.gamma < self.hurst:
            raise ConfigError(
                f"gamma must lie in (1/2, hurst={self.hurst}), got {self.gamma}"
            )
        if self.euler_steps % self.observations != 0:
            raise ConfigError(
                f"euler_steps={self.euler_steps} must be divisible by "
                f"observations={self.observations} so observation times sit on grid nodes"
            )
        if not (isinstance(self.schedule, dict) and all(map(_is_number, self.schedule.values()))):
            raise ConfigError(
                f"schedule must map a0, b, rho to finite numbers, got {self.schedule!r}"
            )
        try:
            self.step_schedule()
        except TypeError as exc:  # unknown key
            raise ConfigError(f"schedule {self.schedule!r}: {exc}") from None
        if self.observations_csv is not None and not os.path.exists(self.observations_csv):
            raise ConfigError(f"observations file not found: {self.observations_csv}")
        if self.model_spec_path is not None and not os.path.exists(self.model_spec_path):
            raise ConfigError(f"model spec file not found: {self.model_spec_path}")

    def resolve_model(self) -> tuple[ModelSpec, np.ndarray]:
        if self.model_spec_path:
            spec, theta = load_model_file(self.model_spec_path)
        else:
            spec = get_model(self.model, self.theta_true or None)
            theta = spec.check_theta(self.theta_true or spec.theta_default)
        # a given box needs q rows, theta0 q values and initial_state m values
        theta0 = [] if isinstance(self.theta0, str) else self.theta0
        for name, value, size in (
            ("box", self.box, spec.q),
            ("theta0", theta0, spec.q),
            ("initial_state", self.initial_state or [], spec.m),
        ):
            if value and len(value) != size:
                raise ConfigError(f"{name} has {len(value)} entries, model {spec.name} needs {size}")
        return spec, theta

    def resolve_budget(self, model: ModelSpec) -> Budget:
        paths = self.mc_paths
        if paths == "auto":
            paths = allocate_budget(
                self.euler_steps, self.gamma, self.horizon, model.m, model.d,
                scale=self.budget_scale,
            )
        return Budget(self.euler_steps, int(paths), self.gamma, hurst=self.hurst)

    def step_schedule(self) -> StepSchedule:
        return StepSchedule(**self.schedule)


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _is_int(value, minimum: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _is_vector(value) -> bool:
    return isinstance(value, list) and all(_is_number(v) for v in value)


# --------------------------------------------------------------------------
# Output helpers
# --------------------------------------------------------------------------


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: list[str], rows) -> str:
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _config_hash(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _sidecar(outdir: str, command: str, cfg_doc: dict, seed: int, outputs: list[str]):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    meta = {
        "command": command,
        "config": cfg_doc,
        "config_sha256": _config_hash(cfg_doc),
        "seed": seed,
        "version": __version__,
        "numpy": np.__version__,
        # the BLAS decides GEMM rounding, so bit-identical reruns assume the same one;
        # its thread count needs threadpoolctl, which is not a dependency
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "outputs": [os.path.basename(p) for p in outputs],
    }
    _atomic_write(
        os.path.join(outdir, f"{command}.meta.json"), json.dumps(meta, indent=2) + "\n"
    )


def _freedman_diaconis_bins(values: np.ndarray) -> np.ndarray:
    v = np.sort(np.asarray(values, dtype=float))
    if v.size < 2 or v[0] == v[-1]:
        return np.array([v[0] - 0.5, v[0] + 0.5])
    iqr = np.subtract(*np.percentile(v, [75, 25]))
    width = 2.0 * iqr / v.size ** (1.0 / 3.0)
    if width <= 0:
        width = (v[-1] - v[0]) / max(1, int(np.sqrt(v.size)))
    nbins = max(1, int(np.ceil((v[-1] - v[0]) / width)))
    return np.linspace(v[0], v[-1], nbins + 1)


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def _observation_nodes(cfg: RunConfig) -> np.ndarray:
    step = cfg.euler_steps // cfg.observations
    return np.arange(step, cfg.euler_steps + 1, step)


def _simulate_dataset(cfg: RunConfig, model: ModelSpec, theta: np.ndarray, seed: int):
    grid = TimeGrid(cfg.horizon, cfg.euler_steps)
    fbm = simulate_fbm(grid, model.d, cfg.hurst, seed)
    a = np.asarray(cfg.initial_state if cfg.initial_state is not None else model.initial_state)
    y = euler_solve(model, theta, fbm, a)
    return grid, fbm, y


def cmd_simulate(cfg: RunConfig, outdir: str) -> list[str]:
    model, theta = cfg.resolve_model()
    grid, fbm, y = _simulate_dataset(cfg, model, theta, cfg.seed)
    nodes = np.concatenate([[0], _observation_nodes(cfg)])
    header = ["t"] + [f"Y{i + 1}" for i in range(model.m)]
    if cfg.include_fbm_columns:
        header += [f"B{j + 1}" for j in range(model.d)]
    rows = []
    for k in nodes:
        row = [float(grid.nodes[k])] + [float(v) for v in y.values[:, k]]
        if cfg.include_fbm_columns:
            row += [float(v) for v in fbm.values[:, k]]
        rows.append(row)
    path = os.path.join(outdir, "observations.csv")
    _atomic_write(path, _csv_text(header, rows))
    _sidecar(outdir, "simulate", cfg.raw, cfg.seed, [path])
    return [path]


def read_observations_csv(path: str, grid: TimeGrid, m: int) -> Observations:
    """Parse a simulate-format CSV into Observations (t=0 row skipped)."""
    times, values = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file") from None
        cols = [c.strip() for c in header]
        if cols[0] != "t" or len(cols) < m + 1:
            raise ConfigError(f"{path}: expected header t,Y1..Y{m}, got {cols}")
        for lineno, row in enumerate(reader, start=2):
            try:
                t = float(row[0])
                vals = [float(v) for v in row[1 : m + 1]]
            except (ValueError, IndexError) as exc:
                raise ConfigError(f"{path}:{lineno}: malformed row: {exc}") from None
            if t == 0.0:
                continue
            times.append(t)
            values.append(vals)
    if not times:
        raise ConfigError(f"{path}: no observations after time zero")
    return Observations(grid=grid, times=np.array(times), values=np.array(values))


def _run_replication(
    cfg: RunConfig, model: ModelSpec, obs: Observations, theta0, seed: int
) -> EstimationReport:
    budget = cfg.resolve_budget(model)
    a = np.asarray(cfg.initial_state if cfg.initial_state is not None else model.initial_state)
    return estimate_parameters(
        model, theta0, obs, budget, cfg.step_schedule(), cfg.iterations,
        cfg.box, seed=seed, h=cfg.hurst, a=a,
    )


def cmd_estimate(cfg: RunConfig, outdir: str) -> list[str]:
    model, theta_true = cfg.resolve_model()
    if isinstance(cfg.theta0, str):
        theta0 = cfg.theta0  # starting rule, resolved per replication
    else:
        theta0 = np.asarray(cfg.theta0 if cfg.theta0 else model.theta_default, dtype=float)
    grid = TimeGrid(cfg.horizon, cfg.euler_steps)
    names = list(model.theta_names) or [f"theta{l + 1}" for l in range(model.q)]
    reports: list[EstimationReport] = []
    fixed_data = cfg.observations_csv is not None
    if fixed_data:
        obs = read_observations_csv(cfg.observations_csv, grid, model.m)
    for r in range(cfg.replications):
        if not fixed_data:
            _, _, y = _simulate_dataset(cfg, model, theta_true, cfg.seed + 7919 * (r + 1))
            nodes = _observation_nodes(cfg)
            obs = Observations(
                grid=grid, times=grid.nodes[nodes], values=y.values[:, nodes].T
            )
        reports.append(_run_replication(cfg, model, obs, theta0, cfg.seed + 104729 * r))
    estimates = np.array([rep.theta_hat for rep in reports])  # (R, q)
    mean = estimates.mean(axis=0)
    sd = estimates.std(axis=0, ddof=1) if len(reports) > 1 else np.full(model.q, np.nan)
    outputs = []

    lines = [f"model = {model.name}", f"replications = {len(reports)}"]
    for l, nm in enumerate(names):
        lines.append(f"theta_hat.{nm} = {mean[l]:.6g}")
        lines.append(f"replication_sd.{nm} = {sd[l]:.6g}")
        if len(reports) > 1:
            lines.append(f"se_of_mean.{nm} = {sd[l] / np.sqrt(len(reports)):.6g}")
    aborted = [r for r, rep in enumerate(reports) if rep.aborted]
    if len(aborted) == len(reports):
        # nothing completed; surface the cause (observation index for an
        # unreliable score) through the exit code
        raise reports[0].abort_error or ConfigError("all replications aborted")
    lines.append(f"aborted_replications = {aborted}")
    flagged = sorted({i for rep in reports for i in rep.info.get("flagged_observations", [])})
    lines.append(f"flagged_observations = {flagged}")
    lines.append(f"seed = {cfg.seed}")
    report_path = os.path.join(outdir, "report.txt")
    _atomic_write(report_path, "\n".join(lines) + "\n")
    outputs.append(report_path)

    rows = []
    for r, rep in enumerate(reports):
        for k in range(rep.trace.shape[0]):
            row = [r, k] + [float(v) for v in rep.trace[k]]
            if k < rep.scores.shape[0]:
                row += [float(v) for v in rep.scores[k]] + [float(v) for v in rep.score_ses[k]]
            else:
                row += [""] * (2 * model.q)
            rows.append(row)
    trace_path = os.path.join(outdir, "trace.csv")
    header = (
        ["replication", "iteration"]
        + [f"theta_{nm}" for nm in names]
        + [f"score_{nm}" for nm in names]
        + [f"score_se_{nm}" for nm in names]
    )
    _atomic_write(trace_path, _csv_text(header, rows))
    outputs.append(trace_path)

    est_path = os.path.join(outdir, "estimates.csv")
    _atomic_write(
        est_path,
        _csv_text(
            ["replication"] + [f"theta_hat_{nm}" for nm in names],
            [[r] + [float(v) for v in estimates[r]] for r in range(len(reports))],
        ),
    )
    outputs.append(est_path)

    for l, nm in enumerate(names):
        edges = _freedman_diaconis_bins(estimates[:, l])
        counts, _ = np.histogram(estimates[:, l], bins=edges)
        hist_path = os.path.join(outdir, f"histogram_{nm}.csv")
        _atomic_write(
            hist_path,
            _csv_text(
                ["bin_left", "bin_right", "count"],
                [
                    [float(edges[i]), float(edges[i + 1]), int(counts[i])]
                    for i in range(counts.size)
                ],
            ),
        )
        outputs.append(hist_path)
    _sidecar(outdir, "estimate", cfg.raw, cfg.seed, outputs)
    return outputs


def cmd_hurst(
    csv_path: str,
    column: str,
    outdir: str,
    groups: int = 1,
    min_window: int = 32,
    as_increments: bool = False,
) -> list[str]:
    """R/S estimates per group split; emits one estimate per group plus overall."""
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [c.strip() for c in next(reader)]
        except StopIteration:
            raise ConfigError(f"{csv_path}: empty file") from None
        if column not in header:
            raise ConfigError(
                f"column {column!r} not found in {csv_path}; available: {header}"
            )
        idx = header.index(column)
        series = []
        for lineno, row in enumerate(reader, start=2):
            try:
                series.append(float(row[idx]))
            except (ValueError, IndexError) as exc:
                raise ConfigError(f"{csv_path}:{lineno}: malformed row: {exc}") from None
    x = np.asarray(series)
    if as_increments:
        x = np.diff(x)
    if groups < 1:
        raise ConfigError(f"groups must be >= 1, got {groups}")
    size = x.size // groups
    if size < 16:
        raise ConfigError(f"{x.size} samples are too few for {groups} groups")
    rows, lines = [], []
    for g in range(groups):
        seg = x[g * size : (g + 1) * size]
        est = estimate_hurst_rs(seg, min_window=min_window)
        rows.append([g + 1, g * size, seg.size, float(est)])
        lines.append(f"group_{g + 1}.hurst = {est:.4f}")
    if groups > 1:
        overall = estimate_hurst_rs(x, min_window=min_window)
        lines.append(f"overall.hurst = {overall:.4f}")
    out_csv = os.path.join(outdir, "hurst.csv")
    _atomic_write(out_csv, _csv_text(["group", "start", "length", "hurst"], rows))
    report = os.path.join(outdir, "hurst_report.txt")
    _atomic_write(report, "\n".join(lines) + "\n")
    with open(csv_path, "rb") as fh:
        csv_digest = hashlib.sha256(fh.read()).hexdigest()
    _sidecar(
        outdir,
        "hurst",
        {"csv": os.path.basename(csv_path), "csv_sha256": csv_digest, "column": column,
         "groups": groups, "min_window": min_window, "as_increments": as_increments},
        0,
        [out_csv, report],
    )
    for ln in lines:
        print(ln)
    return [out_csv, report]


def strong_rate_curve(
    model: ModelSpec,
    theta,
    hurst: float,
    horizon: float,
    m_list,
    m_ref: int,
    n_paths: int,
    seed: int,
    a=None,
) -> tuple[list[int], np.ndarray]:
    """RMS sup-norm Euler error against the same path solved at m_ref steps.

    Every M must lie in 1..m_ref and divide m_ref, and n_paths must be >= 1;
    anything else raises ConfigError.
    """
    m_list = sorted(int(m) for m in m_list)
    if len(m_list) < 2:
        raise ConfigError("rate study needs at least two grid sizes to fit a slope")
    if m_list[0] < 1 or m_list[-1] > m_ref:  # also rejects m_ref < 1
        raise ConfigError(f"every M must lie in 1..m_ref = {m_ref}, got {m_list}")
    if n_paths < 1:
        raise ConfigError(f"rate study needs at least one path, got {n_paths}")
    if any(m_ref % m for m in m_list):
        raise ConfigError(f"reference steps {m_ref} must be divisible by every M in {m_list}")
    from .fbm import FbmPath

    grid_ref = TimeGrid(horizon, m_ref)
    a = np.asarray(model.initial_state if a is None else a, dtype=float)
    errs = np.zeros((len(m_list), n_paths))
    for p in range(n_paths):
        fbm_ref = simulate_fbm(grid_ref, model.d, hurst, seed + p)
        y_ref = euler_solve(model, theta, fbm_ref, a)
        for j, m_steps in enumerate(m_list):
            stride = m_ref // m_steps
            sub = FbmPath(
                grid=TimeGrid(horizon, m_steps),
                hurst=fbm_ref.hurst,
                seed=fbm_ref.seed,
                values=fbm_ref.values[:, ::stride],
            )
            y = euler_solve(model, theta, sub, a)
            diff = y.values - y_ref.values[:, ::stride]
            errs[j, p] = np.max(np.linalg.norm(diff, axis=0))
    return m_list, np.sqrt((errs**2).mean(axis=1))


def cmd_rate_study(cfg: RunConfig, outdir: str, m_list=None, m_ref: int = 4096, n_paths: int = 100) -> list[str]:
    """Strong-error refinement study for a built-in model against a fine reference."""
    model, theta = cfg.resolve_model()
    if m_list is None:
        m_list = [2**k for k in range(4, 10)]
    a = np.asarray(cfg.initial_state if cfg.initial_state is not None else model.initial_state)
    m_list, rms = strong_rate_curve(
        model, theta, cfg.hurst, cfg.horizon, m_list, m_ref, n_paths, cfg.seed, a=a
    )
    slope = float(np.polyfit(np.log(m_list), np.log(rms), 1)[0])
    rate_path = os.path.join(outdir, "rate.csv")
    _atomic_write(
        rate_path,
        _csv_text(["euler_steps", "rms_sup_error"], [[m, float(e)] for m, e in zip(m_list, rms)]),
    )
    report = os.path.join(outdir, "rate_report.txt")
    _atomic_write(
        report,
        f"slope = {slope:.4f}\nm_ref = {m_ref}\npaths = {n_paths}\nseed = {cfg.seed}\n",
    )
    _sidecar(outdir, "rate-study", cfg.raw, cfg.seed, [rate_path, report])
    print(f"slope = {slope:.4f}")
    return [rate_path, report]


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def _load_config(args) -> RunConfig:
    doc: dict = {}
    if getattr(args, "preset", None):
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; known: {sorted(PRESETS)}")
        doc.update(PRESETS[args.preset])
    if getattr(args, "config", None):
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        with open(args.config) as fh:
            try:
                doc.update(json.load(fh))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{args.config}: invalid JSON: {exc}") from None
    if not doc:
        raise ConfigError("provide --config and/or --preset")
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    if getattr(args, "replications", None) is not None:
        doc["replications"] = args.replications
    return RunConfig.from_dict(doc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracmle",
        description="Likelihood-type estimation for SDEs driven by fractional Brownian motion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--preset", help=f"built-in preset: {sorted(PRESETS)}")
        p.add_argument("--outdir", default=".", help="output directory")
        p.add_argument("--seed", type=int, help="override the config seed")

    p_sim = sub.add_parser("simulate", help="simulate observations to CSV")
    common(p_sim)

    p_est = sub.add_parser("estimate", help="run the estimation pipeline")
    common(p_est)
    p_est.add_argument("--replications", type=int, help="override replication count")

    p_h = sub.add_parser("hurst", help="R/S Hurst estimation from a CSV column")
    p_h.add_argument("csv")
    p_h.add_argument("--column", required=True)
    p_h.add_argument("--groups", type=int, default=1)
    p_h.add_argument("--min-window", type=int, default=32)
    p_h.add_argument("--increments", action="store_true",
                     help="difference the column before estimating")
    p_h.add_argument("--outdir", default=".")

    p_r = sub.add_parser("rate-study", help="Euler refinement study with fitted slope")
    common(p_r)
    p_r.add_argument("--m-list", type=int, nargs="+", help="grid sizes")
    p_r.add_argument("--m-ref", type=int, default=4096)
    p_r.add_argument("--paths", type=int, default=100)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        os.makedirs(args.outdir, exist_ok=True)
        if args.command == "simulate":
            cmd_simulate(_load_config(args), args.outdir)
        elif args.command == "estimate":
            cmd_estimate(_load_config(args), args.outdir)
        elif args.command == "hurst":
            cmd_hurst(
                args.csv, args.column, args.outdir, groups=args.groups,
                min_window=args.min_window, as_increments=args.increments,
            )
        elif args.command == "rate-study":
            cfg = _load_config(args)
            cmd_rate_study(cfg, args.outdir, m_list=args.m_list, m_ref=args.m_ref,
                           n_paths=args.paths)
    except UnreliableScoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FracmleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

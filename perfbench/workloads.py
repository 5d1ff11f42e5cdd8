"""The three benchmark workloads: inputs from a seed, one op, and its checks.

Each workload is a closed loop with one caller: the next op starts when the
previous one has returned. Inputs are generated here from the workload seed;
fracmle only sees the generated data, parameters and Monte-Carlo seeds.

A workload object is built in set-up (model lookup, data generation), runs
one untimed `warm_up`, and then `prepare_checks` builds the exact-Gaussian
oracle outside the timed set-up. `next_input` draws the inputs of one op,
`run` is the timed call into fracmle, and `check` returns the list of failed
checks (empty when the result is correct). A run's ops come from several
processes, each with its own input `stream` of the same seed; `tallies` is
what one process collected for the run-level checks, and `judge` pools the
tallies of all of them into the run-level failures and the check statistics.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil

import numpy as np

from oracle import EulerGaussian, tail_indicator_sd, z_scores

# Per-op z limits. The Monte-Carlo SEs of fracmle are sample SEs of
# heavy-tailed weight estimators (a single linear2d V entry can read |z| > 100
# while the pooled mean over many calls sits at |z| ~ 1), so the score checks
# use the median |z| over the observations of one call, and a run-level median
# over every z of the run. A correct estimator gives medians near 0.67; the
# run-level floor rejects SEs inflated to pass the z tests.
SCORE_MEDIAN_Z_LIMIT = 4.0
RUN_MEDIAN_Z_LIMIT = 1.5
RUN_MEDIAN_Z_FLOOR = 0.4
# The |z| of the two score components move together, so a run-level median
# over the score z needs many calls to be steady; fewer values go unjudged.
RUN_SCORE_Z_MIN = 40
# score_se is a delta-method SE of a sum of ratios, and how well it fits
# depends on the data set: clean run medians read 0.48-1.01 over 25-30 calls
# on four data sets. Its floor is lower, and still rejects a score SE inflated
# fourfold.
RUN_SCORE_Z_FLOOR = 0.25
DENSITY_Z_LIMIT = 5.0
# A density SE may exceed the SE of the "auto" representation on the full
# path budget by this factor at most: half the paths read about 1.41.
DENSITY_SE_CEILING = 1.25
# The score is recomputed from the returned W, V and flags to this share of
# the sum of its terms' magnitudes.
SCORE_REL_TOL = 1e-9


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


class Workload:
    """Defaults for the hooks a workload does not need."""

    def prepare_checks(self):
        pass

    def tallies(self) -> dict:
        return {}

    @staticmethod
    def judge(tallies: list) -> tuple[list[str], dict]:
        return [], {}

    def finish(self):
        pass


class ScoreLinear2d(Workload):
    """likelihood.score on one simulated linear2d data set, fresh theta and seed per call."""

    truth = np.array([2.0, 4.0])
    hurst, horizon, gamma, y0 = 0.6, 2.0, 0.55, (0.0, 0.0)
    theta_spread = 0.02  # each theta within +-2% of the truth
    w_floor = 1e-8  # likelihood.score's default

    def __init__(self, seed: int, steps=500, observations=50, paths=500, stream=0):
        import fracmle
        from fracmle import likelihood

        self.fracmle, self.likelihood = fracmle, likelihood
        self.steps = steps
        self.model = fracmle.get_model("linear2d")
        grid = fracmle.TimeGrid(self.horizon, steps)
        data_seed = int(_rng(seed, 0).integers(2**31))
        fbm = fracmle.simulate_fbm(grid, self.model.d, self.hurst, data_seed)
        y = fracmle.euler_solve(self.model, self.truth, fbm, np.array(self.y0))
        nodes = np.arange(steps // observations, steps + 1, steps // observations)
        self.obs = fracmle.Observations(grid=grid, times=grid.nodes[nodes],
                                        values=y.values[:, nodes].T)
        self.budget = fracmle.Budget(steps, paths, self.gamma)
        self.inputs = _rng(seed, 1, stream)
        self.warm_inputs = _rng(seed, 2)
        self.retry_seeds = _rng(seed, 3, stream)
        self.z_w, self.z_v, self.z_score = [], [], []
        self.untested = self.score_untested = self.retries = 0

    def next_input(self, warm: bool = False):
        rng = self.warm_inputs if warm else self.inputs
        spread = self.theta_spread
        theta = self.truth * rng.uniform(1 - spread, 1 + spread, self.truth.size)
        return theta, int(rng.integers(2**31))

    def run(self, inp):
        """One score call; like robbins_monro, retried once on fresh paths if unreliable.

        About one call in 700 finds fewer than n/10 observations it can
        resolve and raises UnreliableScoreError; the retry is timed with the
        op and counted in the check statistics.
        """
        theta, mc_seed = inp
        try:
            return self._score(theta, mc_seed)
        except self.fracmle.UnreliableScoreError:
            self.retries += 1
            return self._score(theta, int(self.retry_seeds.integers(2**31)))

    def _score(self, theta, mc_seed):
        return self.likelihood.score(self.model, theta, self.obs, self.budget, seed=mc_seed,
                                     h=self.hurst, a=np.array(self.y0), w_floor=self.w_floor,
                                     on_unreliable="clamp")

    def warm_up(self):
        self.run(self.next_input(warm=True))

    def prepare_checks(self):
        self.oracle = EulerGaussian("linear2d", self.hurst, self.horizon, self.steps, self.y0)

    def check(self, inp, sv) -> list[str]:
        theta, _ = inp
        w, v = self.oracle.density_and_gradient(theta, self.obs.node_indices, self.obs.values)
        n, q = w.size, theta.size
        shapes = tuple(np.shape(x) for x in (sv.w, sv.w_se, sv.v, sv.v_se, sv.score))
        if shapes != ((n,), (n,), (n, q), (n, q), (q,)) or np.shape(sv.used) != (n,):
            return [f"result shapes {shapes}, used {np.shape(sv.used)}"]
        if sv.n_paths != self.budget.mc_paths:
            return [f"{sv.n_paths} paths, budget {self.budget.mc_paths}"]
        if not all(np.all(np.isfinite(x)) for x in (sv.w, sv.v, sv.score)):
            return ["non-finite W, V or score"]
        failures = self._check_assembly(sv)
        # flagged observations (W below 3 SE) carry SEs the program itself
        # declares unresolved; they are counted, not z-tested
        used = np.asarray(sv.used, dtype=bool)
        zw, skip_w = z_scores(sv.w[used], w[used], sv.w_se[used])
        zv, skip_v = z_scores(sv.v[used], v[used], sv.v_se[used])
        self.untested += int(n - used.sum()) * (1 + q) + skip_w + skip_v
        self.z_w.extend(zw.tolist())
        self.z_v.extend(zv.tolist())
        # the score against the exact sum V/W, in calls that flag nothing: a
        # clamped term has no exact counterpart, and its noise inflates
        # score_se while it cancels from the error, so z would read too small
        if used.all():
            zs, skip = z_scores(sv.score, (v / w[:, None]).sum(axis=0), sv.score_se)
            self.z_score.extend(zs.tolist())
            self.score_untested += skip
        else:
            self.score_untested += q
        for label, z in (("W", zw), ("V", zv)):
            if z.size and np.median(np.abs(z)) > SCORE_MEDIAN_Z_LIMIT:
                failures.append(f"median |z| of {label} = {np.median(np.abs(z)):.2f}")
        return failures

    def _check_assembly(self, sv) -> list[str]:
        """The flag rule and the score sum V/W, recomputed from the returned kernels.

        An observation is used when W > max(3 SE, w_floor); a flagged one
        enters the sum with its denominator floored at max(W, SE, w_floor).
        """
        se = np.where(np.isfinite(sv.w_se), sv.w_se, 0.0)
        used = sv.w > np.maximum(3.0 * se, self.w_floor)
        wm = np.where(used, sv.w, np.maximum(np.maximum(sv.w, se), self.w_floor))
        terms = sv.v / wm[:, None]
        failures = []
        if not np.array_equal(used, np.asarray(sv.used, dtype=bool)):
            failures.append(f"used {np.flatnonzero(sv.used)}, rule gives {np.flatnonzero(used)}")
        elif np.any(np.abs(terms.sum(axis=0) - sv.score)
                    > SCORE_REL_TOL * np.abs(terms).sum(axis=0)):
            failures.append(f"score {sv.score} is not the sum V/W {terms.sum(axis=0)}")
        return failures

    def tallies(self) -> dict:
        return {"z_w": self.z_w, "z_v": self.z_v, "z_score": self.z_score,
                "untested": self.untested, "score_untested": self.score_untested,
                "retries": self.retries}

    @staticmethod
    def judge(tallies: list) -> tuple[list[str], dict]:
        z_w, z_v, z_score = ([z for t in tallies for z in t[k]] for k in ("z_w", "z_v", "z_score"))
        failures = []
        judged_score = z_score if len(z_score) >= RUN_SCORE_Z_MIN else []
        for label, z, floor in (("W", z_w, RUN_MEDIAN_Z_FLOOR), ("V", z_v, RUN_MEDIAN_Z_FLOOR),
                                ("score", judged_score, RUN_SCORE_Z_FLOOR)):
            if not z:
                continue
            median = np.median(np.abs(z))
            if not floor <= median <= RUN_MEDIAN_Z_LIMIT:
                failures.append(f"run median |z| of {label} = {median:.2f}, outside"
                                f" [{floor}, {RUN_MEDIAN_Z_LIMIT}]")

        def median_abs(z):
            return float(np.median(np.abs(z))) if z else None

        return failures, {
            "z_tested": len(z_w) + len(z_v),
            "z_untested": sum(t["untested"] for t in tallies),
            "score_z_tested": len(z_score),
            "score_z_untested": sum(t["score_untested"] for t in tallies),
            "retried_ops": sum(t["retries"] for t in tallies),
            "median_abs_z_w": median_abs(z_w),
            "median_abs_z_v": median_abs(z_v),
            "median_abs_z_score": median_abs(z_score),
        }


class DensityFou(Workload):
    """C03 density curve: estimate_density at 9 points over +-2 sd, one call per point."""

    lam, hurst, t, gamma = 0.5, 0.6, 1.0, 0.55
    warm_paths = 8192  # one block

    def __init__(self, seed: int, steps=512, paths=16384, stream=0):
        import fracmle
        from fracmle import likelihood

        self.likelihood = likelihood
        self.steps = steps
        self.model = fracmle.get_model("fou")
        self.budget = fracmle.Budget(steps, paths, self.gamma)
        self.warm_budget = fracmle.Budget(steps, self.warm_paths, self.gamma)
        self.inputs = _rng(seed, 1, stream)
        self.count = 3 * stream  # the streams start a third of the curve apart
        self.z = []

    def warm_up(self):
        self.likelihood.estimate_density(self.model, [self.lam], self.t, [0.0], self.warm_budget,
                                         seed=1, h=self.hurst, representation="auto")

    def prepare_checks(self):
        oracle = EulerGaussian("fou", self.hurst, self.t, self.steps, (0.0,))
        _, cov = oracle.moments([self.lam])
        var = cov[-1, 0, 0]
        sd = math.sqrt(var)
        self.points = np.linspace(-2 * sd, 2 * sd, 9)
        self.exact = [oracle.density([self.lam], self.steps, [x]) for x in self.points]
        # the Euler mean is 0, as y0 = 0
        self.se_limit = [DENSITY_SE_CEILING * tail_indicator_sd(x, 0.0, var)
                         / math.sqrt(self.budget.mc_paths) for x in self.points]

    def next_input(self):
        j = self.count % self.points.size
        self.count += 1
        return j, int(self.inputs.integers(2**31))

    def run(self, inp):
        j, mc_seed = inp
        return self.likelihood.estimate_density(self.model, [self.lam], self.t, [self.points[j]],
                                                self.budget, seed=mc_seed, h=self.hurst,
                                                representation="auto")

    def check(self, inp, result) -> list[str]:
        j, _ = inp
        est, se = result
        z, untested = z_scores([est], [self.exact[j]], [se])
        if untested or not math.isfinite(est):
            return [f"point {j}: estimate {est} with se {se}"]
        self.z.append(float(z[0]))
        failures = []
        if abs(z[0]) > DENSITY_Z_LIMIT:
            failures.append(f"point {j}: z = {z[0]:.2f}")
        if se > self.se_limit[j]:
            failures.append(f"point {j}: se {se:.3g} above {self.se_limit[j]:.3g}")
        return failures

    def tallies(self) -> dict:
        return {"z": self.z}

    @staticmethod
    def judge(tallies: list) -> tuple[list[str], dict]:
        z = np.abs([v for t in tallies for v in t["z"]])
        return [], {"z_tested": int(z.size), "max_abs_z": float(z.max()) if z.size else None,
                    "rms_z": float(np.sqrt(np.mean(z**2))) if z.size else None}


class EstimateFou(Workload):
    """`fracmle estimate --preset fou-0.5` with fewer replications and iterations."""

    box = (0.01, 10.0)
    outputs = ("report.txt", "trace.csv", "estimates.csv", "histogram_lambda.csv",
               "estimate.meta.json")

    def __init__(self, seed: int, workdir: str, overrides=None, stream=0):
        from fracmle import cli

        self.cli = cli
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.config = os.path.join(workdir, "config.json")
        overrides = overrides or {"replications": 1, "iterations": 5}
        with open(self.config, "w") as fh:
            json.dump(overrides, fh)
        self.replications = overrides["replications"]
        self.inputs = _rng(seed, 1, stream)
        self.count = 0

    def next_input(self):
        self.count += 1
        return os.path.join(self.workdir, f"op-{self.count}"), int(self.inputs.integers(2**31))

    def run(self, inp):
        outdir, run_seed = inp
        return self.cli.main(["estimate", "--preset", "fou-0.5", "--config", self.config,
                              "--outdir", outdir, "--seed", str(run_seed)])

    def warm_up(self):
        inp = (os.path.join(self.workdir, "warm-up"), 1)
        self.run(inp)
        shutil.rmtree(inp[0], ignore_errors=True)

    def check(self, inp, code) -> list[str]:
        outdir, _ = inp
        try:
            return self._check(outdir, code)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    def _check(self, outdir: str, code) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        missing = [f for f in self.outputs if not os.path.isfile(os.path.join(outdir, f))]
        if missing:
            return [f"missing outputs {missing}"]
        failures = []
        with open(os.path.join(outdir, "estimate.meta.json")) as fh:
            listed = json.load(fh).get("outputs", [])
        absent = [f for f in listed if not os.path.isfile(os.path.join(outdir, f))]
        if not listed or absent:
            failures.append(f"sidecar lists {listed}, absent {absent}")
        with open(os.path.join(outdir, "report.txt")) as fh:
            report = dict(line.split(" = ", 1) for line in fh.read().splitlines() if " = " in line)
        if report.get("aborted_replications") != "[]":
            failures.append(f"aborted replications {report.get('aborted_replications')}")
        with open(os.path.join(outdir, "estimates.csv"), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        values = [float(r[1]) for r in rows if len(r) > 1]
        if len(values) != self.replications or not all(
                math.isfinite(v) and self.box[0] <= v <= self.box[1] for v in values):
            failures.append(f"theta_hat {values}: not {self.replications} finite values"
                            f" inside {self.box}")
        return failures

    def finish(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


BY_NAME = {"score-linear2d": ScoreLinear2d, "estimate-fou": EstimateFou, "density-fou": DensityFou}

"""Checker self-test: every result check of the benchmark must pass on a clean
result and fire on a corrupted one.

    python3 perfbench/selftest.py

Runs each workload at toy size, and the run-level score checks on 25 calls
at full size (about half a minute in total, no timing assertions), and exits
0 only when every clean result passes and every corruption is caught.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

OUT = os.path.join(HERE, "out", f"selftest-{os.getpid()}")


def score_cases():
    wl = workloads.ScoreLinear2d(seed=7, steps=100, observations=10, paths=80000)
    wl.prepare_checks()
    inp = wl.next_input()
    sv = wl.run(inp)
    yield "score: clean result", wl.check(inp, sv) + wl.judge([wl.tallies()])[0], False
    nan_w = sv.w.copy()
    nan_w[0] = np.nan
    corrupt = {
        "score: W x 1.5": dataclasses.replace(sv, w=1.5 * sv.w),
        "score: V x 10": dataclasses.replace(sv, v=10 * sv.v),
        "score: non-finite W": dataclasses.replace(sv, w=nan_w),
        "score: one observation missing": dataclasses.replace(sv, w=sv.w[1:], w_se=sv.w_se[1:]),
        "score: sum off by 1e-6": dataclasses.replace(sv, score=sv.score * (1 + 1e-6)),
        "score: observation 0 flagged": dataclasses.replace(
            sv, used=np.arange(sv.w.size) > 0),
    }
    for label, bad in corrupt.items():
        yield label, wl.check(inp, bad), True
    half = dataclasses.replace(wl.budget, mc_paths=wl.budget.mc_paths // 2)
    fewer = wl.likelihood.score(wl.model, inp[0], wl.obs, half, seed=inp[1], h=wl.hurst,
                                a=np.array(wl.y0), on_unreliable="clamp")
    yield "score: half the paths", wl.check(inp, fewer), True


def score_run_cases(calls=25):
    """Run-level checks at the size the benchmark runs, on the same calls."""
    wl = workloads.ScoreLinear2d(seed=7)
    wl.prepare_checks()
    results = [(inp, wl.run(inp)) for inp in (wl.next_input() for _ in range(calls))]
    corrupt = {
        "clean": lambda sv: sv,
        "W x 1.5": lambda sv: dataclasses.replace(sv, w=1.5 * sv.w),
        "every SE x 3": lambda sv: dataclasses.replace(
            sv, w_se=3 * sv.w_se, v_se=3 * sv.v_se, score_se=3 * sv.score_se),
        "score SE x 4": lambda sv: dataclasses.replace(sv, score_se=4 * sv.score_se),
    }
    for label, edit in corrupt.items():
        run = workloads.ScoreLinear2d(seed=7)
        run.oracle = wl.oracle
        for inp, sv in results:
            run.check(inp, edit(sv))
        yield (f"score, {calls} calls at full size: run-level medians, {label}",
               run.judge([run.tallies()])[0], label != "clean")


def density_cases():
    wl = workloads.DensityFou(seed=7, steps=64, paths=16384)
    wl.prepare_checks()
    for _ in range(3):
        inp = wl.next_input()
        est, se = wl.run(inp)
        yield f"density: clean point {inp[0]}", wl.check(inp, (est, se)), False
    # the same call evaluated half a standard deviation away from its point
    sd = (wl.points[-1] - wl.points[0]) / 4
    x = wl.points[inp[0]] + 0.5 * sd
    shifted = wl.likelihood.estimate_density(wl.model, [wl.lam], wl.t, [x], wl.budget,
                                             seed=inp[1], h=wl.hurst, representation="auto")
    yield "density: point shifted by 0.5 sd", wl.check(inp, shifted), True
    yield "density: zero standard error", wl.check(inp, (est, 0.0)), True
    yield "density: standard error x 3", wl.check(inp, (est, 3 * se)), True
    half = dataclasses.replace(wl.budget, mc_paths=wl.budget.mc_paths // 2)
    fewer = wl.likelihood.estimate_density(wl.model, [wl.lam], wl.t, [wl.points[inp[0]]], half,
                                           seed=inp[1], h=wl.hurst, representation="auto")
    yield "density: half the paths", wl.check(inp, fewer), True


def estimate_cases():
    small = {"replications": 2, "iterations": 2, "mc_paths": 100}
    wl = workloads.EstimateFou(seed=7, workdir=os.path.join(OUT, "estimate"), overrides=small)

    def run_and(edit):
        inp = wl.next_input()
        code = wl.run(inp)
        if edit is not None:
            edit(inp[0])
        return wl.check(inp, code)

    def rewrite(name, old, new):
        def edit(outdir):
            path = os.path.join(outdir, name)
            with open(path) as fh:
                text = fh.read()
            with open(path, "w") as fh:
                fh.write(text.replace(old, new) if old else new)
        return edit

    yield "estimate: clean run", run_and(None), False
    yield "estimate: aborted replication in report", run_and(
        rewrite("report.txt", "aborted_replications = []", "aborted_replications = [1]")), True
    yield "estimate: theta_hat outside the box", run_and(
        rewrite("estimates.csv", None, "replication,theta_hat_lambda\n0,0.5\n1,20.0\n")), True
    yield "estimate: missing histogram", run_and(
        lambda d: os.remove(os.path.join(d, "histogram_lambda.csv"))), True
    yield "estimate: sidecar lists an absent file", run_and(
        rewrite("estimate.meta.json", '"trace.csv"', '"trace-missing.csv"')), True
    # theta0 = 10 makes the Euler factor 1 - 10 dt = -3: every replication
    # diverges and the command exits 3
    diverging = workloads.EstimateFou(seed=7, workdir=os.path.join(OUT, "diverging"),
                                      overrides={**small, "theta0": [10.0]})
    inp = diverging.next_input()
    yield ("estimate: config whose replications all diverge",
           diverging.check(inp, diverging.run(inp)), True)
    # far from the truth with 20 paths, some replication's score and its retry
    # both find too few reliable observations; take the first seed where one
    # aborts (the command itself still exits 0)
    aborting = workloads.EstimateFou(seed=7, workdir=os.path.join(OUT, "aborting"),
                                     overrides={**small, "theta0": [2.0], "mc_paths": 20})
    caught = []
    for _ in range(20):
        inp = aborting.next_input()
        caught = aborting.check(inp, aborting.run(inp))
        if caught:
            break
    yield "estimate: config that aborts a replication", caught, True
    for w in (wl, diverging, aborting):
        w.finish()


def main() -> int:
    ok = True
    try:
        for cases in (score_cases, score_run_cases, density_cases, estimate_cases):
            for label, failures, expect_failure in cases():
                good = bool(failures) == expect_failure
                ok &= good
                verdict = "fires" if failures else "passes"
                print(f"{'ok  ' if good else 'FAIL'} {label}: check {verdict} {failures or ''}")
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""fracmle benchmark: one workload per invocation, result as the last stdout line.

    python3 perfbench/run.py --workload score-linear2d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a fracmle checkout; fracmle is imported from its `src/`
directory. The parent process starts three worker processes one after
another. It times each from process start to its first timable op
(interpreter start, imports, model lookup, data generation, one untimed
warm-up); each worker then runs the closed loop of ops for a third of
`--seconds`, on its own input stream of the seed. The same code runs up to
10% faster or slower from one process to the next, so the ops of three
processes are pooled. Every op result is checked against the exact Euler
Gaussian (score, density) or against the output contract of
`fracmle estimate`.

With `--trace 0` the last line carries the end-to-end metrics; with
`--trace 1` the last worker wraps fracmle's public names (see spans.py) and
reports per-layer metrics per op. The line before it is a JSON record of the
environment, sample counts and check statistics; the same record, and the
spans of a traced run, are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("score-linear2d", "estimate-fou", "density-fou")
WORKERS = 3
TAIL_PERCENTILE = 90  # fixed: the density runs hold too few ops for a ten-beyond rule
# beyond --seconds: three set-ups, the checks and the last op; a run that has
# not finished by then is killed and fails
DEADLINE_MARGIN_S = 140


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", type=int, help=argparse.SUPPRESS)  # input stream
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _blas():
    """(name/config string, thread count) of the OpenBLAS numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None, None
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None:
                    get_threads.restype = ctypes.c_int
                    config = None
                    if get_config is not None:
                        get_config.restype = ctypes.c_char_p
                        config = get_config().decode()
                    return config, int(get_threads())
    return None, None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit():
    """git HEAD when the checkout is a repository, plus a digest of the sources."""
    head = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                  text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            head = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "fracmle")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return head, digest.hexdigest()


def environment() -> dict:
    import numpy as np

    head, source = _commit()
    blas, threads = _blas()
    return {
        "commit": head,
        "source_sha256": source,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "loadavg_before": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# worker: set-up, timed loop, checks
# ---------------------------------------------------------------------------


def build_workload(name: str, seed: int, stream: int):
    sys.path.insert(0, SRC)
    import fracmle

    here = os.path.realpath(os.path.dirname(fracmle.__file__))
    if here != os.path.realpath(os.path.join(SRC, "fracmle")):
        raise SystemExit(f"fracmle imported from {fracmle.__file__}, not from {SRC}")
    import workloads

    if name == "estimate-fou":
        return workloads.EstimateFou(seed, os.path.join(OUT, f"work-{os.getpid()}"), stream=stream)
    return workloads.BY_NAME[name](seed, stream=stream)


class Reference:
    """Fixed numpy and interpreter work, timed to gauge the machine's current speed.

    On a shared host the same code runs up to 1.5x slower for minutes at a
    time; CPU time tracks wall time, so the drift is in the machine, not in
    scheduling. A set-up is scaled by NOMINAL_S over the median reference
    time measured right after it in the same process, and the ops of a worker
    by NOMINAL_S over the mean reference time measured before each of its ops,
    so the metrics read as times on a machine that runs the reference in
    NOMINAL_S. Within a worker the reference flips between a fast and a slow
    mode from one op to the next, far more than the ops do, so one factor per
    worker scales its ops; the mean, not the median, because the median of a
    two-mode sample jumps between the modes.
    The work mixes a small einsum projection, an FFT over a spectrum block and
    a Python loop of small array updates.
    """

    NOMINAL_S = 0.004

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.kernel = rng.standard_normal((2, 500, 2))
        self.increments = rng.standard_normal((500, 2, 500))
        self.spectrum = rng.standard_normal((256, 1024)) + 1j * rng.standard_normal((256, 1024))
        self.state = rng.standard_normal((1000, 2))

    def measure(self) -> float:
        np = self.np
        start = time.perf_counter()
        np.einsum("pai,nia->np", self.kernel, self.increments)
        np.fft.fft(self.spectrum, axis=-1)
        state = self.state
        for _ in range(200):
            state = state + 0.01 * state[:, ::-1]
        return time.perf_counter() - start

    def sample(self, n: int, budget: float = 0.0) -> list:
        """At least n reference times, and more until they add up to `budget` seconds."""
        out = []
        while len(out) < n or sum(out) < budget:
            out.append(self.measure())
        return out


REFERENCE_PER_OP = 3  # at least
# of the previous op's time, spent on reference runs before the next op: a
# long op's speed is gauged on more samples of the jittery reference
REFERENCE_SHARE = 0.05
REFERENCE_AFTER_SETUP = 15


def timed_loop(wl, seconds: float, reference: Reference, tracer=None):
    """Closed loop for `seconds` of wall time.

    Returns (op seconds, reference seconds measured before each op, failures).
    """
    times, refs, failures = [], [], []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or not times:
        budget = REFERENCE_SHARE * times[-1] if times else 0.0
        refs.append(reference.sample(REFERENCE_PER_OP, budget))
        inp = wl.next_input()
        start = time.perf_counter()
        try:
            out = tracer.op(wl.run, inp) if tracer else wl.run(inp)
            error = None
        except Exception as exc:  # a failed op is counted, never fatal
            error = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        try:
            problems = [error] if error else wl.check(inp, out)
        except Exception as exc:  # an unreadable result fails its op
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append((len(times) - 1, problems))
            print(f"op {len(times) - 1} failed: {problems}", file=sys.stderr)
    return times, refs, failures


def worker(args) -> int:
    """Set up, then run the closed loop for `--seconds` (this worker's share)."""
    wl = build_workload(args.workload, args.seed, args.worker)
    wl.warm_up()
    print("READY", flush=True)
    reference = Reference()
    print(statistics.median(reference.sample(REFERENCE_AFTER_SETUP)), flush=True)
    wl.prepare_checks()
    detail = {}
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        if hasattr(wl, "model"):
            wl.model = tracer.counted_model(wl.model)
    times, refs, failures = timed_loop(wl, args.seconds, reference, tracer)
    if tracer is not None:
        detail.update({"per_layer": tracer.per_layer(), "trace_hook_errors": tracer.hook_errors})
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    wl.finish()
    detail.update({
        "op_s": times,
        "reference_s": refs,
        "failed_ops": failures,
        "tallies": wl.tallies(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(detail), flush=True)
    return 0


# ---------------------------------------------------------------------------
# parent: set-up timing, result line
# ---------------------------------------------------------------------------


def start_worker(args, stream: int, trace: bool, deadline: float):
    """Start a worker; returns (process, set-up seconds, reference seconds after set-up)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / WORKERS),
           "--trace", str(int(trace)), "--worker", str(stream)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    ready = proc.stdout.readline().strip()
    setup = time.perf_counter() - start
    speed = proc.stdout.readline().strip()
    watchdog.cancel()
    if ready != "READY" or not speed:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker {stream} exited during set-up (code {proc.returncode})")
    return proc, setup, float(speed)


def finish_worker(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled_op_times(times, refs) -> list:
    """The op times of one worker at reference speed."""
    factor = Reference.NOMINAL_S / statistics.fmean(r for rs in refs for r in rs)
    return [t * factor for t in times]


def setup_seconds(setups, normalised: bool = True) -> float:
    return statistics.median(s * Reference.NOMINAL_S / r if normalised else s for s, r in setups)


def parent(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "fracmle", "__init__.py")):
        print(f"error: no fracmle sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S
    env = environment()
    setups, details = [], []
    for stream in range(WORKERS):
        traced = bool(args.trace) and stream == WORKERS - 1
        proc, setup, speed = start_worker(args, stream, traced, deadline)
        setups.append((setup, speed))
        details.append(json.loads(finish_worker(proc, deadline).strip().splitlines()[-1]))
    env["loadavg_after"] = list(os.getloadavg())

    import workloads

    times = [t for d in details for t in d["op_s"]]
    scaled_by_worker = [scaled_op_times(d["op_s"], d["reference_s"]) for d in details]
    scaled = [t for s in scaled_by_worker for t in s]
    failures, offset = [], 0
    for d in details:
        failures += [(i + offset, p) for i, p in d["failed_ops"]]
        offset += len(d["op_s"])
    run_failures, checks = workloads.BY_NAME[args.workload].judge([d["tallies"] for d in details])
    for problem in run_failures:
        print(f"run check failed: {problem}", file=sys.stderr)
    correct = not failures and not run_failures
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "ops": len(times), "ops_per_worker": [len(d["op_s"]) for d in details],
        "setup_s_and_reference_s": setups, "failed_ops": failures,
        "run_check_failures": run_failures, "checks": checks,
        "peak_rss_mb": max(d["peak_rss_mb"] for d in details),
    }
    if args.trace:
        layers = details[-1]["per_layer"]
        # traced ops of the last worker against the untraced ops of the others,
        # both at reference speed
        layers["trace.overhead_s"] = (statistics.fmean(scaled_by_worker[-1])
                                      - statistics.fmean(t for s in scaled_by_worker[:-1]
                                                         for t in s))
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
        record["trace_hook_errors"] = details[-1]["trace_hook_errors"]
    else:
        tail = percentile(scaled, TAIL_PERCENTILE)
        metrics = {
            "setup_s": {"value": setup_seconds(setups), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
            "op_ms_p50": {"value": 1e3 * statistics.median(scaled), "unit": "ms"},
            "op_ms_tail": {"value": 1e3 * tail, "unit": "ms"},
        }
        record.update({
            "tail_percentile": TAIL_PERCENTILE,
            "samples_beyond_tail": sum(t > tail for t in scaled),
            "raw_setup_s": setup_seconds(setups, False),
            "raw_op_ms_p50": 1e3 * statistics.median(times),
            "raw_op_ms_tail": 1e3 * percentile(times, TAIL_PERCENTILE),
        })
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({**record, "op_s": [d["op_s"] for d in details],
                   "reference_s": [d["reference_s"] for d in details], "metrics": metrics},
                  fh, indent=1)
    print(json.dumps(record))
    result = {"correct": correct, "attempted": len(times), "failed": len(failures),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".flops"):
        return "flop"
    if name.endswith(".bytes_written"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker is not None:
        return worker(args)
    codes = []
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            codes.append(parent(argparse.Namespace(**{**vars(args), "workload": name})))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            codes.append(3)
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())

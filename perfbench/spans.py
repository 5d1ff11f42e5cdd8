"""In-memory span tracer that wraps fracmle's public names from the outside.

Every wrapped call records a span (name, start, end, parent span, op id); a
span's self time is its duration minus the time covered by its child spans,
so the self times of all spans of one op add up to the op's duration. Spans
stay in memory and are written out once, when the run ends.

Functions are replaced at every fracmle module attribute that refers to them
(their import sites, e.g. ``fracmle.likelihood.fgn_from_normals``), methods
on their class (``AdditiveKernels.gaussians`` is also reached from inside
``weight_values``). A name the program no longer defines, or no longer
calls, simply reports zero calls.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict


_signature = functools.cache(inspect.signature)


def _bound(fn, args, kwargs) -> dict:
    return _signature(fn).bind(*args, **kwargs).arguments


def _fgn_counts(fn, args, kwargs, result):
    z = _bound(fn, args, kwargs)["z"]
    return {"paths": z.shape[0] if z.ndim >= 3 else 1}


def _euler_counts(fn, args, kwargs, result):
    n, _, steps = _bound(fn, args, kwargs)["increments"].shape
    return {"steps": n * steps}


def _gauss_flops(fn, args, kwargs, result):
    # one multiply-add per (path, output, cell, noise component)
    b = _bound(fn, args, kwargs)
    d = b["increments"].shape[1]
    per_path = int(result[0].size) if result.shape[0] else 0
    return {"flops": 2 * result.shape[0] * per_path * d * int(b["t"])}


def _score_counts(fn, args, kwargs, result):
    return {"used": int(result.used.sum()), "observations": int(result.used.size)}


def _cli_bytes(fn, args, kwargs, result):
    outdir = _bound(fn, args, kwargs)["outdir"]
    return {"bytes_written": sum(os.path.getsize(os.path.join(outdir, f))
                                 for f in os.listdir(outdir))}


# (module, public name, class method or None, count hook)
TARGETS = [
    ("fbm", "fgn_from_normals", None, _fgn_counts),
    ("pathwise", "euler_solve_batch", None, _euler_counts),
    ("malliavin", "theta_gradient_batch", None, None),
    ("malliavin", "AdditiveKernels", "__init__", None),
    ("malliavin", "AdditiveKernels", "gaussians", _gauss_flops),
    ("malliavin", "AdditiveKernels", "grad_gaussians", _gauss_flops),
    ("malliavin", "AdditiveKernels", "weight_values", None),
    ("malliavin", "AdditiveKernels", "grad_weight_values", None),
    ("likelihood", "score", None, _score_counts),
    ("likelihood", "estimate_density", None, None),
    ("estimator", "robbins_monro", None, None),
    ("estimator", "moment_start", None, None),
    ("cli", "cmd_estimate", None, _cli_bytes),
]


def _replace(modules, original, replacement) -> None:
    """Point every module attribute that refers to `original` at `replacement`."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def span_name(module: str, name: str, method: str | None) -> str:
    if method is None or method == "__init__":
        return f"{module}.{name}"
    return f"{module}.{method}"


class Tracer:
    """Span recorder; `install` wraps the targets, `op` opens an op's root span."""

    def __init__(self):
        self.spans: list = []
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.hook_errors = 0
        self.op_seconds: list = []
        self._stack: list = []
        self._op = -1

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0, len(self.spans),
                 self._stack[-1][3] if self._stack else None]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, index, parent = frame
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.spans[index] = (name, start, end, parent, self._op)

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                self._leave(frame)
            if hook is not None:
                try:
                    for key, value in hook(fn, args, kwargs, result).items():
                        self.counts[f"{name}.{key}"] += value
                except (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError):
                    self.hook_errors += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def op(self, fn, *args, **kwargs):
        """Run one benchmark op under a root span named "op" and return its result."""
        self._op += 1
        frame = self._enter("op")
        try:
            return fn(*args, **kwargs)
        finally:
            self._leave(frame)
            name, start, end, _, _ = self.spans[frame[3]]
            self.op_seconds.append(end - start)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "fracmle" or k.startswith("fracmle."))]
        for module, name, method, hook in TARGETS:
            owner = sys.modules.get(f"fracmle.{module}")
            original = getattr(owner, name, None)
            if original is None:
                continue
            label = span_name(module, name, method)
            if method is not None:
                fn = original.__dict__.get(method)
                if fn is not None:
                    setattr(original, method, self.wrap(label, fn, hook))
                continue
            _replace(modules, original, self.wrap(label, original, hook))
        get_model = getattr(sys.modules.get("fracmle.models"), "get_model", None)
        if get_model is not None:
            _replace(modules, get_model, lambda *a, **k: self.counted_model(get_model(*a, **k)))

    def counted_model(self, spec):
        """Copy of a ModelSpec whose coefficient callables count their calls."""
        def counted(fn):
            def call(*args, **kwargs):
                self.counts["models.coeff_calls"] += 1
                return fn(*args, **kwargs)
            return call

        fields = {f.name: counted(getattr(spec, f.name)) for f in dataclasses.fields(spec)
                  if callable(getattr(spec, f.name))}
        return dataclasses.replace(spec, **fields)

    # -- read-out ----------------------------------------------------------

    def per_layer(self) -> dict:
        """Per-op means of calls, self time and counts, keyed by metric name."""
        n_ops = max(len(self.op_seconds), 1)
        out = {}
        for module, name, method, hook in TARGETS:
            label = span_name(module, name, method)
            out[f"{label}.calls"] = self.calls[label] / n_ops
            out[f"{label}.self_s"] = self.self_s[label] / n_ops
        for key in ("fbm.fgn_from_normals.paths", "pathwise.euler_solve_batch.steps",
                    "malliavin.gaussians.flops", "malliavin.grad_gaussians.flops",
                    "cli.cmd_estimate.bytes_written", "models.coeff_calls"):
            out[key] = self.counts[key] / n_ops
        obs = self.counts["likelihood.score.observations"]
        out["likelihood.used_ratio"] = self.counts["likelihood.score.used"] / obs if obs else 0.0
        out["estimator.score_failures"] = self.counts["likelihood.score.raised"] / n_ops
        out["trace.op_s"] = sum(self.op_seconds) / n_ops
        out["trace.remainder_s"] = self.self_s["op"] / n_ops
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")

"""Spans around the program's layer boundaries, recorded from outside it.

``Tracer.install`` replaces the module attributes that callers look up
(``problems.build``, ``harness.run_experiment``, ...) with wrappers that
record a span per call; the objective callables and the ravine retraction
of every built bundle are wrapped the same way.  A span is
``(op, id, parent, name, tag, start, end)``; the spans of one CLI operation
share ``op``.  ``layer_metrics`` turns one rep's spans into the per-layer
metrics, in raw seconds and microseconds.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

RUN_CHECKS = ("ravine", "aiming", "growth", "lojasiewicz", "gradcontrol", "rip")

# name -> unit of every per-layer metric the benchmark reports.
LAYER_UNITS = {
    "problems.both_us": "us", "problems.both_calls": "count",
    "problems.eval_us": "us", "problems.eval_calls": "count",
    "problems.grad_us": "us", "problems.grad_calls": "count",
    "problems.build_s": "s", "problems.instance_mb": "MB",
    "opt_core.self_us_per_eval": "us", "opt_core.grad_evals": "count",
    "opt_core.func_evals": "count", "opt_core.polyak_skip_frac": "ratio",
    "opt_core.aborted_rounds": "count",
    "harness.oracle_us": "us", "harness.oracle_calls": "count",
    "harness.csv_s": "s", "harness.write_s": "s",
    "harness.bytes_written": "bytes",
    **{f"ravine.{check}_s": "s" for check in RUN_CHECKS},
    "ravine.retract_us": "us", "ravine.retract_calls": "count",
    "ravine.skip_frac": "ratio",
    "morse.solve_s": "s", "morse.grad_calls": "count",
    "cli.import_s": "s",
    "bench.ref_s": "s", "bench.raw_wall_s": "s", "bench.trace_overhead": "ratio",
}


def instance_bytes(obj) -> int:
    """Bytes held in numpy arrays by an instance, following nested dataclasses."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(instance_bytes(getattr(obj, f.name))
                   for f in dataclasses.fields(obj))
    return 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = 0
        self.instance_bytes = []
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, tag=None):
        """``fn`` recording a span per call; ``tag(args, kwargs)`` labels it."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                label = tag(args, kwargs) if tag else ""
                spans[sid] = (self.op, sid, parent, name, label, start, end)

        return traced

    def _patch(self, module, attr, wrapper):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self, problems, harness, cli):
        build = problems.build

        def traced_build(*args, **kwargs):
            bundle = build(*args, **kwargs)
            self.instance_bytes.append(instance_bytes(bundle.instance))
            obj = bundle.objective
            wrapped = {f: self.wrap(f"problems.{f}", getattr(obj, f))
                       for f in ("eval", "grad", "value_and_grad",
                                 "dist_solution")
                       if getattr(obj, f) is not None}
            bundle.objective = dataclasses.replace(obj, **wrapped)
            if bundle.descriptor is not None:
                bundle.descriptor = dataclasses.replace(
                    bundle.descriptor,
                    retract=self.wrap("ravine.retract",
                                      bundle.descriptor.retract))
            return bundle

        self._patch(problems, "build", self.wrap("problems.build", traced_build))
        self._patch(problems, "sample_init",
                    self.wrap("problems.sample_init", problems.sample_init))
        run_experiment = self.wrap("harness.run_experiment",
                                   harness.run_experiment)
        self._patch(harness, "run_experiment", run_experiment)
        self._patch(cli, "run_experiment", run_experiment)
        self._patch(harness, "_write_run",
                    self.wrap("harness.write_run", harness._write_run))
        self._patch(harness, "trace_to_csv",
                    self.wrap("harness.trace_to_csv", harness.trace_to_csv))
        self._patch(harness, "run_check", self.wrap(
            "harness.run_check", harness.run_check,
            tag=lambda a, k: k.get("check", a[1] if len(a) > 1 else "")))
        morse_solve = harness.morse_ravine_solve

        def traced_morse(*args, **kwargs):
            solver = morse_solve(*args, **kwargs)
            solver.solve = self.wrap("morse.solve", solver.solve)
            return solver

        morse = self.wrap("morse.build", traced_morse)
        self._patch(harness, "morse_ravine_solve", morse)
        self._patch(cli, "morse_ravine_solve", morse)

    def remove(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def layer_metrics(spans, inst_bytes, stats) -> dict:
    """Per-layer metrics of one rep from its spans and its files' counts.

    A layer's self time is its span's duration minus its children's; the
    spans of a single-threaded run nest, so children never overlap.
    """
    parent = {s[1]: s[2] for s in spans}
    names = {s[1]: s[3] for s in spans}
    child_s = {}
    for s in spans:
        child_s[s[2]] = child_s.get(s[2], 0.0) + s[6] - s[5]

    def under(sid, prefix):
        sid = parent[sid]
        while sid != -1:
            if names[sid].startswith(prefix):
                return True
            sid = parent[sid]
        return False

    def calls_and_us(selected):
        durs = [s[6] - s[5] for s in selected]
        return len(durs), (1e6 * sum(durs) / len(durs) if durs else 0.0)

    def named(name):
        return [s for s in spans if s[3] == name]

    out = {}
    for short, name in (("both", "problems.value_and_grad"),
                        ("eval", "problems.eval"), ("grad", "problems.grad")):
        n, us = calls_and_us(named(name))
        out[f"problems.{short}_calls"], out[f"problems.{short}_us"] = n, us
    out["problems.build_s"] = sum(s[6] - s[5] for s in named("problems.build"))
    out["problems.instance_mb"] = max(inst_bytes, default=0) / 1e6

    runs = named("harness.run_experiment")
    run_evals = sum(1 for s in named("problems.value_and_grad")
                    if under(s[1], "harness.run_experiment"))
    engine_s = sum(s[6] - s[5] - child_s.get(s[1], 0.0) for s in runs)
    out["opt_core.self_us_per_eval"] = (1e6 * engine_s / run_evals
                                        if run_evals else 0.0)
    out["opt_core.grad_evals"] = stats["grad_evals"]
    out["opt_core.func_evals"] = stats["func_evals"]
    out["opt_core.polyak_skip_frac"] = (
        stats["polyak_skipped"] / stats["polyak_steps"]
        if stats["polyak_steps"] else 0.0)
    out["opt_core.aborted_rounds"] = stats["aborted_rounds"]

    oracles = [s for s in spans
               if s[3] in ("problems.dist_solution", "ravine.retract")
               and under(s[1], "harness.run_experiment")]
    out["harness.oracle_calls"], out["harness.oracle_us"] = calls_and_us(oracles)
    out["harness.csv_s"] = sum(s[6] - s[5] for s in named("harness.trace_to_csv"))
    out["harness.write_s"] = sum(s[6] - s[5] - child_s.get(s[1], 0.0)
                                 for s in named("harness.write_run"))
    out["harness.bytes_written"] = stats["bytes_written"]

    checks = named("harness.run_check")
    for check in RUN_CHECKS:
        out[f"ravine.{check}_s"] = sum(s[6] - s[5] for s in checks
                                       if s[4] == check)
    retracts = [s for s in named("ravine.retract")
                if not under(s[1], "harness.run_experiment")]
    out["ravine.retract_calls"], out["ravine.retract_us"] = calls_and_us(retracts)
    tried = stats["diag_tested"] + stats["diag_skipped"]
    out["ravine.skip_frac"] = stats["diag_skipped"] / tried if tried else 0.0

    out["morse.solve_s"] = sum(s[6] - s[5] for s in spans
                               if s[3].startswith("morse.")
                               and not under(s[1], "morse."))
    out["morse.grad_calls"] = sum(1 for s in named("problems.grad")
                                  if under(s[1], "morse."))
    return out

"""Experiment harness: configs, runs, comparisons, rate fits, diagnostics.

One experiment run is fully described by an :class:`ExperimentConfig` and
is deterministic given it.  ``run_experiment`` writes a per-run directory
with ``config.json``, ``trace.csv`` and ``manifest.json``; ``diagnose``
writes one JSON report per requested check under ``reports/``.  What
differs between problems (parameters, supported checks, brackets, Morse
grid) is read from ``problems.PROBLEMS`` and the built bundle.  Every
command's input passes ``check_input`` before any work starts.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Optional

import numpy as np

from . import problems
from .errors import ConfigInvalid, InsufficientData, UnsupportedCheck
from .morse import morse_ravine_solve, tangent_grid
from .objective import row_norms
from .opt_core import (
    RunTrace,
    gd_baseline,
    gdpolyak,
    gdpolyak_lb,
    polyak_baseline,
)
from .problems.spec import (
    NONNEGATIVE, NONNEGATIVE_REAL, POSITIVE, POSITIVE_REAL, REAL, optional,
    rule_errors)
from .ravine import (
    DiagnosticsReport,
    check_aiming,
    check_gradient_control,
    check_growth_exponent,
    check_lojasiewicz,
    check_ravine_quadratic,
    measure_rip,
)

METHODS = ("gd", "polyak", "gdpolyak", "gdpolyak_lb")

CSV_HEADER = "iter,epoch,kind,value_gap,grad_norm,stepsize,dist_solution,dist_ravine"

# Gaps at or below this floor count as numerically converged and are
# excluded from log-linear rate fits.
GAP_FLOOR = 1e-30

ALL_CHECKS = ("ravine", "aiming", "growth", "lojasiewicz", "gradcontrol",
              "morse", "rip")

# The rule of every user-set field of run, compare, diagnose and morse;
# problem parameters follow their problem's SPEC.
FIELD_RULES = {
    "method": (lambda v: v in METHODS, f"one of {', '.join(METHODS)}"),
    "eta": NONNEGATIVE_REAL, "K": POSITIVE, "I": POSITIVE,
    "J": optional(POSITIVE), "f_lb": optional(REAL),
    "init_radius": POSITIVE_REAL, "seed": NONNEGATIVE,
    "out_dir": optional((lambda v: isinstance(v, (str, os.PathLike)),
                         "a path string")),
    "record_distances": (lambda v: isinstance(v, bool), "a boolean"),
    "samples": POSITIVE, "radius": POSITIVE_REAL, "tol": POSITIVE_REAL,
}


def check_input(problem, problem_params, cross=(), **fields):
    """The one input gate: raise :class:`ConfigInvalid` with every message
    for the problem, its parameters, each field judged by ``FIELD_RULES``
    and ``cross``, from rules that tie fields together."""
    errors = (problems.param_errors(problem, problem_params)
              + rule_errors(fields, FIELD_RULES) + list(cross))
    if errors:
        raise ConfigInvalid(errors)


@dataclass
class ExperimentConfig:
    """Full description of one reproducible run."""

    problem: str
    method: str = "gdpolyak"
    eta: float = 0.01
    K: int = 100
    I: int = 50
    J: Optional[int] = None
    f_lb: Optional[float] = None
    init_radius: float = 0.5
    seed: int = 0
    out_dir: Optional[str] = None
    record_distances: bool = False
    problem_params: dict = field(default_factory=dict)

    def validate(self):
        fields = dict(vars(self))
        # gdpolyak_lb needs J and f_lb; no other method takes them.
        lb = self.method == "gdpolyak_lb"
        cross = [f"{name}: required for gdpolyak_lb" if lb else
                 f"{name}: only valid for gdpolyak_lb, got {fields[name]!r}"
                 for name in ("J", "f_lb") if (fields[name] is None) == lb]
        check_input(fields.pop("problem"), fields.pop("problem_params"),
                    cross=cross, **fields)
        return self

    def to_dict(self) -> dict:
        d = asdict(self)
        d["out_dir"] = None if self.out_dir is None else str(self.out_dir)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        errors = []
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            errors.append(f"unknown config keys: {sorted(unknown)}")
        if "problem" not in data:
            errors.append("problem: required")
        if errors:
            raise ConfigInvalid(errors)
        return cls(**data)


@dataclass
class ComparisonTable:
    """Per-method summary rows over one shared instance and init point."""

    rows: list

    COLUMNS = ("method", "final_gap", "best_gap", "grad_evals", "slope", "r2")

    def to_csv(self) -> str:
        lines = [",".join(self.COLUMNS)]
        for row in self.rows:
            lines.append(",".join(_format_cell(row[c]) for c in self.COLUMNS))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        widths = {c: max(len(c), 12) for c in self.COLUMNS}
        head = "  ".join(c.ljust(widths[c]) for c in self.COLUMNS)
        lines = [head, "-" * len(head)]
        for row in self.rows:
            lines.append("  ".join(
                _format_cell(row[c]).ljust(widths[c]) for c in self.COLUMNS))
        return "\n".join(lines) + "\n"


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def trace_to_csv(trace: RunTrace) -> str:
    """Render a trace with the stable eight-column schema."""
    columns = (trace.iter, trace.epoch, trace.kind, trace.value_gap,
               trace.grad_norm, trace.stepsize, trace.dist_solution,
               trace.dist_ravine)
    # Floats at 17 significant digits; an unrecorded column stays empty.
    row = ",".join("" if c is None else "%.17g" if c.dtype.kind == "f"
                   else "%s" for c in columns) + "\n"
    # One %-format: the row template repeated over the flat tuple of cells.
    cells = tuple(chain.from_iterable(
        zip(*(c.tolist() for c in columns if c is not None))))
    return CSV_HEADER + "\n" + row * len(trace.iter) % cells


def _dispatch(config: ExperimentConfig, bundle, x0) -> RunTrace:
    obj = bundle.objective
    dist_solution = dist_ravine = None
    if config.record_distances:
        dist_solution = obj.dist_rows
        if bundle.descriptor is not None:
            retract_rows = bundle.descriptor.retract_rows
            dist_ravine = lambda X: row_norms(X - retract_rows(X))  # noqa: E731
    if config.method == "gd":
        return gd_baseline(x0, config.eta, config.K, config.I, obj,
                           dist_solution=dist_solution, dist_ravine=dist_ravine)
    if config.method == "polyak":
        return polyak_baseline(x0, config.K, config.I, obj,
                               dist_solution=dist_solution,
                               dist_ravine=dist_ravine)
    if config.method == "gdpolyak":
        return gdpolyak(x0, config.eta, config.K, config.I, obj,
                        dist_solution=dist_solution, dist_ravine=dist_ravine)
    return gdpolyak_lb(x0, config.eta, config.K, config.I, config.J,
                       config.f_lb, obj, dist_solution=dist_solution,
                       dist_ravine=dist_ravine)


def run_experiment(config: ExperimentConfig) -> RunTrace:
    """Build the instance, sample the init, run the method, persist files.

    Deterministic per config.  With ``out_dir`` unset the trace is returned
    without touching the filesystem.
    """
    config.validate()
    bundle = problems.build(config.problem, config.problem_params)
    x0 = problems.sample_init(bundle, config.init_radius, config.seed)
    trace = _dispatch(config, bundle, x0)
    if config.out_dir is not None:
        _write_run(config, trace)
    return trace


def _write_run(config: ExperimentConfig, trace: RunTrace):
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(
        json.dumps(config.to_dict(), indent=2) + "\n", encoding="utf-8")
    (out / "trace.csv").write_text(trace_to_csv(trace), encoding="utf-8",
                                   newline="\n")
    manifest = {
        "config": config.to_dict(),
        "grad_evals": trace.grad_evals,
        "func_evals": trace.func_evals,
        "best_value": trace.best_value,
        "best_gap": trace.best_value - trace.f_reference,
        "final_gap": float(trace.epoch_end_gaps[-1]),
        "x_out": np.asarray(trace.x_out).ravel().tolist(),
        "aborted_rounds": trace.aborted_rounds,
    }
    if trace.f_estimates is not None:
        manifest["f_estimates"] = trace.f_estimates.tolist()
        manifest["round_values"] = trace.round_values.tolist()
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def fit_linear_rate(trace: RunTrace, burn_in: int = 5):
    """Least-squares slope and R^2 of log epoch gaps versus epoch index.

    Fits the value gaps at the end of each epoch's short-step phase (for
    the baselines, at block ends), from epoch ``burn_in`` on.  Gaps at or
    below 1e-30 count as converged and are dropped.  Raises
    :class:`InsufficientData` with fewer than 5 usable records.
    """
    gaps = np.asarray(trace.epoch_phase_gaps, dtype=float)
    idx = np.arange(1, gaps.size + 1)
    keep = (idx >= max(burn_in, 1)) & (gaps > GAP_FLOOR)
    if keep.sum() < 5:
        raise InsufficientData(
            f"only {int(keep.sum())} usable epoch records after burn-in")
    x = idx[keep].astype(float)
    y = np.log(gaps[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return float(slope), float(r2)


def compare_methods(config: ExperimentConfig) -> ComparisonTable:
    """Run gd, polyak and gdpolyak (plus gdpolyak_lb when J and f_lb are set)
    from one init point.

    The three mandatory methods share the gradient budget I*(K+1) exactly;
    the lower-bound variant runs its own J*I*(K+1) budget, visible in the
    instrumented count column.  Files are written when out_dir is set.
    Either of J and f_lb without the other is rejected as gdpolyak_lb's.
    """
    configs = [replace(config, method=method, J=None, f_lb=None)
               for method in ("gd", "polyak", "gdpolyak")]
    if config.J is not None or config.f_lb is not None:
        configs.append(replace(config, method="gdpolyak_lb"))
    # Every config before the first run; the last holds every field the
    # others hold, so its errors come first and in full.
    for cfg in reversed(configs):
        cfg.validate()
    rows = []
    for cfg in configs:
        if config.out_dir is not None:
            cfg.out_dir = str(Path(config.out_dir) / cfg.method)
        trace = run_experiment(cfg)
        try:
            slope, r2 = fit_linear_rate(trace)
        except InsufficientData:
            slope, r2 = None, None
        rows.append({
            "method": cfg.method,
            "final_gap": float(trace.epoch_end_gaps[-1]),
            "best_gap": trace.best_value - trace.f_reference,
            "grad_evals": trace.grad_evals,
            "slope": slope,
            "r2": r2,
        })
    table = ComparisonTable(rows)
    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "comparison.csv").write_text(table.to_csv(), encoding="utf-8")
        (out / "comparison.txt").write_text(table.to_text(), encoding="utf-8")
    return table


def run_check(bundle, check: str, n_samples: int, radius: float,
              seed: int) -> DiagnosticsReport:
    """Run one named diagnostic on a bundle; ``diagnose`` checks first
    that the bundle's problem supports it."""
    obj = bundle.objective
    rav = bundle.descriptor
    if check == "ravine":
        lo, hi = bundle.ravine_bracket
        return check_ravine_quadratic(obj, rav, n_samples, radius, seed,
                                      lower_bracket=lo, upper_bracket=hi)
    if check == "aiming":
        return check_aiming(obj, rav, n_samples, radius, seed)
    if check == "growth":
        grid = np.geomspace(radius / 30.0, radius, 4)
        return check_growth_exponent(obj, rav, n_samples, grid, seed,
                                     exact_bracket=bundle.growth_bracket)
    if check == "lojasiewicz":
        return check_lojasiewicz(
            obj, obj.p_growth, n_samples, radius, seed,
            sample_solution=bundle.sample_solution,
            retract=rav.retract)
    if check == "gradcontrol":
        return check_gradient_control(obj, rav, n_samples, radius, seed)
    if check == "morse":
        spec = bundle.spec.morse
        solver = morse_ravine_solve(obj, bundle.base_solution, tol=1e-12,
                                    max_iter=50)
        grid = tangent_grid(*spec.grid)
        errs = [spec.residual(solver.point(np.array([u]))) for u in grid]
        worst = max(errs)
        return DiagnosticsReport(
            check="morse", samples_tested=len(errs), skipped=0,
            measured_lower=min(errs), measured_upper=worst,
            passed=bool(worst <= spec.tolerance),
            extras={"grid": [float(u) for u in grid],
                    "tolerance": spec.tolerance})
    if check == "rip":
        inst = bundle.instance
        # BB^T - X has rank at most k + r, and never more than d.
        rank_l = min(inst.fac.k + inst.fac.r, inst.fac.d)
        delta = measure_rip(inst, rank_l, trials=n_samples, seed=seed)
        return DiagnosticsReport(
            check="rip", samples_tested=n_samples, skipped=0,
            measured_lower=delta, measured_upper=delta,
            passed=bool(delta < 0.5),
            extras={"rank_l": rank_l, "threshold": 0.5})
    raise UnsupportedCheck([f"suite: unknown check {check!r}"])


def diagnose(problem: str, suite, n_samples: int = 200, radius: float = 0.05,
             seed: int = 0, out_dir: Optional[str] = None,
             problem_params: Optional[dict] = None):
    """Run a suite of checks; returns (all_passed, {check: report}).

    Writes one JSON report per check under ``out_dir/reports`` when an
    output directory is given.  Bad input raises :class:`ConfigInvalid`
    (:class:`UnsupportedCheck` for a check) before any work starts.
    """
    suite = list(suite)
    check_input(problem, problem_params,
                cross=[] if suite else ["suite: must name a check"],
                samples=n_samples, radius=radius, seed=seed, out_dir=out_dir)
    supported = problems.PROBLEMS[problem].SPEC.checks
    unsupported = [check for check in suite if check not in supported]
    if unsupported:
        raise UnsupportedCheck([f"suite: {problem} does not support "
                                f"{unsupported}; it supports "
                                f"{[c for c in ALL_CHECKS if c in supported]}"])
    bundle = problems.build(problem, problem_params)
    reports = {}
    for check in suite:
        reports[check] = run_check(bundle, check, n_samples, radius, seed)
    if out_dir is not None:
        rep_dir = Path(out_dir) / "reports"
        rep_dir.mkdir(parents=True, exist_ok=True)
        for check, report in reports.items():
            (rep_dir / f"{check}.json").write_text(
                report.to_json(indent=2) + "\n", encoding="utf-8")
    return all(r.passed for r in reports.values()), reports

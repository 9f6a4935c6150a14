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
from .errors import (
    NONNEGATIVE, NONNEGATIVE_REAL, POSITIVE, POSITIVE_REAL, REAL,
    ConfigInvalid, InsufficientData, UnsupportedCheck, check_args, optional,
    rule_errors)
from .morse import morse_ravine_solve
from .objective import row_norms
from .opt_core import (
    OVERFLOW_IS_DATA,
    RunTrace,
    gd_baseline,
    gdpolyak,
    gdpolyak_lb,
    polyak_baseline,
    target_above,
)
from .ravine import (
    DiagnosticsReport,
    SampleStream,
    check_aiming,
    check_gradient_control,
    check_growth_exponent,
    check_lojasiewicz,
    check_ravine_quadratic,
    measure_rip,
)

# Each method's runner and the config fields it takes between the init
# point and the objective.
_RUNNERS = {
    "gd": lambda c: (gd_baseline, c.eta, c.K, c.I),
    "polyak": lambda c: (polyak_baseline, c.K, c.I),
    "gdpolyak": lambda c: (gdpolyak, c.eta, c.K, c.I),
    "gdpolyak_lb": lambda c: (gdpolyak_lb, c.eta, c.K, c.I, c.J, c.f_lb),
}

METHODS = tuple(_RUNNERS)

CSV_HEADER = "iter,epoch,kind,value_gap,grad_norm,stepsize,dist_solution,dist_ravine"

# Trace rows per write of ``trace_to_csv``.
CSV_BLOCK = 1024

# Gaps at or below this floor count as numerically converged and are
# excluded from log-linear rate fits.
GAP_FLOOR = 1e-30

ALL_CHECKS = ("ravine", "aiming", "growth", "lojasiewicz", "gradcontrol",
              "morse", "rip")

# The rule of every user-set field of run, compare and diagnose; problem
# parameters, which morse takes too, follow their problem's SPEC.
FIELD_RULES = {
    "method": (lambda v: v in METHODS, f"one of {', '.join(METHODS)}"),
    "eta": NONNEGATIVE_REAL, "K": POSITIVE, "I": POSITIVE,
    "J": optional(POSITIVE), "f_lb": optional(REAL),
    "init_radius": POSITIVE_REAL, "seed": NONNEGATIVE,
    "out_dir": optional((lambda v: isinstance(v, (str, os.PathLike)),
                         "a path string")),
    "record_distances": (lambda v: isinstance(v, bool), "a boolean"),
    "samples": POSITIVE, "radius": POSITIVE_REAL,
    "suite": (lambda v: isinstance(v, list) and len(v) > 0
              and all(isinstance(check, str) for check in v),
              "a non-empty list of check names"),
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


COMPARISON_COLUMNS = ("method", "final_gap", "best_gap", "grad_evals",
                      "slope", "r2")


def _comparison_cells(rows):
    """The header and each row's cells: an unset value is empty and a float
    has 17 significant digits."""
    header = dict(zip(COMPARISON_COLUMNS, COMPARISON_COLUMNS))
    return [["" if v is None else f"{v:.17g}" if isinstance(v, float)
             else str(v) for v in (row[c] for c in COMPARISON_COLUMNS)]
            for row in [header, *rows]]


def comparison_csv(rows) -> str:
    """The compare rows as CSV, one line per method under a header."""
    return "".join(",".join(cells) + "\n" for cells in _comparison_cells(rows))


def comparison_text(rows) -> str:
    """The compare rows as a table of 12-wide columns, header underlined."""
    head, *body = ["  ".join(cell.ljust(12) for cell in cells)
                   for cells in _comparison_cells(rows)]
    return "\n".join([head, "-" * len(head), *body]) + "\n"


def trace_to_csv(trace: RunTrace, out) -> None:
    """Write a trace with the stable eight-column schema to the text
    stream ``out``: the header, then the rows ``CSV_BLOCK`` at a time, so
    the text and cells held at once stay one block's whatever the trace's
    length.

    Floats take 17 significant digits.  Within a block, a numeric column
    with fewer runs of equal cells than half the block's rows formats each
    run once and repeats its text; equal bits give equal text, so the
    output is the same as formatting every cell.
    """
    columns = (trace.iter, trace.epoch, trace.kind, trace.value_gap,
               trace.grad_norm, trace.stepsize, trace.dist_solution,
               trace.dist_ravine)
    # An unrecorded column stays empty.
    formats = ["" if c is None else "%.17g" if c.dtype.kind == "f" else "%s"
               for c in columns]
    recorded = [i for i, c in enumerate(columns) if c is not None]
    out.write(CSV_HEADER + "\n")
    for lo in range(0, len(trace.iter), CSV_BLOCK):
        # One %-format per block: the block's row template repeated over
        # the flat tuple of its cells; a column given as texts takes %s.
        block, row = [], list(formats)
        for i in recorded:
            cells = columns[i][lo:lo + CSV_BLOCK]
            texts = _run_texts(cells, formats[i])
            if texts is None:
                block.append(cells.tolist())
            else:
                block.append(texts)
                row[i] = "%s"
        cells = tuple(chain.from_iterable(zip(*block)))
        out.write((",".join(row) + "\n") * len(block[0]) % cells)


def _run_texts(cells, fmt):
    """The text of each cell of a numeric column, each run of equal bit
    patterns formatted once with ``fmt``; None when the column is not
    numeric or has at least half as many runs as cells."""
    if cells.dtype.kind not in "iuf":
        return None
    bits = cells.view(f"i{cells.itemsize}")
    starts = np.empty(len(bits), dtype=bool)
    starts[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    firsts = np.flatnonzero(starts)
    if 2 * len(firsts) >= len(bits):
        return None
    texts = np.array([fmt % v for v in cells[firsts].tolist()], dtype=object)
    return texts[np.cumsum(starts) - 1].tolist()


def _dispatch(config: ExperimentConfig, bundle, x0) -> RunTrace:
    obj = bundle.objective
    dist_solution = dist_ravine = None
    if config.record_distances:
        dist_solution = obj.dist_rows
        if bundle.descriptor is not None:
            retract_rows = bundle.descriptor.retract_rows
            dist_ravine = lambda X: row_norms(X - retract_rows(X))  # noqa: E731
    runner, *args = _RUNNERS[config.method](config)
    return runner(x0, *args, obj, dist_solution=dist_solution,
                  dist_ravine=dist_ravine)


def _instance(config: ExperimentConfig):
    """The bundle and init point of a valid config.  A gdpolyak_lb lower
    bound above f(x0), by the rule of ``opt_core.target_above``, raises
    :class:`ConfigInvalid`: the method cannot start from it."""
    bundle = problems.build(config.problem, config.problem_params)
    x0 = problems.sample_init(bundle, config.init_radius, config.seed)
    if config.method == "gdpolyak_lb":
        f_lb = float(config.f_lb)
        with np.errstate(**OVERFLOW_IS_DATA):
            fx0 = float(bundle.objective.eval(x0))
        if target_above(f_lb, fx0):
            raise ConfigInvalid([f"f_lb: {f_lb} exceeds f(x0) = {fx0}"])
    return bundle, x0


def run_experiment(config: ExperimentConfig) -> RunTrace:
    """Build the instance, sample the init, run the method, persist files.

    Deterministic per config.  With ``out_dir`` unset the trace is returned
    without touching the filesystem.
    """
    config.validate()
    bundle, x0 = _instance(config)
    trace = _dispatch(config, bundle, x0)
    if config.out_dir is not None:
        _write_run(config, trace)
    return trace


def run_summary(trace: RunTrace) -> dict:
    """The result facts of one run: its manifest without ``config``, and
    the middle of its compare row, between ``method`` and the rate fit."""
    summary = {
        "grad_evals": trace.grad_evals,
        "func_evals": trace.func_evals,
        "best_value": trace.best_value,
        "best_gap": trace.best_value - trace.f_reference,
        "final_gap": float(trace.epoch_end_gaps[-1]),
        "x_out": np.asarray(trace.x_out).ravel().tolist(),
        "aborted_rounds": trace.aborted_rounds,
    }
    if trace.f_estimates is not None:
        summary["f_estimates"] = trace.f_estimates.tolist()
        summary["round_values"] = trace.round_values.tolist()
    return summary


def _write_run(config: ExperimentConfig, trace: RunTrace):
    """Write ``config.json``, ``trace.csv`` and ``manifest.json`` under
    ``config.out_dir``; ``trace.csv`` streams into the open file through
    ``trace_to_csv``."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(
        json.dumps(config.to_dict(), indent=2) + "\n", encoding="utf-8")
    with open(out / "trace.csv", "w", encoding="utf-8", newline="\n") as f:
        trace_to_csv(trace, f)
    manifest = {"config": config.to_dict(), **run_summary(trace)}
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def fit_linear_rate(trace: RunTrace, burn_in: int = 5):
    """Least-squares slope and R^2 of log epoch gaps versus epoch index.

    Fits the value gaps at the end of each epoch's short-step phase (for
    the baselines, at block ends), from epoch ``burn_in`` on (0 means from
    epoch 1).  Gaps at or below 1e-30 count as converged and are dropped.
    Raises ValueError when ``burn_in`` is not an integer >= 0, and
    :class:`InsufficientData` with fewer than 5 usable records.
    """
    check_args(burn_in=(burn_in, NONNEGATIVE))
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


def compare_methods(config: ExperimentConfig) -> list:
    """Run gd, polyak and gdpolyak (plus gdpolyak_lb when J and f_lb are set)
    from one init point; returns one row per method, its ``run_summary``
    between ``method`` and the rate fit's ``slope`` and ``r2``.

    The three mandatory methods share the gradient budget I*(K+1) exactly;
    the lower-bound variant runs its own J*I*(K+1) budget, visible in the
    instrumented count column.  Files are written when out_dir is set.
    Either of J and f_lb without the other is rejected as gdpolyak_lb's.
    """
    configs = [replace(config, method=method, J=None, f_lb=None)
               for method in ("gd", "polyak", "gdpolyak")]
    if config.J is not None or config.f_lb is not None:
        configs.append(replace(config, method="gdpolyak_lb"))
    # A lower bound is checked against f(x0) before the first run too.
    configs[-1].validate()
    if configs[-1].method == "gdpolyak_lb":
        _instance(configs[-1])
    rows = []
    for cfg in configs:
        if config.out_dir is not None:
            cfg.out_dir = str(Path(config.out_dir) / cfg.method)
        trace = run_experiment(cfg)
        try:
            slope, r2 = fit_linear_rate(trace)
        except InsufficientData:
            slope, r2 = None, None
        rows.append({"method": cfg.method, **run_summary(trace),
                     "slope": slope, "r2": r2})
    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "comparison.csv").write_text(comparison_csv(rows),
                                            encoding="utf-8")
        (out / "comparison.txt").write_text(comparison_text(rows),
                                            encoding="utf-8")
    return rows


def trace_morse(bundle) -> list:
    """One row ``{"u", "point", <spec.output>: residual}`` per point of
    the bundle's ``MorseSpec`` grid, its end kept within half a step, each
    traced from the base solution; ``morse_ravine_solve`` is looked up
    here at each call, since the perfbench tracer replaces it."""
    spec = bundle.spec.morse
    solver = morse_ravine_solve(bundle.objective, bundle.base_solution)
    start, stop, step = spec.grid
    rows = []
    for u in np.arange(start, stop + step / 2.0, step).tolist():
        point = solver.point(np.array([u]))
        rows.append({"u": u, "point": point.tolist(),
                     spec.output: spec.residual(point)})
    return rows


def run_check(bundle, check: str, n_samples: int, radius: float,
              seed: int, stream: Optional[SampleStream] = None
              ) -> DiagnosticsReport:
    """Run one named diagnostic on a bundle; ``diagnose`` checks first
    that the bundle's problem supports it.

    A cloud check reads its samples from ``stream``, a
    :class:`SampleStream` of the bundle's sampler at ``seed``, when one is
    given, and from a stream of its own otherwise."""
    obj = bundle.objective
    rav = bundle.descriptor
    samples = seed if stream is None else stream
    if check == "ravine":
        lo, hi = bundle.ravine_bracket
        return check_ravine_quadratic(obj, rav, n_samples, radius, samples,
                                      lower_bracket=lo, upper_bracket=hi)
    if check == "aiming":
        return check_aiming(obj, rav, n_samples, radius, samples)
    if check == "growth":
        grid = np.geomspace(radius / 30.0, radius, 4)
        return check_growth_exponent(obj, rav, n_samples, grid, samples,
                                     exact_bracket=bundle.growth_bracket)
    if check == "lojasiewicz":
        return check_lojasiewicz(
            obj, obj.p_growth, n_samples, radius, samples,
            sample_solution=bundle.sample_solution,
            retract=rav.retract)
    if check == "gradcontrol":
        return check_gradient_control(obj, rav, n_samples, radius, samples)
    if check == "morse":
        spec = bundle.spec.morse
        rows = trace_morse(bundle)
        errs = [row[spec.output] for row in rows]
        worst = max(errs)
        return DiagnosticsReport(
            check="morse", samples_tested=len(errs), skipped=0,
            measured_lower=min(errs), measured_upper=worst,
            passed=bool(worst <= spec.tolerance),
            extras={"grid": [row["u"] for row in rows],
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
    """Run a list of named checks; returns (all_passed, {check: report}).

    Writes one JSON report per check under ``out_dir/reports`` when an
    output directory is given.  Bad input raises :class:`ConfigInvalid`
    (:class:`UnsupportedCheck` for a check) before any work starts.  The
    cloud checks share one :class:`SampleStream`, so each sample is drawn
    once per suite and every report equals the one its check writes alone.
    """
    check_input(problem, problem_params, suite=suite, samples=n_samples,
                radius=radius, seed=seed, out_dir=out_dir)
    supported = problems.PROBLEMS[problem].SPEC.checks
    unsupported = [check for check in suite if check not in supported]
    if unsupported:
        raise UnsupportedCheck([f"suite: {problem} does not support "
                                f"{unsupported}; it supports "
                                f"{[c for c in ALL_CHECKS if c in supported]}"])
    bundle = problems.build(problem, problem_params)
    stream = SampleStream(bundle.sample_solution, bundle.objective.dim, seed)
    reports = {}
    for check in suite:
        reports[check] = run_check(bundle, check, n_samples, radius, seed,
                                   stream=stream)
    if out_dir is not None:
        rep_dir = Path(out_dir) / "reports"
        rep_dir.mkdir(parents=True, exist_ok=True)
        for check, report in reports.items():
            (rep_dir / f"{check}.json").write_text(
                report.to_json(indent=2) + "\n", encoding="utf-8")
    return all(r.passed for r in reports.values()), reports

"""Output checks for one CLI operation, plus the counts read from its files.

An operation fails when it raises, exits non-zero, or its artifacts miss a
check below.  A failure that matches a recorded defect of the program is
raised as ``KnownDefect``: it still counts as failed.  The counts feed the
per-layer metrics of the traced run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

COMPARE_METHODS = ("gd", "polyak", "gdpolyak")
MORSE_RESIDUAL_TOL = 1e-6
# The growth check's slope tolerance (its default in the program).
GROWTH_SLOPE_TOL = 0.1
# Relative distance outside the growth check's exact bracket still taken
# for rounding: over instance seeds 0-999 the misses reach 7.3e-7, while a
# real violation of the bracket is of order 1.
GROWTH_ROUNDING = 1e-5


class CheckFailed(Exception):
    pass


class KnownDefect(CheckFailed):
    """A failure that matches a defect of the program, not a new one."""


def empty_stats() -> dict:
    return {"grad_evals": 0, "func_evals": 0, "aborted_rounds": 0,
            "polyak_steps": 0, "polyak_skipped": 0, "bytes_written": 0,
            "diag_tested": 0, "diag_skipped": 0}


def check_op(op, rc, out: Path, stats: dict):
    """Raise CheckFailed unless the operation's exit code and files are right.

    ``stats`` is filled with what the operation's files report.
    """
    if out.exists():
        stats["bytes_written"] += sum(p.stat().st_size for p in out.rglob("*")
                                      if p.is_file())
    if op.kind == "diagnose" and rc in (0, 1):
        _check_reports(op.suite, rc, out, stats)
        return
    if rc != 0:
        raise CheckFailed(f"exit code {rc}")
    if op.kind == "run":
        _check_run_dir(out, op.K, op.I, op.J, op.ceiling, stats)
    elif op.kind == "compare":
        methods = COMPARE_METHODS + (("gdpolyak_lb",) if op.J else ())
        for method in methods:
            _check_run_dir(out / method, op.K, op.I, op.J, op.ceiling, stats,
                           method=method)
        if not (out / "comparison.csv").is_file():
            raise CheckFailed("comparison.csv missing")
    elif op.kind == "morse":
        points = json.loads((out / "morse.json").read_text())["points"]
        worst = max((p["implicit_residual"] for p in points), default=math.inf)
        if not worst <= MORSE_RESIDUAL_TOL:
            raise CheckFailed(f"Morse residual {worst:.3e} above tolerance")
    else:
        raise ValueError(f"unknown operation kind {op.kind!r}")


def _check_reports(suite, rc, out: Path, stats):
    """Every diagnose report passes and exit code 1 means one did not.

    Growth on a factorization instance compares every sampled ratio with an
    exact bracket whose upper end the ratio attains, to 1e-10 relative; on
    about 1% of instance seeds (44 and 86 among the first hundred) rounding
    puts a ratio just above it and ``diagnose`` exits 1.  That miss, with
    the fitted slope right, is raised as ``KnownDefect``.
    """
    failed = []
    for check in suite:
        report = json.loads((out / "reports" / f"{check}.json").read_text())
        stats["diag_tested"] += report["samples_tested"]
        stats["diag_skipped"] += report["skipped"]
        if report["pass"] is not True:
            failed.append(report)
    if (rc == 1) != bool(failed):
        raise CheckFailed(f"exit code {rc} with {len(failed)} failed reports")
    if any(not _growth_rounding_miss(report) for report in failed):
        raise CheckFailed(", ".join(r["check"] for r in failed)
                          + " report did not pass")
    if failed:
        raise KnownDefect("growth exact bracket missed by rounding: ratios "
                          f"[{failed[0]['measured_lower']!r}, "
                          f"{failed[0]['measured_upper']!r}]")


def _growth_rounding_miss(report) -> bool:
    extras = report.get("extras", {})
    if report["check"] != "growth" or not extras.get("exact_bracket"):
        return False
    lo, hi = extras["exact_bracket"]
    return (not extras["bracket_ok"]
            and abs(extras["slope"] - extras["expected_exponent"])
            <= GROWTH_SLOPE_TOL
            and report["measured_lower"] >= lo * (1.0 - GROWTH_ROUNDING)
            and report["measured_upper"] <= hi * (1.0 + GROWTH_ROUNDING))


def _check_run_dir(out: Path, K, I, J, ceiling, stats, method=None):
    manifest = json.loads((out / "manifest.json").read_text())
    if method is not None and manifest["config"]["method"] != method:
        raise CheckFailed(f"{out.name}: manifest method "
                          f"{manifest['config']['method']!r}")
    method = manifest["config"]["method"]
    evals = manifest["grad_evals"]
    aborted = manifest["aborted_rounds"]
    budget = I * (K + 1)
    if method == "gdpolyak_lb":
        if evals > J * budget:
            raise CheckFailed(f"{method}: {evals} evals above J*I*(K+1)")
        if evals < J * budget and not aborted:
            raise CheckFailed(f"{method}: {evals} evals short of J*I*(K+1) "
                              "with no aborted round")
    elif evals != budget:
        raise CheckFailed(f"{method}: {evals} evals, expected I*(K+1)={budget}")
    # The evaluation that aborts a round is counted but leaves no row.
    rows = 0
    for line in (out / "trace.csv").read_text().splitlines()[1:]:
        rows += 1
        fields = line.split(",")
        if fields[2] == "PolyakLong":
            stats["polyak_steps"] += 1
            stats["polyak_skipped"] += float(fields[5]) == 0.0
    if rows != evals - len(aborted):
        raise CheckFailed(f"{method}: trace.csv has {rows} rows for {evals} "
                          f"evals and {len(aborted)} aborted rounds")
    gap = manifest["best_gap"]
    if not (math.isfinite(gap) and gap < ceiling):
        raise CheckFailed(f"{method}: best gap {gap!r} not below {ceiling:g}")
    stats["grad_evals"] += evals
    stats["func_evals"] += manifest["func_evals"]
    stats["aborted_rounds"] += len(aborted)

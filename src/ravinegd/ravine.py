"""Ravine descriptors and numerical diagnostics.

A ravine is a manifold through the minimizer set along which the objective
grows slowly while growing at least quadratically transverse to it, in the
retraction sense f(x) - f(R(x)) >= C * ||x - R(x)||^2.  Each problem with a
closed-form ravine supplies a :class:`RavineDescriptor`; the checks in this
module sample solution-anchored clouds and measure the extreme ratios of
the inequality under test.  A cloud is one ``(n, dim)`` array.  The
aiming, growth and gradient-control checks retract it and measure its
distances as one row stack, and gradient control evaluates the
finite-difference stencils of its samples in row blocks; the row forms of
the descriptor and the objective equal the per-point callables bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InsufficientValidSamples
from .objective import (
    Objective,
    _central_differences,
    _rowdot,
    row_norms,
    unit_direction,
)

# Samples closer to the manifold than this are 0/0 ratios and are skipped.
SKIP_DISTANCE = 1e-12

# Largest |fitted slope - p_growth| the growth-exponent check accepts.
GROWTH_SLOPE_TOL = 0.1

# Most rows one composite evaluation of the gradient-control check takes:
# the stencils of consecutive samples are stacked up to this many rows, and
# a sample whose stencil alone is larger goes in a block of its own.
STENCIL_ROWS = 256


@dataclass(frozen=True)
class RavineDescriptor:
    """Closed-form ravine data for one problem family.

    Attributes
    ----------
    retract : map from a point near the manifold onto the manifold.
    on_manifold : membership predicate with tolerance.
    sample_solution : rng -> a random point of S, used to anchor clouds.
    retract_rows : row-batched retraction, ``(n, dim) -> (n, dim)``, equal
        bit for bit to ``retract`` on each row; the aiming, growth and
        gradient-control checks retract whole clouds and stencil blocks
        with it, and a run that records distances retracts each epoch's
        block of iterates with it.
    """

    retract: Callable[[np.ndarray], np.ndarray]
    on_manifold: Callable[[np.ndarray], bool]
    sample_solution: Callable[[np.random.Generator], np.ndarray]
    retract_rows: Callable[[np.ndarray], np.ndarray]


@dataclass
class DiagnosticsReport:
    """Measured extremes and verdict of one sampled inequality check."""

    check: str
    samples_tested: int
    skipped: int
    measured_lower: float
    measured_upper: float
    passed: bool
    details: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "samples_tested": self.samples_tested,
            "skipped": self.skipped,
            "measured_lower": self.measured_lower,
            "measured_upper": self.measured_upper,
            "pass": self.passed,
            "details": self.details,
            "extras": self.extras,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def _cloud(sample_solution, n_samples: int, radius: float,
           rng: np.random.Generator, dim: int) -> np.ndarray:
    """Solution-anchored sample cloud, one row s + radius * u per sample.

    Each sample draws its solution s, then its random unit direction u, so
    the stream of ``rng`` is that of drawing the points one at a time.
    """
    X = np.empty((n_samples, dim))
    for i in range(n_samples):
        s = np.asarray(sample_solution(rng), dtype=float)
        X[i] = s + radius * unit_direction(rng, dim)
    return X


def _worst_offenders(items, n=3):
    """The n (ratio, point) pairs with extreme ratios, serializable."""
    if not items:
        return []
    items = sorted(items, key=lambda t: t[0])
    picked = items[:n] + items[-n:]
    return [{"ratio": float(r), "point": np.asarray(x).ravel().tolist()}
            for r, x in picked]


def _cloud_report(check, ratios, skipped, attempted, judge):
    """Report of a cloud check from its kept ``(ratio, point)`` pairs.

    Raises :class:`InsufficientValidSamples` when too few samples were
    kept; otherwise ``judge(lowest, highest)`` returns ``(passed, extras)``.
    """
    _require_valid(ratios, skipped, attempted, check)
    values = [r for r, _ in ratios]
    lo, hi = min(values), max(values)
    passed, extras = judge(lo, hi)
    return DiagnosticsReport(
        check=check,
        samples_tested=len(ratios),
        skipped=skipped,
        measured_lower=lo,
        measured_upper=hi,
        passed=bool(passed),
        details=_worst_offenders(ratios),
        extras=extras,
    )


def _two_radius_report(check, ratios_at, n_samples, radius, seed, passed,
                       **extras):
    """Report of a check comparing maximum ratios at ``radius`` and ``radius / 10``.

    ``ratios_at(rad, rng)`` samples one cloud and returns its kept
    ``(ratio, point)`` pairs and skip count; ``passed(max_big, max_small)``
    gives the verdict; ``extras`` are appended to the report's extras.
    """
    rng = np.random.default_rng(seed)
    big, skip_big = ratios_at(radius, rng)
    small, skip_small = ratios_at(radius / 10.0, rng)

    def judge(lo, hi):
        for rad, kept in ((radius, big), (radius / 10.0, small)):
            if not kept:
                raise InsufficientValidSamples(
                    f"{check}: every sample at radius {rad:g} skipped")
        max_big = max(r for r, _ in big)
        max_small = max(r for r, _ in small)
        return passed(max_big, max_small), {
            "max_at_radius": float(max_big),
            "max_at_radius_over_10": float(max_small), "radius": radius,
            **extras}

    return _cloud_report(check, big + small, skip_big + skip_small,
                         2 * n_samples, judge)


def check_ravine_quadratic(obj: Objective, rav: RavineDescriptor,
                           n_samples: int, radius: float, seed: int, *,
                           lower_bracket: float,
                           upper_bracket: float) -> DiagnosticsReport:
    """Extremes of (f(x) - f(R(x))) / ||x - R(x)||^2 over an anchored cloud.

    Passes when every ratio lies inside [lower_bracket, upper_bracket].
    """
    rng = np.random.default_rng(seed)
    ratios = []
    skipped = 0
    for x in _cloud(rav.sample_solution, n_samples, radius, rng, obj.dim):
        r_x = rav.retract(x)
        den = float(np.sum((x - r_x) ** 2))
        if den < SKIP_DISTANCE ** 2:
            skipped += 1
            continue
        rho = (float(obj.eval(x)) - float(obj.eval(r_x))) / den
        ratios.append((rho, x))
    return _cloud_report("ravine", ratios, skipped, n_samples, lambda lo, hi: (
        lo >= lower_bracket and hi <= upper_bracket,
        {"lower_bracket": lower_bracket, "upper_bracket": upper_bracket,
         "radius": radius}))


def check_aiming(obj: Objective, rav: RavineDescriptor, n_samples: int,
                 radius: float, seed: int) -> DiagnosticsReport:
    """Extremes of <grad f(x), x - R(x)> / ||x - R(x)||^2; passes when min > 0."""
    X = _cloud(rav.sample_solution, n_samples, radius,
               np.random.default_rng(seed), obj.dim)
    D = X - rav.retract_rows(X)
    den = _rowdot(D, D)
    kept = np.flatnonzero(~(den < SKIP_DISTANCE ** 2))
    ratios = []
    for i in kept:
        # The gradient has no row form: it is taken point by point.
        g = np.asarray(obj.grad(X[i]), dtype=float)
        ratios.append((float(g @ D[i]) / float(den[i]), X[i]))
    return _cloud_report("aiming", ratios, n_samples - len(kept), n_samples,
                         lambda lo, hi: (lo > 0.0, {"radius": radius}))


def check_growth_exponent(obj: Objective, rav: RavineDescriptor,
                          n_samples: int, radius_grid, seed: int, *,
                          exact_bracket=None) -> DiagnosticsReport:
    """Log-log regression of the value gap against distance to S on the manifold.

    Manifold points are produced by retracting perturbed solution points at
    each radius in ``radius_grid`` (which must span at least one decade).
    Passes when |slope - obj.p_growth| <= GROWTH_SLOPE_TOL and, if
    ``exact_bracket`` = (lo_coef, hi_coef) is given, when every sample
    satisfies lo_coef * dist^p <= gap <= hi_coef * dist^p to 1e-10 relative.
    """
    radius_grid = np.asarray(list(radius_grid), dtype=float)
    if radius_grid.max() < 10.0 * radius_grid.min():
        raise ValueError("radius_grid must span at least one decade")
    if obj.dist_rows is None:
        raise ValueError("no distance oracle available for growth check")
    f_star = float(obj.f_star) if obj.f_star is not None else 0.0
    p = obj.p_growth

    rng = np.random.default_rng(seed)
    per_radius = max(1, n_samples // len(radius_grid))
    logs = []
    ratios = []
    skipped = 0
    bracket_ok = True
    for radius in radius_grid:
        Y = rav.retract_rows(_cloud(rav.sample_solution, per_radius, radius,
                                    rng, obj.dim))
        for y, dist in zip(Y, obj.dist_rows(Y).tolist()):
            # Far from S the gap or dist^p can overflow, as inf or, in
            # Python float powers, as OverflowError; such a sample has no
            # ratio and no point on the log-log fit.
            try:
                gap = float(obj.eval(y)) - f_star
                power = dist ** p
            except OverflowError:
                gap = power = math.inf
            if not (dist >= SKIP_DISTANCE and 0.0 < gap < math.inf
                    and power < math.inf):
                skipped += 1
                continue
            logs.append((np.log(dist), np.log(gap)))
            ratios.append((gap / power, y))
            if exact_bracket is not None:
                lo_c, hi_c = exact_bracket
                tol = 1e-10 * max(abs(gap), lo_c * power)
                if gap < lo_c * power - tol or gap > hi_c * power + tol:
                    bracket_ok = False

    def judge(lo, hi):
        if len(logs) < 2:
            raise InsufficientValidSamples(
                f"growth: {len(logs)} sample(s) left to fit a slope")
        ld, lg = np.array([a for a, _ in logs]), np.array([b for _, b in logs])
        slope, intercept = np.polyfit(ld, lg, 1)
        resid = float(np.sqrt(np.mean((lg - (slope * ld + intercept)) ** 2)))
        return abs(slope - p) <= GROWTH_SLOPE_TOL and bracket_ok, {
            "slope": float(slope), "expected_exponent": p,
            "fit_residual": resid,
            "exact_bracket": list(exact_bracket) if exact_bracket else None,
            "bracket_ok": bracket_ok}

    return _cloud_report("growth", ratios, skipped,
                         per_radius * len(radius_grid), judge)


def check_lojasiewicz(obj: Objective, p: float, n_samples: int, radius: float,
                      seed: int, *, sample_solution,
                      retract) -> DiagnosticsReport:
    """Stability of (f - f*)^((p-1)/p) / ||grad f|| over shrinking clouds.

    Ratios are collected at ``radius`` and ``radius / 10``; each sampled
    point also contributes its ``retract``-ed companion, so the cloud
    probes the near-manifold region where the ratio peaks.
    Passes when both maxima are finite and within a factor 2 of each other.
    """
    if obj.f_star is None:
        raise ValueError("lojasiewicz check requires obj.f_star")
    f_star = float(obj.f_star)
    exponent = (p - 1.0) / p

    def max_ratio(rad, rng):
        vals = []
        skipped = 0
        for x in _cloud(sample_solution, n_samples, rad, rng, obj.dim):
            for pt in (x, np.asarray(retract(x), dtype=float)):
                value, grad = obj.both(pt)
                gap = float(value) - f_star
                gnorm = float(np.linalg.norm(grad))
                if gap <= 0.0 or gnorm <= 1e-300:
                    skipped += 1
                    continue
                vals.append((gap ** exponent / gnorm, pt))
        return vals, skipped

    def stable(max_big, max_small):
        return (np.isfinite(max_big) and np.isfinite(max_small)
                and max(max_big, max_small) <= 2.0 * min(max_big, max_small))

    return _two_radius_report("lojasiewicz", max_ratio, n_samples, radius,
                              seed, stable, exponent=exponent)


def check_gradient_control(obj: Objective, rav: RavineDescriptor,
                           n_samples: int, radius: float,
                           seed: int) -> DiagnosticsReport:
    """Stability of ||grad f(x) - grad (f o R)(x)|| / ||x - R(x)||.

    The composite gradient is computed by central differences of
    x -> f(R(x)) with step h = 1e-6 * (1 + ||x||): the ``2 * dim`` points
    ``x + h e_i`` and ``x - h e_i`` of each kept sample are retracted by
    ``rav.retract_rows`` and evaluated by ``obj.eval_rows`` in blocks of
    consecutive samples of at most :data:`STENCIL_ROWS` rows, so the
    objective's row form is required.  Passes when the maximum ratio grows
    by at most a factor 2 as the sampling radius shrinks tenfold.
    """
    if obj.eval_rows is None:
        raise ValueError("gradcontrol check requires obj.eval_rows")

    def composite(rows):
        return obj.eval_rows(rav.retract_rows(rows))

    per_block = max(1, STENCIL_ROWS // (2 * obj.dim))

    def ratios_at(rad, rng):
        X = _cloud(rav.sample_solution, n_samples, rad, rng, obj.dim)
        den = row_norms(X - rav.retract_rows(X))
        kept = np.flatnonzero(~(den < SKIP_DISTANCE))
        h = 1e-6 * (1.0 + row_norms(X))
        vals = []
        for start in range(0, len(kept), per_block):
            block = kept[start:start + per_block]
            g_comp = _central_differences(composite, X[block], h[block])
            for i, gc in zip(block, g_comp):
                # The gradient has no row form: it is taken point by point.
                g = np.asarray(obj.grad(X[i]), dtype=float)
                vals.append((float(np.linalg.norm(g - gc)) / float(den[i]),
                             X[i]))
        return vals, n_samples - len(kept)

    return _two_radius_report(
        "gradcontrol", ratios_at, n_samples, radius, seed,
        lambda max_big, max_small: max_small <= 2.0 * max(max_big, 1e-300))


def measure_rip(inst, rank_l: int, trials: int, seed: int) -> float:
    """Empirical restricted-isometry constant of the sensing operator.

    Samples random symmetric matrices Z of rank <= rank_l (Gaussian factors
    U C U^T, normalized to unit Frobenius norm) and returns the maximum of
    |sum_i <A_i, Z>^2 / (m * op_scale^2) - 1| over the trials, with the
    measurements <A_i, Z> from ``inst.measure``.  Sampling only
    lower-bounds the true constant.  ``op_scale`` is the instance's
    analytic normalization of the measurement ensemble (see the sensing
    module); an orthonormal-basis operator uses op_scale = 1.
    """
    rng = np.random.default_rng(seed)
    d = inst.fac.d
    if rank_l > d:
        raise ValueError(f"rank_l = {rank_l} exceeds dimension {d}")
    scale2 = float(inst.op_scale) ** 2
    worst = 0.0
    for _ in range(trials):
        u = rng.standard_normal((d, rank_l))
        c = rng.standard_normal((rank_l, rank_l))
        z = u @ ((c + c.T) / 2.0) @ u.T
        nz = np.linalg.norm(z)
        if nz < 1e-300:
            continue
        z /= nz
        coeffs = inst.measure(z)
        val = float(coeffs @ coeffs) / (inst.m * scale2)
        worst = max(worst, abs(val - 1.0))
    return worst


def _require_valid(kept, skipped, attempted, check):
    if not kept or skipped > 0.5 * attempted:
        raise InsufficientValidSamples(
            f"{check}: {skipped}/{attempted} samples skipped")

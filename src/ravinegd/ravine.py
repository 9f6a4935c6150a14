"""Ravine descriptors and numerical diagnostics.

A ravine is a manifold through the minimizer set along which the objective
grows slowly while growing at least quadratically transverse to it, in the
retraction sense f(x) - f(R(x)) >= C * ||x - R(x)||^2.  Each problem with a
closed-form ravine supplies a :class:`RavineDescriptor`; the checks in this
module sample solution-anchored clouds and measure the extreme ratios of
the inequality under test.

The cloud checks are row-first.  A cloud is one ``(n, dim)`` array: each
sample takes its draws from the rng one at a time, and the problem's
:class:`SolutionSampler` maps the stacked draws to solutions in one call.
A cloud is a row range of a :class:`SampleStream`, the samples of one
seed: the ravine and aiming checks read samples ``[0, n)``, the
Lojasiewicz and gradient-control checks ``[0, n)`` at their radius and
``[n, 2n)`` at a tenth of it, and the growth check its radii's segments
from 0.  The cloud checks of one ``diagnose`` suite share one stream per
seed, so each sample is drawn once, and a suite's report of a check
equals the report that check writes alone; a check given an int seed
draws a stream of its own.
Every check retracts a cloud in one call: the ravine and Lojasiewicz
checks through the descriptor's ``retract``, which takes a point or a
stack (the perfbench tracer records it as the ``ravine.retract`` span),
the others through ``retract_rows``.  Every check takes a cloud's values
and gradients from one ``eval_rows`` or ``value_and_grad_rows`` call, and
gradient control evaluates the finite-difference stencils of its samples
in row blocks.  No cloud check works per point.  The per-point callables
of the descriptor and the objective are derived from their row and fused
forms, and so are the row forms a problem does not state (see
:class:`RavineDescriptor` and :class:`Objective`).

Every cloud check evaluates with float overflow ignored and has one skip
rule: an attempt whose ratio is not finite is skipped, so ``skipped`` is
the attempts less ``samples_tested``, and past half skipped the check
is refused.  A Lojasiewicz sample is two attempts, itself and its
retraction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    NONNEGATIVE, POSITIVE, POSITIVE_REAL, InsufficientValidSamples, check_args,
    is_integer)
from .objective import (
    Objective,
    _central_differences,
    _rowdot,
    gaussian_direction,
    row_norms,
)
from .opt_core import OVERFLOW_IS_DATA

# Samples closer to the manifold than this are 0/0 ratios and are skipped.
SKIP_DISTANCE = 1e-12

# Largest |fitted slope - p_growth| the growth-exponent check accepts.
GROWTH_SLOPE_TOL = 0.1

# Most rows one composite evaluation of the gradient-control check takes:
# the stencils of consecutive samples are stacked up to this many rows, and
# a sample whose stencil alone is larger goes in a block of its own.
STENCIL_ROWS = 256


@dataclass(frozen=True)
class SolutionSampler:
    """Random points of a solution set S, stated once per problem.

    ``draw(rng)`` takes the random draws of one sample from ``rng``, as an
    array (empty for a problem that anchors every cloud at one fixed
    solution), and ``rows`` maps the stack of n samples' draws to the
    ``(n, dim)`` stack of their solutions.  Called with an rng, the
    sampler returns one solution: ``rows`` on the one-row stack of one
    draw, so a cloud drawn row-first equals one drawn point by point.
    """

    draw: Callable[[np.random.Generator], object]
    rows: Callable[[np.ndarray], np.ndarray]

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        return self.rows(np.asarray(self.draw(rng), dtype=float)[None])[0]

    @classmethod
    def fixed(cls, solution) -> "SolutionSampler":
        """The sampler that always returns ``solution`` and draws nothing."""
        solution = np.asarray(solution, dtype=float)
        return cls(draw=lambda rng: (),
                   rows=lambda draws: np.tile(solution, (len(draws), 1)))


@dataclass(frozen=True)
class RavineDescriptor:
    """Closed-form ravine data for one problem family.

    A problem states its retraction once, as ``retract_rows``; ``retract``,
    which takes a point or a stack, is derived from it when not given.  It
    stays a field, not a method, so that ``dataclasses.replace`` can
    substitute a wrapped callable for it (the perfbench tracer does).

    Attributes
    ----------
    retract_rows : row-batched retraction onto the manifold,
        ``(n, dim) -> (n, dim)``; the aiming, growth and gradient-control
        checks retract whole clouds and stencil blocks with it, and a run
        that records distances retracts each epoch's block of iterates
        with it.
    sample_solution : the :class:`SolutionSampler` of S that anchors
        clouds, mapping a cloud's samples' draws to solutions in one call.
    retract : map from points near the manifold onto the manifold, on an
        array of shape ``(..., dim)``: a point ``(dim,)`` or a stack
        ``(n, dim)``, whose shape it keeps; defaults to ``retract_rows``
        on the rows of the array (on a point, its one-row stack).  The
        ravine and Lojasiewicz checks retract each cloud with one call.
    """

    retract_rows: Callable[[np.ndarray], np.ndarray]
    sample_solution: SolutionSampler
    retract: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        # The instance is frozen, so the default is set past __setattr__.
        if self.retract is None:
            rows = self.retract_rows

            def retract(x):
                x = np.asarray(x, dtype=float)
                return rows(x.reshape(-1, x.shape[-1])).reshape(x.shape)

            object.__setattr__(self, "retract", retract)


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


class SampleStream:
    """The diagnostic samples of one seed, each drawn once.

    Sample i is an anchor solution s_i and a unit direction u_i, drawn
    from ``np.random.default_rng(seed)`` in the order of drawing the
    samples one at a time: the draws of s_i, then its Gaussian direction.
    ``cloud(start, n, radius)`` is the ``(n, dim)`` stack of rows
    ``s_i + radius * u_i`` for i in ``[start, start + n)``; samples are
    drawn when a cloud first reaches them and kept, so the cloud checks of
    one suite read one stream and a sample costs its draws once.
    The :class:`SolutionSampler` ``sample_solution`` maps the draws of the
    samples drawn together in one ``rows`` call (row by row, so a cloud
    does not depend on how the stream was extended).
    """

    def __init__(self, sample_solution, dim: int, seed: int):
        self.sample_solution = sample_solution
        self.dim = dim
        self._rng = np.random.default_rng(seed)
        self._solutions = np.empty((0, dim))
        self._directions = np.empty((0, dim))

    def _extend(self, count: int):
        rng, dim, sampler = self._rng, self.dim, self.sample_solution
        draws = []
        U = np.empty((count, dim))
        norms = np.empty(count)
        for i in range(count):
            draws.append(sampler.draw(rng))
            U[i], norms[i] = gaussian_direction(rng, dim)
        S = sampler.rows(np.array(draws, dtype=float)).reshape(count, dim)
        self._solutions = np.concatenate([self._solutions, S])
        self._directions = np.concatenate(
            [self._directions, U / norms[:, None]])

    def cloud(self, start: int, n: int, radius: float) -> np.ndarray:
        """The samples ``[start, start + n)`` at ``radius`` from their
        anchors, one row each."""
        stop = start + n
        if stop > len(self._solutions):
            self._extend(stop - len(self._solutions))
        return (self._solutions[start:stop]
                + radius * self._directions[start:stop])


def _stream(seed, sample_solution, dim, n_samples, **radii) -> SampleStream:
    """``seed`` itself when it is a :class:`SampleStream` of this sampler
    and dimension, else a stream of its own from the int ``seed``; first,
    a cloud check's ``sample_solution``, ``n_samples``, ``radii`` and int
    ``seed`` are judged."""
    args = {"sample_solution": (sample_solution, (
                lambda v: isinstance(v, SolutionSampler),
                "a SolutionSampler")),
            "n_samples": (n_samples, POSITIVE)}
    args.update((name, (r, POSITIVE_REAL)) for name, r in radii.items())
    if not isinstance(seed, SampleStream):
        args["seed"] = (seed, NONNEGATIVE)
    check_args(**args)
    if not isinstance(seed, SampleStream):
        return SampleStream(sample_solution, dim, seed)
    if seed.sample_solution is not sample_solution or seed.dim != dim:
        raise ValueError("the sample stream belongs to another sampler "
                         "or dimension")
    return seed


def _cloud_report(check, ratios, points, attempted, judge):
    """Report of a cloud check from its ``(n,)`` ratios at the rows of its
    ``(n, dim)`` points, out of ``attempted`` samples.

    Finite ratios are kept and every other attempt is skipped.  Raises
    :class:`InsufficientValidSamples` when none is kept or more than half
    are skipped; otherwise ``judge(lowest, highest)`` returns
    ``(passed, extras)``.  The details are the 3 lowest and 3 highest.
    """
    keep = np.isfinite(ratios)
    ratios, points = ratios[keep], points[keep]
    skipped = attempted - len(ratios)
    if not len(ratios) or skipped > 0.5 * attempted:
        raise InsufficientValidSamples(
            f"{check}: {skipped}/{attempted} samples skipped")
    values = ratios.tolist()
    lo, hi = min(values), max(values)
    passed, extras = judge(lo, hi)
    order = np.argsort(ratios, kind="stable").tolist()
    return DiagnosticsReport(
        check=check, samples_tested=len(values), skipped=skipped,
        measured_lower=lo, measured_upper=hi, passed=bool(passed),
        details=[{"ratio": values[i], "point": points[i].tolist()}
                 for i in order[:3] + order[-3:]],
        extras=extras)


def _two_radius_report(check, ratios_at, per_cloud, radius, passed,
                       **extras):
    """Report of a check comparing maximum ratios at ``radius`` and ``radius / 10``.

    ``ratios_at(rad, index)`` samples cloud ``index`` (0, then 1) of
    ``per_cloud`` attempts at radius ``rad`` and returns their ``(ratios,
    points)`` arrays; ``passed(max_big, max_small)`` gives the verdict from
    the largest finite ratio of each cloud; ``extras`` are appended to the
    report's extras.
    """
    radii = (radius, radius / 10.0)
    clouds = [ratios_at(rad, index) for index, rad in enumerate(radii)]

    def judge(lo, hi):
        kept = [ratios[np.isfinite(ratios)].tolist() for ratios, _ in clouds]
        for rad, ratios in zip(radii, kept):
            if not ratios:
                raise InsufficientValidSamples(
                    f"{check}: every sample at radius {rad:g} skipped")
        max_big, max_small = map(max, kept)
        return passed(max_big, max_small), {
            "max_at_radius": float(max_big),
            "max_at_radius_over_10": float(max_small), "radius": radius,
            **extras}

    ratios, points = map(np.concatenate, zip(*clouds))
    return _cloud_report(check, ratios, points, 2 * per_cloud, judge)


def _values(obj, X):
    """Values at the rows of X from one ``eval_rows`` call."""
    # An empty stack is not evaluated: row forms that guard a minimum norm
    # take the minimum over the rows.
    return obj.eval_rows(X) if len(X) else np.empty(0)


def _grads(obj, X):
    """Gradients at the rows of X from one ``value_and_grad_rows`` call."""
    return obj.value_and_grad_rows(X)[1] if len(X) else np.empty(X.shape)


def _power(base: float, p: float) -> float:
    """Python-float ``base ** p``, inf where it overflows."""
    try:
        return base ** p
    except OverflowError:
        return math.inf


@np.errstate(**OVERFLOW_IS_DATA)
def check_ravine_quadratic(obj: Objective, rav: RavineDescriptor,
                           n_samples: int, radius: float,
                           seed: int | SampleStream, *, lower_bracket: float,
                           upper_bracket: float) -> DiagnosticsReport:
    """Extremes of (f(x) - f(R(x))) / ||x - R(x)||^2 over an anchored cloud.

    The cloud is retracted with one ``rav.retract`` call, and the kept
    samples and their retractions are evaluated in one ``eval_rows`` call.
    Passes when every ratio lies inside [lower_bracket, upper_bracket].
    """
    X = _stream(seed, rav.sample_solution, obj.dim, n_samples,
                radius=radius).cloud(0, n_samples, radius)
    R = rav.retract(X)
    den = np.sum((X - R) ** 2, axis=1)
    kept = np.flatnonzero(~(den < SKIP_DISTANCE ** 2))
    values = _values(obj, np.concatenate([X[kept], R[kept]]))
    rho = (values[:len(kept)] - values[len(kept):]) / den[kept]

    def judge(lo, hi):
        return lo >= lower_bracket and hi <= upper_bracket, {
            "lower_bracket": lower_bracket, "upper_bracket": upper_bracket,
            "radius": radius}

    return _cloud_report("ravine", rho, X[kept], n_samples, judge)


@np.errstate(**OVERFLOW_IS_DATA)
def check_aiming(obj: Objective, rav: RavineDescriptor, n_samples: int,
                 radius: float, seed: int | SampleStream) -> DiagnosticsReport:
    """Extremes of <grad f(x), x - R(x)> / ||x - R(x)||^2; passes when min > 0."""
    X = _stream(seed, rav.sample_solution, obj.dim, n_samples,
                radius=radius).cloud(0, n_samples, radius)
    D = X - rav.retract_rows(X)
    den = _rowdot(D, D)
    kept = np.flatnonzero(~(den < SKIP_DISTANCE ** 2))
    return _cloud_report(
        "aiming", _rowdot(_grads(obj, X[kept]), D[kept]) / den[kept],
        X[kept], n_samples, lambda lo, hi: (lo > 0.0, {"radius": radius}))


@np.errstate(**OVERFLOW_IS_DATA)
def check_growth_exponent(obj: Objective, rav: RavineDescriptor,
                          n_samples: int, radius_grid,
                          seed: int | SampleStream, *,
                          exact_bracket=None) -> DiagnosticsReport:
    """Log-log regression of the value gap against distance to S on the manifold.

    Manifold points are produced by retracting perturbed solution points at
    each radius in ``radius_grid`` (which must span at least one decade).
    Passes when |slope - obj.p_growth| <= GROWTH_SLOPE_TOL and, if
    ``exact_bracket`` = (lo_coef, hi_coef, floor) is given, when every
    sample satisfies lo_coef * dist^p <= gap <= hi_coef * dist^p to 1e-10
    relative plus ``floor``: the absolute rounding floor of the computed
    gap, for a problem whose value cancels terms of order one on the
    manifold.  The retracted clouds of all radii are evaluated in one
    ``eval_rows`` call.  The report lists the two coefficients.
    """
    grid = list(radius_grid) if np.iterable(radius_grid) else [radius_grid]
    stream = _stream(seed, rav.sample_solution, obj.dim, n_samples, **{
        f"radius_grid[{i}]": radius for i, radius in enumerate(grid)})
    radius_grid = np.asarray(grid, dtype=float)
    if not grid or radius_grid.max() < 10.0 * radius_grid.min():
        raise ValueError(f"radius_grid: must span a decade, got {grid!r}")
    if obj.dist_rows is None:
        raise ValueError("no distance oracle available for growth check")
    f_star = float(obj.f_star) if obj.f_star is not None else 0.0
    p = obj.p_growth
    per_radius = max(1, n_samples // len(radius_grid))
    Y = rav.retract_rows(np.concatenate([
        stream.cloud(i * per_radius, per_radius, radius)
        for i, radius in enumerate(radius_grid)]))
    gaps = _values(obj, Y) - f_star
    dists = obj.dist_rows(Y)
    # Far from S the gap or dist^p can overflow, as inf or, in Python float
    # powers, as OverflowError (which a looped row form turns into inf);
    # such a sample has no ratio and no point on the log-log fit.  The
    # powers stay Python floats: numpy's array power rounds differently.
    powers = np.array([_power(dist, p) for dist in dists.tolist()])
    ok = ((dists >= SKIP_DISTANCE) & (0.0 < gaps) & (gaps < math.inf)
          & (powers < math.inf))
    gaps, dists, powers = gaps[ok], dists[ok], powers[ok]
    bracket_ok = True
    if exact_bracket is not None:
        lo_c, hi_c, floor = exact_bracket
        tol = 1e-10 * np.maximum(np.abs(gaps), lo_c * powers) + floor
        bracket_ok = not np.any((gaps < lo_c * powers - tol)
                                | (gaps > hi_c * powers + tol))

    def judge(lo, hi):
        if len(gaps) < 2:
            raise InsufficientValidSamples(
                f"growth: {len(gaps)} sample(s) left to fit a slope")
        ld, lg = np.log(dists), np.log(gaps)
        slope, intercept = np.polyfit(ld, lg, 1)
        resid = float(np.sqrt(np.mean((lg - (slope * ld + intercept)) ** 2)))
        return abs(slope - p) <= GROWTH_SLOPE_TOL and bracket_ok, {
            "slope": float(slope), "expected_exponent": p,
            "fit_residual": resid,
            "exact_bracket": [lo_c, hi_c] if exact_bracket else None,
            "bracket_ok": bracket_ok}

    return _cloud_report("growth", gaps / powers, Y[ok],
                         per_radius * len(radius_grid), judge)


@np.errstate(**OVERFLOW_IS_DATA)
def check_lojasiewicz(obj: Objective, p: float, n_samples: int, radius: float,
                      seed: int | SampleStream, *,
                      sample_solution: SolutionSampler,
                      retract) -> DiagnosticsReport:
    """Stability of (f - f*)^((p-1)/p) / ||grad f|| over shrinking clouds.

    Ratios are collected at ``radius`` and ``radius / 10``; each sampled
    point also contributes its ``retract``-ed companion, so the cloud
    probes the near-manifold region where the ratio peaks.  ``retract``
    maps an ``(n, dim)`` stack to the stack of its rows' retractions (a
    descriptor's ``retract`` does) and is called once per cloud; the
    interleaved stack ``[x0, R(x0), x1, ...]`` is evaluated in one
    ``value_and_grad_rows`` call, each of its points one attempt.
    Passes when the two maxima are within a factor 2 of each other.
    """
    check_args(p=(p, POSITIVE_REAL))
    if obj.f_star is None:
        raise ValueError("lojasiewicz check requires obj.f_star")
    f_star = float(obj.f_star)
    exponent = (p - 1.0) / p
    stream = _stream(seed, sample_solution, obj.dim, n_samples, radius=radius)

    def ratios_at(rad, index):
        X = stream.cloud(index * n_samples, n_samples, rad)
        R = retract(X)
        points = np.stack([X, R], axis=1).reshape(-1, obj.dim)
        values, grads = obj.value_and_grad_rows(points)
        # Python float powers: bit for bit the ratios of points evaluated
        # one at a time.
        ratios = [gap ** exponent / gnorm
                  if gap > 0.0 and gnorm > 1e-300 else math.nan
                  for gap, gnorm in zip((values - f_star).tolist(),
                                        row_norms(grads).tolist())]
        return np.array(ratios), points

    return _two_radius_report(
        "lojasiewicz", ratios_at, 2 * n_samples, radius,
        lambda big, small: max(big, small) <= 2.0 * min(big, small),
        exponent=exponent)


@np.errstate(**OVERFLOW_IS_DATA)
def check_gradient_control(obj: Objective, rav: RavineDescriptor,
                           n_samples: int, radius: float,
                           seed: int | SampleStream) -> DiagnosticsReport:
    """Stability of ||grad f(x) - grad (f o R)(x)|| / ||x - R(x)||.

    The gradients of a cloud's kept samples come from one
    ``value_and_grad_rows`` call.  The composite gradient is computed by
    central differences of x -> f(R(x)) with step h = 1e-6 * (1 + ||x||):
    the ``2 * dim`` points ``x + h e_i`` and ``x - h e_i`` of each kept
    sample are retracted by ``rav.retract_rows`` and evaluated by
    ``obj.eval_rows`` in blocks of consecutive samples of at most
    :data:`STENCIL_ROWS` rows.  Passes when the maximum ratio grows by at
    most a factor 2 as the sampling radius shrinks tenfold.
    """
    def composite(rows):
        return obj.eval_rows(rav.retract_rows(rows))

    per_block = max(1, STENCIL_ROWS // (2 * obj.dim))
    stream = _stream(seed, rav.sample_solution, obj.dim, n_samples,
                     radius=radius)

    def ratios_at(rad, index):
        X = stream.cloud(index * n_samples, n_samples, rad)
        den = row_norms(X - rav.retract_rows(X))
        kept = np.flatnonzero(~(den < SKIP_DISTANCE))
        h = 1e-6 * (1.0 + row_norms(X))
        g_comp = np.empty((len(kept), obj.dim))
        for start in range(0, len(kept), per_block):
            block = kept[start:start + per_block]
            g_comp[start:start + len(block)] = _central_differences(
                composite, X[block], h[block])
        return (row_norms(_grads(obj, X[kept]) - g_comp) / den[kept],
                X[kept])

    return _two_radius_report(
        "gradcontrol", ratios_at, n_samples, radius,
        lambda max_big, max_small: max_small <= 2.0 * max(max_big, 1e-300))


def measure_rip(inst, rank_l: int, trials: int, seed: int) -> float:
    """Empirical restricted-isometry constant of the sensing operator.

    Samples random symmetric matrices Z of rank <= rank_l (Gaussian factors
    U C U^T with S = (C + C^T) / 2, normalized to unit Frobenius norm) and
    returns the maximum of |sum_i <A_i, Z>^2 / (m * op_scale^2) - 1| over
    the trials.  The measurements come from ``inst.measure_factored(U, S)``
    divided by ||U S U^T||_F, so a trial costs O(m d rank_l), not the
    O(m d^2) of measuring the dense Z.  Sampling only lower-bounds the true
    constant.  ``op_scale`` is the instance's analytic normalization of the
    measurement ensemble (see the sensing module); an orthonormal-basis
    operator uses op_scale = 1.
    """
    d = inst.fac.d
    check_args(rank_l=(rank_l, (lambda v: is_integer(v) and 1 <= v <= d,
                                f"an integer in 1..{d}")),
               trials=(trials, POSITIVE), seed=(seed, NONNEGATIVE))
    rng = np.random.default_rng(seed)
    scale2 = float(inst.op_scale) ** 2
    worst = 0.0
    for _ in range(trials):
        u = rng.standard_normal((d, rank_l))
        c = rng.standard_normal((rank_l, rank_l))
        s = (c + c.T) / 2.0
        nz = np.linalg.norm(u @ s @ u.T)
        if nz < 1e-300:
            continue
        coeffs = inst.measure_factored(u, s) / nz
        val = float(coeffs @ coeffs) / (inst.m * scale2)
        worst = max(worst, abs(val - 1.0))
    return worst

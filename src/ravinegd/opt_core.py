"""Steppers and the one epoch engine behind every method.

``gdpolyak`` interlaces constant-stepsize gradient steps with Polyak
steps: each epoch runs K short steps and then one long Polyak step
targeting the known minimal value.  ``gdpolyak_lb`` runs
the same epochs in outer rounds that maintain a lower estimate of the
minimal value, restarting from the original initial point each round and
halving the gap between the estimate and the incumbent value.  The
baselines take one kind of step at every slot: a constant step
(``gd_baseline``) or a Polyak step toward f* (``polyak_baseline``).

All four run on one engine: I epochs of K+1 fused value/gradient
evaluations under a step plan, where the first ``n_constant`` slots of an
epoch take the constant step eta and the rest a Polyak step (K+1 constant
slots for gd, none for polyak, K for gdpolyak and gdpolyak_lb).  Every
completed evaluation gives one row of the :class:`RunTrace` columns,
describing the iterate the step departs from: its value gap, gradient
norm and the stepsize taken there.  An epoch keeps its rows in lists and
writes them once, at its end or its abort, one slice per column.
Distance oracles, when given, are row-batched, ``(n, dim) -> (n,)``, and
run at the same time, on the stacked block of the epoch's departure
iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import List, Optional

import numpy as np

from .errors import (
    NONNEGATIVE_REAL, POSITIVE, REAL, EmptyTrace, MissingFStar,
    NonFiniteGradient, TargetAboveValue, check_args, vector)
from .objective import Objective

SHORT_GD = "ShortGD"
POLYAK_LONG = "PolyakLong"

# Polyak step guards: skip when the gap is closed or the gradient vanishes.
GRAD_NORM_FLOOR = 1e-30

# A diverging run overflows to inf or nan, which the engine's finiteness
# checks turn into NonFiniteGradient; every run evaluates under this numpy
# error state, so that path prints no RuntimeWarning on the way.
OVERFLOW_IS_DATA = {"over": "ignore", "invalid": "ignore"}


def target_above(f_target: float, f: float) -> bool:
    """Whether a Polyak target exceeds the value ``f`` beyond the
    tolerance 1e-10 * (1 + |f_target|), which rounding cannot reach."""
    return f_target > f + 1e-10 * (1.0 + abs(f_target))


@dataclass
class RunTrace:
    """Columns of one optimizer run, one row per completed gradient evaluation.

    ``iter`` is the evaluation counter, so it skips the index of an
    evaluation that aborted a gdpolyak_lb round.  ``kind`` holds
    ``SHORT_GD`` or ``POLYAK_LONG``; the distance columns are ``None``
    unless distances were recorded, and are filled an epoch at a time (up
    to the abort, for an aborted round) from one oracle call on the block
    of its departure iterates.

    ``best_value`` is the minimum of f over the algorithm's argmin candidates
    (x0 and every iterate for the baselines, the long steps' departure and
    arrival points for gdpolyak and gdpolyak_lb) and ``x_out`` the earliest
    point attaining it.  ``epoch_phase_gaps[i]`` is the value gap at the end
    of epoch i's short-step phase (for the baselines, at the block end),
    ``epoch_end_gaps[i]`` the gap at the end of the epoch.
    """

    iter: np.ndarray
    epoch: np.ndarray
    kind: np.ndarray
    value_gap: np.ndarray
    grad_norm: np.ndarray
    stepsize: np.ndarray
    x_out: np.ndarray
    best_value: float
    grad_evals: int
    func_evals: int
    f_reference: float
    epoch_phase_gaps: np.ndarray
    epoch_end_gaps: np.ndarray
    dist_solution: Optional[np.ndarray] = None
    dist_ravine: Optional[np.ndarray] = None
    f_estimates: Optional[np.ndarray] = None
    round_values: Optional[np.ndarray] = None
    aborted_rounds: List[int] = field(default_factory=list)

    @property
    def polyak_stepsizes(self) -> np.ndarray:
        """Stepsizes of the Polyak rows, 0.0 where the step was skipped."""
        return self.stepsize[self.kind == POLYAK_LONG]


class _Engine:
    """Runs epochs of K+1 fused evaluations into preallocated trace columns.

    ``plan`` is the step plan ``(n_constant, eta, long_step)``, where
    ``long_step(f, gnorm2)`` gives a Polyak slot's stepsize.  With
    ``every_iterate`` (the baselines) x0 and every iterate are argmin
    candidates and an epoch's phase gap is its end gap; otherwise (methods
    with a long step) the candidates are the long step's departure and
    arrival points and the phase gap is the departure's gap.  ``best`` is
    the earliest minimal candidate seen, ``None`` before the first.
    ``oracles`` maps each recorded distance column to its row-batched
    oracle.
    """

    def __init__(self, obj: Objective, f_reference: float, budget: int,
                 every_iterate: bool, n_constant: int, eta: float, long_step,
                 dist_solution=None, dist_ravine=None):
        self.obj = obj
        self.f_reference = f_reference
        self.every_iterate = every_iterate
        self.plan = (n_constant, eta, long_step)
        self.grad_evals = 0
        self.func_evals = 0
        self.rows = 0
        self.best = None
        self.end_gaps = []
        # RunTrace's columns; ``kind`` holds True for a Polyak step until
        # the trace is assembled.
        self.columns = {name: np.empty(budget, dtype) for name, dtype in (
            ("iter", np.int64), ("epoch", np.int64), ("kind", bool),
            ("value_gap", float), ("grad_norm", float), ("stepsize", float))}
        self.oracles = {name: fn for name, fn in (
            ("dist_solution", dist_solution), ("dist_ravine", dist_ravine))
            if fn is not None}
        self.columns.update((name, np.empty(budget)) for name in self.oracles)

    def value(self, x) -> float:
        self.func_evals += 1
        return float(self.obj.eval(x))

    def consider(self, x, f):
        if self.best is None or f < self.best[1]:
            self.best = (x, f)

    def run(self, x, K: int, I: int, first_epoch: int = 1):
        """I epochs from ``x``, numbered from ``first_epoch``.

        A constant step always moves, even at eta = 0, where ``x - 0 * g``
        can turn -0.0 into 0.0; a Polyak step moves only when its stepsize
        is positive.  Raises :class:`NonFiniteGradient` carrying the
        evaluation's index, after counting it and writing the epoch's rows
        before it; any other error escapes as it is, writing nothing.
        """
        both, every_iterate = self.obj.both, self.every_iterate
        n_constant, eta, long_step = self.plan
        keep = bool(self.oracles)  # departures only feed the oracles
        for epoch in range(first_epoch, first_epoch + I):
            # x is rebound at every step and never mutated, so the list
            # keeps each departure iterate as it was.
            records, departures = [], []
            try:
                for slot in range(K + 1):
                    f, g = both(x)
                    f = float(f)
                    g = np.asarray(g, dtype=float)
                    # ndarray.dot: bitwise the 1-D ``g @ g`` at half its cost.
                    gnorm2 = float(g.dot(g))
                    # A sum of squares is finite only when every term is.
                    if not math.isfinite(gnorm2) and not np.isfinite(g).all():
                        raise NonFiniteGradient(
                            iter_index=self.grad_evals + slot)
                    constant = slot < n_constant
                    s = eta if constant else long_step(f, gnorm2)
                    records.append((f, gnorm2, s))
                    if keep:
                        departures.append(x)
                    if ((every_iterate or slot == K)
                            and (self.best is None or f < self.best[1])):
                        self.best = (x, f)
                    if constant or s > 0.0:
                        x = x - s * g
            except NonFiniteGradient:
                self.write_rows(epoch, records, departures, aborted=True)
                raise
            self.write_rows(epoch, records, departures)
            f_end = self.value(x)
            if math.isfinite(f_end):
                self.consider(x, f_end)
            self.end_gaps.append(f_end - self.f_reference)

    def write_rows(self, epoch, records, departures, aborted=False):
        """Write an epoch's ``(f, gnorm2, s)`` records, one slice per column,
        and count its evaluations (one more when it ``aborted``); each
        distance column takes one oracle call on the stacked departures."""
        n = len(records)
        rows = slice(self.rows, self.rows + n)
        f, gnorm2, s = np.fromiter(chain.from_iterable(records), float,
                                   3 * n).reshape(n, 3).T
        columns = self.columns
        columns["iter"][rows] = np.arange(self.grad_evals, self.grad_evals + n)
        columns["epoch"][rows] = epoch
        columns["kind"][rows] = np.arange(n) >= self.plan[0]
        # Elementwise, these are the scalar f - f_ref and math.sqrt.
        columns["value_gap"][rows] = f - self.f_reference
        columns["grad_norm"][rows] = np.sqrt(gnorm2)
        columns["stepsize"][rows] = s
        self.rows += n
        self.grad_evals += n + aborted
        self.func_evals += n + aborted
        if departures:
            block = np.array(departures)
            for name, oracle in self.oracles.items():
                columns[name][rows] = oracle(block)

    def trace(self, x_out, best_value, **extra) -> RunTrace:
        columns = {name: c[:self.rows] for name, c in self.columns.items()}
        polyak = columns["kind"]
        columns["kind"] = np.where(polyak, POLYAK_LONG, SHORT_GD)
        end_gaps = np.array(self.end_gaps)
        return RunTrace(
            **columns, x_out=np.array(x_out, dtype=float),
            best_value=best_value, grad_evals=self.grad_evals,
            func_evals=self.func_evals, f_reference=self.f_reference,
            epoch_phase_gaps=(end_gaps.copy() if self.every_iterate
                              else columns["value_gap"][polyak]),
            epoch_end_gaps=end_gaps, **extra)


def _run(x0, K: int, I: int, obj: Objective, f_ref: float,
         every_iterate: bool, n_constant: int, eta: float, long_step,
         dist_solution, dist_ravine) -> RunTrace:
    """One engine run of I epochs from x0; the baselines also consider x0."""
    engine = _Engine(obj, f_ref, I * (K + 1), every_iterate, n_constant, eta,
                     long_step, dist_solution, dist_ravine)
    x = np.asarray(x0, dtype=float)
    with np.errstate(**OVERFLOW_IS_DATA):
        if every_iterate:
            engine.consider(x, engine.value(x))
        engine.run(x, K, I)
    return engine.trace(*engine.best)


def polyak_step(x, obj: Objective, f_target: float):
    """One Polyak step x - (f(x) - f_target) / ||grad f(x)||^2 * grad f(x).

    Returns x unchanged when the gap is closed (within floating-point
    tolerance) or the gradient norm is below 1e-30.  Raises
    :class:`TargetAboveValue` when f_target exceeds f(x) beyond tolerance,
    signalling a bad lower-bound estimate.
    """
    check_args(x=(x, vector(obj.dim)), f_target=(f_target, REAL))
    x = np.asarray(x, dtype=float)
    f, g = obj.both(x)
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise NonFiniteGradient()
    step = _toward(f_target, "target")(f, float(g @ g))
    return x - step * g if step > 0.0 else x.copy()


def _polyak_stepsize(f, gnorm2, f_target, scale):
    """Stepsize of the guarded Polyak step; 0.0 when the step is skipped."""
    gap = f - f_target
    if gap <= 0.0 or gnorm2 <= GRAD_NORM_FLOOR * GRAD_NORM_FLOOR:
        return 0.0
    return gap / (scale * gnorm2)


def _toward(target: float, label: str):
    """The guarded Polyak stepsize ``(f, gnorm2) -> s`` toward ``target``;
    it raises :class:`TargetAboveValue`, naming the target ``label``, when
    the target exceeds the value ``f`` beyond tolerance."""
    def toward(f, gnorm2):
        if target_above(target, f):
            raise TargetAboveValue(
                f"{label} {target} exceeds value {f} beyond tolerance")
        return _polyak_stepsize(f, gnorm2, target, 1.0)

    return toward


def _toward_f_star(obj: Objective, method: str):
    """f* and the guarded long step toward it of gdpolyak and the Polyak
    baseline.  Raises :class:`MissingFStar` without f*."""
    if obj.f_star is None:
        raise MissingFStar(f"{method} requires obj.f_star")
    f_star = float(obj.f_star)
    return f_star, _toward(f_star, "f_star")


def gdpolyak(x0, eta: float, K: int, I: int, obj: Objective, *,
             dist_solution=None, dist_ravine=None) -> RunTrace:
    """I epochs of K short gradient steps plus one Polyak step toward f*.

    Requires ``obj.f_star``.  Performs exactly I*(K+1) gradient evaluations.
    The returned iterate is the earliest argmin of f over the epoch points
    (both the short-phase endpoints and the Polyak outputs).
    """
    f_star, toward_f_star = _toward_f_star(obj, "gdpolyak")
    check_args(x0=(x0, vector(obj.dim)), eta=(eta, NONNEGATIVE_REAL),
               K=(K, POSITIVE), I=(I, POSITIVE))
    return _run(x0, K, I, obj, f_star, False, K, eta, toward_f_star,
                dist_solution, dist_ravine)


def gdpolyak_lb(x0, eta: float, K: int, I: int, J: int, f0: float,
                obj: Objective, *, dist_solution=None,
                dist_ravine=None) -> RunTrace:
    """J restarted rounds of halved Polyak epochs driven by a lower estimate.

    Round j runs I epochs from the original x0, using Polyak steps with
    scale 2 and target f_{j-1}; the estimate then updates to the midpoint
    f_j = (f_{j-1} + f(x_j)) / 2 where x_j is the round's best iterate.
    The returned point is the best of the round bests.

    A round whose iterates produce a non-finite gradient is abandoned (its
    candidates so far are kept); the next round restarts from x0 regardless.
    Epochs whose target exceeds the current value skip the Polyak step.
    """
    check_args(x0=(x0, vector(obj.dim)), eta=(eta, NONNEGATIVE_REAL),
               K=(K, POSITIVE), I=(I, POSITIVE), J=(J, POSITIVE),
               f0=(f0, REAL))
    f0 = float(f0)
    x0 = np.asarray(x0, dtype=float)
    f_ref = float(obj.f_star) if obj.f_star is not None else f0
    f_est = f0

    def toward_estimate(f, gnorm2):
        if target_above(f_est, f):
            return 0.0
        return _polyak_stepsize(f, gnorm2, f_est, 2.0)

    engine = _Engine(obj, f_ref, J * I * (K + 1), False, K, eta,
                     toward_estimate, dist_solution, dist_ravine)
    estimates = np.empty(J)
    round_values = np.empty(J)
    round_bests = []
    aborted = []
    with np.errstate(**OVERFLOW_IS_DATA):
        fx0 = engine.value(x0)
        if target_above(f0, fx0):
            raise ValueError(f"f0 = {f0} exceeds f(x0) = {fx0}")
        for j in range(1, J + 1):
            engine.best = None
            # A far-below target can catapult an epoch; overflow to inf is
            # the designed failure path (the round aborts, the next one
            # restarts).
            try:
                engine.run(x0, K, I, first_epoch=(j - 1) * I + 1)
            except NonFiniteGradient:
                aborted.append(j)
            if engine.best is None:
                # Diverged before banking any iterate; the round contributes
                # nothing.
                estimates[j - 1] = f_est
                round_values[j - 1] = np.inf
                continue
            f_xj = engine.best[1]
            f_est = 0.5 * (f_est + f_xj)
            estimates[j - 1] = f_est
            round_values[j - 1] = f_xj
            round_bests.append(engine.best)
    if not round_bests:
        raise EmptyTrace("every round diverged before recording an iterate")

    return engine.trace(*min(round_bests, key=lambda b: b[1]),
                        f_estimates=estimates, round_values=round_values,
                        aborted_rounds=aborted)


def gd_baseline(x0, eta: float, K: int, I: int, obj: Objective, *,
                dist_solution=None, dist_ravine=None) -> RunTrace:
    """Constant-stepsize gradient descent at the gdpolyak budget I*(K+1).

    Iterations are grouped into I blocks of K+1 steps so that per-block
    value gaps are comparable to gdpolyak epochs at equal gradient budget.
    """
    check_args(x0=(x0, vector(obj.dim)), eta=(eta, NONNEGATIVE_REAL),
               K=(K, POSITIVE), I=(I, POSITIVE))
    f_ref = float(obj.f_star) if obj.f_star is not None else 0.0
    return _run(x0, K, I, obj, f_ref, True, K + 1, eta, None, dist_solution,
                dist_ravine)


def polyak_baseline(x0, K: int, I: int, obj: Objective, *,
                    dist_solution=None, dist_ravine=None) -> RunTrace:
    """A Polyak step toward f* at every iteration, budget I*(K+1).

    Grouped into I blocks of K+1 steps for equal-budget comparisons.
    Raises :class:`TargetAboveValue`, as gdpolyak does, when f* exceeds
    the value at an iterate beyond tolerance.
    """
    f_star, toward_f_star = _toward_f_star(obj, "polyak baseline")
    check_args(x0=(x0, vector(obj.dim)), K=(K, POSITIVE), I=(I, POSITIVE))
    return _run(x0, K, I, obj, f_star, True, 0, 0.0, toward_f_star,
                dist_solution, dist_ravine)

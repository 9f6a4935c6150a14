"""Stepper and algorithm tests against hand-computed oracles."""

import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ravinegd import (
    EmptyTrace,
    MissingFStar,
    ExperimentConfig,
    NonFiniteGradient,
    Objective,
    OriginSingularity,
    TargetAboveValue,
    ZeroNeuron,
    gd_baseline,
    gdpolyak,
    gdpolyak_lb,
    polyak_baseline,
    polyak_step,
)
from ravinegd import opt_core
from ravinegd.harness import run_experiment, trace_to_csv
from ravinegd.objective import row_norms
from ravinegd.opt_core import POLYAK_LONG, SHORT_GD
from ravinegd.problems import (
    PROBLEM_NAMES, build, circle, quartic, sample_init)


def _csv_text(trace):
    out = io.StringIO()
    trace_to_csv(trace, out)
    return out.getvalue()


@pytest.fixture
def qobj():
    return quartic.objective()


class CountingObjective:
    """Wraps an objective and counts gradient evaluations."""

    def __init__(self, obj):
        self._obj = obj
        self.dim = obj.dim
        self.f_star = obj.f_star
        self.p_growth = obj.p_growth
        self.dist_solution = obj.dist_solution
        self.grad_calls = 0

    def eval(self, x):
        return self._obj.eval(x)

    def grad(self, x):
        self.grad_calls += 1
        return self._obj.grad(x)

    def both(self, x):
        self.grad_calls += 1
        return self._obj.both(x)

    value_and_grad = None


def test_objective_derives_per_point_forms_from_the_fused_one():
    def both(x):
        return float(x @ x), 2.0 * x

    obj = Objective(dim=2, value_and_grad=both)
    x = np.array([0.5, -2.0])
    assert obj.eval(x) == both(x)[0]
    assert np.array_equal(obj.grad(x), both(x)[1])
    assert obj.dist_solution is None
    with_rows = Objective(dim=2, value_and_grad=both, dist_rows=row_norms)
    assert with_rows.dist_solution(x) == np.linalg.norm(x)

    def other(x):
        return -1.0

    assert dataclasses.replace(obj, eval=other).eval is other
    assert dataclasses.replace(obj, f_star=0.0).eval is obj.eval


# ------------------------------------------------------------ gd_baseline

def test_gd_baseline_error_carries_iteration_index():
    calls = {"n": 0}

    def both(x):
        calls["n"] += 1
        if calls["n"] >= 3:
            return 0.0, np.array([np.inf])
        return 0.0, np.array([0.1])

    # eval is given so that the value of x0 does not advance the count.
    bad = Objective(dim=1, value_and_grad=both, eval=lambda x: 0.0)
    with pytest.raises(NonFiniteGradient) as exc:
        gd_baseline(np.array([1.0]), 0.1, 10, 1, bad)
    assert exc.value.iter_index == 2


# ------------------------------------------------------------- polyak_step

def test_polyak_step_three_quarter_contraction(qobj):
    x = polyak_step(np.array([1.0]), qobj, 0.0, scale=1.0)
    assert x[0] == pytest.approx(0.75, rel=1e-12)


def test_polyak_step_zero_gap_returns_input(qobj):
    x0 = np.array([0.7])
    x = polyak_step(x0, qobj, qobj.eval(x0))
    assert x[0] == x0[0]


def test_polyak_step_scale_two(qobj):
    # 1 - (0.25 / (2 * 1)) * 1 = 0.875
    x = polyak_step(np.array([1.0]), qobj, 0.0, scale=2.0)
    assert x[0] == pytest.approx(0.875, rel=1e-12)


def test_polyak_step_target_above_value(qobj):
    with pytest.raises(TargetAboveValue):
        polyak_step(np.array([1.0]), qobj, 1.0)


def test_polyak_step_rejects_other_scales(qobj):
    with pytest.raises(ValueError):
        polyak_step(np.array([1.0]), qobj, 0.0, scale=3.0)


@pytest.mark.parametrize("f_target", [math.nan, math.inf, -math.inf])
def test_polyak_step_rejects_a_non_finite_target(qobj, f_target):
    with pytest.raises(ValueError,
                       match="^f_target: must be a real number, got "):
        polyak_step(np.array([1.0]), qobj, f_target)


def test_polyak_step_stationary_guard(qobj):
    # At the minimizer both the gap and gradient vanish.
    assert polyak_step(np.zeros(1), qobj, 0.0)[0] == 0.0


@settings(max_examples=200, deadline=None)
@given(h=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3),
       u=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       exponent=st.integers(-40, 1),
       ratio=st.floats(-2.0, 2.0),
       shift=st.sampled_from([0.0, -1.0, 1.0]),
       scale=st.sampled_from([1.0, 2.0]))
def test_polyak_step_formula_and_guards_on_quadratic(h, u, exponent, ratio,
                                                     shift, scale):
    # f(x) = x^T H x / 2; tiny exponents reach the vanishing-gradient guard
    # and targets near f reach the closed-gap guard.
    h = np.array(h)
    obj = Objective(dim=3,
                    value_and_grad=lambda z: (0.5 * float(z @ (h * z)), h * z))
    x = np.array(u) * 10.0 ** exponent
    f, g = obj.both(x)
    f_target = f * (1.0 - ratio) + shift
    if f_target > f + 1e-10 * (1.0 + abs(f_target)):
        with pytest.raises(TargetAboveValue):
            polyak_step(x, obj, f_target, scale=scale)
        return
    out = polyak_step(x, obj, f_target, scale=scale)
    if f_target >= f or float(g @ g) <= 1e-30 * 1e-30:
        assert np.array_equal(out, x)
    else:
        assert np.array_equal(
            out, x - (f - f_target) / (scale * float(g @ g)) * g)


# ---------------------------------------------------------------- gdpolyak

def test_gdpolyak_two_epoch_contraction(qobj):
    # eta = 0 makes short steps the identity; each epoch applies one Polyak
    # step, contracting by exactly 3/4.
    trace = gdpolyak(np.array([1.0]), 0.0, 1, 2, qobj)
    assert trace.x_out[0] == pytest.approx(0.5625, rel=1e-12)
    assert trace.best_value == pytest.approx(0.25 * 0.5625 ** 4, rel=1e-12)


def test_gdpolyak_stays_at_minimizer(qobj):
    trace = gdpolyak(np.zeros(1), 0.1, 3, 4, qobj)
    assert trace.x_out[0] == 0.0
    assert trace.best_value == qobj.f_star


def test_gdpolyak_requires_f_star():
    no_star = Objective(dim=1,
                        value_and_grad=lambda x: (float(x[0] ** 2), 2 * x))
    with pytest.raises(MissingFStar):
        gdpolyak(np.array([1.0]), 0.1, 1, 1, no_star)


@pytest.mark.parametrize("seed", range(10))
def test_gdpolyak_budget_identity(qobj, seed):
    rng = np.random.default_rng(seed)
    K = int(rng.integers(1, 12))
    I = int(rng.integers(1, 9))
    counting = CountingObjective(qobj)
    trace = gdpolyak(np.array([0.8]), 0.01, K, I, counting)
    assert counting.grad_calls == I * (K + 1)
    assert trace.grad_evals == I * (K + 1)
    assert len(trace.iter) == I * (K + 1)


def test_gdpolyak_epoch_contraction_exact(qobj):
    trace = gdpolyak(np.array([1.0]), 0.0, 1, 12, qobj)
    # Epoch-end iterates shrink by exactly 3/4 each epoch, so the epoch-end
    # value gaps shrink by (3/4)^4.
    gaps = trace.epoch_end_gaps
    ratio = gaps[1:] / gaps[:-1]
    assert np.all(np.abs(ratio - 0.75 ** 4) <= 1e-12 * 0.75 ** 4)
    # The final iterate is the 12-fold contraction of the start.
    assert trace.x_out[0] == pytest.approx(0.75 ** 12, rel=1e-12)


def test_gdpolyak_output_optimality(qobj):
    trace = gdpolyak(np.array([1.1]), 0.05, 5, 8, qobj)
    recorded = trace.value_gap + qobj.f_star
    assert trace.best_value <= recorded.min() + 1e-18


def test_gdpolyak_record_schema(qobj):
    trace = gdpolyak(np.array([1.0]), 0.02, 3, 2, qobj)
    kinds = trace.kind.tolist()
    assert kinds == [SHORT_GD] * 3 + [POLYAK_LONG] + [SHORT_GD] * 3 + [POLYAK_LONG]
    iters = trace.iter.tolist()
    assert iters == sorted(iters) and len(set(iters)) == len(iters)
    assert trace.epoch.tolist() == [1] * 4 + [2] * 4


def test_gdpolyak_deterministic(qobj):
    t1 = gdpolyak(np.array([0.9]), 0.03, 4, 6, qobj)
    t2 = gdpolyak(np.array([0.9]), 0.03, 4, 6, qobj)
    assert t1.x_out[0] == t2.x_out[0]
    assert t1.value_gap.tolist() == t2.value_gap.tolist()
    assert t1.stepsize.tolist() == t2.stepsize.tolist()


# ------------------------------------------------------------- gdpolyak_lb

def test_gdpolyak_lb_hand_simulation(qobj):
    # One scale-2 Polyak step per round from x0 = 1 with target f_{j-1}.
    trace = gdpolyak_lb(np.array([1.0]), 0.0, 1, 1, 2, 0.0, qobj)
    # Round 1: x1 = 1 - (0.25 / 2) = 0.875, f1 = (0 + f(0.875)) / 2.
    f_875 = 0.25 * 0.875 ** 4
    assert trace.round_values[0] == pytest.approx(f_875, rel=1e-12)
    assert trace.f_estimates[0] == pytest.approx(f_875 / 2.0, rel=1e-12)
    # Round 2 restarts at 1 with the larger target, hence a shorter step.
    x2 = 1.0 - (0.25 - f_875 / 2.0) / 2.0
    assert trace.round_values[1] == pytest.approx(0.25 * x2 ** 4, rel=1e-12)
    # The returned iterate is the better round best.
    assert trace.x_out[0] == pytest.approx(0.875, rel=1e-12)


def test_gdpolyak_lb_at_minimizer(qobj):
    trace = gdpolyak_lb(np.zeros(1), 0.1, 2, 2, 3, -1.0, qobj)
    assert trace.x_out[0] == 0.0


def test_gdpolyak_lb_estimate_monotonicity(qobj):
    # With f0 <= f*, every estimate stays below the incumbent value.
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x0 = np.array([rng.uniform(0.2, 2.0)])
        trace = gdpolyak_lb(x0, 0.0, 1, 2, 6, 0.0, qobj)
        assert np.all(trace.f_estimates <= trace.round_values + 1e-18)


def test_gdpolyak_lb_estimate_safety_strict_lower_bound(qobj):
    # A strict lower bound stays a lower bound as long as the per-round
    # attainable accuracy outpaces the halving sequence; at this budget
    # (I = 30 epochs per round) the estimates never cross f*.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x0 = np.array([rng.uniform(0.2, 2.0)])
        trace = gdpolyak_lb(x0, 0.0, 1, 30, 20, qobj.f_star - 1.0, qobj)
        assert np.all(trace.f_estimates <= qobj.f_star + 1e-10)


def test_gdpolyak_lb_budget(qobj):
    counting = CountingObjective(qobj)
    trace = gdpolyak_lb(np.array([0.9]), 0.01, 3, 2, 4, -0.5, counting)
    assert counting.grad_calls == 4 * 2 * (3 + 1)
    assert trace.grad_evals == 4 * 2 * (3 + 1)


def test_gdpolyak_lb_restarts_from_x0(qobj):
    # With eta = 0, the short phase is the identity, so the first record of
    # every round sits at x0: identical value gaps.
    trace = gdpolyak_lb(np.array([1.0]), 0.0, 2, 3, 3, -1.0, qobj)
    first_gap = trace.value_gap[0]
    per_round = 3 * (2 + 1)
    for j in range(3):
        assert trace.value_gap[j * per_round] == first_gap


def test_gdpolyak_lb_rejects_f0_above_value(qobj):
    with pytest.raises(ValueError):
        gdpolyak_lb(np.array([1.0]), 0.0, 1, 1, 1, 10.0, qobj)


@pytest.mark.parametrize("f0", [math.nan, -math.inf, math.inf])
def test_gdpolyak_lb_rejects_a_non_finite_f0(qobj, f0):
    with pytest.raises(ValueError, match="^f0: must be a real number, got "):
        gdpolyak_lb(np.array([1.0]), 0.1, 2, 2, 2, f0, qobj)


@pytest.mark.parametrize("eta", [math.nan, math.inf])
@pytest.mark.parametrize("method", ["gd", "gdpolyak", "gdpolyak_lb"])
def test_methods_reject_a_non_finite_eta(qobj, method, eta):
    x0 = np.array([1.0])
    with pytest.raises(ValueError,
                       match="^eta: must be a real number >= 0, got "):
        if method == "gd":
            gd_baseline(x0, eta, 2, 2, qobj)
        elif method == "gdpolyak":
            gdpolyak(x0, eta, 2, 2, qobj)
        else:
            gdpolyak_lb(x0, eta, 2, 2, 2, -1.0, qobj)


_COUNT_CALLS = {
    "gd": lambda obj, K, I, J: gd_baseline(np.array([1.0]), 0.1, K, I, obj),
    "polyak": lambda obj, K, I, J: polyak_baseline(np.array([1.0]), K, I,
                                                   obj),
    "gdpolyak": lambda obj, K, I, J: gdpolyak(np.array([1.0]), 0.1, K, I,
                                              obj),
    "gdpolyak_lb": lambda obj, K, I, J: gdpolyak_lb(
        np.array([1.0]), 0.1, K, I, J, -1.0, obj),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, 2.5, 2.0, True, "2"])
@pytest.mark.parametrize("method, count", [
    (method, count) for method in sorted(_COUNT_CALLS)
    for count in ("K", "I", "J") if count != "J" or method == "gdpolyak_lb"])
def test_methods_reject_a_count_that_is_not_an_integer(qobj, method, count,
                                                       bad):
    counts = {"K": 2, "I": 2, "J": 2, count: bad}
    with pytest.raises(ValueError,
                       match=f"^{count}: must be an integer >= 1, got "):
        _COUNT_CALLS[method](qobj, **counts)


@pytest.mark.parametrize("method", sorted(_COUNT_CALLS))
def test_methods_take_numpy_integer_counts(qobj, method):
    plain = _COUNT_CALLS[method](qobj, 2, 3, 2)
    numpy = _COUNT_CALLS[method](qobj, np.int64(2), np.int32(3), np.int8(2))
    assert _csv_text(numpy) == _csv_text(plain)


def test_gdpolyak_lb_survives_diverging_round():
    # A target far below f* catapults some round; the argmin base plus
    # restart semantics must still deliver a finite answer.
    from ravinegd.problems import rosenbrock
    obj = rosenbrock.objective()
    rng = np.random.default_rng(0)
    d = rng.standard_normal(2)
    x0 = 0.5 * d / np.linalg.norm(d)
    trace = gdpolyak_lb(x0, 0.0125, 50, 10, 6, -1.0, obj)
    assert np.isfinite(trace.best_value)
    assert np.all(trace.f_estimates <= 1e-10)


def test_gdpolyak_lb_every_round_diverged():
    bad = Objective(dim=1,
                    value_and_grad=lambda x: (0.0, np.array([np.inf])))
    with pytest.raises(EmptyTrace):
        gdpolyak_lb(np.array([1.0]), 0.1, 2, 2, 3, 0.0, bad)


def test_gdpolyak_lb_aborted_round_leaves_no_row():
    # f = x^2 / 2; the fifth gradient evaluation (index 4) is infinite,
    # which aborts round 1 in its second epoch.
    calls = {"n": 0}

    def value(x):
        return 0.5 * float(x[0]) ** 2

    def both(x):
        calls["n"] += 1
        return value(x), np.array([np.inf]) if calls["n"] == 5 else x.copy()

    # eval is given so that the end-of-epoch values do not advance the count.
    obj = Objective(dim=1, value_and_grad=both, eval=value, f_star=0.0)
    trace = gdpolyak_lb(np.array([1.0]), 0.5, 2, 2, 2, -1.0, obj)
    assert trace.aborted_rounds == [1]
    assert trace.grad_evals == 5 + 6
    assert len(trace.iter) == trace.grad_evals - len(trace.aborted_rounds)
    assert trace.iter.tolist() == [0, 1, 2, 3] + list(range(5, 11))
    lines = _csv_text(trace).split("\n")
    # Round 1: 1 -> 0.5 -> 0.25, then a scale-2 Polyak step toward -1 of
    # stepsize (0.03125 + 1) / (2 * 0.0625) lands at -1.8125.  Round 2
    # restarts from x0 in epoch 3.
    assert lines[3:7] == [
        "2,1,PolyakLong,0.03125,0.25,8.25,,",
        "3,2,ShortGD,1.642578125,1.8125,0.5,,",
        "5,3,ShortGD,0.5,1,0.5,,",
        "6,3,ShortGD,0.125,0.5,0.5,,",
    ]
    # Round 1's best is banked: f_1 = (-1 + 0.03125) / 2.
    assert trace.f_estimates[0] == -0.484375


def test_gdpolyak_lb_circle_overflow_aborts_the_round():
    # A target far below f* catapults the iterate to ||z|| ~ 1e250, where
    # circle's powers overflow: each round aborts and the run goes on.
    bundle = build("circle")
    trace = gdpolyak_lb(sample_init(bundle, 0.3, 0), 0.05, 5, 3, 2, -1e250,
                        bundle.objective)
    assert trace.aborted_rounds == [1, 2]
    assert np.isfinite(trace.best_value)


@settings(max_examples=60, deadline=None)
@given(K=st.integers(1, 12), I=st.integers(1, 8),
       method=st.sampled_from(["gd", "polyak", "gdpolyak", "gdpolyak_lb"]))
def test_budget_rows_and_iter_order_all_methods(K, I, method):
    qobj = quartic.objective()
    x0 = np.array([0.8])
    run = {
        "gd": lambda: gd_baseline(x0, 0.05, K, I, qobj),
        "polyak": lambda: polyak_baseline(x0, K, I, qobj),
        "gdpolyak": lambda: gdpolyak(x0, 0.05, K, I, qobj),
        "gdpolyak_lb": lambda: gdpolyak_lb(x0, 0.05, K, I, 1, 0.0, qobj),
    }[method]
    trace = run()
    assert trace.grad_evals == I * (K + 1)
    assert len(trace.iter) == trace.grad_evals
    assert np.all(np.diff(trace.iter) > 0)


# ------------------------------------------------------- distance oracles

def _recording(obj):
    """``obj`` with a fused evaluation that keeps a copy of each point."""
    seen = []

    def value_and_grad(x):
        seen.append(np.array(x))
        return obj.both(x)

    return dataclasses.replace(obj, value_and_grad=value_and_grad), seen


@pytest.mark.parametrize("method", ["gd", "polyak", "gdpolyak", "gdpolyak_lb"])
def test_every_distance_cell_is_the_point_oracle(method):
    # K=20, I=6 with f_lb = -1: every gdpolyak_lb round overflows partway
    # through an epoch, so its last epoch fills a partial block.
    bundle = build("rosenbrock")
    obj, seen = _recording(bundle.objective)
    rav = bundle.descriptor
    rows = {"dist_solution": obj.dist_rows,
            "dist_ravine": lambda X: row_norms(X - rav.retract_rows(X))}
    points = {"dist_solution": obj.dist_solution,
              "dist_ravine": lambda x: np.linalg.norm(x - rav.retract(x))}
    x0 = sample_init(bundle, 0.5, 0)
    trace = {
        "gd": lambda: gd_baseline(x0, 0.0125, 20, 6, obj, **rows),
        "polyak": lambda: polyak_baseline(x0, 20, 6, obj, **rows),
        "gdpolyak": lambda: gdpolyak(x0, 0.0125, 20, 6, obj, **rows),
        "gdpolyak_lb": lambda: gdpolyak_lb(x0, 0.0125, 20, 6, 3, -1.0, obj,
                                           **rows),
    }[method]()
    if method == "gdpolyak_lb":
        assert trace.aborted_rounds == [1, 2, 3]
        assert len(trace.iter) % 21 != 0
    assert len(trace.iter) == len(seen) - len(trace.aborted_rounds)
    for name, oracle in points.items():
        with np.errstate(over="ignore"):
            expected = np.array([oracle(seen[i]) for i in trace.iter])
        assert getattr(trace, name).tobytes() == expected.tobytes()


class Unreachable(Exception):
    pass


def _never(X):
    raise Unreachable("the oracle ran after a failed evaluation")


@pytest.mark.parametrize("lb", [False, True])
def test_other_errors_escape_before_the_distance_fill(lb):
    # The fifth evaluation, mid-epoch, raises an error of the objective;
    # the engine must let it out as it is, without filling the epoch.
    calls = {"n": 0}

    def both(x):
        calls["n"] += 1
        if calls["n"] == 5:
            raise ZeroNeuron("degenerate point")
        return 0.5 * float(x @ x), x.copy()

    obj = Objective(dim=1, eval=lambda x: 0.5 * float(x @ x), grad=None,
                    f_star=0.0, value_and_grad=both)
    x0 = np.array([1.0])
    with pytest.raises(ZeroNeuron):
        if lb:
            gdpolyak_lb(x0, 0.1, 6, 2, 2, -1.0, obj, dist_solution=_never)
        else:
            gdpolyak(x0, 0.1, 6, 2, obj, dist_solution=_never)


# ------------------------------------------------ the rule-closure engine

class _RuleEngine(opt_core._Engine):
    """The engine loop the step plan replaced, kept as the reference.

    Each slot calls ``rule(slot, f, gnorm2)`` for its stepsize and kind and
    writes its row as six scalars; an epoch's distances are filled from
    ``np.stack`` of its departure iterates.
    """

    def run(self, x, K, I, first_epoch=1):
        n_constant, eta, long_step = self.plan

        def rule(slot, f, gnorm2):
            if slot < n_constant:
                return eta, False
            return long_step(f, gnorm2), True

        obj, f_ref, oracles = self.obj, self.f_reference, self.oracles
        iters, epochs, kinds, gaps, norms, steps = (
            self.columns[name] for name in (
                "iter", "epoch", "kind", "value_gap", "grad_norm", "stepsize"))
        for epoch in range(first_epoch, first_epoch + I):
            departures = []
            try:
                for slot in range(K + 1):
                    f, g = obj.both(x)
                    f = float(f)
                    g = np.asarray(g, dtype=float)
                    self.grad_evals += 1
                    self.func_evals += 1
                    gnorm2 = float(g @ g)
                    if not math.isfinite(gnorm2) and not np.isfinite(g).all():
                        raise NonFiniteGradient(iter_index=self.grad_evals - 1)
                    s, polyak = rule(slot, f, gnorm2)
                    row = self.rows
                    self.rows += 1
                    iters[row] = self.grad_evals - 1
                    epochs[row] = epoch
                    kinds[row] = polyak
                    gaps[row] = f - f_ref
                    norms[row] = math.sqrt(gnorm2)
                    steps[row] = s
                    if oracles:
                        departures.append(x)
                    if self.every_iterate or slot == K:
                        self.consider(x, f)
                    if s > 0.0 or not polyak:
                        x = x - s * g
            except NonFiniteGradient:
                self.fill_distances(departures)
                raise
            self.fill_distances(departures)
            f_end = self.value(x)
            if math.isfinite(f_end):
                self.consider(x, f_end)
            self.end_gaps.append(f_end - f_ref)

    def fill_distances(self, departures):
        if not departures:
            return
        block = np.stack(departures)
        rows = slice(self.rows - len(departures), self.rows)
        for name, oracle in self.oracles.items():
            self.columns[name][rows] = oracle(block)


def _outcome(config):
    """Everything a run returns, as bytes, or the error it raised."""
    try:
        t = run_experiment(config)
    except Exception as exc:
        return type(exc), str(exc)
    optional = [None if a is None else a.tobytes()
                for a in (t.f_estimates, t.round_values)]
    return (_csv_text(t), t.x_out.tobytes(), repr(t.best_value),
            t.grad_evals, t.func_evals, t.epoch_phase_gaps.tobytes(),
            t.epoch_end_gaps.tobytes(), *optional, t.aborted_rounds)


def test_step_plan_engine_matches_the_rule_closure_engine(monkeypatch):
    # gdpolyak_lb at f_lb = -1 aborts rounds on rosenbrock and overflows
    # quartic1d out of the engine; both engines must agree on that too.
    configs = [
        ExperimentConfig(problem=problem, method=method,
                         eta={"quartic1d": 0.05, "rosenbrock": 0.0125,
                              "circle": 0.05}.get(problem, 0.01),
                         K=20, I=6, seed=seed, record_distances=distances,
                         J=None if f_lb is None else 3, f_lb=f_lb)
        for problem in PROBLEM_NAMES
        for method in ("gd", "polyak", "gdpolyak", "gdpolyak_lb")
        for f_lb in ((-1.0, -1e-3) if method == "gdpolyak_lb" else (None,))
        for distances in (False, True) for seed in (0, 1)]
    lean = [_outcome(config) for config in configs]
    monkeypatch.setattr(opt_core, "_Engine", _RuleEngine)
    reference = [_outcome(config) for config in configs]
    assert lean == reference
    assert any(isinstance(o[0], str) and o[-1] for o in lean)
    assert any(o[0] is OverflowError for o in lean)


@pytest.mark.parametrize("engine", [opt_core._Engine, _RuleEngine])
def test_other_errors_escape_with_their_own_type(engine, monkeypatch):
    monkeypatch.setattr(opt_core, "_Engine", engine)
    # f* = 1 lies above every value of quartic1d near 0.5: both methods
    # with a step toward f* refuse it rather than skip the step.
    above = dataclasses.replace(quartic.objective(), f_star=1.0)
    with pytest.raises(TargetAboveValue):
        gdpolyak(np.array([0.5]), 0.01, 3, 2, above)
    with pytest.raises(TargetAboveValue):
        polyak_baseline(np.array([0.5]), 3, 2, above)
    # From (0, 2) the gradient is (0, 2), so a step of 1 lands on the
    # origin at the second evaluation.
    with pytest.raises(OriginSingularity):
        gd_baseline(np.array([0.0, 2.0]), 1.0, 3, 2, circle.objective(),
                    dist_solution=_never)

"""The library's entry points judge their arguments by the CLI's rules.

Each entry point is called with one argument replaced by a value its rule
refuses; the call must raise ValueError whose message starts with that
argument's name, the CLI's ``name: must be <phrase>, got <value>``.
"""

import inspect
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ravinegd
from ravinegd import (
    check_aiming,
    check_gradient_control,
    check_growth_exponent,
    check_lojasiewicz,
    check_ravine_quadratic,
    fit_linear_rate,
    gd_baseline,
    gdpolyak,
    gdpolyak_lb,
    measure_rip,
    morse_ravine_solve,
    polyak_baseline,
    polyak_step,
)
from ravinegd.morse import spectral_split
from ravinegd.problems import build, sample_init, sensing

BUNDLE = build("rosenbrock")
OBJ, RAV = BUNDLE.objective, BUNDLE.descriptor
X0 = sample_init(BUNDLE, 0.1, 0)
RIP_INSTANCE = sensing.make_sensing_instance(d=4, r=1, k=2, m=40, seed=0)
SOLVER = morse_ravine_solve(OBJ, BUNDLE.base_solution, 1e-12, 50)
TRACE = gd_baseline(X0, 0.01, 2, 10, OBJ)

# Each entry point, as a call on keyword arguments, and valid values of
# the arguments it judges; the rest are fixed.
ENTRY_POINTS = {
    "gd_baseline": (lambda x0, eta, K, I: gd_baseline(x0, eta, K, I, OBJ),
                    {"x0": X0, "eta": 0.01, "K": 2, "I": 2}),
    "polyak_baseline": (lambda x0, K, I: polyak_baseline(x0, K, I, OBJ),
                        {"x0": X0, "K": 2, "I": 2}),
    "gdpolyak": (lambda x0, eta, K, I: gdpolyak(x0, eta, K, I, OBJ),
                 {"x0": X0, "eta": 0.01, "K": 2, "I": 2}),
    "gdpolyak_lb": (
        lambda x0, eta, K, I, J, f0: gdpolyak_lb(x0, eta, K, I, J, f0, OBJ),
        {"x0": X0, "eta": 0.01, "K": 2, "I": 2, "J": 2, "f0": -1.0}),
    "polyak_step": (lambda x, f_target: polyak_step(x, OBJ, f_target),
                    {"x": X0, "f_target": 0.0}),
    "check_ravine_quadratic": (
        lambda n_samples, radius, seed: check_ravine_quadratic(
            OBJ, RAV, n_samples, radius, seed, lower_bracket=5.0,
            upper_bracket=20.0),
        {"n_samples": 3, "radius": 0.1, "seed": 0}),
    "check_aiming": (
        lambda n_samples, radius, seed: check_aiming(
            OBJ, RAV, n_samples, radius, seed),
        {"n_samples": 3, "radius": 0.1, "seed": 0}),
    "check_growth_exponent": (
        lambda n_samples, radius_grid, seed, exact_bracket:
            check_growth_exponent(OBJ, RAV, n_samples, radius_grid, seed,
                                  exact_bracket=exact_bracket),
        {"n_samples": 3, "radius_grid": [0.01, 0.1], "seed": 0,
         "exact_bracket": (0.5, 2.0, 0.0)}),
    "check_lojasiewicz": (
        lambda p, n_samples, radius, seed, sample_solution: check_lojasiewicz(
            OBJ, p, n_samples, radius, seed,
            sample_solution=sample_solution, retract=RAV.retract),
        {"p": OBJ.p_growth, "n_samples": 3, "radius": 0.1, "seed": 0,
         "sample_solution": BUNDLE.sample_solution}),
    "check_gradient_control": (
        lambda n_samples, radius, seed: check_gradient_control(
            OBJ, RAV, n_samples, radius, seed),
        {"n_samples": 3, "radius": 0.1, "seed": 0}),
    "measure_rip": (
        lambda rank_l, trials, seed: measure_rip(
            RIP_INSTANCE, rank_l, trials, seed),
        {"rank_l": 2, "trials": 3, "seed": 0}),
    "morse_ravine_solve": (
        lambda basepoint, tol, max_iter: morse_ravine_solve(
            OBJ, basepoint, tol, max_iter),
        {"basepoint": BUNDLE.base_solution, "tol": 1e-12, "max_iter": 50}),
    "spectral_split": (lambda base: spectral_split(OBJ, base),
                       {"base": BUNDLE.base_solution}),
    "MorseRavineSolver.solve": (lambda u: SOLVER.solve(u), {"u": [0.1]}),
    "fit_linear_rate": (lambda burn_in: fit_linear_rate(TRACE, burn_in),
                        {"burn_in": 5}),
}

# Exported functions that judge their arguments by the CLI's field names
# (``samples:`` for ``n_samples``) and raise ConfigInvalid, which
# tests/test_harness.py covers.
EXEMPT = {"run_experiment", "compare_methods", "diagnose"}

BAD_VALUES = {"0": 0, "-1": -1, "2.5": 2.5, "True": True, "nan": math.nan,
              "inf": math.inf, "-inf": -math.inf, "'1'": "1", "None": None,
              "[1.0]": [1.0], "[nan, 1.0]": [math.nan, 1.0],
              "(nan, 1.0, 0.0)": (math.nan, 1.0, 0.0),
              "('a', 1, 0)": ("a", 1, 0)}

# The values of BAD_VALUES that an argument's rule admits: eta is a real
# number >= 0, a radius, p and tol ones > 0, a seed and a burn-in an
# integer >= 0, a target any real number, a growth grid a list of radii,
# a growth bracket None or three real numbers and a Morse tangent offset
# a point of R^1.  Every other argument, a point of R^2 and a solution
# sampler among them, refuses them all.
ADMITTED = {"eta": {"0", "2.5"}, "radius": {"2.5"}, "p": {"2.5"},
            "tol": {"2.5"}, "seed": {"0"}, "radius_grid": {"[1.0]"},
            "exact_bracket": {"None"}, "u": {"[1.0]"}, "burn_in": {"0"},
            "f0": {"0", "-1", "2.5"}, "f_target": {"0", "-1", "2.5"}}

CASES = [(entry, name, label)
         for entry, (_, valid) in ENTRY_POINTS.items() for name in valid
         for label in BAD_VALUES if label not in ADMITTED.get(name, ())]


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_run_on_their_valid_arguments(entry):
    call, valid = ENTRY_POINTS[entry]
    call(**valid)


@settings(max_examples=1000, deadline=None)
@given(case=st.sampled_from(CASES))
def test_an_argument_that_breaks_its_rule_is_named(case):
    entry, name, label = case
    call, valid = ENTRY_POINTS[entry]
    with pytest.raises(ValueError) as raised:
        call(**{**valid, name: BAD_VALUES[label]})
    # A growth grid names the radius it refuses by its index.
    assert re.match(rf"{name}(\[\d+\])?: must ", str(raised.value)), (
        entry, name, label, str(raised.value))


def test_every_exported_function_is_judged_here_or_exempt():
    exported = {name for name in ravinegd.__all__
                if inspect.isfunction(getattr(ravinegd, name))}
    assert EXEMPT <= exported
    assert exported - EXEMPT - set(ENTRY_POINTS) == set()

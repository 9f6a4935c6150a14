"""The library's entry points judge their arguments by the CLI's rules.

Each entry point is called with one argument replaced by a value its rule
refuses; the call must raise ValueError whose message starts with that
argument's name, the CLI's ``name: must be <phrase>, got <value>``.
"""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ravinegd import (
    check_aiming,
    check_gradient_control,
    check_growth_exponent,
    check_lojasiewicz,
    check_ravine_quadratic,
    gd_baseline,
    gdpolyak,
    gdpolyak_lb,
    measure_rip,
    polyak_baseline,
    polyak_step,
)
from ravinegd.problems import build, sample_init, sensing

BUNDLE = build("rosenbrock")
OBJ, RAV = BUNDLE.objective, BUNDLE.descriptor
X0 = sample_init(BUNDLE, 0.1, 0)
RIP_INSTANCE = sensing.make_sensing_instance(d=4, r=1, k=2, m=40, seed=0)

# Each entry point, as a call on keyword arguments, and valid values of
# the arguments it judges; the rest are fixed.
ENTRY_POINTS = {
    "gd_baseline": (lambda eta, K, I: gd_baseline(X0, eta, K, I, OBJ),
                    {"eta": 0.01, "K": 2, "I": 2}),
    "polyak_baseline": (lambda K, I: polyak_baseline(X0, K, I, OBJ),
                        {"K": 2, "I": 2}),
    "gdpolyak": (lambda eta, K, I: gdpolyak(X0, eta, K, I, OBJ),
                 {"eta": 0.01, "K": 2, "I": 2}),
    "gdpolyak_lb": (
        lambda eta, K, I, J, f0: gdpolyak_lb(X0, eta, K, I, J, f0, OBJ),
        {"eta": 0.01, "K": 2, "I": 2, "J": 2, "f0": -1.0}),
    "polyak_step": (
        lambda f_target, scale: polyak_step(X0, OBJ, f_target, scale),
        {"f_target": 0.0, "scale": 1.0}),
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
        lambda n_samples, radius_grid, seed: check_growth_exponent(
            OBJ, RAV, n_samples, radius_grid, seed),
        {"n_samples": 3, "radius_grid": [0.01, 0.1], "seed": 0}),
    "check_lojasiewicz": (
        lambda n_samples, radius, seed: check_lojasiewicz(
            OBJ, OBJ.p_growth, n_samples, radius, seed,
            sample_solution=BUNDLE.sample_solution, retract=RAV.retract),
        {"n_samples": 3, "radius": 0.1, "seed": 0}),
    "check_gradient_control": (
        lambda n_samples, radius, seed: check_gradient_control(
            OBJ, RAV, n_samples, radius, seed),
        {"n_samples": 3, "radius": 0.1, "seed": 0}),
    "measure_rip": (
        lambda rank_l, trials, seed: measure_rip(
            RIP_INSTANCE, rank_l, trials, seed),
        {"rank_l": 2, "trials": 3, "seed": 0}),
}

BAD_VALUES = {"0": 0, "-1": -1, "2.5": 2.5, "True": True, "nan": math.nan,
              "inf": math.inf, "-inf": -math.inf, "'1'": "1", "None": None}

# The values of BAD_VALUES that an argument's rule admits: eta is a real
# number >= 0, a radius one > 0, a seed an integer >= 0 and a target any
# real number.  Every other argument refuses them all.
ADMITTED = {"eta": {"0", "2.5"}, "radius": {"2.5"}, "seed": {"0"},
            "f0": {"0", "-1", "2.5"}, "f_target": {"0", "-1", "2.5"}}

CASES = [(entry, name, label)
         for entry, (_, valid) in ENTRY_POINTS.items() for name in valid
         for label in BAD_VALUES if label not in ADMITTED.get(name, ())]


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_run_on_their_valid_arguments(entry):
    call, valid = ENTRY_POINTS[entry]
    call(**valid)


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(CASES))
def test_an_argument_that_breaks_its_rule_is_named(case):
    entry, name, label = case
    call, valid = ENTRY_POINTS[entry]
    with pytest.raises(ValueError) as raised:
        call(**{**valid, name: BAD_VALUES[label]})
    # A growth grid names the radius it refuses by its index.
    assert re.match(rf"{name}(\[\d+\])?: must ", str(raised.value)), (
        entry, name, label, str(raised.value))

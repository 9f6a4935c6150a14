"""What a problem module states about itself, and what it builds.

Every problem module declares ``SPEC``, the facts shared by all its
instances, and ``bundle(params)``, which builds a :class:`ProblemBundle`
from the spec's defaults overlaid with the given parameters.  The value
rules here, and ``rule_errors`` that applies them, judge problem
parameters and the harness's own fields alike.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..objective import Objective
from ..ravine import RavineDescriptor


def is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_finite(value) -> bool:
    return ((is_integer(value) or isinstance(value, (float, np.floating)))
            and abs(value) <= sys.float_info.max)


# Rules for user-set values: a predicate and the phrase it enforces.  A
# "real number" is one that float64 holds finitely; an int may not be.
POSITIVE = (lambda v: is_integer(v) and v >= 1, "an integer >= 1")
NONNEGATIVE = (lambda v: is_integer(v) and v >= 0, "an integer >= 0")
REAL = (is_finite, "a real number")
NONNEGATIVE_REAL = (lambda v: is_finite(v) and v >= 0, "a real number >= 0")
POSITIVE_REAL = (lambda v: is_finite(v) and v > 0, "a real number > 0")


def optional(rule):
    """``rule`` that also admits None."""
    return (lambda v: v is None or rule[0](v), rule[1])


def rule_errors(values: dict, rules: dict, label: str = "{}:") -> list:
    """One message per value that breaks its rule in ``rules``; ``label``
    formats the value's name."""
    return [f"{label.format(key)} must be {rules[key][1]}, got {value!r}"
            for key, value in values.items() if not rules[key][0](value)]


# The checks that sample clouds around a closed-form ravine.
CLOUD_CHECKS = frozenset({"ravine", "aiming", "growth", "lojasiewicz",
                          "gradcontrol"})


@dataclass(frozen=True)
class MorseSpec:
    """How the diagnose check traces a Morse ravine and judges it.

    The ravine is traced from the base solution over the tangent grid
    ``(start, stop, step)``; ``residual`` is a traced point's deviation
    from the known ravine, named ``output`` in ``morse.json`` rows, and
    the check passes when no residual exceeds ``tolerance``.
    """

    grid: tuple
    tolerance: float
    output: str
    residual: Callable[[np.ndarray], float]


@dataclass(frozen=True)
class ProblemSpec:
    """The facts of one problem family, readable before any instance exists.

    ``params`` maps each ``--param`` key to ``(default, rule)``;
    ``ordered`` names keys whose values may not decrease in that order.
    """

    name: str
    checks: frozenset
    params: dict = field(default_factory=dict)
    ordered: tuple = ()
    morse: Optional[MorseSpec] = None


@dataclass
class ProblemBundle:
    """Everything the harness needs to run and diagnose one instance.

    ``ravine_bracket`` is the ``(lower, upper)`` range of the ravine ratio
    and ``growth_bracket`` the exact coefficients of the growth check,
    where the problem states them.
    """

    spec: ProblemSpec
    objective: Objective
    descriptor: Optional[RavineDescriptor]
    instance: object
    base_solution: np.ndarray
    sample_solution: Callable[[np.random.Generator], np.ndarray]
    ravine_bracket: Optional[tuple] = None
    growth_bracket: Optional[tuple] = None

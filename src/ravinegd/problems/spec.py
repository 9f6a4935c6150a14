"""What a problem module states about itself, and what it builds.

Every problem module declares ``SPEC``, the facts shared by all its
instances, and ``bundle(params)``, which builds a :class:`ProblemBundle`
from the spec's defaults overlaid with the given parameters.  Each
parameter's rule comes from :mod:`ravinegd.errors`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..objective import Objective
from ..ravine import RavineDescriptor


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
    optionally followed by the absolute rounding floor of its gap, where
    the problem states them.
    """

    spec: ProblemSpec
    objective: Objective
    descriptor: Optional[RavineDescriptor]
    instance: object
    base_solution: np.ndarray
    sample_solution: Callable[[np.random.Generator], np.ndarray]
    ravine_bracket: Optional[tuple] = None
    growth_bracket: Optional[tuple] = None

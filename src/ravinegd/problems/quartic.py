"""Univariate quartic f(x) = x^4 / 4.

The benchmark where the Polyak step contracts the iterate by exactly 3/4:
x+ = x - (x^4/4) / x^6 * x^3 = (3/4) x.  Minimal value 0 at x = 0, quartic
growth, and the whole line is the (trivial) ravine since the Hessian
vanishes at the minimizer.
"""

from __future__ import annotations

import numpy as np

from ..objective import Objective
from ..ravine import RavineDescriptor, SolutionSampler
from .spec import ProblemBundle, ProblemSpec

# The ravine is the whole line (R is the identity): only growth checks apply.
SPEC = ProblemSpec("quartic1d", frozenset({"growth", "lojasiewicz"}))

# Every cloud is anchored at the minimizer, 0.
_SOLUTIONS = SolutionSampler.fixed(np.zeros(1))


def quartic_eval(x: float):
    """Value and derivative of x^4 / 4 at a scalar x."""
    x = float(x)
    return 0.25 * x ** 4, x ** 3


def _both(x):
    value, slope = quartic_eval(x[0])
    return value, np.array([slope])


def _dist_rows(X):
    return np.abs(X[:, 0])


def objective() -> Objective:
    return Objective(dim=1, value_and_grad=_both, f_star=0.0, p_growth=4.0,
                     dist_rows=_dist_rows)


def bundle(params: dict) -> ProblemBundle:
    # The Hessian at 0 is zero, so the ravine is the whole line and the
    # retraction is the identity.
    rav = RavineDescriptor(
        retract_rows=lambda X: np.array(X, dtype=float),
        sample_solution=_SOLUTIONS,
    )
    return ProblemBundle(SPEC, objective(), rav, None, np.zeros(1),
                         rav.sample_solution)

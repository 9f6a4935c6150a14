"""Quartic Rosenbrock variant f(x, y) = x^4 + 10 (y - x^2)^2.

Minimized at the origin with quartic growth along the parabola y = x^2,
which is the ravine; the retraction simply drops a point vertically onto
the parabola, R(x, y) = (x, x^2).
"""

from __future__ import annotations

import numpy as np

from ..objective import Objective, row_norms
from ..ravine import RavineDescriptor, SolutionSampler
from .spec import CLOUD_CHECKS, MorseSpec, ProblemBundle, ProblemSpec


def rosenbrock_eval(x: float, y: float):
    """Value and gradient of x^4 + 10 (y - x^2)^2 at Python floats x, y.

    Bitwise equal to float64 arithmetic.  No ``**``: a Python float power
    raises OverflowError, but a product overflows to inf, as a diverging
    run's finiteness checks need.
    """
    t = y - x * x
    x3 = x * x * x
    return x3 * x + 10.0 * t * t, np.array([4.0 * x3 - 40.0 * x * t, 20.0 * t])


def _both(z):
    return rosenbrock_eval(*z.tolist())


# The row forms take the operations of rosenbrock_eval, elementwise and in
# the same order, so each row is bit for bit its value and gradient.

def _both_rows(Z):
    x, y = Z[:, 0], Z[:, 1]
    t = y - x * x
    x3 = x * x * x
    return (x3 * x + 10.0 * t * t,
            np.stack([4.0 * x3 - 40.0 * x * t, 20.0 * t], axis=1))


def _eval_rows(Z):
    x, y = Z[:, 0], Z[:, 1]
    t = y - x * x
    return x * x * x * x + 10.0 * t * t


def objective() -> Objective:
    return Objective(dim=2, value_and_grad=_both, f_star=0.0, p_growth=4.0,
                     eval_rows=_eval_rows, dist_rows=row_norms,
                     value_and_grad_rows=_both_rows)


def _retract_rows(Z):
    x = Z[:, :1]
    return np.concatenate([x, x * x], axis=1)


# Every cloud is anchored at the minimizer, the origin.
_SOLUTIONS = SolutionSampler.fixed(np.zeros(2))

# The Morse ravine at the origin is the parabola itself.
SPEC = ProblemSpec(
    "rosenbrock", CLOUD_CHECKS | {"morse"},
    morse=MorseSpec((-0.5, 0.5, 0.05), 1e-10, "graph_error",
                    lambda z: abs(float(z[1]) - float(z[0]) * float(z[0]))))


def bundle(params: dict) -> ProblemBundle:
    rav = RavineDescriptor(
        retract_rows=_retract_rows,
        sample_solution=_SOLUTIONS,
    )
    # The sampled ravine ratio is exactly 10.
    return ProblemBundle(SPEC, objective(), rav, None, np.zeros(2),
                         rav.sample_solution, ravine_bracket=(5.0, 20.0))

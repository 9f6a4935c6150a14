"""Quartic Rosenbrock variant f(x, y) = x^4 + 10 (y - x^2)^2.

Minimized at the origin with quartic growth along the parabola y = x^2,
which is the ravine; the retraction simply drops a point vertically onto
the parabola, R(x, y) = (x, x^2).
"""

from __future__ import annotations

import numpy as np

from ..objective import Objective, on_row, row_norms
from ..ravine import RavineDescriptor
from .spec import CLOUD_CHECKS, MorseSpec, ProblemBundle, ProblemSpec


def rosenbrock_eval(x: float, y: float):
    """Value and gradient of x^4 + 10 (y - x^2)^2.

    Computed in float64 so that divergent iterates overflow to inf instead
    of raising.
    """
    x, y = np.float64(x), np.float64(y)
    t = y - x * x
    x3 = x * x * x
    value = float(x3 * x + 10.0 * t * t)
    grad = np.array([4.0 * x3 - 40.0 * x * t, 20.0 * t])
    return value, grad


def _eval(z):
    return rosenbrock_eval(z[0], z[1])[0]


def _grad(z):
    return rosenbrock_eval(z[0], z[1])[1]


def _both(z):
    return rosenbrock_eval(z[0], z[1])


def _eval_rows(Z):
    # The operations of rosenbrock_eval, elementwise, in the same order.
    x, y = Z[:, 0], Z[:, 1]
    t = y - x * x
    return x * x * x * x + 10.0 * t * t


def objective() -> Objective:
    return Objective(
        dim=2,
        eval=_eval,
        grad=_grad,
        f_star=0.0,
        p_growth=4.0,
        dist_solution=on_row(row_norms),
        value_and_grad=_both,
        eval_rows=_eval_rows,
        dist_rows=row_norms,
    )


def _retract(z):
    x = float(z[0])
    return np.array([x, x * x])


def _retract_rows(Z):
    x = Z[:, 0]
    return np.stack([x, x * x], axis=1)


# The Morse ravine at the origin is the parabola itself.
SPEC = ProblemSpec(
    "rosenbrock", CLOUD_CHECKS | {"morse"},
    morse=MorseSpec((-0.5, 0.5, 0.05), 1e-10, "graph_error",
                    lambda z: abs(float(z[1]) - float(z[0]) * float(z[0]))))


def bundle(params: dict) -> ProblemBundle:
    rav = RavineDescriptor(
        retract=_retract,
        on_manifold=lambda z: abs(float(z[1]) - float(z[0]) ** 2)
        <= 1e-8 * (1.0 + float(z[0]) ** 2),
        sample_solution=lambda rng: np.zeros(2),
        retract_rows=_retract_rows,
    )
    # The sampled ravine ratio is exactly 10.
    return ProblemBundle(SPEC, objective(), rav, None, np.zeros(2),
                         rav.sample_solution, ravine_bracket=(5.0, 20.0))

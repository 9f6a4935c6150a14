"""Circle objective f(z) = (||z|| - 1)^2 + ||z/||z|| - e2||^4 on R^2.

Minimized at (0, 1).  The unit circle is a ravine whose retraction is the
radial projection z / ||z||; the ravine-defining gap is exact there:
f(z) - f(z/||z||) = (||z|| - 1)^2 = ||z - z/||z||||^2.  The Morse ravine
at (0, 1) is a different curve, the zero set of the vertical gradient
component; see :func:`morse_implicit_residual`.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import OriginSingularity
from ..objective import Objective, row_norms
from ..ravine import RavineDescriptor, SolutionSampler
from .spec import CLOUD_CHECKS, MorseSpec, ProblemBundle, ProblemSpec

_MINIMIZER = np.array([0.0, 1.0])
# Every cloud is anchored at the minimizer.
_SOLUTIONS = SolutionSampler.fixed(_MINIMIZER)
_ORIGIN_TOL = 1e-6


def circle_eval(z):
    """Value and gradient; raises OriginSingularity near the origin.

    With n = ||z||, the direction term simplifies to
    ||z/n - e2||^2 = 2 - 2 y / n, so f = (n - 1)^2 + (2 - 2 y / n)^2.
    Computed in Python floats, bitwise equal to float64 arithmetic; the
    norm is np.hypot's, as in the row forms, since math.hypot differs from
    it in the last bit on some pairs.
    """
    x, y = z.tolist()
    n = float(np.hypot(x, y))
    if n < _ORIGIN_TOL:
        raise OriginSingularity(f"||z|| = {n:.2e} below {_ORIGIN_TOL:.0e}")
    w = 2.0 - 2.0 * y / n
    # A Python float power raises OverflowError where float64 arithmetic
    # gives inf; a diverged iterate must reach the run's finiteness checks.
    try:
        value = (n - 1.0) ** 2 + w * w
    except OverflowError:
        value = math.inf
    try:
        n3 = n ** 3
    except OverflowError:
        n3 = math.inf
    # d(y/n)/dx = -xy/n^3, d(y/n)/dy = x^2/n^3.
    gx = 2.0 * (n - 1.0) * x / n + 2.0 * w * (2.0 * x * y / n3)
    gy = 2.0 * (n - 1.0) * y / n - 2.0 * w * (2.0 * x * x / n3)
    return value, np.array([gx, gy])


def _norms_or_raise(Z):
    n = np.hypot(Z[:, 0], Z[:, 1])
    if n.min() < _ORIGIN_TOL:
        raise OriginSingularity(
            f"||z|| = {n.min():.2e} below {_ORIGIN_TOL:.0e}")
    return n


def _eval_rows(Z):
    # The value of circle_eval, elementwise, in the same order.
    n = _norms_or_raise(Z)
    w = 2.0 - 2.0 * Z[:, 1] / n
    return (n - 1.0) ** 2 + w * w


def _dist_rows(Z):
    return row_norms(Z - _MINIMIZER)


def objective() -> Objective:
    return Objective(dim=2, value_and_grad=circle_eval, f_star=0.0,
                     p_growth=4.0, eval_rows=_eval_rows, dist_rows=_dist_rows)


def _retract_rows(Z):
    return Z / _norms_or_raise(Z)[:, None]


def morse_implicit_residual(z) -> float:
    """Residual of the Morse-ravine equation near (0, 1) in polynomial form.

    The Morse ravine is the zero set of the vertical gradient component;
    clearing denominators in df/dy = 2y(n-1)/n - 8x^2(n-y)/n^4 = 0 gives

        y n^4 - y n^3 - 4 x^2 n + 4 x^2 y = 0,   n = ||z||.
    """
    x, y = float(z[0]), float(z[1])
    n = float(np.hypot(x, y))
    return y * n ** 4 - y * n ** 3 - 4.0 * x * x * n + 4.0 * x * x * y


SPEC = ProblemSpec(
    "circle", CLOUD_CHECKS | {"morse"},
    morse=MorseSpec((-0.2, 0.2, 0.02), 1e-6, "implicit_residual",
                    lambda z: abs(morse_implicit_residual(z))))


def bundle(params: dict) -> ProblemBundle:
    rav = RavineDescriptor(
        retract_rows=_retract_rows,
        on_manifold=lambda z: abs(float(np.hypot(*z)) - 1.0) <= 1e-8,
        sample_solution=_SOLUTIONS,
    )
    # The sampled ravine ratio is exactly 1.
    return ProblemBundle(SPEC, objective(), rav, None, _MINIMIZER.copy(),
                         rav.sample_solution, ravine_bracket=(0.5, 2.0))

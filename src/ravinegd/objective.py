"""Objective wrapper and finite-difference utilities.

An :class:`Objective` bundles a smooth function with its analytic gradient
over a flat vector variable, stated once as a fused value-and-gradient
callable and, where the problem has it, once more as that map's row form.
Matrix problems flatten their variables (row-major) so that a single
optimizer code path serves every problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Objective:
    """A smooth objective with analytic gradient over R^dim.

    A problem states each map once: the fused ``value_and_grad`` and,
    where it has them, the row forms ``value_and_grad_rows``, ``eval_rows``
    and ``dist_rows``.  The per-point ``eval``, ``grad`` and
    ``dist_solution`` are derived from them when not given, and so is
    ``value_and_grad_rows``, by looping ``value_and_grad`` over the rows.
    They stay fields, not methods, so that ``dataclasses.replace`` can
    substitute wrapped callables for them (the perfbench tracer does); a
    substituted callable is kept as given.  A problem whose per-point
    ``value_and_grad`` is its row form on a one-row stack builds it with
    :func:`fused_on_row`.

    Attributes
    ----------
    dim : ambient dimension of the (flattened) decision variable.
    value_and_grad : point -> ``(value, gradient vector of length dim)``.
    eval : point -> value; defaults to ``value_and_grad(x)[0]``.
    grad : point -> gradient; defaults to ``value_and_grad(x)[1]``.
    f_star : known minimal value, if any.
    p_growth : growth exponent p of the value away from the solution set.
    dist_solution : point -> distance (or proxy) to the minimizer set;
        defaults to ``dist_rows`` on the one-row stack of the point, and
        stays None without ``dist_rows``.
    eval_rows : optional row-batched value, ``(n, dim) -> (n,)``, equal bit
        for bit to ``eval`` on each row; the ravine and growth checks
        evaluate their clouds with it (``eval`` per row without it), and
        the gradient-control check needs it to evaluate the
        finite-difference stencils of a cloud's samples in blocks of rows.
    dist_rows : optional row-batched distance, ``(n, dim) -> (n,)``; a run
        that records distances evaluates it once per epoch, on the block of
        the epoch's departure iterates, and the growth check once per
        radius, on the retracted cloud.
    value_and_grad_rows : row-batched fused map, ``(n, dim) -> ((n,),
        (n, dim))``, equal bit for bit to ``value_and_grad`` on each row;
        the ravine, aiming, Lojasiewicz and gradient-control checks take
        the values and gradients of a whole cloud from it.  Defaults to
        ``value_and_grad`` looped over the rows.
    """

    dim: int
    value_and_grad: Callable[[np.ndarray], tuple]
    eval: Optional[Callable[[np.ndarray], float]] = None
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    f_star: Optional[float] = None
    p_growth: Optional[float] = None
    dist_solution: Optional[Callable[[np.ndarray], float]] = None
    eval_rows: Optional[Callable[[np.ndarray], np.ndarray]] = None
    dist_rows: Optional[Callable[[np.ndarray], np.ndarray]] = None
    value_and_grad_rows: Optional[Callable[[np.ndarray], tuple]] = None

    def __post_init__(self):
        # The instance is frozen, so the defaults are set past __setattr__.
        both = self.value_and_grad
        if self.eval is None:
            object.__setattr__(self, "eval", lambda x: both(x)[0])
        if self.grad is None:
            object.__setattr__(self, "grad", lambda x: both(x)[1])
        if self.dist_solution is None and self.dist_rows is not None:
            object.__setattr__(self, "dist_solution", on_row(self.dist_rows))
        if self.value_and_grad_rows is None:
            object.__setattr__(self, "value_and_grad_rows",
                               _looped_rows(both, self.dim))

    def both(self, x: np.ndarray) -> tuple:
        """Value and gradient at ``x`` in one call."""
        return self.value_and_grad(x)


def on_row(rows_fn):
    """``rows_fn`` at one point: its first entry on the one-row stack of x."""
    return lambda x: rows_fn(np.asarray(x, dtype=float).reshape(1, -1))[0]


def fused_on_row(rows_fn):
    """A row-batched fused map at one point: ``(value, gradient)`` of the
    one-row stack of x."""
    def both(x):
        values, grads = rows_fn(np.asarray(x, dtype=float).reshape(1, -1))
        return float(values[0]), grads[0]
    return both


def _looped_rows(both, dim):
    # The row form of a fused map that has none: one call per row.
    def rows(X):
        values = np.empty(len(X))
        grads = np.empty((len(X), dim))
        for i, x in enumerate(X):
            values[i], grads[i] = both(x)
        return values, grads
    return rows


def _rowdot(A, B):
    # Row-wise dot products as a stacked matmul: bitwise equal to the 1-D
    # ``a @ b`` of each row pair (and so to np.linalg.norm), which a
    # matrix-vector product or an einsum is not.
    return (A[:, None, :] @ B[:, :, None])[:, 0, 0]


def row_norms(A):
    """Euclidean norm of each row, bitwise equal to np.linalg.norm per row."""
    return np.sqrt(_rowdot(A, A))


def central_difference_gradient(func, x, h=None):
    """Central finite-difference gradient of ``func`` at ``x``.

    Step defaults to 1e-5 * (1 + ||x||), matching the scale used by the
    gradient-consistency checks.
    """
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-5 * (1.0 + float(np.linalg.norm(x)))
    return _central_differences(
        lambda rows: np.array([func(z) for z in rows], dtype=float),
        x[None], np.array([h]))[0]


def _central_differences(func_rows, X, h):
    """Central differences of a row-batched function at each row of ``X``.

    Row i of the result is ``(f(x + h_i e_j) - f(x - h_i e_j)) / (2 h_i)``
    over j, with ``x = X[i]``.  ``func_rows`` maps an ``(n, dim)`` stack to
    ``n`` values; it is called once, on the ``2 * dim`` stencil points of
    every row in turn: ``x + h_i e_j`` for each j, then ``x - h_i e_j``.
    """
    n, dim = X.shape
    step = h[:, None, None] * np.eye(dim)
    rows = np.concatenate([X[:, None] + step, X[:, None] - step], axis=1)
    values = func_rows(rows.reshape(-1, dim)).reshape(n, 2, dim)
    return (values[:, 0] - values[:, 1]) / (2.0 * h[:, None])


def max_relative_gradient_error(obj: Objective, points) -> float:
    """Worst relative disagreement between analytic and FD gradients.

    The error at a point is ``||g_analytic - g_fd|| / max(1e-12, ||g_analytic||)``
    unless the analytic gradient is tiny, in which case the absolute error
    is used.
    """
    worst = 0.0
    for x in points:
        g = np.asarray(obj.grad(np.asarray(x, dtype=float)))
        fd = central_difference_gradient(obj.eval, x)
        gn = np.linalg.norm(g)
        err = np.linalg.norm(g - fd)
        worst = max(worst, err / gn if gn > 1e-8 else err)
    return worst


def unit_direction(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A uniformly random unit vector in R^dim."""
    d, n = gaussian_direction(rng, dim)
    return d / n


def gaussian_direction(rng: np.random.Generator, dim: int):
    """A standard normal draw in R^dim and its norm, redrawn while the norm
    is at most 1e-12; ``d / n`` is uniform on the unit sphere."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    while True:
        d = rng.standard_normal(dim)
        # numpy's norm of a 1-D float array is exactly sqrt(d @ d).
        n = math.sqrt(d @ d)
        if n > 1e-12:
            return d, n

"""Objective wrapper and finite-difference utilities.

An :class:`Objective` bundles a smooth function with its analytic gradient
over a flat vector variable.  Matrix problems flatten their variables
(row-major) so that a single optimizer code path serves every problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Objective:
    """A smooth objective with analytic gradient over R^dim.

    Attributes
    ----------
    dim : ambient dimension of the (flattened) decision variable.
    eval : point -> value.
    grad : point -> gradient vector of length ``dim``.
    f_star : known minimal value, if any.
    p_growth : growth exponent p of the value away from the solution set.
    dist_solution : point -> distance (or proxy) to the minimizer set;
        each problem builds it as ``dist_rows`` applied to one row.
    value_and_grad : optional fused evaluation returning ``(value, grad)``,
        used by the steppers to avoid recomputing shared intermediates.
    eval_rows : optional row-batched value, ``(n, dim) -> (n,)``, equal bit
        for bit to ``eval`` on each row; the gradient-control check needs
        it to evaluate the finite-difference stencils of a cloud's samples
        in blocks of rows.
    dist_rows : optional row-batched distance, ``(n, dim) -> (n,)``, equal
        bit for bit to ``dist_solution`` on each row; a run that records
        distances evaluates it once per epoch, on the block of the epoch's
        departure iterates, and the growth check once per radius, on the
        retracted cloud.
    """

    dim: int
    eval: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    f_star: Optional[float] = None
    p_growth: Optional[float] = None
    dist_solution: Optional[Callable[[np.ndarray], float]] = None
    value_and_grad: Optional[Callable[[np.ndarray], tuple]] = None
    eval_rows: Optional[Callable[[np.ndarray], np.ndarray]] = None
    dist_rows: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def both(self, x: np.ndarray) -> tuple:
        """Value and gradient at ``x`` in one call."""
        if self.value_and_grad is not None:
            return self.value_and_grad(x)
        return self.eval(x), self.grad(x)


def on_row(rows_fn):
    """``rows_fn`` at one point: its first entry on the one-row stack of x."""
    return lambda x: rows_fn(np.reshape(np.asarray(x, dtype=float), (1, -1)))[0]


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
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    while True:
        d = rng.standard_normal(dim)
        n = np.linalg.norm(d)
        if n > 1e-12:
            return d / n

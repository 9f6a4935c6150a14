"""Newton solver for Morse ravines of low-dimensional objectives.

The Morse ravine at a minimizer is traced by the critical points of the
objective restricted to the directions of nonzero Hessian curvature: with
T the Hessian nullspace at the basepoint and N its complement, the ravine
is the set of points x = base + T u + N v with the N-block of the gradient
equal to zero.  For each tangent coordinate vector u the solver runs damped
Newton iterations on g(v) = N^T grad f(base + T u + N v) starting at v = 0.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    POSITIVE, POSITIVE_REAL, NewtonDivergence, RankAmbiguity, check_args)
from .objective import Objective

RANK_EPS = 1e-6          # eigenvalues below RANK_EPS * |lambda|_max count as null
SPECTRAL_GAP = 1e3       # required multiplicative gap around the cutoff
MAX_HALVINGS = 50


def finite_difference_hessian(obj: Objective, x, h=None) -> np.ndarray:
    """Symmetrized central-difference Hessian from the analytic gradient."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    n = x.size
    hess = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        hess[i] = (np.asarray(obj.grad(x + e)) - np.asarray(obj.grad(x - e))) / (2.0 * h)
    return (hess + hess.T) / 2.0


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        if out[i, j] < 0:
            out[:, j] = -out[:, j]
    return out


class MorseRavineSolver:
    """Callable map u -> v(u) tracing the Morse ravine in split coordinates.

    ``solver(u)`` returns the normal coordinates v(u); ``solver.point(u)``
    returns the ambient point base + T u + N v(u).  The tangent and normal
    bases (columns of ``tangent_basis`` / ``normal_basis``) are Hessian
    eigenvectors with signs canonicalized so the largest entry is positive.
    """

    def __init__(self, obj, basepoint, tangent_basis, normal_basis,
                 tol, max_iter):
        self.obj = obj
        self.basepoint = np.asarray(basepoint, dtype=float)
        self.tangent_basis = tangent_basis
        self.normal_basis = normal_basis
        self.tol = tol
        self.max_iter = max_iter

    @property
    def tangent_dim(self) -> int:
        return self.tangent_basis.shape[1]

    @property
    def normal_dim(self) -> int:
        return self.normal_basis.shape[1]

    def _residual(self, u, v):
        x = self.basepoint + self.tangent_basis @ u + self.normal_basis @ v
        return self.normal_basis.T @ np.asarray(self.obj.grad(x), dtype=float)

    def __call__(self, u) -> np.ndarray:
        return self.solve(u)

    def solve(self, u) -> np.ndarray:
        """Newton iterations on the normal gradient block for tangent offset u."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.size != self.tangent_dim:
            raise ValueError(
                f"expected {self.tangent_dim} tangent coordinates, got {u.size}")
        v = np.zeros(self.normal_dim)
        g = self._residual(u, v)
        gnorm = np.linalg.norm(g)
        for _ in range(self.max_iter):
            if gnorm <= self.tol:
                return v
            jac = self._jacobian(u, v, g)
            try:
                step = np.linalg.solve(jac, g)
            except np.linalg.LinAlgError as exc:
                raise NewtonDivergence(f"singular Newton system: {exc}") from exc
            # Damping: halve the step while the residual does not decrease.
            for _ in range(MAX_HALVINGS):
                v_new = v - step
                g_new = self._residual(u, v_new)
                gn_new = np.linalg.norm(g_new)
                if gn_new < gnorm or gn_new <= self.tol:
                    break
                step = step / 2.0
            else:
                raise NewtonDivergence("damping failed to reduce the residual")
            v, g, gnorm = v_new, g_new, gn_new
        if gnorm <= self.tol:
            return v
        raise NewtonDivergence(
            f"residual {gnorm:.3e} above tol {self.tol:.3e} after "
            f"{self.max_iter} iterations")

    def _jacobian(self, u, v, g0):
        """Forward-difference Jacobian in v of the normal residual ``g0``."""
        h = 1e-6 * (1.0 + float(np.linalg.norm(v)))
        jac = np.empty((self.normal_dim, self.normal_dim))
        for i in range(self.normal_dim):
            e = np.zeros(self.normal_dim)
            e[i] = h
            jac[:, i] = (self._residual(u, v + e) - g0) / h
        return jac

    def point(self, u) -> np.ndarray:
        """Ambient Morse-ravine point for tangent coordinates u."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        v = self.solve(u)
        return self.basepoint + self.tangent_basis @ u + self.normal_basis @ v


def morse_ravine_solve(obj: Objective, basepoint, tol: float = 1e-12,
                       max_iter: int = 100) -> MorseRavineSolver:
    """Build the Morse-ravine solver at an approximate minimizer.

    Splits the space into the numerical nullspace of the finite-difference
    Hessian (eigenvalues below RANK_EPS * |lambda|_max) and its complement.
    Raises :class:`RankAmbiguity` when the Hessian is zero or its spectrum
    not finite, when no direction is null, and when the spectrum has no
    factor-1e3 gap around the cutoff; ValueError when ``tol`` is not a real
    number > 0, ``max_iter`` not an integer >= 1 or the basepoint is not
    critical.
    """
    check_args(tol=(tol, POSITIVE_REAL), max_iter=(max_iter, POSITIVE))
    basepoint = np.asarray(basepoint, dtype=float)
    if obj.dim > 10:
        raise ValueError("Morse solver is restricted to dimension <= 10")
    gnorm = float(np.linalg.norm(obj.grad(basepoint)))
    if gnorm > tol:
        raise ValueError(
            f"basepoint is not critical: ||grad|| = {gnorm:.3e} > tol {tol:.3e}")

    hess = finite_difference_hessian(obj, basepoint)
    eigvals, eigvecs = np.linalg.eigh(hess)
    abs_vals = np.abs(eigvals)
    lam_max = abs_vals.max()
    if lam_max <= 0.0:
        raise RankAmbiguity("Hessian is numerically zero; no curvature split")
    # A NaN or inf Hessian entry gives NaN eigenvalues, and an eigenvalue
    # past the float range is inf: neither leaves a cutoff.
    if not np.isfinite(lam_max):
        raise RankAmbiguity(f"Hessian spectrum is not finite (max |lambda| "
                            f"= {lam_max}); no curvature split")
    # The cutoff lies below lam_max, so its direction is never null.
    cutoff = RANK_EPS * lam_max
    null_mask = abs_vals <= cutoff
    if not null_mask.any():
        raise RankAmbiguity("no null directions below the cutoff")
    max_null = abs_vals[null_mask].max()
    min_rest = abs_vals[~null_mask].min()
    if min_rest < SPECTRAL_GAP * max_null:
        raise RankAmbiguity(
            f"spectral gap {min_rest / max(max_null, 1e-300):.1e} below "
            f"{SPECTRAL_GAP:.0e} around cutoff {cutoff:.3e}")

    tangent = _canonical_signs(eigvecs[:, null_mask])
    normal = _canonical_signs(eigvecs[:, ~null_mask])
    return MorseRavineSolver(obj, basepoint, tangent, normal, tol, max_iter)

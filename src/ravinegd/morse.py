"""The Hessian's null/normal split at a minimizer, and a chord Newton
solver for the Morse ravine it defines.

With T the Hessian nullspace at the basepoint and N its complement, the
ravine is the set of points x = base + T u + N v where the N-block of the
gradient vanishes.  For each tangent coordinate vector u the solver runs
damped chord iterations v <- v - g(v) / lambda on g(v) = N^T grad f(base +
T u + N v) from v = 0: N holds eigenvectors of the base Hessian, so its
Jacobian at the base is diag(lambda), the normal eigenvalues of the split.
A split costs 2 * dim gradient calls; a solve costs one, plus one per
iteration and one per step halving.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    POSITIVE, POSITIVE_REAL, NewtonDivergence, RankAmbiguity, check_args, vector)
from .objective import Objective
from .opt_core import OVERFLOW_IS_DATA

RANK_EPS = 1e-6          # eigenvalues below RANK_EPS * |lambda|_max count as null
SPECTRAL_GAP = 1e3       # required multiplicative gap around the cutoff
MAX_HALVINGS = 50
# The chord iteration's residual tolerance, in units of the gradient, and
# iteration cap: the defaults of every Morse trace.
TOL = 1e-12
MAX_ITER = 50


def finite_difference_hessian(obj: Objective, x) -> np.ndarray:
    """Symmetrized central-difference Hessian from the analytic gradient."""
    x = np.asarray(x, dtype=float)
    h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    hess = np.array([np.asarray(obj.grad(x + e)) - np.asarray(obj.grad(x - e))
                     for e in h * np.eye(x.size)]) / (2.0 * h)
    return (hess + hess.T) / 2.0


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its (first) largest-magnitude entry is positive."""
    top = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return np.where(top < 0, -vectors, vectors)


def spectral_split(obj: Objective, base):
    """``(normal_eigenvalues, tangent_basis, normal_basis)`` of the
    finite-difference Hessian at ``base``, whose eigenvalues with |lambda|
    <= RANK_EPS * |lambda|_max are null; the bases hold its eigenvectors,
    each with its largest entry positive, and the eigenvalues follow the
    normal columns.  Raises :class:`RankAmbiguity` when the Hessian is zero
    or its spectrum not finite, when no direction is null, and when the
    spectrum has no factor-SPECTRAL_GAP gap around the cutoff; ValueError
    when ``base`` is not a finite real vector of length ``obj.dim``."""
    check_args(base=(base, vector(obj.dim)))
    eigvals, eigvecs = np.linalg.eigh(finite_difference_hessian(obj, base))
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
    return (eigvals[~null_mask], _canonical_signs(eigvecs[:, null_mask]),
            _canonical_signs(eigvecs[:, ~null_mask]))


class MorseRavineSolver:
    """Callable map u -> v(u) tracing the Morse ravine in split coordinates.

    ``solver(u)`` returns the normal coordinates v(u); ``solver.point(u)``
    returns the ambient point base + T u + N v(u).  The normal eigenvalues
    and the tangent and normal bases (columns of ``tangent_basis`` /
    ``normal_basis``) are those of :func:`spectral_split`.
    """

    def __init__(self, obj, basepoint, normal_eigenvalues, tangent_basis,
                 normal_basis, tol, max_iter):
        self.obj = obj
        self.basepoint = np.asarray(basepoint, dtype=float)
        self.normal_eigenvalues = normal_eigenvalues
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

    @np.errstate(**OVERFLOW_IS_DATA)
    def solve(self, u) -> np.ndarray:
        """Chord iterations on the normal gradient block for tangent
        offset u.  Raises ValueError when ``u`` is not a finite real vector
        of length ``tangent_dim``; :class:`NewtonDivergence` when the
        residual at v = 0 is not finite, the damping fails, or the residual
        stays above ``tol`` after ``max_iter`` iterations."""
        check_args(u=(u, vector(self.tangent_dim)))
        u = np.asarray(u, dtype=float)
        v = np.zeros(self.normal_dim)
        g = self._residual(u, v)
        gnorm = np.linalg.norm(g)
        if not np.isfinite(gnorm):
            raise NewtonDivergence(f"residual {gnorm} at v = 0 is not finite")
        for _ in range(self.max_iter):
            if gnorm <= self.tol:
                return v
            step = g / self.normal_eigenvalues
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

    def point(self, u) -> np.ndarray:
        """Ambient Morse-ravine point for tangent coordinates u."""
        v = self.solve(u)
        return self.basepoint + self.tangent_basis @ u + self.normal_basis @ v


def morse_ravine_solve(obj: Objective, basepoint, tol: float = TOL,
                       max_iter: int = MAX_ITER) -> MorseRavineSolver:
    """Build the Morse-ravine solver on :func:`spectral_split` at an
    approximate minimizer.

    Raises :class:`RankAmbiguity` as :func:`spectral_split` does;
    ValueError when ``basepoint`` is not a finite real vector of length
    ``obj.dim``, ``tol`` not a real number > 0, ``max_iter`` not an
    integer >= 1, or the basepoint not critical.
    """
    check_args(basepoint=(basepoint, vector(obj.dim)),
               tol=(tol, POSITIVE_REAL), max_iter=(max_iter, POSITIVE))
    basepoint = np.asarray(basepoint, dtype=float)
    gnorm = float(np.linalg.norm(obj.grad(basepoint)))
    if gnorm > tol:
        raise ValueError(
            f"basepoint is not critical: ||grad|| = {gnorm:.3e} > tol {tol:.3e}")
    return MorseRavineSolver(obj, basepoint, *spectral_split(obj, basepoint),
                             tol, max_iter)

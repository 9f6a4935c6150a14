"""Symmetric low-rank factorization f(B) = ||B B^T - X||_F^2.

X is a d x d positive semidefinite rank-r matrix and B has k >= r columns
(rank overparameterization).  The solution set is S = {B : B B^T = X} and,
in the eigenbasis of X where X = diag(D, 0) with blocks B = (P; Q), the
ravine is M = {(P; Q) : P P^T = D, P Q^T = 0}.  On M the value reduces to
||Q Q^T||_F^2 and the distance to S is ||Q||_F, which pins the quartic
growth bracket (1/k) dist^4 <= f <= dist^4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import DegenerateProjection, ShapeMismatch
from ..objective import Objective, on_row, row_norms
from ..ravine import RavineDescriptor
from .spec import (
    CLOUD_CHECKS, NONNEGATIVE, POSITIVE, ProblemBundle, ProblemSpec)

RANK_TOL = 1e-10
DEGENERATE_TOL = 1e-10

SPEC = ProblemSpec(
    "factorization", CLOUD_CHECKS,
    params={"d": (5, POSITIVE), "r": (2, POSITIVE), "k": (3, POSITIVE),
            "instance_seed": (0, NONNEGATIVE)},
    ordered=("r", "k", "d"))


@dataclass(frozen=True)
class FactorizationInstance:
    """Ground truth and derived spectral data for one factorization problem."""

    d: int
    k: int
    r: int
    X: np.ndarray          # (d, d) symmetric psd, rank r
    sigma1: float          # largest nonzero eigenvalue
    sigmar: float          # smallest nonzero eigenvalue
    L: np.ndarray          # (d, r) with L L^T = X, columns by descending eigenvalue
    basis: np.ndarray      # (d, d) eigenvectors of X, descending eigenvalues
    evals: np.ndarray      # (d,) eigenvalues, descending


def from_matrix(X, k: int, r: Optional[int] = None) -> FactorizationInstance:
    """Build an instance from a dense symmetric psd matrix.

    The rank is inferred from the spectrum when not given: eigenvalues
    below 1e-10 * sigma1 count as zero.
    """
    X = np.asarray(X, dtype=float)
    d = X.shape[0]
    if X.shape != (d, d):
        raise ShapeMismatch(f"X must be square, got {X.shape}")
    if not np.allclose(X, X.T, atol=1e-12 * (1.0 + np.abs(X).max())):
        raise ValueError("X must be symmetric")
    w, v = np.linalg.eigh(X)
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    sigma1 = float(w[0])
    if sigma1 <= 0.0:
        raise ValueError("X must be nonzero positive semidefinite")
    inferred = int(np.sum(w > RANK_TOL * sigma1))
    if r is None:
        r = inferred
    elif r != inferred:
        raise ValueError(f"stated rank {r} != spectral rank {inferred}")
    if not r <= k <= d:
        raise ValueError(f"need r <= k <= d, got r={r}, k={k}, d={d}")
    L = v[:, :r] * np.sqrt(w[:r])
    return FactorizationInstance(
        d=d, k=k, r=r, X=X, sigma1=sigma1, sigmar=float(w[r - 1]),
        L=L, basis=v, evals=w)


def random_instance(d: int, r: int, k: int,
                    seed: int) -> FactorizationInstance:
    """Gaussian-factor ground truth X = G G^T, rescaled so sigma1 = 1.

    The rescaling keeps default stepsizes transferable across seeds.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, r))
    X = g @ g.T
    X = X / np.linalg.eigvalsh(X)[-1]
    return from_matrix(X, k, r=r)


def as_matrix(B, inst: FactorizationInstance) -> np.ndarray:
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        if B.size != inst.d * inst.k:
            raise ShapeMismatch(
                f"expected {inst.d * inst.k} entries, got {B.size}")
        return B.reshape(inst.d, inst.k)
    if B.shape != (inst.d, inst.k):
        raise ShapeMismatch(f"expected shape {(inst.d, inst.k)}, got {B.shape}")
    return B


def _block_residual(B, inst):
    # Evaluate B B^T - X in the eigenbasis of X, where X = diag(D, 0).  The
    # rank-r block cancels against the diagonal D instead of a dense O(1)
    # matrix, which keeps the value accurate in relative terms near the
    # manifold (the naive form loses ~8 digits once the gap is ~1e-12).
    # B may be one (d, k) matrix or an (n, d, k) stack of them.
    Bp = inst.basis.T @ B
    resid = Bp @ np.swapaxes(Bp, -1, -2)
    resid[..., :inst.r, :inst.r] -= np.diag(inst.evals[:inst.r])
    return Bp, resid


def factorization_eval(B, inst: FactorizationInstance):
    """Value ||B B^T - X||_F^2 and gradient 4 (B B^T - X) B."""
    B = as_matrix(B, inst)
    Bp, resid = _block_residual(B, inst)
    value = float(np.sum(resid * resid))
    grad = inst.basis @ (4.0 * resid @ Bp)
    return value, grad


def factorization_project_solution(B, inst: FactorizationInstance) -> np.ndarray:
    """Nearest point of S = {A : A A^T = X} via orthogonal Procrustes.

    Writes the candidate as A = L O with O O^T = I and maximizes
    <L^T B, O>: with L^T B = U S V^T, the optimum is O = U V^T.  Raises
    :class:`DegenerateProjection` when L^T B is nearly singular (the
    nearest point is not unique).
    """
    B = as_matrix(B, inst)
    return factorization_project_solution_rows(B[None], inst)[0]


def factorization_project_solution_rows(Bs, inst: FactorizationInstance):
    """:func:`factorization_project_solution` of each matrix of an (n, d, k)
    stack; raises :class:`DegenerateProjection` when any is degenerate."""
    u, s, vt = np.linalg.svd(inst.L.T @ Bs, full_matrices=False)
    smallest = float(s[:, -1].min())
    if smallest < DEGENERATE_TOL:
        raise DegenerateProjection(
            f"smallest singular value {smallest:.2e} of L^T B below "
            f"{DEGENERATE_TOL:.0e}")
    return inst.L @ (u @ vt)


def factorization_retraction(B, inst: FactorizationInstance) -> np.ndarray:
    """Composite retraction onto M = {(P; Q): P P^T = D, P Q^T = 0}.

    In the eigenbasis of X: P maps to its nearest point of {P : P P^T = D}
    (a scaled Procrustes, P~ = D^(1/2) U V^T from the SVD of D^(1/2) P)
    and each row of Q is projected onto ker(P~).
    """
    B = as_matrix(B, inst)
    return factorization_retraction_rows(B[None], inst)[0]


def factorization_retraction_rows(Bs, inst: FactorizationInstance) -> np.ndarray:
    """:func:`factorization_retraction` of each matrix of an (n, d, k) stack.

    Raises :class:`DegenerateProjection` when any matrix is degenerate.
    """
    r = inst.r
    Bp = inst.basis.T @ Bs
    P, Q = Bp[:, :r], Bp[:, r:]
    sq = np.sqrt(inst.evals[:r])
    u, s, vt = np.linalg.svd(sq[:, None] * P, full_matrices=False)
    smallest = float(s[:, -1].min())
    if smallest < DEGENERATE_TOL:
        raise DegenerateProjection(
            f"smallest singular value {smallest:.2e} of D^(1/2) P below "
            f"{DEGENERATE_TOL:.0e}")
    P_t = sq[:, None] * (u @ vt)
    P_tT = np.swapaxes(P_t, 1, 2)
    Q_t = Q - (Q @ P_tT) @ np.linalg.solve(P_t @ P_tT, P_t)
    return inst.basis @ np.concatenate([P_t, Q_t], axis=1)


def dist_to_solution(B, inst: FactorizationInstance) -> float:
    """Frobenius distance to S; equals ||Q||_F on the ravine."""
    return float(dist_to_solution_rows(as_matrix(B, inst)[None], inst)[0])


def dist_to_solution_rows(X, inst: FactorizationInstance) -> np.ndarray:
    """:func:`dist_to_solution` of each matrix of an (n, d, k) stack, or of
    each row of its (n, d * k) flattening."""
    Bs = np.reshape(X, (-1, inst.d, inst.k))
    D = Bs - factorization_project_solution_rows(Bs, inst)
    return row_norms(D.reshape(len(Bs), -1))


def manifold_residuals(B, inst: FactorizationInstance):
    """(||P P^T - D||_F, ||P Q^T||_F) in the eigenbasis of X."""
    B = as_matrix(B, inst)
    r = inst.r
    Bp = inst.basis.T @ B
    P, Q = Bp[:r], Bp[r:]
    D = np.diag(inst.evals[:r])
    return (float(np.linalg.norm(P @ P.T - D)),
            float(np.linalg.norm(P @ Q.T)))


def sample_solution(inst: FactorizationInstance,
                    rng: np.random.Generator) -> np.ndarray:
    """A random point of S: L times random orthonormal rows."""
    q, _ = np.linalg.qr(rng.standard_normal((inst.k, inst.r)))
    return inst.L @ q.T


def make_manifold_point(inst: FactorizationInstance, rng: np.random.Generator,
                        q_norm: float) -> np.ndarray:
    """A random ravine point with ||Q||_F = q_norm (in the eigenbasis)."""
    if inst.k == inst.r and q_norm > 0.0:
        raise ValueError("k == r leaves no kernel for the Q block")
    q, _ = np.linalg.qr(rng.standard_normal((inst.k, inst.r)))
    P = np.sqrt(inst.evals[:inst.r])[:, None] * q.T
    kernel = np.linalg.svd(P)[2][inst.r:]                # (k - r, k)
    Q = rng.standard_normal((inst.d - inst.r, inst.k - inst.r)) @ kernel
    nq = np.linalg.norm(Q)
    if nq > 0.0 and q_norm > 0.0:
        Q *= q_norm / nq
    else:
        Q = np.zeros_like(Q)
    return inst.basis @ np.vstack([P, Q])


def objective(inst: FactorizationInstance) -> Objective:
    """Flattened-variable objective for the optimizer code path."""

    def _both(x):
        value, grad = factorization_eval(x.reshape(inst.d, inst.k), inst)
        return value, grad.reshape(-1)

    def _eval(x):
        return _both(x)[0]

    def _grad(x):
        return _both(x)[1]

    def _eval_rows(X):
        _, resid = _block_residual(X.reshape(-1, inst.d, inst.k), inst)
        return np.sum(resid * resid, axis=(1, 2))

    def _dist_rows(X):
        return dist_to_solution_rows(X, inst)

    return Objective(
        dim=inst.d * inst.k,
        eval=_eval,
        grad=_grad,
        f_star=0.0,
        p_growth=4.0,
        dist_solution=on_row(_dist_rows),
        value_and_grad=_both,
        eval_rows=_eval_rows,
        dist_rows=_dist_rows,
    )


def base_solution(inst: FactorizationInstance) -> np.ndarray:
    """The canonical solution (L | 0), flattened."""
    return np.hstack([inst.L, np.zeros((inst.d, inst.k - inst.r))]).reshape(-1)


def bundle(params: dict) -> ProblemBundle:
    inst = random_instance(int(params["d"]), int(params["r"]),
                           int(params["k"]), int(params["instance_seed"]))
    tol = 1e-8 * (1.0 + float(np.linalg.norm(inst.evals[:inst.r])))

    def _on_manifold(x):
        res_p, res_pq = manifold_residuals(x.reshape(inst.d, inst.k), inst)
        return res_p <= tol and res_pq <= tol

    def _retract_rows(X):
        return factorization_retraction_rows(
            X.reshape(-1, inst.d, inst.k), inst).reshape(len(X), -1)

    rav = RavineDescriptor(
        retract=on_row(_retract_rows),
        on_manifold=_on_manifold,
        sample_solution=lambda rng: sample_solution(inst, rng).reshape(-1),
        retract_rows=_retract_rows,
    )
    # On the ravine (1/k) dist^4 <= f <= dist^4 exactly; see the docstring.
    return ProblemBundle(SPEC, objective(inst), rav, inst, base_solution(inst),
                         rav.sample_solution,
                         ravine_bracket=(inst.sigmar / 16.0, 36.0 * inst.sigma1),
                         growth_bracket=(1.0 / inst.k, 1.0))

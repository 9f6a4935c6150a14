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

from ..errors import NONNEGATIVE, POSITIVE, DegenerateProjection, ShapeMismatch
from ..objective import Objective, fused_on_row, row_norms
from ..ravine import RavineDescriptor, SolutionSampler
from .spec import CLOUD_CHECKS, ProblemBundle, ProblemSpec

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
    ``seed`` may also be a Generator, which the draw continues.
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


def factorization_value_and_grad_rows(Bs, inst: FactorizationInstance):
    """Values ||B B^T - X||_F^2 and gradients 4 (B B^T - X) B of each matrix
    of an (n, d, k) stack."""
    Bp, resid = _block_residual(Bs, inst)
    return _frobenius_squared(resid), inst.basis @ (4.0 * resid @ Bp)


def _frobenius_squared(resid):
    return np.sum(resid * resid, axis=(1, 2))


def factorization_eval(B, inst: FactorizationInstance):
    """Value ||B B^T - X||_F^2 and gradient 4 (B B^T - X) B: the row form
    on the one-matrix stack of B."""
    values, grads = factorization_value_and_grad_rows(
        as_matrix(B, inst)[None], inst)
    return float(values[0]), grads[0]


def _svd(A, name):
    # A non-finite entry, as in a matrix that overflowed far from S, keeps
    # LAPACK from converging, and a nearly singular matrix has no unique
    # polar factor: no nearest point is defined at either.
    try:
        u, s, vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise DegenerateProjection(f"SVD of {name} did not converge") from exc
    smallest = float(s[:, -1].min())
    if smallest < DEGENERATE_TOL:
        raise DegenerateProjection(
            f"smallest singular value {smallest:.2e} of {name} below "
            f"{DEGENERATE_TOL:.0e}")
    return u, vt


def factorization_project_solution_rows(Bs, inst: FactorizationInstance):
    """Nearest point of S = {A : A A^T = X} to each matrix of an (n, d, k)
    stack, via orthogonal Procrustes.

    Writes the candidate as A = L O with O O^T = I and maximizes
    <L^T B, O>: with L^T B = U S V^T, the optimum is O = U V^T.  Raises
    :class:`DegenerateProjection` when L^T B is nearly singular for any
    matrix (the nearest point is not unique) or its SVD does not converge.
    """
    u, vt = _svd(inst.L.T @ Bs, "L^T B")
    return inst.L @ (u @ vt)


def factorization_retraction_rows(Bs, inst: FactorizationInstance) -> np.ndarray:
    """Composite retraction onto M = {(P; Q): P P^T = D, P Q^T = 0} of each
    matrix of an (n, d, k) stack.

    In the eigenbasis of X: P maps to its nearest point of {P : P P^T = D}
    (a scaled Procrustes, P~ = D^(1/2) W with W = U V^T from the SVD of
    D^(1/2) P) and each row of Q is projected onto ker(P~).  The rows of
    W are orthonormal, so P~ P~^T = D and the projector onto the row space
    of P~, P~^T (P~ P~^T)^(-1) P~, is W^T W: the projection is the closed
    form Q - (Q W^T) W, two (k x r)-sized products per matrix and no
    solve.  Raises :class:`DegenerateProjection` when any matrix is
    degenerate or the SVD does not converge.
    """
    r = inst.r
    Bp = inst.basis.T @ Bs
    P, Q = Bp[:, :r], Bp[:, r:]
    sq = np.sqrt(inst.evals[:r])
    u, vt = _svd(sq[:, None] * P, "D^(1/2) P")
    W = u @ vt
    Q_t = Q - (Q @ np.swapaxes(W, 1, 2)) @ W
    return inst.basis @ np.concatenate([sq[:, None] * W, Q_t], axis=1)


def dist_to_solution_rows(X, inst: FactorizationInstance) -> np.ndarray:
    """Frobenius distance to S of each matrix of an (n, d, k) stack, or of
    each row of its (n, d * k) flattening; equals ||Q||_F on the ravine."""
    Bs = np.reshape(X, (-1, inst.d, inst.k))
    D = Bs - factorization_project_solution_rows(Bs, inst)
    return row_norms(D.reshape(len(Bs), -1))


def solution_sampler(inst: FactorizationInstance) -> SolutionSampler:
    """Random points of S, flattened: L times the transpose of the
    orthonormal factor of a (k, r) Gaussian draw per sample, stacked into
    one QR call."""
    def rows(G):
        q = np.linalg.qr(G)[0]
        return (inst.L @ np.swapaxes(q, -1, -2)).reshape(len(G), -1)

    return SolutionSampler(
        draw=lambda rng: rng.standard_normal((inst.k, inst.r)), rows=rows)


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

    def _both_rows(X):
        values, grads = factorization_value_and_grad_rows(
            X.reshape(-1, inst.d, inst.k), inst)
        return values, grads.reshape(len(X), -1)

    def _eval_rows(X):
        _, resid = _block_residual(X.reshape(-1, inst.d, inst.k), inst)
        return _frobenius_squared(resid)

    return Objective(
        dim=inst.d * inst.k,
        value_and_grad=fused_on_row(_both_rows),
        value_and_grad_rows=_both_rows,
        f_star=0.0,
        p_growth=4.0,
        eval_rows=_eval_rows,
        dist_rows=lambda X: dist_to_solution_rows(X, inst),
    )


def growth_floor(inst: FactorizationInstance) -> float:
    """Absolute rounding floor of the computed gap at a retracted point.

    On the ravine the value is ||Q Q^T||_F^2 exactly: the blocks P P^T - D
    and P Q^T of the residual vanish.  Computed, they hold rounding
    residue, and its square adds an absolute error to the gap that no
    relative tolerance covers once ||Q|| is small.  To first order in the
    unit roundoff eps, with |fl(AB) - AB| <= n eps |A| |B| for products
    of n-term sums, ||P||_F^2 = tr D <= r s1 and ||P||_2^2 = s1 (s1 the
    largest eigenvalue of X):

    - the retraction's P = D^(1/2) W, with W from an SVD orthonormal to
      about k eps per entry, has ||P P^T - D||_F <= r k eps s1;
    - the map into the eigenbasis U and back (d-term sums, with
      || |U| ||_2 <= sqrt(d) and U orthonormal to about d eps) moves P by
      at most (2 d^(3/2) + d) eps ||P||_F, and so P P^T by at most
      2 r (2 d^(3/2) + d) eps s1;
    - forming P P^T (k-term sums) adds k r eps s1, and subtracting D
      adds eps ||D||_F <= r eps s1.

    So ||fl(P P^T) - D||_F <= C eps s1 with C = r (6 d^(3/2) + 2 k + 1),
    using d <= d^(3/2), and the gap carries up to (C eps s1)^2 beyond its
    relative rounding.  The P Q^T block adds O(C^2 eps^2 s1 ||Q||_F^2),
    less than that wherever ||Q||_F^2 < s1.
    """
    c = inst.r * (6.0 * inst.d ** 1.5 + 2.0 * inst.k + 1.0)
    return (c * np.finfo(float).eps * inst.sigma1) ** 2


def base_solution(inst: FactorizationInstance) -> np.ndarray:
    """The canonical solution (L | 0), flattened."""
    return np.hstack([inst.L, np.zeros((inst.d, inst.k - inst.r))]).reshape(-1)


def bundle(params: dict) -> ProblemBundle:
    inst = random_instance(int(params["d"]), int(params["r"]),
                           int(params["k"]), int(params["instance_seed"]))

    def _retract_rows(X):
        return factorization_retraction_rows(
            X.reshape(-1, inst.d, inst.k), inst).reshape(len(X), -1)

    rav = RavineDescriptor(
        retract_rows=_retract_rows,
        sample_solution=solution_sampler(inst),
    )
    # On the ravine (1/k) dist^4 <= f <= dist^4 exactly (see the module
    # docstring), up to the rounding floor of the computed gap.
    return ProblemBundle(SPEC, objective(inst), rav, inst, base_solution(inst),
                         rav.sample_solution,
                         ravine_bracket=(inst.sigmar / 16.0, 36.0 * inst.sigma1),
                         growth_bracket=(1.0 / inst.k, 1.0,
                                         growth_floor(inst)))

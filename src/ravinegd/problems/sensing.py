"""Quadratic matrix sensing f(B) = (1/m) sum_i (y_i - <A_i, B B^T>)^2.

Measurements y_i = <A_i, X> of a psd rank-r ground truth X, optimized over
d x k factors with k >= r.  Every measurement is a signed rank-one
difference A_i = a_i a_i^T - a~_i a~_i^T (rank-one quadratic sampling), and
an instance stores only the two (m, d) factor arrays ``a`` and ``at``
(a~), never the dense (m, d, d) tensor.  Predictions are
<A_i, B B^T> = ||B^T a_i||^2 - ||B^T a~_i||^2, so an evaluation costs
O(m d k) instead of O(m d^2).  The default ensemble draws a_i and a~_i as
standard Gaussian vectors; for it E <A_i, Z>^2 = 4 ||Z||_F^2 on symmetric
Z, so the operator is a near-isometry only after dividing by
op_scale = 2.  The RIP measurement accounts for this.

An evaluation walks the measurements in blocks of ``ROW_BLOCK`` rows: each
block's forward products, residuals and gradient part are formed while its
rows of ``a`` and ``at`` are still in cache, so the factor arrays are read
from memory once per evaluation instead of twice.  With m <= ROW_BLOCK
there is one block and the result is bit for bit that of the unblocked
formula; above it the value and gradient sums are regrouped by block and
differ from it by rounding only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatch
from ..objective import Objective, on_row
from . import factorization as fact
from .spec import NONNEGATIVE, POSITIVE, ProblemBundle, ProblemSpec

# Rows of measurements per block of ``sensing_eval``.  A block's rows of a
# and a~ are read by the forward products a @ B and again, while still in
# cache, by the gradient products.  At d = 100 a block of both arrays holds
# 2 * 1024 * 100 * 8 B = 1.6 MB, which fits in a 2-4 MiB per-core L2; the
# whole arrays of the paper-size instance (m = 4000, 6.4 MB) do not, so
# unblocked, both passes read them from L3.
ROW_BLOCK = 1024

# No closed-form ravine exists here (only the Morse ravine), so anchored
# clouds cannot probe the near-manifold region; only the
# restricted-isometry measurement applies.  ``m`` defaults to 10 d k.
SPEC = ProblemSpec(
    "sensing", frozenset({"rip"}),
    params={"d": (20, POSITIVE), "r": (2, POSITIVE), "k": (4, POSITIVE),
            "m": (None, POSITIVE), "instance_seed": (0, NONNEGATIVE)},
    ordered=fact.SPEC.ordered)


@dataclass(frozen=True)
class SensingInstance:
    """Measurement factors, targets and ground truth for one sensing problem."""

    fac: fact.FactorizationInstance
    m: int
    a: np.ndarray              # (m, d) positive factors a_i
    at: np.ndarray             # (m, d) negative factors a~_i
    y: np.ndarray              # (m,) targets <A_i, X>
    op_scale: float            # analytic isometry normalization of the ensemble

    def measure(self, Z: np.ndarray) -> np.ndarray:
        """Measurements <A_i, Z> of a d x d matrix Z, shape (m,)."""
        return _quadratic_forms(self.a, self.at, Z)

    @property
    def A(self) -> np.ndarray:
        """Dense (m, d, d) measurement matrices, built on each access."""
        return (self.a[:, :, None] * self.a[:, None, :]
                - self.at[:, :, None] * self.at[:, None, :])


def _quadratic_forms(a: np.ndarray, at: np.ndarray,
                     Z: np.ndarray) -> np.ndarray:
    # a_i^T Z a_i - a~_i^T Z a~_i as two BLAS products; a three-operand
    # einsum over the same indices runs several times slower.
    return ((a @ Z) * a).sum(axis=1) - ((at @ Z) * at).sum(axis=1)


def from_factors(fac_inst: fact.FactorizationInstance, a, at,
                 op_scale: float = 1.0) -> SensingInstance:
    """Instance with measurements a_i a_i^T - a~_i a~_i^T (targets computed)."""
    a = np.asarray(a, dtype=float)
    at = np.asarray(at, dtype=float)
    if a.ndim != 2 or a.shape != at.shape or a.shape[1] != fac_inst.d:
        raise ShapeMismatch(f"measurement factors must both be "
                            f"(m, {fac_inst.d}), got {a.shape} and {at.shape}")
    return SensingInstance(fac=fac_inst, m=a.shape[0], a=a, at=at,
                           y=_quadratic_forms(a, at, fac_inst.X),
                           op_scale=op_scale)


def make_sensing_instance(d: int, r: int, k: int, m: int,
                          seed: int) -> SensingInstance:
    """Gaussian difference measurements of a random rescaled ground truth.

    Draw order is fixed (ground-truth factor, then a, then a~) so instances
    are bitwise reproducible per seed.
    """
    if not (r <= k <= d):
        raise ValueError(f"need r <= k <= d, got r={r}, k={k}, d={d}")
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, r))
    X = g @ g.T
    X = X / np.linalg.eigvalsh(X)[-1]
    fac_inst = fact.from_matrix(X, k, r=r)
    a = rng.standard_normal((m, d))
    at = rng.standard_normal((m, d))
    return from_factors(fac_inst, a, at, op_scale=2.0)


def complete_sensing_instance(
        fac_inst: fact.FactorizationInstance) -> SensingInstance:
    """Complete measurements from the orthonormal symmetric basis.

    With the basis scaled by sqrt(m), sum_i <A_i, Z>^2 / m = ||Z||_F^2 for
    symmetric Z, so the operator is an exact isometry (op_scale = 1) and
    the objective coincides with the factorization objective.  As factor
    pairs: a = m^(1/4) e_i, a~ = 0 for the diagonal basis matrices and
    a, a~ = (m/8)^(1/4) (e_i +- e_j) for the off-diagonal ones, i < j.
    """
    d = fac_inst.d
    i, j = np.triu_indices(d, k=1)
    m, eye = d + len(i), np.eye(d)
    c = (m / 8.0) ** 0.25
    a = np.vstack([m ** 0.25 * eye, c * (eye[i] + eye[j])])
    at = np.vstack([np.zeros((d, d)), c * (eye[i] - eye[j])])
    return from_factors(fac_inst, a, at, op_scale=1.0)


def _block_terms(B, a, at, y):
    # Sum of squared residuals and a^T(r * aB) - a~^T(r * a~B) over one
    # block of measurement rows.  The row sums stay (v * v).sum(axis=1):
    # einsum is faster but rounds differently.
    aB = a @ B
    atB = at @ B
    resid = y - ((aB * aB).sum(axis=1) - (atB * atB).sum(axis=1))
    r = resid[:, None]
    return float(resid @ resid), a.T @ (r * aB) - at.T @ (r * atB)


def sensing_eval(B, inst: SensingInstance):
    """Value (1/m)||r||^2 and gradient -(4/m)(a^T(r * aB) - a~^T(r * a~B)).

    Residuals r_i = y_i - ||B^T a_i||^2 + ||B^T a~_i||^2.  The measurements
    are walked in blocks of ``ROW_BLOCK`` rows and the blocks' sums added.
    """
    B = fact.as_matrix(B, inst.fac)
    # The first block sets the totals instead of adding to zeros, since
    # 0.0 + (-0.0) would flip the sign of a zero.
    value, grad = _block_terms(B, inst.a[:ROW_BLOCK], inst.at[:ROW_BLOCK],
                               inst.y[:ROW_BLOCK])
    for lo in range(ROW_BLOCK, inst.m, ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        v, g = _block_terms(B, inst.a[rows], inst.at[rows], inst.y[rows])
        value += v
        grad += g
    return value / inst.m, (-4.0 / inst.m) * grad


def objective(inst: SensingInstance) -> Objective:
    d, k = inst.fac.d, inst.fac.k

    def _both(x):
        value, grad = sensing_eval(x.reshape(d, k), inst)
        return value, grad.reshape(-1)

    def _dist_rows(X):
        return fact.dist_to_solution_rows(X, inst.fac)

    return Objective(
        dim=d * k,
        eval=lambda x: _both(x)[0],
        grad=lambda x: _both(x)[1],
        f_star=0.0,
        p_growth=4.0,
        dist_solution=on_row(_dist_rows),
        value_and_grad=_both,
        dist_rows=_dist_rows,
    )


def base_solution(inst: SensingInstance) -> np.ndarray:
    return fact.base_solution(inst.fac)


def bundle(params: dict) -> ProblemBundle:
    d, r, k = int(params["d"]), int(params["r"]), int(params["k"])
    m = 10 * d * k if params["m"] is None else int(params["m"])
    inst = make_sensing_instance(d, r, k, m, int(params["instance_seed"]))
    return ProblemBundle(
        SPEC, objective(inst), None, inst, base_solution(inst),
        lambda rng: fact.sample_solution(inst.fac, rng).reshape(-1))

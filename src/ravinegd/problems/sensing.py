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
differ from it by rounding only.  Within a block nothing is regrouped:
the row sums of squares add whole columns in the order of numpy's own
pairwise row sum (``_row_sums``), and transposed copies of the forward
products are scaled by the residuals in place, so a block's terms are
those of ``(aB * aB).sum(axis=1)`` and ``r * aB`` bit for bit.

The targets ``y`` and the dense measurements ``SensingInstance.measure``
walk the rows in ``ROW_BLOCK`` pieces too, through one reused block-sized
buffer, so they hold no (m, d) temporary.  Each form is a row's own
product, so no sum is regrouped: up to ``ROW_BLOCK`` rows they are the
one-pass forms bit for bit, and above it wherever the BLAS rounds a row of
a block-sized product as it does in an m-row one.  OpenBLAS 0.3.31 does
at the paper's d = 100; at some d between 17 and 28 it picks a different
kernel by size, and there the forms differ by rounding only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NONNEGATIVE, POSITIVE, ShapeMismatch
from ..objective import Objective
from . import factorization as fact
from .spec import ProblemBundle, ProblemSpec

# Rows of measurements per block of ``sensing_eval`` and of the quadratic
# forms behind the targets and ``measure``.  A block's rows of a and a~ are
# read by the forward products a @ B and again, while still in cache, by
# the gradient products.  At d = 100 a block of both arrays holds
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
    """Measurement factors, targets and ground truth for one sensing problem.

    ``measure`` takes a dense d x d matrix through the quadratic forms
    that give the targets ``y``; ``measure_factored`` takes a low-rank
    U S U^T by its factors, as the RIP trials draw it, and never forms the
    d x d matrix.
    """

    fac: fact.FactorizationInstance
    m: int
    a: np.ndarray              # (m, d) positive factors a_i
    at: np.ndarray             # (m, d) negative factors a~_i
    y: np.ndarray              # (m,) targets <A_i, X>
    op_scale: float            # analytic isometry normalization of the ensemble

    def measure(self, Z: np.ndarray) -> np.ndarray:
        """Measurements <A_i, Z> of a d x d matrix Z, shape (m,)."""
        return _quadratic_forms(self.a, self.at, Z)

    def measure_factored(self, U: np.ndarray, S: np.ndarray) -> np.ndarray:
        """Measurements <A_i, U S U^T> of a matrix given by its (d, l)
        factor U and (l, l) core S, shape (m,), without forming it.

        <A_i, U S U^T> = (U^T a_i)^T S (U^T a_i) - (U^T a~_i)^T S (U^T a~_i),
        so the cost is O(m d l) instead of the O(m d^2) of ``measure``,
        whose value it equals up to rounding.
        """
        aU = self.a @ U
        atU = self.at @ U
        # The row sums of the l-wide terms as one matrix-vector product
        # with ones: numpy's row sum of narrow rows is several times slower.
        return (aU @ S * aU - atU @ S * atU) @ np.ones(len(S))


def _quadratic_forms(a: np.ndarray, at: np.ndarray,
                     Z: np.ndarray) -> np.ndarray:
    # a_i^T Z a_i - a~_i^T Z a~_i, ROW_BLOCK rows at a time, as two BLAS
    # products into one block buffer; a three-operand einsum over the same
    # indices runs several times slower.  The last block ends at row m and
    # may overlap the one before it, so every product has the buffer's
    # shape: a short tail would go to another BLAS kernel (gemv for one
    # row, a small-matrix kernel for a few) and could round its rows
    # differently from the one-pass product.
    m = a.shape[0]
    n = min(m, ROW_BLOCK)
    forms = np.empty(m)
    t = np.empty((n, a.shape[1]))
    for lo in range(0, m, ROW_BLOCK):
        start = min(lo, m - n)
        rows = slice(start, start + n)
        np.matmul(a[rows], Z, out=t)
        t *= a[rows]
        plus = t.sum(axis=1)
        np.matmul(at[rows], Z, out=t)
        t *= at[rows]
        np.subtract(plus, t.sum(axis=1), out=forms[rows])
    return forms


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
    fac_inst = fact.random_instance(d, r, k, rng)
    a = rng.standard_normal((m, d))
    at = rng.standard_normal((m, d))
    return from_factors(fac_inst, a, at, op_scale=2.0)


def _row_sums(w: np.ndarray) -> np.ndarray:
    """The row sums of a 2-d array, as adds of whole columns, bit for bit
    those of ``np.ascontiguousarray(w).sum(axis=1)``.

    numpy adds each row of a C-contiguous array pairwise into an output
    that starts at 0.0: rows shorter than 8 in order; up to 128 entries as
    eight running sums of every eighth entry, combined as ((r0 + r1) +
    (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the tail in order; longer
    rows as the sums of two halves, the first rounded down to a multiple
    of 8.  The same adds over whole columns pay numpy's per-call cost once
    per column instead of once per row, and run fastest where each column
    is contiguous, as in the transpose of a C-contiguous array, whose own
    numpy sum takes another order from 8 columns up.
    """
    return _column_sum(w, 0, w.shape[1])


def _column_sum(w, lo, n):
    # numpy's pairwise sum of the columns lo .. lo + n - 1.  Each partial
    # sum starts as its first column plus 0.0.  That turns a -0.0 first
    # term into +0.0; a sum whose first term is not -0.0 is never -0.0 and
    # otherwise keeps its bits, which is what numpy's adding the pairwise
    # sum to an output of 0.0 does to it.
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _column_sum(w, lo, half) + _column_sum(w, lo + half, n - half)
    if n < 8:
        s = w[:, lo] + 0.0
        rest = range(lo + 1, lo + n)
    else:
        r = [w[:, j] + 0.0 for j in range(lo, lo + 8)]
        stop = lo + n - n % 8
        for j in range(lo + 8, stop):
            r[(j - lo) % 8] += w[:, j]
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        rest = range(stop, lo + n)
    for j in rest:
        s += w[:, j]
    return s


def _block_terms(B, a, at, y):
    # Sum of squared residuals and a^T(r * aB) - a~^T(r * a~B) over one
    # block of measurement rows, with every sum grouped as in
    # y - ((aB * aB).sum(axis=1) - (atB * atB).sum(axis=1)) and
    # a.T @ (r * aB) - at.T @ (r * atB).  The elementwise work runs on
    # transposed copies of aB and atB, so that each of their k columns is
    # one contiguous row: the row sums are ``_row_sums`` of the squares,
    # and the scaling by the residuals is in place, one IEEE product per
    # entry as in r * aB.  The gradient products take the scaled copies
    # as transposed operands, which OpenBLAS 0.3.31 multiplies bit for bit
    # as it does the row-major arrays; the bitwise sensing tests pin this.
    aBt = (a @ B).T.copy()
    atBt = (at @ B).T.copy()
    sq = aBt * aBt
    resid = _row_sums(sq.T)
    np.multiply(atBt, atBt, out=sq)
    resid -= _row_sums(sq.T)
    np.subtract(y, resid, out=resid)
    aBt *= resid
    atBt *= resid
    return float(resid @ resid), a.T @ aBt.T - at.T @ atBt.T


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

    return Objective(
        dim=d * k,
        value_and_grad=_both,
        f_star=0.0,
        p_growth=4.0,
        dist_rows=lambda X: fact.dist_to_solution_rows(X, inst.fac),
    )


def base_solution(inst: SensingInstance) -> np.ndarray:
    return fact.base_solution(inst.fac)


def bundle(params: dict) -> ProblemBundle:
    d, r, k = int(params["d"]), int(params["r"]), int(params["k"])
    m = 10 * d * k if params["m"] is None else int(params["m"])
    inst = make_sensing_instance(d, r, k, m, int(params["instance_seed"]))
    return ProblemBundle(
        SPEC, objective(inst), None, inst, base_solution(inst),
        fact.solution_sampler(inst.fac))

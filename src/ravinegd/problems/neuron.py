"""Two-neuron student fitting a single ReLU teacher in population loss.

The objective is the Gaussian expectation
f(w) = E_x [ (relu(w1.x) + relu(w2.x) - relu(v.x))^2 / 2 ], which has the
closed form (with t12 the angle between w1 and w2, and ti between wi and v)

  f = ||w1 + w2 - v||^2 / 4
      + (1/2pi) [ (sin t12 - t12 cos t12) ||w1|| ||w2||
                  - sum_i (sin ti - ti cos ti) ||wi|| ||v|| ].

Minimal value 0, attained on aligned splits w1 + w2 = v; the affine plane
{w : w1 + w2 = v} is the ravine and the growth along it is cubic.
:func:`monte_carlo_value` estimates the defining expectation directly and
serves as an independent oracle for the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import ShapeMismatch, ZeroNeuron
from ..objective import Objective, _rowdot, row_norms
from ..ravine import RavineDescriptor
from .spec import (
    CLOUD_CHECKS, NONNEGATIVE, POSITIVE, ProblemBundle, ProblemSpec, is_finite)

NORM_FLOOR = 1e-8

# The objective is homogeneous in (w, v), so students are compared with
# NORM_FLOOR * ||v||; this rule keeps ||v|| itself away from zero.
_V_NORM = (lambda v: is_finite(v) and abs(v) >= NORM_FLOOR,
           f"a finite number with magnitude >= {NORM_FLOOR:.0e}")

SPEC = ProblemSpec(
    "neuron", CLOUD_CHECKS,
    params={"d": (10, POSITIVE), "v_norm": (1.0, _V_NORM),
            "instance_seed": (0, NONNEGATIVE)})


@dataclass(frozen=True)
class NeuronInstance:
    """Teacher weight for the two-neuron student problem."""

    d: int
    v: np.ndarray

    @cached_property
    def norm_v(self) -> float:
        """||v||, computed once per instance."""
        return math.sqrt(self.v @ self.v)


def make_neuron_instance(d: int, seed: int,
                         v_norm: float = 1.0) -> NeuronInstance:
    """Random unit teacher direction scaled to ``v_norm``."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d)
    v = v / np.linalg.norm(v) * v_norm
    return NeuronInstance(d=d, v=v)


def _angle(a, b, na, nb):
    # A scalar clamp, but np.arccos: math.acos can differ from it in the
    # last bit, and neuron_values must match these values bit for bit.
    return float(np.arccos(min(max((a @ b) / (na * nb), -1.0), 1.0)))


def _check_floor(n1, n2, nv):
    if min(n1, n2) < NORM_FLOOR * nv:
        raise ZeroNeuron(f"student norms ({n1:.2e}, {n2:.2e}) below "
                         f"{NORM_FLOOR:.0e} * ||v|| = {NORM_FLOOR * nv:.2e}")


def _norms(w1, w2, inst):
    # numpy computes a 1-D float norm as exactly sqrt(w @ w).
    n1 = math.sqrt(w1 @ w1)
    n2 = math.sqrt(w2 @ w2)
    nv = inst.norm_v
    _check_floor(n1, n2, nv)
    return n1, n2, nv


def neuron_eval(w1, w2, inst: NeuronInstance):
    """Closed-form value and gradient; gradient stacked as (grad_w1, grad_w2)."""
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    if w1.shape != (inst.d,) or w2.shape != (inst.d,):
        raise ShapeMismatch(f"weights must have shape ({inst.d},)")
    v = inst.v
    n1, n2, nv = _norms(w1, w2, inst)
    t12 = _angle(w1, w2, n1, n2)
    t1 = _angle(w1, v, n1, nv)
    t2 = _angle(w2, v, n2, nv)

    s12, s1, s2 = np.sin(t12), np.sin(t1), np.sin(t2)
    misfit = w1 + w2 - v
    value = 0.25 * float(misfit @ misfit)
    value += (1.0 / (2.0 * np.pi)) * (
        (s12 - t12 * np.cos(t12)) * n1 * n2
        - (s1 - t1 * np.cos(t1)) * n1 * nv
        - (s2 - t2 * np.cos(t2)) * n2 * nv)

    base = 0.5 * misfit
    g1 = base + (1.0 / (2.0 * np.pi)) * (
        (n2 * s12 - nv * s1) * (w1 / n1) - t12 * w2 + t1 * v)
    g2 = base + (1.0 / (2.0 * np.pi)) * (
        (n1 * s12 - nv * s2) * (w2 / n2) - t12 * w1 + t2 * v)
    return value, np.concatenate([g1, g2])


def neuron_dist_rows(W, inst: NeuronInstance) -> np.ndarray:
    """||w1 + w2 - v|| plus the norms of the components orthogonal to v, at
    each row of an (n, 2d) stack of flattened weights.

    Vanishes exactly on aligned splits of the teacher; proportional to the
    distance to the solution set near it.
    """
    W1, W2 = _halves(W, inst)
    v = inst.v
    _check_floor(row_norms(W1).min(), row_norms(W2).min(), inst.norm_v)
    V = np.broadcast_to(v, W1.shape)
    vv = float(v @ v)
    perp1 = W1 - (_rowdot(W1, V) / vv)[:, None] * v
    perp2 = W2 - (_rowdot(W2, V) / vv)[:, None] * v
    return row_norms(W1 + W2 - v) + row_norms(perp1) + row_norms(perp2)


def monte_carlo_value(w1, w2, inst: NeuronInstance, n_samples: int,
                      seed: int):
    """Sample estimate of the defining expectation: (estimate, std_error)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_samples, inst.d))
    s = (np.maximum(x @ np.asarray(w1, float), 0.0)
         + np.maximum(x @ np.asarray(w2, float), 0.0)
         - np.maximum(x @ inst.v, 0.0))
    vals = 0.5 * s * s
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_samples))


def _split(x, inst):
    x = np.asarray(x, dtype=float)
    if x.size != 2 * inst.d:
        raise ShapeMismatch(f"expected {2 * inst.d} entries, got {x.size}")
    return x[:inst.d], x[inst.d:]


def _halves(W, inst):
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[1] != 2 * inst.d:
        raise ShapeMismatch(f"expected rows of {2 * inst.d} entries, "
                            f"got shape {W.shape}")
    return W[:, :inst.d], W[:, inst.d:]


def neuron_values(W, inst: NeuronInstance) -> np.ndarray:
    """Closed-form values at each row of an (n, 2d) stack of flattened weights.

    Equal bit for bit to the value of :func:`neuron_eval` on each row.
    """
    W1, W2 = _halves(W, inst)
    V = np.broadcast_to(inst.v, W1.shape)
    n1 = row_norms(W1)
    n2 = row_norms(W2)
    nv = inst.norm_v
    _check_floor(n1.min(), n2.min(), nv)

    def angle(dots, na, nb):
        return np.arccos(np.clip(dots / (na * nb), -1.0, 1.0))

    t12 = angle(_rowdot(W1, W2), n1, n2)
    t1 = angle(_rowdot(W1, V), n1, nv)
    t2 = angle(_rowdot(W2, V), n2, nv)
    misfit = W1 + W2 - inst.v
    value = 0.25 * _rowdot(misfit, misfit)
    value += (1.0 / (2.0 * np.pi)) * (
        (np.sin(t12) - t12 * np.cos(t12)) * n1 * n2
        - (np.sin(t1) - t1 * np.cos(t1)) * n1 * nv
        - (np.sin(t2) - t2 * np.cos(t2)) * n2 * nv)
    return value


def objective(inst: NeuronInstance) -> Objective:
    def _both(x):
        w1, w2 = _split(x, inst)
        return neuron_eval(w1, w2, inst)

    return Objective(
        dim=2 * inst.d,
        value_and_grad=_both,
        f_star=0.0,
        p_growth=3.0,
        eval_rows=lambda W: neuron_values(W, inst),
        dist_rows=lambda W: neuron_dist_rows(W, inst),
    )


def _retract_rows(X, inst):
    # The ravine {w1 + w2 = v} is affine; the orthogonal projection shifts
    # each neuron by half the constraint violation.
    W1, W2 = _halves(X, inst)
    shift = 0.5 * (W1 + W2 - inst.v)
    return np.concatenate([W1 - shift, W2 - shift], axis=1)


def bundle(params: dict) -> ProblemBundle:
    inst = make_neuron_instance(int(params["d"]), int(params["instance_seed"]),
                                v_norm=float(params["v_norm"]))
    tol = 1e-8 * (1.0 + inst.norm_v)

    def _sample_solution(rng):
        c = rng.uniform(0.25, 0.75)
        return np.concatenate([c * inst.v, (1.0 - c) * inst.v])

    rav = RavineDescriptor(
        retract_rows=lambda X: _retract_rows(X, inst),
        on_manifold=lambda x: float(np.linalg.norm(
            x[:inst.d] + x[inst.d:] - inst.v)) <= tol,
        sample_solution=_sample_solution,
    )
    # The balanced split (v/2, v/2) is the base solution.
    return ProblemBundle(SPEC, objective(inst), rav, inst,
                         np.concatenate([inst.v / 2.0, inst.v / 2.0]),
                         _sample_solution, ravine_bracket=(1e-3, 1e3))

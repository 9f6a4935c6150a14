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

from ..errors import NONNEGATIVE, POSITIVE, ShapeMismatch, ZeroNeuron
from ..objective import Objective, _rowdot, row_norms
from ..ravine import RavineDescriptor, SolutionSampler
from .spec import CLOUD_CHECKS, ProblemBundle, ProblemSpec

# The objective is homogeneous of degree 2 in (w, v), so students are
# compared with NORM_FLOOR * ||v||, and a unit teacher loses no generality.
NORM_FLOOR = 1e-8

SPEC = ProblemSpec(
    "neuron", CLOUD_CHECKS,
    params={"d": (10, POSITIVE), "instance_seed": (0, NONNEGATIVE)})


@dataclass(frozen=True)
class NeuronInstance:
    """Teacher weight for the two-neuron student problem."""

    d: int
    v: np.ndarray

    @cached_property
    def norm_v(self) -> float:
        """||v||, computed once per instance."""
        return math.sqrt(self.v @ self.v)


def make_neuron_instance(d: int, seed: int) -> NeuronInstance:
    """Random unit teacher direction."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d)
    v = v / np.linalg.norm(v)
    return NeuronInstance(d=d, v=v)


def _check_floor(n1, n2, nv):
    if min(n1, n2) < NORM_FLOOR * nv:
        raise ZeroNeuron(f"student norms ({n1:.2e}, {n2:.2e}) below "
                         f"{NORM_FLOOR:.0e} * ||v|| = {NORM_FLOOR * nv:.2e}")


def _unit_clamp(a):
    # np.clip(a, -1.0, 1.0) at about half its cost, equal to it on NaN,
    # +-inf and -0.0.
    return np.minimum(np.maximum(a, -1.0), 1.0)


def neuron_eval(w1, w2, inst: NeuronInstance):
    """Closed-form value and gradient; gradient stacked as (grad_w1, grad_w2).

    The per-point map: at one point its scalar arithmetic costs less than
    a one-row stack of :func:`neuron_value_and_grad_rows`, and it equals
    that row form bit for bit.
    """
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    if w1.shape != (inst.d,) or w2.shape != (inst.d,):
        raise ShapeMismatch(f"weights must have shape ({inst.d},)")
    return _closed_form(w1, w2, inst)


def _closed_form(w1, w2, inst):
    # ndarray.dot gives the bits of the 1-D ``@`` at half its cost, and
    # numpy computes a 1-D float norm as exactly sqrt(w @ w).
    v = inst.v
    n1 = math.sqrt(w1.dot(w1))
    n2 = math.sqrt(w2.dot(w2))
    nv = inst.norm_v
    _check_floor(n1, n2, nv)
    # The three angles as one array, through the same numpy calls as the
    # row form (math.acos can differ from np.arccos in the last bit).
    angles = np.arccos(_unit_clamp(np.array([
        w1.dot(w2) / (n1 * n2), w1.dot(v) / (n1 * nv), w2.dot(v) / (n2 * nv)])))
    t12, t1, t2 = angles.tolist()
    s12, s1, s2 = np.sin(angles).tolist()
    c12, c1, c2 = np.cos(angles).tolist()
    misfit = w1 + w2 - v
    value = 0.25 * float(misfit.dot(misfit))
    value += (1.0 / (2.0 * np.pi)) * (
        (s12 - t12 * c12) * n1 * n2
        - (s1 - t1 * c1) * n1 * nv
        - (s2 - t2 * c2) * n2 * nv)

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
    # The halves of a flat point, checked as neuron_eval checks them.
    x = np.asarray(x, dtype=float)
    if x.size != 2 * inst.d:
        raise ShapeMismatch(f"expected {2 * inst.d} entries, got {x.size}")
    if x.ndim != 1:
        raise ShapeMismatch(f"weights must have shape ({inst.d},)")
    return x[:inst.d], x[inst.d:]


def _halves(W, inst):
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[1] != 2 * inst.d:
        raise ShapeMismatch(f"expected rows of {2 * inst.d} entries, "
                            f"got shape {W.shape}")
    return W[:, :inst.d], W[:, inst.d:]


def _row_terms(W, inst):
    # The closed-form values at each row of W, and the norms, angles and
    # sines of the rows that the gradient reuses.
    W1, W2 = _halves(W, inst)
    V = np.broadcast_to(inst.v, W1.shape)
    n1 = row_norms(W1)
    n2 = row_norms(W2)
    nv = inst.norm_v
    _check_floor(n1.min(), n2.min(), nv)

    def angle(dots, na, nb):
        return np.arccos(_unit_clamp(dots / (na * nb)))

    t12 = angle(_rowdot(W1, W2), n1, n2)
    t1 = angle(_rowdot(W1, V), n1, nv)
    t2 = angle(_rowdot(W2, V), n2, nv)
    s12, s1, s2 = np.sin(t12), np.sin(t1), np.sin(t2)
    misfit = W1 + W2 - inst.v
    value = 0.25 * _rowdot(misfit, misfit)
    value += (1.0 / (2.0 * np.pi)) * (
        (s12 - t12 * np.cos(t12)) * n1 * n2
        - (s1 - t1 * np.cos(t1)) * n1 * nv
        - (s2 - t2 * np.cos(t2)) * n2 * nv)
    return value, (W1, W2, n1, n2, t12, t1, t2, s12, s1, s2, misfit)


def neuron_values(W, inst: NeuronInstance) -> np.ndarray:
    """Closed-form values at each row of an (n, 2d) stack of flattened weights.

    Equal bit for bit to the value of :func:`neuron_eval` on each row.
    """
    return _row_terms(W, inst)[0]


def neuron_value_and_grad_rows(W, inst: NeuronInstance):
    """Closed-form values and gradients at each row of an (n, 2d) stack of
    flattened weights, each gradient stacked as (grad_w1, grad_w2).

    Equal bit for bit to :func:`neuron_eval` on each row.
    """
    value, (W1, W2, n1, n2, t12, t1, t2, s12, s1, s2,
            misfit) = _row_terms(W, inst)
    v, nv = inst.v, inst.norm_v
    base = 0.5 * misfit
    G1 = base + (1.0 / (2.0 * np.pi)) * (
        (n2 * s12 - nv * s1)[:, None] * (W1 / n1[:, None])
        - t12[:, None] * W2 + t1[:, None] * v)
    G2 = base + (1.0 / (2.0 * np.pi)) * (
        (n1 * s12 - nv * s2)[:, None] * (W2 / n2[:, None])
        - t12[:, None] * W1 + t2[:, None] * v)
    return value, np.concatenate([G1, G2], axis=1)


def objective(inst: NeuronInstance) -> Objective:
    def _both(x):
        return _closed_form(*_split(x, inst), inst)

    return Objective(
        dim=2 * inst.d,
        value_and_grad=_both,
        value_and_grad_rows=lambda W: neuron_value_and_grad_rows(W, inst),
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
    inst = make_neuron_instance(int(params["d"]), int(params["instance_seed"]))

    def _solutions(c):
        # Aligned splits (c v, (1 - c) v), one per entry of c.
        c = c[:, None]
        return np.concatenate([c * inst.v, (1.0 - c) * inst.v], axis=1)

    sampler = SolutionSampler(draw=lambda rng: rng.uniform(0.25, 0.75),
                              rows=_solutions)
    rav = RavineDescriptor(
        retract_rows=lambda X: _retract_rows(X, inst),
        sample_solution=sampler,
    )
    # The balanced split (v/2, v/2) is the base solution.
    return ProblemBundle(SPEC, objective(inst), rav, inst,
                         np.concatenate([inst.v / 2.0, inst.v / 2.0]),
                         sampler, ravine_bracket=(1e-3, 1e3))

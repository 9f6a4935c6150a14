"""Benchmark problems with analytic gradients and ravine data.

``PROBLEMS`` maps each problem name to its module, which states the
problem's facts once in its ``SPEC`` (see :mod:`.spec`) and builds its
:class:`ProblemBundle`.  A module supplies each map once: the fused
value-and-gradient, the row forms ``value_and_grad_rows``, ``eval_rows``
and ``dist_rows`` and the ravine's ``retract_rows`` where it has them, and
its solution sampler as a :class:`~ravinegd.ravine.SolutionSampler`; the
per-point ``eval``, ``grad`` and ``dist_solution``, the point-or-stack
``retract``, a looped ``value_and_grad_rows`` and ``eval_rows`` as its
values are derived from these by
:class:`~ravinegd.objective.Objective` and
:class:`~ravinegd.ravine.RavineDescriptor`.  ``build`` and
``param_errors`` read that table;
``build`` redraws an instance bit for bit from its name and parameters,
which a run's ``config.json`` records.  ``sample_init`` draws initial
points at an exact distance from a known solution.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..objective import unit_direction
from . import circle, factorization, neuron, quartic, rosenbrock, sensing
from .spec import ProblemBundle, rule_errors

PROBLEMS = {module.SPEC.name: module for module in (
    quartic, rosenbrock, circle, factorization, sensing, neuron)}
PROBLEM_NAMES = tuple(PROBLEMS)

__all__ = [
    "PROBLEMS", "PROBLEM_NAMES", "ProblemBundle", "build", "param_errors",
    "sample_init",
    "quartic", "rosenbrock", "circle", "factorization", "sensing", "neuron",
]


def build(name: str, params: Optional[dict] = None) -> ProblemBundle:
    """Construct a problem bundle by name.

    ``params`` overrides the problem's defaults; see each ``SPEC.params``.
    """
    if name not in PROBLEMS:
        raise ValueError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}")
    module = PROBLEMS[name]
    return module.bundle(_with_defaults(module.SPEC, params or {}))


def _with_defaults(spec, params: dict) -> dict:
    return {key: params.get(key, default)
            for key, (default, _) in spec.params.items()}


def param_errors(name: str, params: Optional[dict]) -> list:
    """Messages for an unknown problem or a non-dict ``params``, keys it
    does not take, values that break their rule and combinations outside
    its ``ordered`` keys."""
    if not isinstance(name, str) or name not in PROBLEMS:
        return [f"problem: unknown {name!r}"]
    if not isinstance(params, (dict, type(None))):
        return [f"problem_params: must be a dict, got {params!r}"]
    spec = PROBLEMS[name].SPEC
    params = params or {}
    unknown = sorted(set(params) - set(spec.params))
    if unknown:
        return [f"problem_params: {name} does not take {unknown}; it takes "
                f"{list(spec.params) or 'no parameters'}"]
    rules = {key: rule for key, (_, rule) in spec.params.items()}
    errors = rule_errors(params, rules, "problem_params: {}")
    full = _with_defaults(spec, params)
    values = [full[key] for key in spec.ordered]
    if not errors and values != sorted(values):
        errors.append(f"problem_params: need {' <= '.join(spec.ordered)}, got "
                      + ", ".join(f"{key}={full[key]}" for key in spec.ordered))
    return errors


def sample_init(bundle: ProblemBundle, radius: float, seed: int) -> np.ndarray:
    """Known solution plus a random direction scaled to exactly ``radius``."""
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    rng = np.random.default_rng(seed)
    base = np.asarray(bundle.base_solution, dtype=float)
    return base + radius * unit_direction(rng, bundle.objective.dim)


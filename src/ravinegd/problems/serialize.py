"""JSON round-trips for problem instances.

Instances serialize to plain dictionaries (dimensions, seed, dense arrays
as nested number lists) so that runs replay without re-drawing randomness.
Sensing instances store their (m, d) measurement factors as ``"a"`` and
``"at"``.
"""

from __future__ import annotations

import numpy as np

from . import factorization as fact
from . import neuron as neur
from . import sensing as sens


def instance_to_dict(inst) -> dict:
    if isinstance(inst, fact.FactorizationInstance):
        return {
            "type": "factorization",
            "d": inst.d, "k": inst.k, "r": inst.r,
            "seed": inst.seed,
            "X": inst.X.tolist(),
        }
    if isinstance(inst, sens.SensingInstance):
        return {
            "type": "sensing",
            "d": inst.fac.d, "k": inst.fac.k, "r": inst.fac.r,
            "m": inst.m,
            "seed": inst.seed,
            "op_scale": inst.op_scale,
            "X": inst.fac.X.tolist(),
            "a": inst.a.tolist(),
            "at": inst.at.tolist(),
        }
    if isinstance(inst, neur.NeuronInstance):
        return {
            "type": "neuron",
            "d": inst.d, "n": inst.n,
            "seed": inst.seed,
            "v": inst.v.tolist(),
        }
    raise TypeError(f"unsupported instance type {type(inst).__name__}")


def instance_from_dict(data: dict):
    kind = data["type"]
    if kind == "factorization":
        return fact.from_matrix(np.array(data["X"]), data["k"],
                                r=data["r"], seed=data.get("seed"))
    if kind == "sensing":
        fac_inst = fact.from_matrix(np.array(data["X"]), data["k"],
                                    r=data["r"], seed=data.get("seed"))
        return sens.from_factors(fac_inst, np.array(data["a"]),
                                 np.array(data["at"]),
                                 op_scale=data.get("op_scale", 1.0),
                                 seed=data.get("seed"))
    if kind == "neuron":
        return neur.NeuronInstance(d=data["d"], v=np.array(data["v"]),
                                   n=data.get("n", 2), seed=data.get("seed"))
    raise ValueError(f"unknown instance type {kind!r}")

"""The benchmark's workloads: fixed CLI command lists generated from a seed.

The program only ever sees the generated argument lists.  The workload seed
becomes both the init seed (``--seed``) and, for the randomized problem
families, ``instance_seed``.  ``tiny`` shrinks every operation for the
self-test; the timed runs never use it.

Why these three workloads:

- ``small_compare``: objectives that cost a few microseconds per call, so
  the epoch engine, the distance oracles and trace I/O dominate.
- ``sensing_full``: the paper's d=100, m=4000 sensing instance with a cut
  budget; the dense measurement tensor dominates time, set-up and memory.
- ``geometry``: the diagnostics and the Morse solver, which use the
  objective layer through unfused eval/grad calls and never enter the
  epoch engine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

SUITE = "ravine,aiming,growth,lojasiewicz,gradcontrol"


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must satisfy.

    ``ceiling`` bounds every best value gap the operation reports.  An
    operation with ``known_raise`` is expected to raise that exception out
    of ``cli.main`` until the program is fixed; that failure still counts
    as failed, but not as incorrect.
    """

    name: str
    argv: tuple
    kind: str                 # run | compare | diagnose | morse
    K: int = 0
    I: int = 0
    J: int = 0
    ceiling: float = float("inf")
    suite: tuple = ()
    known_raise: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    reference: str            # reference kernel matching the bottleneck
    ops: tuple
    # (problem, params, init_radius) built and sampled by the set-up timing
    instances: tuple




def _load_config(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _small_compare(seed: int, tiny: bool) -> Workload:
    K, I, J = (10, 5, 3) if tiny else (100, 50, 3)
    ops, instances = [], []
    # (problem, eta, init radius, best-gap ceiling)
    for problem, eta, radius, ceiling in (("quartic1d", 0.05, 0.5, 1e-2),
                                          ("rosenbrock", 0.0125, 0.5, 1e-1),
                                          ("circle", 0.05, 0.3, 1e-1)):
        argv = ("compare", "--problem", problem, "--eta", str(eta),
                "--K", str(K), "--I", str(I), "--init-radius", str(radius),
                "--J", str(J), "--f-lb", "-1", "--record-distances",
                "--seed", str(seed))
        # gdpolyak_lb with a strict lower bound overflows in quartic._both,
        # which computes with Python floats, so the round is not abandoned:
        # OverflowError escapes cli.main instead of the NonFiniteGradient
        # the engine handles.
        known = "OverflowError" if problem == "quartic1d" else ""
        ops.append(Op(f"compare_{problem}", argv, "compare", K, I, J,
                      ceiling=1.0 if tiny else ceiling, known_raise=known))
        instances.append((problem, {}, radius))
    for name, ceiling in (("rosenbrock_figure", 1e-12), ("neuron_full", 1e-12)):
        path = f"configs/{name}.json"
        cfg = _load_config(path)
        argv = ["run", "--config", path, "--seed", str(seed)]
        params = dict(cfg.get("problem_params", {}))
        if "instance_seed" in params:
            params["instance_seed"] = seed
            argv += ["--param", f"instance_seed={seed}"]
        k, i = cfg["K"], cfg["I"]
        if tiny:
            k, i, ceiling = 10, 5, 10.0
            argv += ["--K", str(k), "--I", str(i)]
            if "d" in params:
                params["d"] = 10
                argv += ["--param", "d=10"]
        ops.append(Op(f"run_{name}", tuple(argv), "run", k, i,
                      ceiling=ceiling))
        instances.append((cfg["problem"], params, cfg["init_radius"]))
    return Workload("small_compare", "interp", tuple(ops), tuple(instances))


def _sensing_full(seed: int, tiny: bool) -> Workload:
    path = "configs/sensing_full.json"
    cfg = _load_config(path)
    params = dict(cfg["problem_params"], instance_seed=seed)
    # The paper's d and m; the budget is cut from K=300, I=50 to K=20, I=4.
    K, I, ceiling = (5, 2, 10.0) if tiny else (20, 4, 1e-3)
    argv = ["run", "--config", path, "--K", str(K), "--I", str(I),
            "--seed", str(seed), "--param", f"instance_seed={seed}"]
    if tiny:
        params.update(d=20, m=800)
        argv += ["--param", "d=20", "--param", "m=800"]
    op = Op("run_sensing_full", tuple(argv), "run", K, I, ceiling=ceiling)
    return Workload("sensing_full", "matvec", (op,),
                    ((cfg["problem"], params, cfg["init_radius"]),))


def _geometry(seed: int, tiny: bool) -> Workload:
    samples = "20" if tiny else "200"
    common = ("--samples", samples, "--radius", "0.01", "--seed", str(seed))
    inst = ("--param", f"instance_seed={seed}")
    ops, instances = [], []
    for problem in ("factorization", "neuron"):
        ops.append(Op(f"diagnose_{problem}",
                      ("diagnose", "--problem", problem, "--suite", SUITE)
                      + common + inst, "diagnose", suite=tuple(SUITE.split(","))))
        instances.append((problem, {"instance_seed": seed}, 0.01))
    for problem in ("rosenbrock", "circle"):
        suite = SUITE + ",morse"
        ops.append(Op(f"diagnose_{problem}",
                      ("diagnose", "--problem", problem, "--suite", suite)
                      + common, "diagnose", suite=tuple(suite.split(","))))
        instances.append((problem, {}, 0.01))
    sensing = {"d": 20, "m": 800, "instance_seed": seed}
    ops.append(Op("rip_sensing",
                  ("diagnose", "--problem", "sensing", "--suite", "rip")
                  + common + ("--param", "d=20", "--param", "m=800") + inst,
                  "diagnose", suite=("rip",)))
    instances.append(("sensing", sensing, 0.01))
    ops.append(Op("morse_circle", ("morse", "--problem", "circle"), "morse"))
    return Workload("geometry", "interp", tuple(ops), tuple(instances))


BUILDERS = {
    "small_compare": _small_compare,
    "sensing_full": _sensing_full,
    "geometry": _geometry,
}


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    if name not in BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(BUILDERS)}")
    return BUILDERS[name](seed, tiny)

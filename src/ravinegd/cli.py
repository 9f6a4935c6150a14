"""Command-line front end.

Subcommands: run (single method), compare (all methods at equal budget),
diagnose (ravine-geometry checks, exit status reflects aggregate pass),
morse (trace a Morse ravine over a tangent grid).  A JSON config file may
supply any run/compare field; explicitly passed flags override it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import problems
from .errors import ConfigInvalid, RavineGDError
from .harness import (
    ALL_CHECKS,
    METHODS,
    ExperimentConfig,
    check_input,
    compare_methods,
    diagnose,
    run_experiment,
)
from .morse import morse_ravine_solve, tangent_grid


def _parse_param(text: str):
    key, _, raw = text.partition("=")
    if not _:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    try:
        value = int(raw)
    except ValueError:
        try:
            value = float(raw)
        except ValueError:
            value = raw
    return key, value


def _add_run_flags(p: argparse.ArgumentParser, with_method: bool):
    p.add_argument("--problem", choices=problems.PROBLEM_NAMES)
    if with_method:
        p.add_argument("--method", choices=METHODS)
    p.add_argument("--eta", type=float)
    p.add_argument("--K", type=int, dest="K")
    p.add_argument("--I", type=int, dest="I")
    p.add_argument("--J", type=int, dest="J")
    p.add_argument("--f-lb", type=float, dest="f_lb")
    p.add_argument("--init-radius", type=float, dest="init_radius")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="out_dir")
    p.add_argument("--record-distances", action="store_true", default=None,
                   dest="record_distances")
    p.add_argument("--param", action="append", type=_parse_param, default=[],
                   help="problem parameter KEY=VALUE (repeatable)")
    p.add_argument("--config", dest="config_file",
                   help="JSON config file; explicit flags override it")


def _config_from_args(args) -> ExperimentConfig:
    data, path = {}, args.config_file
    if path:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigInvalid([f"config: {path}: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ConfigInvalid([f"config: {path}: not a JSON object: {data!r}"])
    for name in ExperimentConfig.__dataclass_fields__:   # flag dest = field
        value = getattr(args, name, None)
        if value is not None:
            data[name] = value
    params = data.get("problem_params")
    if args.param and isinstance(params, (dict, type(None))):
        # Anything else is left for validation to report.
        data["problem_params"] = {**(params or {}), **dict(args.param)}
    return ExperimentConfig.from_dict(data)


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    trace = run_experiment(config)
    gap = trace.best_value - trace.f_reference
    print(f"{config.problem}/{config.method}: best gap {gap:.6e} "
          f"after {trace.grad_evals} gradient evaluations")
    if config.out_dir:
        print(f"wrote {config.out_dir}/trace.csv")
    return 0


def _cmd_compare(args) -> int:
    config = _config_from_args(args)
    table = compare_methods(config)
    print(table.to_text(), end="")
    if config.out_dir:
        print(f"wrote {config.out_dir}/comparison.csv")
    return 0


def _cmd_diagnose(args) -> int:
    suite = [s.strip() for s in args.suite.split(",") if s.strip()]
    ok, reports = diagnose(args.problem, suite, n_samples=args.samples,
                           radius=args.radius, seed=args.seed,
                           out_dir=args.out_dir,
                           problem_params=dict(args.param))
    for name, rep in reports.items():
        verdict = "pass" if rep.passed else "FAIL"
        print(f"{name}: {verdict}  range [{rep.measured_lower:.6g}, "
              f"{rep.measured_upper:.6g}]  samples {rep.samples_tested}")
    return 0 if ok else 1


def _parse_grid(text: str) -> np.ndarray:
    try:
        return tangent_grid(*(float(t) for t in text.split(":")))
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected a:b:step with a <= b and step > 0, got {text!r}") from exc


def _cmd_morse(args) -> int:
    params = dict(args.param)
    check_input(args.problem, params, tol=args.tol)
    bundle = problems.build(args.problem, params)
    spec = bundle.spec.morse
    solver = morse_ravine_solve(bundle.objective, bundle.base_solution,
                                tol=args.tol, max_iter=100)
    rows = []
    for u in args.u_grid:
        point = solver.point(np.full(solver.tangent_dim, float(u)))
        rows.append({"u": float(u), "point": point.tolist(),
                     spec.output: spec.residual(point)})
    payload = {"problem": args.problem, "tol": args.tol, "points": rows}
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "morse.json").write_text(json.dumps(payload, indent=2) + "\n",
                                        encoding="utf-8")
        print(f"wrote {out / 'morse.json'}")
    print("max deviation over grid: "
          f"{max(row[spec.output] for row in rows):.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ravinegd",
        description="Adaptive-stepsize gradient descent with ravine diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one method on one problem")
    _add_run_flags(p_run, with_method=True)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run all methods at equal budget")
    _add_run_flags(p_cmp, with_method=False)
    p_cmp.set_defaults(func=_cmd_compare)

    p_diag = sub.add_parser("diagnose", help="run ravine-geometry checks")
    p_diag.add_argument("--problem", required=True,
                        choices=problems.PROBLEM_NAMES)
    p_diag.add_argument("--suite", required=True,
                        help=f"comma-separated subset of {ALL_CHECKS}")
    p_diag.add_argument("--samples", type=int, default=200)
    p_diag.add_argument("--radius", type=float, default=0.05)
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--out", dest="out_dir")
    p_diag.add_argument("--param", action="append", type=_parse_param,
                        default=[])
    p_diag.set_defaults(func=_cmd_diagnose)

    p_morse = sub.add_parser("morse", help="trace a Morse ravine")
    p_morse.add_argument("--problem", required=True, choices=[
        name for name, module in problems.PROBLEMS.items()
        if module.SPEC.morse is not None])
    p_morse.add_argument("--u-grid", type=_parse_grid, dest="u_grid",
                         default=_parse_grid("-0.5:0.5:0.05"))
    p_morse.add_argument("--tol", type=float, default=1e-12)
    p_morse.add_argument("--out", dest="out_dir")
    p_morse.add_argument("--param", action="append", type=_parse_param,
                         default=[])
    p_morse.set_defaults(func=_cmd_morse)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RavineGDError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Runs every workload at a tiny size, with
and without tracing, and checks that each metric named in BENCHMARK.json is
emitted with its unit and that the only failing operation is the known
quartic1d defect.  Then checks that the benchmark refuses to run, printing
no result, in a directory holding only BENCHMARK.json and its own files.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

KNOWN_FAILING = {"small_compare": {"compare_quartic1d"}}
OPS_PER_REP = {"small_compare": 5, "sensing_full": 1, "geometry": 6}


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_workload(root: Path, spec: dict, workload: str) -> list:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(root, workload, trace)
        where = f"{workload} --trace {trace}"
        if proc.returncode != 0:
            return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{where}: result keys {sorted(result)}")
        expected = {m["name"]: m["unit"] for m in spec[key]}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        if emitted != expected:
            problems.append(f"{where}: metrics {emitted} != {expected}")
        for name, metric in result["metrics"].items():
            if not isinstance(metric["value"], (int, float)):
                problems.append(f"{where}: {name} value {metric['value']!r}")
        record = json.loads((root / ".perfbench" / "results" /
                             f"{workload}-seed0-trace{trace}.json").read_text())
        known = KNOWN_FAILING.get(workload, set())
        failing = set(record["unexpected_failures"]) | set(
            record["known_defect_failures"])
        if failing != known or not result["correct"]:
            problems.append(f"{where}: failing {record['unexpected_failures']} "
                            f"{record['known_defect_failures']}")
        reps = result["attempted"] // OPS_PER_REP[workload]
        if result["failed"] != reps * len(known):
            problems.append(f"{where}: {result['failed']} failed of "
                            f"{result['attempted']}")
        if trace == 0:
            ok = result["metrics"]["ok_frac"]["value"]
            if ok != 1.0 - len(known) / OPS_PER_REP[workload]:
                problems.append(f"{where}: ok_frac {ok}")
    return problems


def check_bare_directory(root: Path) -> list:
    """Only BENCHMARK.json and the benchmark's paths: must fail, no result."""
    bare = root / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        for path in json.loads((root / "BENCHMARK.json").read_text())["paths"]:
            shutil.copytree(root / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "small_compare", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        found = check_workload(root, spec, workload)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    found = check_bare_directory(root)
    print(f"bare directory: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

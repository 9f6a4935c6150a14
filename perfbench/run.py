"""Benchmark command for ravinegd.

    python3 perfbench/run.py --workload small_compare --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One workload process (``worker.py``) runs the workload's fixed CLI command
list in-process through ``cli.main``, one rep after another: a closed loop
with one client, so nothing queues.  A reference kernel (``refkernel.py``)
is timed in its own process just before and just after every operation,
never at the same time, and each operation's time is reported in
reference-speed seconds, ``raw_s * R0 / ref_s``.  A shared 2-core virtual
machine can flip between full and about half speed within a fraction of
a second and drift over minutes, so a reference timed once per rep does
not cancel it; one timed next to every operation does, in part, and
taking each operation's faster reps does the rest: a slow phase of the
host only ever adds time.

With ``--trace 0`` the result holds the end-to-end metrics:

- ``wall_s``: one rep of the command list, as the sum over its operations
  of each operation's ``fast_median`` over the run's reps (the rep totals,
  their quartiles and count go to the results file);
- ``setup_s``: median over rounds, one after each rep, of the fastest of
  at least two back-to-back warm ``build`` + ``sample_init`` of every
  instance the workload uses (import stays out; the traced run reports it
  as ``cli.import_s``);
- ``peak_rss_mb``: peak resident memory of the workload process;
- ``ok_frac``: share of CLI operations that passed their output check.

With ``--trace 1`` it holds the per-layer metrics of ``tracer.LAYER_UNITS``,
medians over traced reps that alternate with untraced ones; the two give
the tracing overhead.  The last line of stdout is the result; the full
record, with the environment block, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_UNITS  # noqa: E402
from workloads import BUILDERS, make_workload  # noqa: E402

# R0: the reference kernel's time, in seconds, on the reference host.
REFERENCE_S = {"interp": 0.006, "matvec": 0.013}
MIN_REPS = 3
IMPORT_SAMPLES = 3
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_frac": "ratio"}


class Child:
    """A child process spoken to one line at a time."""

    def __init__(self, argv):
        self.argv = argv
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.argv[1]} ended early "
                               f"(exit {self.proc.wait()})")
        return line

    def ask(self, text: str) -> str:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


class Reference(Child):
    def __init__(self, kernel: str):
        super().__init__([sys.executable, str(HERE / "refkernel.py"), kernel])
        self.read()
        self.r0 = REFERENCE_S[kernel]
        self.times = []

    def measure(self) -> float:
        ref_s = float(self.ask("run"))
        self.times.append(ref_s)
        return ref_s


class Worker(Child):
    def __init__(self, workload: str, seed: int, tiny: bool, tmp: Path):
        super().__init__([sys.executable, str(HERE / "worker.py"), workload,
                          str(seed), "1" if tiny else "0", str(tmp)])
        self.hello = json.loads(self.read())

    def request(self, **req) -> dict:
        return json.loads(self.ask(json.dumps(req)))


def git_commit(root: Path):
    """The checkout's commit read from .git, or None outside a git tree."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def import_seconds(root: Path) -> float:
    """Median raw time to import ravinegd.cli in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, 'src'); "
            "t = time.perf_counter(); import ravinegd.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], cwd=root,
                             capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


class Tally:
    """Operations attempted and failed, split by known defect."""

    def __init__(self, op_names):
        self.op_names = op_names
        self.attempted = 0
        self.failed = 0
        self.unexpected = {}
        self.known_failures = {}

    def add(self, index: int, reply: dict):
        self.attempted += 1
        if reply["error"]:
            self.failed += 1
            bucket = self.known_failures if reply["known"] else self.unexpected
            bucket.setdefault(self.op_names[index], reply["error"])


def timed_rep(worker, ref, tally, traced: bool) -> dict:
    """One rep, every operation bracketed by reference timings.

    An operation's reference-speed time is ``raw * R0 / ref``, with ``ref``
    the mean of the reference timings just before and just after it.
    """
    worker.request(op="begin", traced=traced)
    before = ref.measure()
    refs, raw, norm = [before], [], []
    for index in range(len(tally.op_names)):
        reply = worker.request(op="run", index=index)
        after = ref.measure()
        tally.add(index, reply)
        raw.append(reply["raw_s"])
        norm.append(reply["raw_s"] * ref.r0 * 2.0 / (before + after))
        refs.append(after)
        before = after
    end = worker.request(op="end")
    layers = end.get("layers")
    if layers is not None:
        scale = ref.r0 / statistics.fmean(refs)
        layers = {k: v * scale if LAYER_UNITS[k] in ("s", "us") else v
                  for k, v in layers.items()}
    return {"raw": raw, "norm": norm, "layers": layers}


def timed_setup(worker, ref) -> float:
    """One set-up round in reference-speed seconds, bracketed like an op."""
    before = ref.times[-1]
    raw = worker.request(op="setup")["raw_s"]
    return raw * ref.r0 * 2.0 / (before + ref.measure())


def fast_median(values) -> float:
    """Median of the faster half of ``values``.

    Over ten runs of each workload on a 2-core virtual machine, its quartile
    spread from run to run stayed under 7% of the median, where the plain
    median's reached 12%.
    """
    return statistics.median(sorted(values)[:(len(values) + 1) // 2])


def op_time_sum(reps) -> float:
    """Sum over the command list of each operation's ``fast_median`` time."""
    return sum(fast_median([rep["norm"][k] for rep in reps])
               for k in range(len(reps[0]["norm"])))


def run_workload(args, root: Path, tmp: Path) -> dict:
    workload = make_workload(args.workload, args.seed, args.tiny)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "reference": workload.reference}
    if args.trace:
        record["cli.import_s"] = import_seconds(root)
    ref = worker = None
    try:
        ref = Reference(workload.reference)
        worker = Worker(args.workload, args.seed, args.tiny, tmp)
        if not Path(worker.hello["ravinegd"]).resolve().is_relative_to(
                (root / "src").resolve()):
            raise RuntimeError(f"imported {worker.hello['ravinegd']}, "
                               f"not the checkout's src/")
        tally = Tally(worker.hello["ops"])
        reps = {False: [], True: []}
        setups = []
        # A round is an untraced rep followed by a traced rep (--trace 1) or
        # by a set-up timing (--trace 0), so that both sample the whole run.
        # The reps measure for args.seconds; set-up timings come on top.
        measured = 0.0
        rounds = 0
        while True:
            start = time.perf_counter()
            reps[False].append(timed_rep(worker, ref, tally, traced=False))
            if args.trace:
                reps[True].append(timed_rep(worker, ref, tally, traced=True))
            measured += time.perf_counter() - start
            if not args.trace:
                setups.append(timed_setup(worker, ref))
            rounds += 1
            if rounds >= MIN_REPS and measured * (rounds + 1) / rounds > args.seconds:
                break
        record["setup_s_rounds"] = setups
        spans = root / ".perfbench" / "results" / (
            f"{args.workload}-seed{args.seed}-spans.csv")
        final = worker.request(op="exit", spans=str(spans) if args.trace else "")
        worker.proc.wait(timeout=60)
    finally:
        for child in (worker, ref):
            if child is not None:
                child.close()
    untraced = reps[False]
    rep_sums = [sum(rep["norm"]) for rep in untraced]
    record.update(
        env_worker={k: worker.hello[k] for k in ("python", "numpy", "blas",
                                                  "blas_threads")},
        reps=len(untraced), rep_wall_s=rep_sums,
        rep_wall_s_quartiles=statistics.quantiles(rep_sums, n=4),
        op_wall_s={name: [rep["norm"][k] for rep in untraced]
                   for k, name in enumerate(tally.op_names)},
        raw_wall_s_reps=[sum(rep["raw"]) for rep in untraced], ref_s=ref.times,
        attempted=tally.attempted, failed=tally.failed,
        unexpected_failures=tally.unexpected,
        known_defect_failures=tally.known_failures)
    if args.trace:
        layers = [rep["layers"] for rep in reps[True]]
        metrics = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        metrics["cli.import_s"] = record["cli.import_s"]
        metrics["bench.ref_s"] = statistics.median(ref.times)
        metrics["bench.raw_wall_s"] = statistics.median(record["raw_wall_s_reps"])
        metrics["bench.trace_overhead"] = (op_time_sum(reps[True])
                                           / op_time_sum(untraced) - 1.0)
        units = LAYER_UNITS
        record["traced_reps"] = len(reps[True])
        record["spans_file"] = str(spans.relative_to(root))
    else:
        metrics = {
            "wall_s": op_time_sum(untraced),
            "setup_s": statistics.median(record["setup_s_rounds"]),
            "peak_rss_mb": final["peak_rss_mb"],
            "ok_frac": 1.0 - tally.failed / tally.attempted,
        }
        units = END_TO_END_UNITS
    record["metrics"] = {k: {"value": metrics[k], "unit": units[k]}
                         for k in units}
    return record


def environment(root: Path) -> dict:
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": list(os.getloadavg()),
            "git_commit": git_commit(root)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every operation (self-test only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it seeds numpy generators)")

    root = Path.cwd()
    missing = [p for p in ("src/ravinegd/cli.py", "configs") if not (root / p).exists()]
    if missing:
        print(f"error: run from a ravinegd checkout; missing {missing}",
              file=sys.stderr)
        return 2
    env = environment(root)
    state = root / ".perfbench"
    tmp = state / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    (state / "results").mkdir(parents=True, exist_ok=True)
    try:
        record = run_workload(args, root, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env.update(record.pop("env_worker"), loadavg_end=list(os.getloadavg()))
    record["environment"] = env

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (state / "results" / name).write_text(json.dumps(record, indent=1) + "\n")
    print("environment:", json.dumps(env))
    for key, metric in record["metrics"].items():
        print(f"{args.workload} {key}: {metric['value']:.6g} {metric['unit']}")
    for name, error in record["unexpected_failures"].items():
        print(f"FAILED {name}: {error}")
    for name, error in record["known_defect_failures"].items():
        print(f"known defect {name}: {error}")
    print(json.dumps({"correct": not record["unexpected_failures"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

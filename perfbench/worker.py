"""Workload process: runs one workload's CLI operations in-process.

Started by ``run.py`` from the root of a checkout, with the program's
sources under ``src/``.  Requests arrive one JSON line at a time on stdin
and each gets one JSON line back on stdout:

- ``{"op": "setup"}``: time warm ``problems.build`` +
  ``problems.sample_init`` of every instance the workload uses, repeated
  back to back for at least ``SETUP_MIN_SETS`` sets and ``SETUP_MIN_S``;
  returns the fastest raw seconds per full set.
- ``{"op": "begin", "traced": bool}`` opens a rep of the command list;
- ``{"op": "run", "index": k}`` runs operation k through ``cli.main`` and
  returns its raw seconds, its failure reason (empty when it passed its
  output check) and whether the failure is a known defect;
- ``{"op": "end"}`` closes the rep and, when traced, returns its per-layer
  metrics.
- ``{"op": "exit", "spans": path}``: write the first traced rep's spans to
  ``path``, reply with the peak resident memory and exit.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

from checks import CheckFailed, KnownDefect, check_op, empty_stats  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import make_workload  # noqa: E402

import ravinegd  # noqa: E402
from ravinegd import cli, harness, problems  # noqa: E402

SETUP_MIN_S = 0.1
SETUP_MIN_SETS = 2


def blas_threads():
    """OpenBLAS's thread count, or None when no OpenBLAS library is found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def blas_version():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


class WorkloadRunner:
    def __init__(self, workload, tmp: Path):
        self.workload = workload
        self.tmp = tmp
        self.tracer = Tracer()
        self.first_spans = None
        self.reps = 0
        self.rep = None

    def setup(self) -> dict:
        """Fastest raw seconds of a warm build + sample_init of every instance."""
        times = []
        while len(times) < SETUP_MIN_SETS or sum(times) < SETUP_MIN_S:
            t0 = time.perf_counter()
            for problem, params, radius in self.workload.instances:
                bundle = problems.build(problem, params)
                problems.sample_init(bundle, radius, 0)
                del bundle
            times.append(time.perf_counter() - t0)
        return {"raw_s": min(times), "sets": len(times)}

    def begin(self, traced: bool) -> dict:
        self.reps += 1
        self.rep = {"root": self.tmp / f"rep{self.reps}", "traced": traced,
                    "stats": empty_stats(), "main": cli.main}
        self.tracer.instance_bytes.clear()
        if traced:
            self.tracer.install(problems, harness, cli)
            self.rep["main"] = self.tracer.wrap("cli.main", cli.main)
        return {}

    def run(self, index: int) -> dict:
        """Run operation ``index`` of the command list and check its output."""
        op = self.workload.ops[index]
        out = self.rep["root"] / op.name
        argv = list(op.argv) + ["--out", str(out)]
        self.tracer.op = index
        sink = io.StringIO()
        rc, error, known = None, "", False
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = self.rep["main"](argv)
        except Exception as exc:  # a raw escape is a failed operation
            error = f"raised {type(exc).__name__}: {exc}"
            known = type(exc).__name__ == op.known_raise
        except SystemExit as exc:
            rc = exc.code
        raw = time.perf_counter() - t0
        if not error:
            try:
                check_op(op, rc, out, self.rep["stats"])
            except (CheckFailed, OSError, KeyError, ValueError) as exc:
                error = f"{type(exc).__name__}: {exc}"
                known = isinstance(exc, KnownDefect)
        return {"raw_s": raw, "error": error, "known": known}

    def end(self) -> dict:
        rep, self.rep = self.rep, None
        shutil.rmtree(rep["root"], ignore_errors=True)
        if not rep["traced"]:
            return {}
        tracer = self.tracer
        tracer.remove()
        spans = list(tracer.spans)
        del tracer.spans[:]
        if self.first_spans is None:
            self.first_spans = spans
        return {"layers": layer_metrics(spans, tracer.instance_bytes,
                                        rep["stats"])}

    def write_spans(self, path: Path):
        if not self.first_spans:
            return
        names = [op.name for op in self.workload.ops]
        with path.open("w", encoding="utf-8") as fh:
            fh.write("op,id,parent,name,tag,start,end\n")
            t0 = self.first_spans[0][5]
            for op, sid, parent, name, tag, start, end in self.first_spans:
                fh.write(f"{names[op]},{sid},{parent},{name},{tag},"
                         f"{start - t0:.9f},{end - t0:.9f}\n")


def main(argv) -> int:
    workload = make_workload(argv[1], int(argv[2]), tiny=argv[3] == "1")
    tmp = Path(argv[4])
    proto = sys.stdout
    runner = WorkloadRunner(workload, tmp)
    hello = {"ravinegd": ravinegd.__file__,
             "python": platform.python_version(), "numpy": np.__version__,
             "blas": blas_version(), "blas_threads": blas_threads(),
             "ops": [op.name for op in workload.ops]}
    print(json.dumps(hello), file=proto, flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "setup":
            reply = runner.setup()
        elif request["op"] == "begin":
            reply = runner.begin(bool(request["traced"]))
        elif request["op"] == "run":
            reply = runner.run(int(request["index"]))
        elif request["op"] == "end":
            reply = runner.end()
        elif request["op"] == "exit":
            if request.get("spans"):
                runner.write_spans(Path(request["spans"]))
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(json.dumps({"peak_rss_mb": peak_kb * 1024 / 1e6}),
                  file=proto, flush=True)
            return 0
        else:
            raise ValueError(f"unknown request {request!r}")
        print(json.dumps(reply), file=proto, flush=True)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))

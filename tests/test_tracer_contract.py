"""The perfbench tracer patches module attributes of the package and wraps
the callables of every built bundle; these tests pin the names it needs."""

from pathlib import Path

from ravinegd import cli, harness, problems

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Every module attribute Tracer.install replaces.
PATCHED = [(problems, "build"), (problems, "sample_init"),
           (harness, "run_experiment"), (harness, "_write_run"),
           (harness, "trace_to_csv"), (harness, "run_check"),
           (harness, "morse_ravine_solve"), (cli, "run_experiment"),
           (cli, "morse_ravine_solve")]


def test_tracer_records_every_layer_through_the_cli(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    originals = [getattr(module, name) for module, name in PATCHED]
    tracer = Tracer()
    tracer.install(problems, harness, cli)
    try:
        assert cli.main(["run", "--problem", "rosenbrock", "--K", "3",
                         "--I", "2", "--record-distances",
                         "--out", str(tmp_path / "run")]) == 0
        assert cli.main(["diagnose", "--problem", "rosenbrock",
                         "--suite", "ravine,morse", "--samples", "20",
                         "--out", str(tmp_path / "diag")]) == 0
        assert cli.main(["morse", "--problem", "rosenbrock",
                         "--out", str(tmp_path / "morse")]) == 0
    finally:
        tracer.remove()
    assert [getattr(module, name) for module, name in PATCHED] == originals
    names = {span[3] for span in tracer.spans}
    assert {"problems.value_and_grad", "problems.eval", "problems.grad",
            "ravine.retract"} <= names
    # Each patched attribute is still the one the program calls.
    assert {"problems.build", "problems.sample_init",
            "harness.run_experiment", "harness.write_run",
            "harness.trace_to_csv", "harness.run_check", "morse.build",
            "morse.solve"} <= names

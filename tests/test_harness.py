"""Harness tests: config validation, run artifacts, rate fits, comparisons,
diagnostics dispatch and the CLI."""

import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ravinegd
from ravinegd import (
    ConfigInvalid,
    ExperimentConfig,
    InsufficientData,
    UnsupportedCheck,
    compare_methods,
    diagnose,
    fit_linear_rate,
    run_experiment,
)
from ravinegd.cli import main
from ravinegd.harness import ALL_CHECKS, CSV_HEADER, METHODS, trace_to_csv
from ravinegd.opt_core import POLYAK_LONG, SHORT_GD, RunTrace
from ravinegd import problems
from ravinegd.problems import PROBLEM_NAMES, PROBLEMS


def _synthetic_trace(gaps):
    gaps = np.asarray(gaps, dtype=float)
    empty = np.empty(0)
    return RunTrace(iter=empty, epoch=empty, kind=empty, value_gap=empty,
                    grad_norm=empty, stepsize=empty, x_out=np.zeros(1),
                    best_value=float(gaps[-1]), grad_evals=0, func_evals=0,
                    f_reference=0.0, epoch_phase_gaps=gaps,
                    epoch_end_gaps=gaps)


# ------------------------------------------------------------------ config

def test_config_validation_collects_field_errors():
    cfg = ExperimentConfig(problem="nope", method="gdpolyak_lb", eta=-1.0,
                           K=0, I=0, init_radius=-0.5)
    with pytest.raises(ConfigInvalid) as exc:
        cfg.validate()
    text = " ".join(exc.value.errors)
    for token in ("problem", "eta", "K", "I", "J", "f_lb", "init_radius"):
        assert token in text


def test_config_rejects_lb_fields_for_other_methods():
    cfg = ExperimentConfig(problem="quartic1d", method="gd", J=3, f_lb=0.0)
    with pytest.raises(ConfigInvalid):
        cfg.validate()


def test_config_roundtrip_equality():
    cfg = ExperimentConfig(problem="rosenbrock", method="gdpolyak",
                           eta=0.0125, K=100, I=50, init_radius=0.5, seed=3,
                           problem_params={"instance_seed": 1})
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_dict({"problem": "quartic1d", "etaa": 0.1})


def test_cli_rejects_unknown_problem_param(tmp_path, capsys):
    rc = main(["run", "--problem", "factorization", "--param", "dd=5",
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "dd" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    # The same check guards diagnose and morse.
    assert main(["diagnose", "--problem", "neuron", "--suite", "ravine",
                 "--param", "dd=5"]) == 2
    assert main(["morse", "--problem", "circle", "--param", "dd=5"]) == 2


def _run_config_file(tmp_path, **fields):
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps(
        {"problem": "rosenbrock", "eta": 0.0125, "I": 2, **fields}))
    return main(["run", "--config", str(config_file),
                 "--out", str(tmp_path / "run")])


def test_cli_rejects_float_K(tmp_path, capsys):
    assert _run_config_file(tmp_path, K=100.0) == 2
    assert "K: must be an integer" in capsys.readouterr().err


def test_cli_rejects_boolean_K(tmp_path, capsys):
    assert _run_config_file(tmp_path, K=True) == 2
    assert "K: must be an integer" in capsys.readouterr().err


def test_config_rejects_non_integer_counts():
    cfg = ExperimentConfig(problem="rosenbrock", method="gdpolyak_lb", K=5,
                           I=2.5, J=True, f_lb=-1.0, seed="0")
    with pytest.raises(ConfigInvalid) as exc:
        cfg.validate()
    text = " ".join(exc.value.errors)
    for token in ("I: must be", "J: must be", "seed: must be"):
        assert token in text


@pytest.mark.parametrize("fields, name", [
    ({"eta": "0.1"}, "eta"),
    ({"method": "gdpolyak_lb", "J": 2, "f_lb": "-1"}, "f_lb"),
    ({"init_radius": True}, "init_radius"),
])
def test_cli_rejects_non_numeric_real_field(tmp_path, capsys, fields, name):
    assert _run_config_file(tmp_path, K=5, **fields) == 2
    assert f"{name}: must be a real number" in capsys.readouterr().err


@pytest.mark.parametrize("fields, name", [
    ({"eta": 10 ** 400}, "eta"),
    ({"init_radius": -10 ** 400}, "init_radius"),
    ({"method": "gdpolyak_lb", "J": 2, "f_lb": -10 ** 400}, "f_lb"),
])
def test_cli_rejects_real_field_beyond_float64(tmp_path, capsys, fields, name):
    assert _run_config_file(tmp_path, K=5, **fields) == 2
    assert f"{name}: must be a real number" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--problem", "factorization", "--param", "d=abc"],
    ["run", "--problem", "sensing", "--param", "m=-5"],
    ["run", "--problem", "factorization", "--param", "instance_seed=1.5"],
    ["run", "--problem", "neuron", "--param", "v_norm=nan"],
    ["run", "--problem", "neuron", "--param", "v_norm=0"],
    ["diagnose", "--problem", "rosenbrock", "--suite", "ravine",
     "--param", "d=0"],
    ["morse", "--problem", "circle", "--param", "k=0"],
])
def test_cli_rejects_bad_problem_param_value(argv, capsys):
    assert main(argv) == 2
    assert "problem_params" in capsys.readouterr().err


def test_config_with_unknown_problem_collects_every_error():
    cfg = ExperimentConfig(problem="nope", eta=-1.0, K=0,
                           problem_params={"d": 5})
    with pytest.raises(ConfigInvalid) as exc:
        cfg.validate()
    text = " ".join(exc.value.errors)
    for token in ("problem: unknown", "eta", "K"):
        assert token in text


@pytest.mark.parametrize("argv", [
    ["run", "--problem", "factorization", "--param", "m=5"],
    ["run", "--problem", "rosenbrock", "--param", "d=7"],
    ["run", "--problem", "sensing", "--param", "v_norm=3"],
    ["diagnose", "--problem", "circle", "--suite", "ravine",
     "--param", "instance_seed=1"],
])
def test_cli_rejects_key_the_problem_does_not_take(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "does not take" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("problem, params", [
    ("factorization", ["d=2", "r=5"]),
    ("factorization", ["r=4"]),
    ("factorization", ["d=2"]),
    ("sensing", ["r=5"]),
    ("sensing", ["d=3"]),
])
def test_cli_rejects_ranks_out_of_order(problem, params, capsys):
    argv = ["run", "--problem", problem]
    for param in params:
        argv += ["--param", param]
    assert main(argv) == 2
    assert "problem_params: need r <= k <= d" in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (["run", "--problem", "quartic1d", "--seed", "-1", "--K", "1",
      "--I", "1"], "seed"),
    (["diagnose", "--problem", "quartic1d", "--suite", "growth",
      "--seed", "-1"], "seed"),
    (["diagnose", "--problem", "rosenbrock", "--suite", "growth",
      "--samples", "0"], "samples"),
    (["diagnose", "--problem", "rosenbrock", "--suite", "growth",
      "--radius", "0"], "radius"),
    (["diagnose", "--problem", "rosenbrock", "--suite", "growth",
      "--radius", "nan"], "radius"),
    (["diagnose", "--problem", "rosenbrock", "--suite", "growth",
      "--radius", "-0.05"], "radius"),
    (["diagnose", "--problem", "rosenbrock", "--suite", "growth",
      "--radius", "inf"], "radius"),
])
def test_cli_rejects_negative_seed_and_degenerate_cloud(argv, field, capsys):
    assert main(argv) == 2
    assert f"{field}: must be" in capsys.readouterr().err


@pytest.mark.parametrize("problem, radius", [
    ("rosenbrock", "1e40"), ("rosenbrock", "1e80"), ("rosenbrock", "1e200"),
    ("quartic1d", "1e80"), ("factorization", "1e80"),
    ("factorization", "1e200"), ("neuron", "1e200"),
])
def test_cli_growth_at_a_huge_radius_fails_cleanly(problem, radius, tmp_path,
                                                   capsys):
    # The gap or dist^p overflows at every sample (or all but a few), so
    # the check runs out of samples instead of dying in the fit.
    rc = main(["diagnose", "--problem", problem, "--suite", "growth",
               "--radius", radius, "--out", str(tmp_path / "diag")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: growth:" in err and "skipped" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--problem", "rosenbrock", "--init-radius", "1e200"],
    ["--problem", "sensing", "--param", "m=2500", "--init-radius", "1e300"],
    ["--method", "gd", "--problem", "neuron", "--init-radius", "1e200"],
    ["--method", "polyak", "--problem", "factorization",
     "--init-radius", "1e200"],
])
def test_cli_diverging_run_prints_only_its_error(argv, tmp_path, capsys):
    # Overflow is how a run diverges; it must reach the user as the run's
    # error, not as numpy warnings.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run", *argv, "--K", "2", "--I", "2", "--record-distances",
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == (
        "error: non-finite gradient at iteration 0\n")


@pytest.mark.parametrize("seed", ["44", "86", "222"])
def test_cli_factorization_growth_passes_at_the_rounding_floor(seed, tmp_path):
    # Each of these instances has a sample whose gap sits at the float64
    # rounding floor; the exact bracket allows for that floor.
    rc = main(["diagnose", "--problem", "factorization", "--suite", "growth",
               "--samples", "200", "--radius", "0.01", "--seed", seed,
               "--param", f"instance_seed={seed}",
               "--out", str(tmp_path / "diag")])
    assert rc == 0


@pytest.mark.parametrize("flag", ["--u-grid=0:1:0", "--u-grid=1:0:0.1",
                                  "--u-grid=0:nan:0.1", "--tol=-1",
                                  "--tol=0", "--tol=nan"])
def test_cli_morse_rejects_malformed_input(flag, tmp_path):
    out = tmp_path / "morse"
    try:
        rc = main(["morse", "--problem", "rosenbrock", flag, "--out", str(out)])
    except SystemExit as exc:          # argparse rejects the value itself
        rc = exc.code
    assert rc == 2
    assert not out.exists()


def test_cli_compare_checks_every_method_before_the_first_run(tmp_path,
                                                             capsys):
    out = tmp_path / "cmp"
    assert main(["compare", "--problem", "rosenbrock", "--J", "0",
                 "--f-lb", "-1", "--K", "2", "--I", "2",
                 "--out", str(out)]) == 2
    assert "J: must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("params", ["dk", 5, ["d", 5]])
def test_cli_param_merges_only_into_a_dict(params, tmp_path, capsys):
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps(
        {"problem": "factorization", "problem_params": params}))
    assert main(["run", "--config", str(config_file), "--param", "d=5",
                 "--out", str(tmp_path / "run")]) == 2
    assert "problem_params: must be a dict" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text", [None, "{bad", "5", "[]", "null"])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_cli_rejects_unreadable_config_file(command, text, tmp_path, capsys):
    config_file = tmp_path / "cfg.json"
    if text is not None:
        config_file.write_text(text)
    assert main([command, "--config", str(config_file), "--problem",
                 "rosenbrock", "--out", str(tmp_path / "run")]) == 2
    assert "invalid config: config: " in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("problem, suite", [
    ("rosenbrock", "bogus"),
    ("rosenbrock", "rip"),
    ("quartic1d", "growth,ravine"),
])
def test_cli_unknown_or_unsupported_check_exits_2(problem, suite, tmp_path,
                                                  capsys):
    assert main(["diagnose", "--problem", problem, "--suite", suite,
                 "--out", str(tmp_path / "diag")]) == 2
    assert "invalid config: suite: " in capsys.readouterr().err
    assert not (tmp_path / "diag").exists()


def test_shipped_configs_validate():
    configs = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
    assert configs
    for path in configs:
        ExperimentConfig.from_dict(json.loads(path.read_text())).validate()


# --------------------------------------------------------------------- run

def test_run_experiment_writes_artifacts(tmp_path):
    out = tmp_path / "run1"
    cfg = ExperimentConfig(problem="rosenbrock", method="gdpolyak",
                           eta=0.0125, K=100, I=50, init_radius=0.5, seed=0,
                           out_dir=str(out))
    run_experiment(cfg)
    csv_text = (out / "trace.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) - 1 == 50 * 101
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["grad_evals"] == 50 * 101
    assert ExperimentConfig.from_dict(manifest["config"]) == cfg


def test_run_experiment_deterministic(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        cfg = ExperimentConfig(problem="factorization", method="gdpolyak",
                               eta=0.05, K=20, I=10, init_radius=0.1, seed=5,
                               out_dir=str(out),
                               problem_params={"d": 5, "r": 2, "k": 3})
        run_experiment(cfg)
        outs.append((out / "trace.csv").read_bytes())
    assert outs[0] == outs[1]


def test_run_quartic_final_gap_formula():
    # eta = 0, K = 1: epoch-end iterates contract by 3/4, so the final gap
    # is (0.75)^(4 I) / 4 * x0^4.
    cfg = ExperimentConfig(problem="quartic1d", method="gdpolyak", eta=0.0,
                           K=1, I=40, init_radius=1.0, seed=0)
    trace = run_experiment(cfg)
    x0 = 1.0
    expected = 0.25 * 0.75 ** (4 * 40) * x0 ** 4
    assert trace.epoch_end_gaps[-1] == pytest.approx(expected, rel=1e-9)


def test_run_records_distances(tmp_path):
    out = tmp_path / "dist"
    cfg = ExperimentConfig(problem="rosenbrock", method="gdpolyak", eta=0.01,
                           K=5, I=4, init_radius=0.3, seed=1,
                           out_dir=str(out), record_distances=True)
    trace = run_experiment(cfg)
    assert trace.dist_solution.shape == trace.dist_ravine.shape == (4 * 6,)
    assert np.all(np.isfinite(trace.dist_solution))
    assert np.all(np.isfinite(trace.dist_ravine))
    lines = (out / "trace.csv").read_text().strip().split("\n")
    assert lines[1].count(",") == 7
    assert not lines[1].endswith(",")


def test_run_experiment_lb_manifest(tmp_path):
    out = tmp_path / "lb"
    cfg = ExperimentConfig(problem="quartic1d", method="gdpolyak_lb",
                           eta=0.0, K=1, I=10, J=5, f_lb=-1.0,
                           init_radius=1.0, seed=0, out_dir=str(out))
    trace = run_experiment(cfg)
    assert trace.grad_evals == 5 * 10 * 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["f_estimates"]) == 5
    assert len(manifest["round_values"]) == 5
    assert manifest["aborted_rounds"] == []
    # Flattened epoch indices cover rounds consecutively.
    lines = (out / "trace.csv").read_text().strip().split("\n")[1:]
    epochs = [int(line.split(",")[1]) for line in lines]
    assert epochs[0] == 1 and epochs[-1] == 50


@settings(max_examples=30, deadline=None)
@given(method=st.sampled_from(METHODS), K=st.integers(1, 8),
       I=st.integers(1, 6), record_distances=st.booleans())
def test_trace_csv_and_manifest_parse_back_exactly(method, K, I,
                                                   record_distances):
    lb = {"J": 2, "f_lb": -1.0} if method == "gdpolyak_lb" else {}
    with tempfile.TemporaryDirectory() as out:
        cfg = ExperimentConfig(problem="rosenbrock", method=method, eta=0.0125,
                               K=K, I=I, seed=K + I, out_dir=out,
                               record_distances=record_distances, **lb)
        trace = run_experiment(cfg)
        header, *rows = Path(out, "trace.csv").read_text().splitlines()
        manifest = json.loads(Path(out, "manifest.json").read_text())
    assert header == CSV_HEADER
    cells = zip(*(row.split(",") for row in rows))
    for name, column in zip(CSV_HEADER.split(","), cells):
        expected = getattr(trace, name)
        if expected is None:
            assert set(column) == {""}
        elif expected.dtype.kind == "f":
            # 17 significant digits round-trip float64 bit for bit.
            assert np.array(column, dtype=np.float64).tobytes() == \
                expected.astype(np.float64).tobytes()
        else:
            assert np.array_equal(np.array(column, dtype=expected.dtype),
                                  expected)
    assert ExperimentConfig.from_dict(manifest["config"]) == cfg


def test_csv_optional_columns_empty_not_absent():
    cfg = ExperimentConfig(problem="quartic1d", method="gd", eta=0.1, K=2,
                           I=2, init_radius=0.5, seed=0)
    trace = run_experiment(cfg)
    lines = trace_to_csv(trace).strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1].endswith(",,")


def _csv_per_row(trace):
    """The per-row ``str.format`` writer the one-pass writer replaced, kept
    as the reference."""
    columns = (trace.iter, trace.epoch, trace.kind, trace.value_gap,
               trace.grad_norm, trace.stepsize, trace.dist_solution,
               trace.dist_ravine)
    row = ",".join("" if c is None else "{:.17g}" if c.dtype.kind == "f"
                   else "{}" for c in columns) + "\n"
    cells = zip(*(c.tolist() for c in columns if c is not None))
    return "".join([CSV_HEADER + "\n", *(row.format(*r) for r in cells)])


def _trace_rows(iters, epochs, polyak, floats, distances):
    """A trace whose float columns all take the values ``floats``."""
    def column():
        return np.array(floats, dtype=float)

    return RunTrace(
        iter=np.array(iters, dtype=np.int64),
        epoch=np.array(epochs, dtype=np.int64),
        kind=np.where(np.array(polyak, dtype=bool), POLYAK_LONG, SHORT_GD),
        value_gap=column(), grad_norm=column()[::-1].copy(),
        stepsize=-column(), x_out=np.zeros(1), best_value=0.0,
        grad_evals=len(floats), func_evals=len(floats), f_reference=0.0,
        epoch_phase_gaps=np.empty(0), epoch_end_gaps=np.empty(0),
        dist_solution=column() if distances else None,
        dist_ravine=np.roll(column(), 1) if distances else None)


EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                     5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308,
                     -1.7976931348623157e308, 0.1, 1e16, 1e17]),
    st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _traces(draw):
    n = draw(st.integers(0, 40))
    rows = st.lists(st.integers(0, 2 ** 62), min_size=n, max_size=n)
    return _trace_rows(
        draw(rows), draw(rows),
        draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        draw(st.lists(EDGE_FLOATS, min_size=n, max_size=n)),
        draw(st.booleans()))


@settings(max_examples=100, deadline=None)
@given(trace=_traces())
@example(trace=_trace_rows([], [], [], [], False))
@example(trace=_trace_rows([], [], [], [], True))
def test_trace_csv_equals_the_per_row_writer(trace):
    assert trace_to_csv(trace) == _csv_per_row(trace)


# --------------------------------------------------------------------- fit

def test_fit_exact_geometric_sequence():
    gaps = 2.0 ** -np.arange(1, 31)
    slope, r2 = fit_linear_rate(_synthetic_trace(gaps), burn_in=1)
    assert slope == pytest.approx(-math.log(2.0), rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_constant_gaps_zero_slope():
    slope, r2 = fit_linear_rate(_synthetic_trace(np.full(20, 0.5)), burn_in=1)
    assert slope == pytest.approx(0.0, abs=1e-15)
    assert r2 == 1.0


def test_fit_insufficient_data():
    with pytest.raises(InsufficientData):
        fit_linear_rate(_synthetic_trace([0.5, 0.4, 0.3]), burn_in=1)


def test_fit_drops_converged_gaps():
    gaps = np.concatenate([2.0 ** -np.arange(1, 21), np.full(5, 1e-31)])
    slope, _ = fit_linear_rate(_synthetic_trace(gaps), burn_in=1)
    assert slope == pytest.approx(-math.log(2.0), rel=1e-12)


def test_fit_quartic_rate():
    cfg = ExperimentConfig(problem="quartic1d", method="gdpolyak", eta=0.0,
                           K=1, I=30, init_radius=1.0, seed=0)
    trace = run_experiment(cfg)
    slope, r2 = fit_linear_rate(trace, burn_in=5)
    assert slope == pytest.approx(4.0 * math.log(0.75), abs=1e-6)
    assert r2 >= 1.0 - 1e-12


# ----------------------------------------------------------------- compare

def test_compare_equal_budgets(tmp_path):
    cfg = ExperimentConfig(problem="quartic1d", eta=0.05, K=4, I=10,
                           init_radius=1.0, seed=2,
                           out_dir=str(tmp_path / "cmp"))
    table = compare_methods(cfg)
    budgets = {row["method"]: row["grad_evals"] for row in table.rows}
    assert budgets["gd"] == budgets["polyak"] == budgets["gdpolyak"] == 10 * 5
    assert (tmp_path / "cmp" / "comparison.csv").exists()
    assert (tmp_path / "cmp" / "gdpolyak" / "trace.csv").exists()


def test_compare_includes_lb_when_configured():
    cfg = ExperimentConfig(problem="quartic1d", eta=0.0, K=1, I=10, J=4,
                           f_lb=-1.0, init_radius=1.0, seed=2)
    table = compare_methods(cfg)
    methods = [row["method"] for row in table.rows]
    assert methods == ["gd", "polyak", "gdpolyak", "gdpolyak_lb"]
    lb_row = table.rows[-1]
    assert lb_row["grad_evals"] == 4 * 10 * 2


def test_compare_rosenbrock_separation_desk_scale():
    cfg = ExperimentConfig(problem="rosenbrock", eta=0.0125, K=100, I=25,
                           init_radius=0.5, seed=0)
    table = compare_methods(cfg)
    rows = {row["method"]: row for row in table.rows}
    assert rows["gdpolyak"]["best_gap"] <= 1e-3 * rows["gd"]["best_gap"]
    assert rows["gdpolyak"]["slope"] < 0


def test_compare_quartic_polyak_also_linear():
    # Without a genuine ravine the every-step Polyak baseline contracts by
    # 3/4 per step, so both adaptive methods show clean linear fits.
    cfg = ExperimentConfig(problem="quartic1d", eta=0.0, K=1, I=30,
                           init_radius=1.0, seed=0)
    table = compare_methods(cfg)
    rows = {row["method"]: row for row in table.rows}
    for method in ("polyak", "gdpolyak"):
        assert rows[method]["slope"] < 0
        assert rows[method]["r2"] >= 0.99


# ---------------------------------------------------------------- diagnose

def test_diagnose_rosenbrock_suite(tmp_path):
    ok, reports = diagnose("rosenbrock", ["ravine", "aiming", "morse"],
                           n_samples=100, radius=0.1, seed=0,
                           out_dir=str(tmp_path))
    assert ok
    assert reports["ravine"].measured_upper == pytest.approx(10.0, rel=1e-9)
    assert reports["aiming"].measured_upper == pytest.approx(20.0, rel=1e-9)
    assert reports["morse"].measured_upper <= 1e-10
    for name in ("ravine", "aiming", "morse"):
        data = json.loads((tmp_path / "reports" / f"{name}.json").read_text())
        assert data["pass"] is True


def test_diagnose_factorization_growth():
    ok, reports = diagnose("factorization", ["growth"], n_samples=200,
                           radius=0.05, seed=0,
                           problem_params={"d": 5, "r": 2, "k": 3})
    assert ok
    assert reports["growth"].extras["bracket_ok"]


def test_diagnose_circle_morse_residual():
    ok, reports = diagnose("circle", ["morse"], seed=0)
    assert ok
    assert reports["morse"].measured_upper <= 1e-6


def test_diagnose_rejects_unsupported_pair():
    with pytest.raises(UnsupportedCheck):
        diagnose("quartic1d", ["ravine"])
    with pytest.raises(UnsupportedCheck):
        diagnose("rosenbrock", ["rip"])


DECLARED = [(problem, check) for problem in PROBLEM_NAMES
            for check in ALL_CHECKS if check in PROBLEMS[problem].SPEC.checks]


def test_problem_table_declares_every_supported_pair():
    assert len(DECLARED) == 25


@pytest.mark.parametrize("problem", PROBLEM_NAMES)
@pytest.mark.parametrize("check", ALL_CHECKS)
def test_problem_table_pair(problem, check):
    if (problem, check) in DECLARED:
        ok, reports = diagnose(problem, [check], n_samples=40, seed=0)
        assert ok and reports[check].passed
    else:
        with pytest.raises(UnsupportedCheck):
            diagnose(problem, [check], n_samples=40, seed=0)


def test_diagnose_rejects_empty_suite():
    with pytest.raises(ValueError):
        diagnose("rosenbrock", [])


# --------------------------------------------------------------------- CLI

def test_cli_run_and_files(tmp_path):
    out = tmp_path / "cli_run"
    rc = main(["run", "--problem", "quartic1d", "--method", "gdpolyak",
               "--eta", "0", "--K", "1", "--I", "10", "--init-radius", "1.0",
               "--seed", "0", "--out", str(out)])
    assert rc == 0
    assert (out / "trace.csv").exists()
    assert (out / "config.json").exists()
    assert (out / "manifest.json").exists()


def test_cli_config_file_with_flag_override(tmp_path):
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps({
        "problem": "quartic1d", "method": "gdpolyak", "eta": 0.0,
        "K": 1, "I": 5, "init_radius": 1.0, "seed": 0,
    }))
    out = tmp_path / "cli_cfg"
    rc = main(["run", "--config", str(config_file), "--I", "7",
               "--out", str(out)])
    assert rc == 0
    written = json.loads((out / "config.json").read_text())
    assert written["I"] == 7          # flag wins
    assert written["K"] == 1          # file value survives


def test_cli_diagnose_exit_codes(tmp_path):
    rc = main(["diagnose", "--problem", "rosenbrock", "--suite",
               "ravine,aiming", "--samples", "50", "--radius", "0.1",
               "--seed", "0", "--out", str(tmp_path / "diag")])
    assert rc == 0
    assert (tmp_path / "diag" / "reports" / "ravine.json").exists()


def test_cli_diagnose_rip_caps_rank_at_dimension(tmp_path):
    # k + r = 6 exceeds d = 5; the rank of BB^T - X is at most d.
    rc = main(["diagnose", "--problem", "sensing", "--suite", "rip",
               "--param", "d=5", "--param", "r=2", "--param", "k=4",
               "--param", "m=1000", "--samples", "50",
               "--out", str(tmp_path / "diag")])
    assert rc == 0
    report = tmp_path / "diag" / "reports" / "rip.json"
    assert json.loads(report.read_text())["extras"]["rank_l"] == 5


@pytest.mark.parametrize("argv, fields, name", [
    (["run"], {"record_distances": "false"}, "record_distances"),
    (["run"], {"out_dir": 5}, "out_dir"),
    (["compare"], {"out_dir": 5}, "out_dir"),
    (["run"], {"problem": ["rosenbrock"]}, "problem"),
    (["run"], {"problem": "factorization", "problem_params": "dk"},
     "problem_params"),
    (["diagnose", "--problem", "rosenbrock", "--suite", ",", "--out", "out"],
     None, "suite"),
    # compare runs gdpolyak_lb from J and f_lb together, never from one.
    (["compare"], {"J": 3}, "f_lb"),
    (["compare"], {"f_lb": -1.0}, "J"),
])
def test_cli_rejects_mistyped_input(argv, fields, name, tmp_path,
                                    monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if fields is not None:
        Path("cfg.json").write_text(json.dumps(
            {"problem": "rosenbrock", "K": 2, "I": 2, "out_dir": "out",
             **fields}))
        argv = argv + ["--config", "cfg.json"]
    assert main(argv) == 2
    assert f"invalid config: {name}: " in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] in ([], ["cfg.json"])


@pytest.mark.parametrize("v_norm", ["1e-8", "-1e-8"])
def test_cli_runs_neuron_at_the_smallest_teacher_norm(v_norm, tmp_path):
    # The objective is homogeneous in (w, v): students are floored
    # relative to ||v||, not at an absolute norm.
    assert main(["run", "--problem", "neuron", "--param", f"v_norm={v_norm}",
                 "--out", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("problem, flags", [
    ("quartic1d", ["--eta", "0.05"]),
    ("rosenbrock", ["--method", "gdpolyak_lb", "--eta", "0.0125", "--J", "2",
                    "--f-lb", "-1"]),
    ("circle", ["--eta", "0.05", "--init-radius", "0.3"]),
    ("factorization", ["--eta", "0.05", "--init-radius", "0.1",
                       "--record-distances", "--param", "instance_seed=2"]),
    ("sensing", ["--eta", "0.05", "--init-radius", "0.1",
                 "--param", "d=6", "--param", "m=100"]),
    ("neuron", ["--eta", "1.5", "--init-radius", "0.1",
                "--param", "v_norm=2.5", "--param", "instance_seed=3"]),
])
def test_run_replays_bitwise_from_its_config(problem, flags, tmp_path):
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["run", "--problem", problem, "--K", "5", "--I", "3",
                 "--seed", "4", "--out", str(first)] + flags) == 0
    assert main(["run", "--config", str(first / "config.json"),
                 "--out", str(again)]) == 0
    assert (again / "trace.csv").read_bytes() == \
        (first / "trace.csv").read_bytes()
    manifests = []
    for out in (first, again):
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"].pop("out_dir") == str(out)
        manifests.append(manifest)
    assert manifests[0] == manifests[1]


def test_cli_invalid_config_exit_code(tmp_path):
    rc = main(["run", "--problem", "quartic1d", "--method", "gdpolyak",
               "--eta", "-1", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_cli_morse(tmp_path):
    rc = main(["morse", "--problem", "rosenbrock", "--u-grid=-0.5:0.5:0.05",
               "--tol", "1e-12", "--out", str(tmp_path / "morse_out")])
    assert rc == 0
    data = json.loads((tmp_path / "morse_out" / "morse.json").read_text())
    errs = [row["graph_error"] for row in data["points"]]
    assert max(errs) <= 1e-10


def test_cli_compare(tmp_path):
    rc = main(["compare", "--problem", "quartic1d", "--eta", "0.05",
               "--K", "3", "--I", "8", "--init-radius", "1.0", "--seed", "1",
               "--out", str(tmp_path / "cmp")])
    assert rc == 0
    text = (tmp_path / "cmp" / "comparison.csv").read_text()
    assert text.startswith("method,final_gap,best_gap,grad_evals,slope,r2")


def test_every_export_resolves():
    for module in (ravinegd, problems):
        assert [name for name in module.__all__
                if not hasattr(module, name)] == []

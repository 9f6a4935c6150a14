"""Problem objective tests: closed-form examples, gradient consistency,
instance generation and parameter validation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ravinegd import (
    ConfigInvalid,
    ExperimentConfig,
    OriginSingularity,
    ShapeMismatch,
    ZeroNeuron,
)
from ravinegd.cli import main
from ravinegd.objective import max_relative_gradient_error, unit_direction
from ravinegd.problems import (
    PROBLEMS,
    build,
    circle,
    factorization,
    neuron,
    param_errors,
    quartic,
    rosenbrock,
    sample_init,
    sensing,
)
from ravinegd.problems.spec import NONNEGATIVE, POSITIVE
from ravinegd.ravine import measure_rip


# ---------------------------------------------------------------- quartic

def test_quartic_values():
    assert quartic.quartic_eval(0.0) == (0.0, 0.0)
    assert quartic.quartic_eval(1.0) == (0.25, 1.0)
    assert quartic.quartic_eval(-2.0) == (4.0, -8.0)


# -------------------------------------------------------------- rosenbrock

def test_rosenbrock_values():
    v, g = rosenbrock.rosenbrock_eval(0.0, 0.0)
    assert v == 0.0 and np.all(g == 0.0)
    v, g = rosenbrock.rosenbrock_eval(1.0, 1.0)
    assert v == 1.0
    assert np.allclose(g, [4.0, 0.0])
    v, g = rosenbrock.rosenbrock_eval(1.0, 0.0)
    assert v == 11.0
    assert np.allclose(g, [44.0, -20.0])


# ------------------------------------------------------------------ circle

def test_circle_values():
    v, g = circle.circle_eval(np.array([0.0, 1.0]))
    assert v == 0.0 and np.allclose(g, 0.0)
    v, _ = circle.circle_eval(np.array([0.0, 2.0]))
    assert v == pytest.approx(1.0, abs=1e-15)
    # On the circle at (1, 0): direction term ||(1,-1)||^4 = 4.
    v, _ = circle.circle_eval(np.array([1.0, 0.0]))
    assert v == pytest.approx(4.0, abs=1e-12)


def test_circle_origin_singularity():
    with pytest.raises(OriginSingularity):
        circle.circle_eval(np.array([1e-8, 1e-8]))


def test_circle_overflow_gives_inf_not_a_raise():
    # ||z|| ~ 1e200: (n - 1)^2 and n^3 both overflow, so the value is inf
    # and 2xy / n^3 = inf / inf leaves the gradient non-finite.
    v, g = circle.circle_eval(np.array([1e200, 1e200]))
    assert v == np.inf and not np.all(np.isfinite(g))
    # ||z|| ~ 1e120: only n^3 overflows, and the value is the row form's.
    z = np.array([1e120, 1e120])
    v, g = circle.circle_eval(z)
    assert v == circle.objective().eval_rows(z[None])[0]
    assert np.all(np.isfinite(g))


def _rosenbrock_float64(x, y):
    """The float64-scalar evaluator the Python-float one replaced, kept as
    the reference."""
    x, y = np.float64(x), np.float64(y)
    t = y - x * x
    x3 = x * x * x
    value = float(x3 * x + 10.0 * t * t)
    grad = np.array([4.0 * x3 - 40.0 * x * t, 20.0 * t])
    return value, grad


def _circle_float64(z):
    """The circle evaluator before it took its coordinates from
    ``z.tolist()``, kept as the reference; ``None`` below the origin
    tolerance, where it raised."""
    z = np.asarray(z, dtype=float)
    x, y = float(z[0]), float(z[1])
    n = float(np.hypot(float(z[0]), float(z[1])))
    if n < circle._ORIGIN_TOL:
        return None
    w = 2.0 - 2.0 * y / n
    try:
        value = (n - 1.0) ** 2 + w * w
    except OverflowError:
        value = math.inf
    try:
        n3 = n ** 3
    except OverflowError:
        n3 = math.inf
    gx = 2.0 * (n - 1.0) * x / n + 2.0 * w * (2.0 * x * y / n3)
    gy = 2.0 * (n - 1.0) * y / n - 2.0 * w * (2.0 * x * x / n3)
    return value, np.array([gx, gy])


SIGNED_MAGNITUDES = st.builds(lambda sign, e: sign * 10.0 ** e,
                              st.sampled_from([-1.0, 1.0]),
                              st.floats(-150.0, 300.0))


@settings(max_examples=400, deadline=None)
@given(x=SIGNED_MAGNITUDES, y=SIGNED_MAGNITUDES)
def test_python_float_objectives_equal_float64_bytes(x, y):
    # Outside any errstate: a RuntimeWarning fails the test, and so would
    # an OverflowError; an overflow must read inf or nan instead.
    def as_bytes(result):
        value, grad = result
        return np.float64(value).tobytes(), grad.tobytes()

    z = np.array([x, y])
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _rosenbrock_float64(x, y)
    assert as_bytes(rosenbrock.objective().value_and_grad(z)) == \
        as_bytes(expected)
    expected = _circle_float64(z)
    if expected is None:
        with pytest.raises(OriginSingularity):
            circle.circle_eval(z)
    else:
        assert as_bytes(circle.circle_eval(z)) == as_bytes(expected)


def test_circle_run_from_a_huge_init_fails_cleanly(tmp_path, capsys):
    rc = main(["run", "--problem", "circle", "--init-radius", "1e200",
               "--K", "2", "--I", "2", "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "non-finite gradient at iteration 0" in capsys.readouterr().err


# ----------------------------------------------------------- factorization

@pytest.fixture(scope="module")
def fact_inst():
    return factorization.random_instance(d=5, r=2, k=3, seed=0)


def test_factorization_solution_is_zero(fact_inst):
    B = factorization.base_solution(fact_inst).reshape(5, 3)
    v, g = factorization.factorization_eval(B, fact_inst)
    assert v <= 1e-24
    assert np.linalg.norm(g) <= 1e-11


def test_factorization_diagonal_example():
    # X = e1 e1^T, B = [[1, 0], [0, t]]: value t^4, gradient [[0,0],[0,4t^3]].
    X = np.zeros((2, 2))
    X[0, 0] = 1.0
    inst = factorization.from_matrix(X, k=2)
    t = 0.3
    B = np.array([[1.0, 0.0], [0.0, t]])
    v, g = factorization.factorization_eval(B, inst)
    assert v == pytest.approx(t ** 4, rel=1e-12)
    assert np.allclose(g, [[0.0, 0.0], [0.0, 4.0 * t ** 3]], atol=1e-14)


def test_factorization_origin_saddle(fact_inst):
    B = np.zeros((5, 3))
    v, g = factorization.factorization_eval(B, fact_inst)
    assert v == pytest.approx(np.sum(fact_inst.X ** 2), rel=1e-12)
    assert np.all(g == 0.0)


def test_factorization_shape_mismatch(fact_inst):
    with pytest.raises(ShapeMismatch):
        factorization.factorization_eval(np.zeros((4, 3)), fact_inst)


def test_factorization_instance_invariants(fact_inst):
    X, L = fact_inst.X, fact_inst.L
    assert np.linalg.norm(L @ L.T - X) <= 1e-10 * np.linalg.norm(X)
    assert fact_inst.evals[fact_inst.r:].max() <= 1e-10 * fact_inst.sigma1
    assert fact_inst.sigma1 == pytest.approx(1.0, rel=1e-12)


# ----------------------------------------------------------------- sensing

@pytest.fixture(scope="module")
def sens_inst():
    return sensing.make_sensing_instance(d=8, r=2, k=3, m=120, seed=3)


def test_sensing_targets_consistent(sens_inst):
    y = sens_inst.A.reshape(sens_inst.m, -1) @ sens_inst.fac.X.reshape(-1)
    assert np.allclose(y, sens_inst.y, rtol=1e-10)


def test_sensing_zero_at_solution(sens_inst):
    B = sensing.base_solution(sens_inst).reshape(8, 3)
    v, g = sensing.sensing_eval(B, sens_inst)
    assert v <= 1e-20
    assert np.linalg.norm(g) <= 1e-9


def test_sensing_scalar_case():
    # d = k = r = 1 with a single measurement A = [[1]] (a = 1, a~ = 0),
    # X = [[1]]: f(t) = (1 - t^2)^2, f'(t) = -4 t (1 - t^2).
    inst = sensing.from_factors(
        factorization.from_matrix(np.array([[1.0]]), k=1),
        np.array([[1.0]]), np.array([[0.0]]))
    for t in (0.3, 1.7):
        v, g = sensing.sensing_eval(np.array([[t]]), inst)
        assert v == pytest.approx((1 - t ** 2) ** 2, rel=1e-12)
        assert g[0, 0] == pytest.approx(-4 * t * (1 - t ** 2), rel=1e-12)


def test_sensing_determinism():
    a = sensing.make_sensing_instance(d=6, r=2, k=3, m=40, seed=11)
    b = sensing.make_sensing_instance(d=6, r=2, k=3, m=40, seed=11)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.fac.X, b.fac.X)


def test_sensing_factorization_proportional():
    # Complete orthonormal measurements make the two objectives coincide.
    fac = factorization.random_instance(d=4, r=2, k=3, seed=5)
    inst = sensing.complete_sensing_instance(fac)
    rng = np.random.default_rng(0)
    ratios = []
    for _ in range(20):
        B = rng.standard_normal((4, 3))
        vs, _ = sensing.sensing_eval(B, inst)
        vf, _ = factorization.factorization_eval(B, fac)
        ratios.append(vs / vf)
    ratios = np.array(ratios)
    assert np.all(np.abs(ratios - ratios[0]) <= 1e-8 * np.abs(ratios[0]))


def test_rip_full_rank_instance():
    # Well-conditioned measurement counts keep the empirical constant small.
    d = 6
    inst = sensing.make_sensing_instance(d=d, r=d, k=d, m=10 * d * d, seed=2)
    delta = measure_rip(inst, rank_l=d, trials=100, seed=0)
    assert delta < 0.5


def test_rip_parseval_identity():
    fac = factorization.random_instance(d=5, r=2, k=3, seed=7)
    inst = sensing.complete_sensing_instance(fac)
    delta = measure_rip(inst, rank_l=5, trials=50, seed=1)
    assert delta <= 1e-10


def _dense_sensing_eval(B, inst):
    # Reference value and gradient from the dense (m, d, d) operator.
    a_flat = inst.A.reshape(inst.m, -1)
    resid = inst.y - a_flat @ (B @ B.T).reshape(-1)
    s = (a_flat.T @ resid).reshape(inst.fac.d, inst.fac.d)
    return float(resid @ resid) / inst.m, -2.0 / inst.m * (s + s.T) @ B


RANK_ONE_INSTANCES = {
    "gaussian": lambda: sensing.make_sensing_instance(
        d=7, r=2, k=3, m=90, seed=4),
    "complete": lambda: sensing.complete_sensing_instance(
        factorization.random_instance(d=5, r=2, k=3, seed=6)),
    # Two blocks, the second of one row; three blocks, the last partial.
    "two_blocks": lambda: sensing.make_sensing_instance(
        d=5, r=2, k=3, m=sensing.ROW_BLOCK + 1, seed=4),
    "three_blocks": lambda: sensing.make_sensing_instance(
        d=5, r=2, k=3, m=2 * sensing.ROW_BLOCK + 37, seed=4),
}


@pytest.mark.parametrize("kind", list(RANK_ONE_INSTANCES))
def test_sensing_rank_one_matches_dense(kind):
    inst = RANK_ONE_INSTANCES[kind]()
    rng = np.random.default_rng(8)
    for _ in range(5):
        B = rng.standard_normal((inst.fac.d, inst.fac.k))
        v, g = sensing.sensing_eval(B, inst)
        v_ref, g_ref = _dense_sensing_eval(B, inst)
        assert abs(v - v_ref) <= 1e-12 * abs(v_ref)
        assert np.linalg.norm(g - g_ref) <= 1e-12 * np.linalg.norm(g_ref)


def _unblocked_sensing_eval(B, inst):
    # The evaluation as one pass over all m rows, before row blocks.
    aB = inst.a @ B
    atB = inst.at @ B
    resid = inst.y - ((aB * aB).sum(axis=1) - (atB * atB).sum(axis=1))
    value = float(resid @ resid) / inst.m
    r = resid[:, None]
    grad = (-4.0 / inst.m) * (inst.a.T @ (r * aB) - inst.at.T @ (r * atB))
    return value, grad


@pytest.mark.parametrize("m", [1, 800, sensing.ROW_BLOCK])
def test_sensing_single_block_is_the_unblocked_formula_bitwise(m):
    inst = sensing.make_sensing_instance(d=20, r=2, k=4, m=m, seed=5)
    rng = np.random.default_rng(m)
    points = [rng.standard_normal((20, 4)),
              sensing.base_solution(inst).reshape(20, 4)]
    for B in points:
        v, g = sensing.sensing_eval(B, inst)
        v_ref, g_ref = _unblocked_sensing_eval(B, inst)
        assert np.float64(v).tobytes() == np.float64(v_ref).tobytes()
        assert g.tobytes() == g_ref.tobytes()


def test_sensing_multi_block_gradient_matches_finite_differences():
    bundle = build("sensing", {"d": 6, "r": 2, "k": 3,
                               "m": 2 * sensing.ROW_BLOCK + 37})
    points = [sample_init(bundle, 0.05, seed) for seed in range(5)]
    assert max_relative_gradient_error(bundle.objective, points) <= 1e-5


def test_sensing_multi_block_run_from_a_huge_init_fails_cleanly(tmp_path,
                                                                capsys):
    rc = main(["run", "--problem", "sensing", "--param", "m=2500",
               "--init-radius", "1e300", "--K", "2", "--I", "2",
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert ("error: non-finite gradient at iteration 0"
            in capsys.readouterr().err)


@pytest.mark.parametrize("m", [800, 2500])
def test_sensing_compare_abandons_diverging_lb_rounds(m, tmp_path):
    # f_lb = -1e300 sends every gdpolyak_lb round's long step to overflow;
    # the rounds are abandoned and compare still finishes.
    out = tmp_path / "cmp"
    rc = main(["compare", "--problem", "sensing", "--param", f"m={m}",
               "--J", "2", "--f-lb=-1e300", "--K", "3", "--I", "5",
               "--out", str(out)])
    assert rc == 0
    assert (out / "comparison.csv").exists()


def test_sensing_instance_holds_no_dense_tensor():
    d, m = 10, 200
    inst = sensing.make_sensing_instance(d=d, r=2, k=3, m=m, seed=1)

    def nbytes(obj):
        if isinstance(obj, np.ndarray):
            return obj.nbytes
        if dataclasses.is_dataclass(obj):
            return sum(nbytes(getattr(obj, f.name))
                       for f in dataclasses.fields(obj))
        return 0

    assert nbytes(inst) < m * d * d * 8


# ------------------------------------------------------------------ neuron

@pytest.fixture(scope="module")
def neuron_inst():
    return neuron.make_neuron_instance(d=5, seed=4)


def test_neuron_zero_on_balanced_split(neuron_inst):
    v = neuron_inst.v
    val, grad = neuron.neuron_eval(v / 2, v / 2, neuron_inst)
    assert abs(val) <= 1e-15
    assert np.linalg.norm(grad) <= 1e-12


def test_neuron_duplicated_teacher(neuron_inst):
    # w1 = w2 = v: every angle vanishes and only the misfit term remains.
    v = neuron_inst.v
    val, _ = neuron.neuron_eval(v, v, neuron_inst)
    assert val == pytest.approx(0.25 * float(v @ v), rel=1e-12)


def test_neuron_swap_symmetry(neuron_inst):
    rng = np.random.default_rng(1)
    w1 = neuron_inst.v / 2 + 0.1 * rng.standard_normal(5)
    w2 = neuron_inst.v / 2 + 0.1 * rng.standard_normal(5)
    v12, g12 = neuron.neuron_eval(w1, w2, neuron_inst)
    v21, g21 = neuron.neuron_eval(w2, w1, neuron_inst)
    assert v12 == v21
    assert np.allclose(g12[:5], g21[5:], atol=1e-15)
    assert np.allclose(g12[5:], g21[:5], atol=1e-15)


def test_neuron_zero_weight_raises(neuron_inst):
    with pytest.raises(ZeroNeuron):
        neuron.neuron_eval(np.zeros(5), neuron_inst.v, neuron_inst)


def test_neuron_monte_carlo_consistency(neuron_inst):
    rng = np.random.default_rng(9)
    v = neuron_inst.v
    for trial in range(3):
        w1 = v / 2 + 0.1 * rng.standard_normal(5)
        w2 = v / 2 + 0.1 * rng.standard_normal(5)
        closed, _ = neuron.neuron_eval(w1, w2, neuron_inst)
        mc, se = neuron.monte_carlo_value(w1, w2, neuron_inst, 200_000,
                                          seed=100 + trial)
        assert abs(closed - mc) <= 5.0 * se


def test_neuron_dist_proxy(neuron_inst):
    def proxy(w1, w2):
        return neuron.neuron_dist_rows(np.concatenate([w1, w2])[None],
                                       neuron_inst)[0]

    v = neuron_inst.v
    assert proxy(v / 2, v / 2) <= 1e-15
    u = np.zeros(5)
    u[np.argmin(np.abs(v))] = 1.0
    u = u - (u @ v) / (v @ v) * v
    u /= np.linalg.norm(u)
    # w1 = v, w2 = 0.1 u: misfit ||0.1 u|| plus perpendicular part 0.1.
    assert proxy(v, 0.1 * u) == pytest.approx(0.2, rel=1e-12)


# ------------------------------------------------- shared objective checks

ALL_PROBLEMS = ["quartic1d", "rosenbrock", "circle", "factorization",
                "sensing", "neuron"]

SMALL_PARAMS = {
    "factorization": {"d": 5, "r": 2, "k": 3},
    "sensing": {"d": 8, "r": 2, "k": 3, "m": 240},
    "neuron": {"d": 6},
}


@pytest.fixture(scope="module")
def bundles():
    return {name: build(name, SMALL_PARAMS.get(name)) for name in ALL_PROBLEMS}


@pytest.mark.parametrize("name", ALL_PROBLEMS)
def test_gradient_matches_finite_differences(bundles, name):
    bundle = bundles[name]
    points = [sample_init(bundle, 0.05, seed) for seed in range(15)]
    assert max_relative_gradient_error(bundle.objective, points) <= 1e-5


@pytest.mark.parametrize("name", ALL_PROBLEMS)
def test_values_nonnegative(bundles, name):
    bundle = bundles[name]
    for seed in range(30):
        x = sample_init(bundle, 0.2, seed)
        assert bundle.objective.eval(x) >= -1e-10


@pytest.mark.parametrize("name", ALL_PROBLEMS)
def test_sample_init_radius_and_determinism(bundles, name):
    bundle = bundles[name]
    x1 = sample_init(bundle, 0.03, 7)
    x2 = sample_init(bundle, 0.03, 7)
    assert np.array_equal(x1, x2)
    base = bundle.base_solution
    assert np.linalg.norm(x1 - base) == pytest.approx(0.03, abs=1e-12)


@pytest.mark.parametrize("name", ALL_PROBLEMS)
def test_solution_certification(bundles, name):
    # Distance zero implies (near-)zero value on constructed solutions,
    # at a tolerance scaled by the instance magnitude.
    bundle = bundles[name]
    if name in ("factorization", "sensing"):
        X = (bundle.instance.X if name == "factorization"
             else bundle.instance.fac.X)
        scale = float(np.sum(X * X))
    elif name == "neuron":
        scale = float(bundle.instance.v @ bundle.instance.v)
    else:
        scale = 0.0
    tol = 1e-18 * (1.0 + scale)
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = bundle.sample_solution(rng)
        assert bundle.objective.dist_solution(s) <= 1e-7
        assert bundle.objective.eval(s) <= tol


# A small draw for each parameter rule of the problem table.
RULE_DRAWS = {
    POSITIVE: st.integers(1, 6),
    NONNEGATIVE: st.integers(0, 2 ** 32 - 1),
    neuron.SPEC.params["v_norm"][1]:
        st.floats(0.5, 2.0) | st.floats(-2.0, -0.5),
}


@st.composite
def valid_params(draw, name):
    """Every key the problem takes, drawn by its rule, with the ``ordered``
    keys sorted so the combination admits an instance."""
    spec = PROBLEMS[name].SPEC
    params = {key: draw(RULE_DRAWS[rule])
              for key, (_, rule) in spec.params.items()}
    if "m" in params:
        # With one or two measurements the gradient near S is so small that
        # the finite-difference comparison, not the gradient, loses digits.
        params["m"] = draw(st.integers(6, 60))
    params.update(zip(spec.ordered,
                      sorted(params[key] for key in spec.ordered)))
    return params


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gradient_consistent_over_random_dimensions(data):
    name = data.draw(st.sampled_from(["factorization", "sensing", "neuron"]))
    params = data.draw(valid_params(name))
    assert param_errors(name, params) == []
    bundle = build(name, params)
    points = [sample_init(bundle, 0.1, seed) for seed in range(3)]
    assert max_relative_gradient_error(bundle.objective, points) <= 1e-5


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["factorization", "sensing"]),
       values=st.lists(st.integers(1, 8), min_size=3, max_size=3))
def test_ranks_out_of_order_are_rejected(name, values):
    assume(values != sorted(values))
    ordered = PROBLEMS[name].SPEC.ordered
    config = ExperimentConfig(problem=name,
                              problem_params=dict(zip(ordered, values)))
    with pytest.raises(ConfigInvalid, match="need r <= k <= d"):
        config.validate()


def test_dist_to_solution_examples(bundles):
    q = bundles["quartic1d"]
    assert q.objective.dist_solution(np.array([-3.0])) == 3.0
    X = np.zeros((2, 2))
    X[0, 0] = 1.0
    inst = factorization.from_matrix(X, k=2)
    B = np.array([[1.0, 0.0], [0.0, 0.4]])
    assert factorization.dist_to_solution_rows(B[None], inst)[0] == (
        pytest.approx(0.4, rel=1e-12))


def test_sample_init_factorization_distance(bundles):
    bundle = bundles["factorization"]
    x = sample_init(bundle, 0.01, 5)
    assert bundle.objective.dist_solution(x) <= 0.01 + 1e-10


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(ALL_PROBLEMS), seed=st.integers(0, 2 ** 32 - 1),
       n_rows=st.integers(1, 9), log_radius=st.floats(-8.0, -0.5))
def test_row_forms_equal_each_row_as_float64_bytes(bundles, name, seed,
                                                   n_rows, log_radius):
    # The engine records distances from the row forms; a trace must read
    # exactly what the per-point forms give at each of its iterates.
    bundle = bundles[name]
    obj, rav = bundle.objective, bundle.descriptor
    rng = np.random.default_rng(seed)
    X = bundle.base_solution + 10.0 ** log_radius * rng.standard_normal(
        (n_rows, obj.dim))

    def as_bytes(values):
        return np.asarray(values, dtype=np.float64).tobytes()

    assert as_bytes(obj.dist_rows(X)) == as_bytes(
        [obj.dist_solution(x) for x in X])
    if rav is not None:
        assert as_bytes(rav.retract_rows(X)) == as_bytes(
            [rav.retract(x) for x in X])


def test_unit_direction_rejects_empty_dimension():
    class FiniteRng:
        """Stops a redraw loop that would otherwise never end."""

        draws = 0

        def standard_normal(self, dim):
            self.draws += 1
            if self.draws > 100:
                raise RuntimeError("unit_direction keeps redrawing")
            return np.zeros(dim)

    with pytest.raises(ValueError):
        unit_direction(FiniteRng(), 0)


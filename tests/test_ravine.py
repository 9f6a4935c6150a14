"""Ravine descriptor, diagnostic check and Morse solver tests."""

import dataclasses

import numpy as np
import pytest

from ravinegd import (
    DegenerateProjection,
    InsufficientValidSamples,
    NewtonDivergence,
    Objective,
    RankAmbiguity,
    check_aiming,
    check_gradient_control,
    check_growth_exponent,
    check_lojasiewicz,
    check_ravine_quadratic,
    morse_ravine_solve,
)
from ravinegd.objective import (
    _central_differences,
    central_difference_gradient,
    on_row,
    row_norms,
    unit_direction,
)
from ravinegd.problems import build, circle, factorization, sample_init
from ravinegd.ravine import (
    GROWTH_SLOPE_TOL,
    SKIP_DISTANCE,
    STENCIL_ROWS,
    _cloud_report,
    _two_radius_report,
)

SMALL_PARAMS = {
    "factorization": {"d": 5, "r": 2, "k": 3},
    "neuron": {"d": 6},
}

RAVINE_PROBLEMS = ["rosenbrock", "circle", "factorization", "neuron"]


@pytest.fixture(scope="module")
def bundles():
    return {name: build(name, SMALL_PARAMS.get(name))
            for name in RAVINE_PROBLEMS + ["quartic1d"]}


# ----------------------------------------------------------- descriptors

@pytest.mark.parametrize("name", RAVINE_PROBLEMS)
def test_retraction_identity_on_manifold(bundles, name):
    bundle = bundles[name]
    rav = bundle.descriptor
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = bundle.sample_solution(rng)
        assert np.linalg.norm(rav.retract(s) - s) <= 1e-8
        assert rav.on_manifold(s)


@pytest.mark.parametrize("name", RAVINE_PROBLEMS)
def test_retraction_idempotent(bundles, name):
    bundle = bundles[name]
    rav = bundle.descriptor
    for seed in range(20):
        x = sample_init(bundle, 0.02, seed)
        r1 = rav.retract(x)
        r2 = rav.retract(r1)
        assert np.linalg.norm(r2 - r1) <= 1e-8
        assert rav.on_manifold(r1)


# ------------------------------------------------- Procrustes projection

@pytest.fixture(scope="module")
def fact_inst():
    return factorization.random_instance(d=5, r=2, k=3, seed=0)


def test_projection_idempotent_on_solutions(fact_inst):
    rng = np.random.default_rng(3)
    B = factorization.sample_solution(fact_inst, rng)
    P = factorization.factorization_project_solution(B, fact_inst)
    assert np.linalg.norm(P - B) <= 1e-10


def test_projection_diagonal_example():
    X = np.zeros((2, 2))
    X[0, 0] = 1.0
    inst = factorization.from_matrix(X, k=2)
    B = np.array([[1.0, 0.0], [0.0, 0.3]])
    P = factorization.factorization_project_solution(B, inst)
    assert np.allclose(P, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_projection_beats_sampled_solutions(fact_inst):
    rng = np.random.default_rng(7)
    for _ in range(5):
        B = factorization.sample_solution(fact_inst, rng)
        B = B + 0.05 * rng.standard_normal(B.shape)
        P = factorization.factorization_project_solution(B, fact_inst)
        assert np.allclose(P @ P.T, fact_inst.X, atol=1e-8)
        d_opt = np.linalg.norm(B - P)
        for _ in range(1000):
            other = factorization.sample_solution(fact_inst, rng)
            assert d_opt <= np.linalg.norm(B - other) + 1e-12


def test_projection_degenerate(fact_inst):
    with pytest.raises(DegenerateProjection):
        factorization.factorization_project_solution(
            np.zeros((5, 3)), fact_inst)


def test_retraction_block_example():
    # P block rescales onto the circle; Q is already orthogonal to it.
    X = np.zeros((2, 2))
    X[0, 0] = 1.0
    inst = factorization.from_matrix(X, k=2)
    B = np.array([[1.1, 0.0], [0.0, 0.4]])
    R = factorization.factorization_retraction(B, inst)
    assert np.allclose(R, [[1.0, 0.0], [0.0, 0.4]], atol=1e-12)


def test_retraction_lands_on_manifold(fact_inst):
    rng = np.random.default_rng(11)
    for _ in range(20):
        B = factorization.sample_solution(fact_inst, rng)
        B = B + 0.01 * rng.standard_normal(B.shape)
        R = factorization.factorization_retraction(B, fact_inst)
        res_p, res_pq = factorization.manifold_residuals(R, fact_inst)
        assert res_p <= 1e-8 and res_pq <= 1e-8


def test_retraction_comparable_to_manifold_distance(fact_inst):
    # ||B - R(B)|| stays within a small factor of dist(B, M), estimated by
    # sampling manifold points near the retraction.
    rng = np.random.default_rng(13)
    for _ in range(10):
        B = factorization.sample_solution(fact_inst, rng)
        B = B + 0.02 * rng.standard_normal(B.shape)
        R = factorization.factorization_retraction(B, fact_inst)
        moved = np.linalg.norm(B - R)
        best = moved
        for _ in range(200):
            q_norm = float(np.linalg.norm(
                (fact_inst.basis.T @ R)[fact_inst.r:]))
            other = factorization.make_manifold_point(
                fact_inst, rng, max(q_norm + 0.005 * rng.standard_normal(),
                                    1e-6))
            best = min(best, np.linalg.norm(B - other))
        assert moved <= 2.0 * best + 1e-12


# ----------------------------------------------------------------- checks

def test_ravine_check_rosenbrock_exact_ten(bundles):
    bundle = bundles["rosenbrock"]
    rep = check_ravine_quadratic(bundle.objective, bundle.descriptor,
                                 200, 0.1, seed=0,
                                 lower_bracket=5.0, upper_bracket=20.0)
    assert rep.passed
    assert rep.measured_lower == pytest.approx(10.0, rel=1e-9)
    assert rep.measured_upper == pytest.approx(10.0, rel=1e-9)


def test_ravine_check_circle_exact_one(bundles):
    bundle = bundles["circle"]
    rep = check_ravine_quadratic(bundle.objective, bundle.descriptor,
                                 200, 0.05, seed=0,
                                 lower_bracket=0.5, upper_bracket=2.0)
    assert rep.passed
    assert rep.measured_lower == pytest.approx(1.0, rel=1e-9)
    assert rep.measured_upper == pytest.approx(1.0, rel=1e-9)


def test_ravine_check_factorization_bracket(fact_inst, bundles):
    bundle = bundles["factorization"]
    rep = check_ravine_quadratic(
        bundle.objective, bundle.descriptor, 500, 0.01, seed=1,
        lower_bracket=fact_inst.sigmar / 16.0,
        upper_bracket=36.0 * fact_inst.sigma1)
    assert rep.passed


def test_ravine_check_skips_on_manifold_samples(bundles):
    # The quartic descriptor retracts identically, so every sample is a 0/0
    # ratio and the check must refuse to report.
    bundle = bundles["quartic1d"]
    with pytest.raises(InsufficientValidSamples):
        check_ravine_quadratic(bundle.objective, bundle.descriptor,
                               50, 0.1, seed=0,
                               lower_bracket=0.0, upper_bracket=1.0)


def test_aiming_rosenbrock_exact_twenty(bundles):
    bundle = bundles["rosenbrock"]
    rep = check_aiming(bundle.objective, bundle.descriptor, 200, 0.1, seed=0)
    assert rep.passed
    assert rep.measured_lower == pytest.approx(20.0, rel=1e-9)
    assert rep.measured_upper == pytest.approx(20.0, rel=1e-9)


def test_aiming_factorization_lower_bound(fact_inst, bundles):
    bundle = bundles["factorization"]
    rep = check_aiming(bundle.objective, bundle.descriptor, 1000, 0.01,
                       seed=2)
    assert rep.passed
    assert rep.measured_lower >= fact_inst.sigmar / 16.0


def test_growth_quartic_slope_four(bundles):
    bundle = bundles["quartic1d"]
    rep = check_growth_exponent(bundle.objective, bundle.descriptor,
                                200, np.geomspace(0.01, 0.3, 4), seed=0)
    assert rep.passed
    assert rep.extras["slope"] == pytest.approx(4.0, abs=1e-6)


def test_growth_factorization_exact_bracket(bundles):
    bundle = bundles["factorization"]
    rep = check_growth_exponent(bundle.objective, bundle.descriptor,
                                300, np.geomspace(1e-3, 1e-1, 4), seed=0,
                                exact_bracket=(1.0 / 3.0, 1.0))
    assert rep.passed
    assert rep.extras["bracket_ok"]
    assert abs(rep.extras["slope"] - 4.0) <= 0.1


def test_growth_neuron_cubic(bundles):
    bundle = bundles["neuron"]
    rep = check_growth_exponent(bundle.objective, bundle.descriptor,
                                300, np.geomspace(3e-3, 3e-2, 4), seed=0)
    assert rep.passed
    assert 2.9 <= rep.extras["slope"] <= 3.1


def test_growth_rejects_narrow_grid(bundles):
    bundle = bundles["quartic1d"]
    with pytest.raises(ValueError):
        check_growth_exponent(bundle.objective, bundle.descriptor,
                              50, [0.1, 0.2], seed=0)


def test_growth_refuses_a_one_sample_fit(bundles):
    # Grid [1, 1e80], one sample per radius: at 1e80 the rosenbrock gap
    # and dist^4 overflow, so one sample is left, too few for a slope.
    bundle = bundles["rosenbrock"]
    with pytest.raises(InsufficientValidSamples, match="1 sample"):
        check_growth_exponent(bundle.objective, bundle.descriptor,
                              2, [1.0, 1e80], seed=0)


def test_lojasiewicz_quartic_constant(bundles):
    bundle = bundles["quartic1d"]
    rep = check_lojasiewicz(bundle.objective, 4.0, 100, 0.1, seed=0,
                            sample_solution=bundle.sample_solution,
                            retract=bundle.descriptor.retract)
    assert rep.passed
    # (x^4/4)^(3/4) / |x|^3 = 4^(-3/4) at every x.
    assert rep.measured_upper == pytest.approx(4.0 ** -0.75, abs=1e-6)
    assert rep.measured_lower == pytest.approx(4.0 ** -0.75, abs=1e-6)


def test_lojasiewicz_rosenbrock_stable(bundles):
    bundle = bundles["rosenbrock"]
    rep = check_lojasiewicz(bundle.objective, 4.0, 200, 0.1, seed=0,
                            sample_solution=bundle.sample_solution,
                            retract=bundle.descriptor.retract)
    assert rep.passed
    ratio = rep.extras["max_at_radius"] / rep.extras["max_at_radius_over_10"]
    assert max(ratio, 1.0 / ratio) <= 2.0


def test_gradient_control_rosenbrock(bundles):
    bundle = bundles["rosenbrock"]
    rep = check_gradient_control(bundle.objective, bundle.descriptor,
                                 100, 0.1, seed=0)
    assert rep.passed
    # Closed form: ratio = sqrt(1600 x^2 + 400) <= sqrt(2000) for |x| <= 0.5.
    assert rep.measured_upper <= np.sqrt(2000.0) + 1e-6


def test_gradient_control_factorization_stable(bundles):
    bundle = bundles["factorization"]
    rep = check_gradient_control(bundle.objective, bundle.descriptor,
                                 60, 0.01, seed=0)
    assert rep.passed


# ------------------------------------------------------------- row forms

def _near_solution_stack(bundle, rng, n_rows, radius):
    s = bundle.sample_solution(rng)
    return s + radius * rng.standard_normal((n_rows, bundle.objective.dim))


@pytest.mark.parametrize("name", RAVINE_PROBLEMS)
def test_row_forms_match_single_point_bitwise(bundles, name):
    bundle = bundles[name]
    obj, rav = bundle.objective, bundle.descriptor
    rng = np.random.default_rng(5)
    for radius in (1e-4, 1e-2, 0.3):
        Z = _near_solution_stack(bundle, rng, 2 * obj.dim, radius)
        R = rav.retract_rows(Z)
        assert np.array_equal(R, np.array([rav.retract(z) for z in Z]))
        for stack in (Z, R):
            assert np.array_equal(obj.eval_rows(stack),
                                  np.array([obj.eval(z) for z in stack]))


def test_row_forms_absent_without_gradcontrol(bundles):
    assert bundles["quartic1d"].objective.eval_rows is None
    sensing = build("sensing", {"d": 4, "r": 1, "k": 2, "m": 40})
    assert sensing.objective.eval_rows is None


@pytest.mark.parametrize("name", RAVINE_PROBLEMS)
def test_batched_composite_gradient_matches_scalar_bitwise(bundles, name):
    bundle = bundles[name]
    obj, rav = bundle.objective, bundle.descriptor
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = _near_solution_stack(bundle, rng, 1, 0.01)[0]
        h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
        batched = _central_differences(
            lambda Z: obj.eval_rows(rav.retract_rows(Z)), x[None],
            np.array([h]))[0]
        scalar = central_difference_gradient(
            lambda z: float(obj.eval(rav.retract(z))), x, h=h)
        assert np.array_equal(batched, scalar)


def test_factorization_retract_rows_degenerate_row(bundles):
    bundle = bundles["factorization"]
    rng = np.random.default_rng(2)
    Z = _near_solution_stack(bundle, rng, 4, 0.01)
    Z[2] = 0.0
    with pytest.raises(DegenerateProjection):
        bundle.descriptor.retract_rows(Z)


def test_gradient_control_requires_row_forms(bundles):
    bundle = bundles["rosenbrock"]
    plain = dataclasses.replace(bundle.objective, eval_rows=None)
    with pytest.raises(ValueError):
        check_gradient_control(plain, bundle.descriptor, 10, 0.1, seed=0)


def test_gradient_control_empty_radius_names_it(bundles):
    # The retraction is the identity beyond ||z|| = 0.05, so every sample
    # at radius 0.1 is skipped while those at 0.01 are kept.
    bundle = bundles["rosenbrock"]
    retract_rows = bundle.descriptor.retract_rows

    def near_only(Z):
        Z = np.asarray(Z, dtype=float)
        return np.where((row_norms(Z) > 0.05)[:, None], Z, retract_rows(Z))

    rav = dataclasses.replace(bundle.descriptor, retract=on_row(near_only),
                              retract_rows=near_only)
    with pytest.raises(InsufficientValidSamples, match="at radius 0.1 "):
        check_gradient_control(bundle.objective, rav, 50, 0.1, seed=0)


# ------------------------------------- batched checks against point loops

def _points(rav, n_samples, radius, rng, dim):
    """The cloud drawn and yielded one point at a time."""
    for _ in range(n_samples):
        s = np.asarray(rav.sample_solution(rng), dtype=float)
        yield s + radius * unit_direction(rng, dim)


def _aiming_per_point(obj, rav, n_samples, radius, seed):
    rng = np.random.default_rng(seed)
    ratios = []
    skipped = 0
    for x in _points(rav, n_samples, radius, rng, obj.dim):
        r_x = rav.retract(x)
        diff = x - r_x
        den = float(diff @ diff)
        if den < SKIP_DISTANCE ** 2:
            skipped += 1
            continue
        g = np.asarray(obj.grad(x), dtype=float)
        ratios.append((float(g @ diff) / den, x))
    return _cloud_report("aiming", ratios, skipped, n_samples,
                         lambda lo, hi: (lo > 0.0, {"radius": radius}))


def _growth_per_point(obj, rav, n_samples, radius_grid, seed, *,
                      exact_bracket=None):
    radius_grid = np.asarray(list(radius_grid), dtype=float)
    f_star = float(obj.f_star) if obj.f_star is not None else 0.0
    p = obj.p_growth
    rng = np.random.default_rng(seed)
    per_radius = max(1, n_samples // len(radius_grid))
    logs = []
    ratios = []
    skipped = 0
    bracket_ok = True
    for radius in radius_grid:
        for x in _points(rav, per_radius, radius, rng, obj.dim):
            y = rav.retract(x)
            gap = float(obj.eval(y)) - f_star
            dist = float(obj.dist_solution(y))
            if dist < SKIP_DISTANCE or gap <= 0.0:
                skipped += 1
                continue
            logs.append((np.log(dist), np.log(gap)))
            ratios.append((gap / dist ** p, y))
            if exact_bracket is not None:
                lo_c, hi_c = exact_bracket
                tol = 1e-10 * max(abs(gap), lo_c * dist ** p)
                if gap < lo_c * dist ** p - tol or gap > hi_c * dist ** p + tol:
                    bracket_ok = False

    def judge(lo, hi):
        ld, lg = np.array([a for a, _ in logs]), np.array([b for _, b in logs])
        slope, intercept = np.polyfit(ld, lg, 1)
        resid = float(np.sqrt(np.mean((lg - (slope * ld + intercept)) ** 2)))
        return abs(slope - p) <= GROWTH_SLOPE_TOL and bracket_ok, {
            "slope": float(slope), "expected_exponent": p,
            "fit_residual": resid,
            "exact_bracket": list(exact_bracket) if exact_bracket else None,
            "bracket_ok": bracket_ok}

    return _cloud_report("growth", ratios, skipped,
                         per_radius * len(radius_grid), judge)


def _gradcontrol_per_point(obj, rav, n_samples, radius, seed):
    def composite_gradient(x, h):
        # One sample's stencil as one stack: x + h e_i, then x - h e_i.
        step = h * np.eye(x.size)
        values = obj.eval_rows(rav.retract_rows(
            np.concatenate([x + step, x - step])))
        return (values[:x.size] - values[x.size:]) / (2.0 * h)

    def ratios_at(rad, rng):
        vals = []
        skipped = 0
        for x in _points(rav, n_samples, rad, rng, obj.dim):
            r_x = rav.retract(x)
            den = float(np.linalg.norm(x - r_x))
            if den < SKIP_DISTANCE:
                skipped += 1
                continue
            g = np.asarray(obj.grad(x), dtype=float)
            g_comp = composite_gradient(
                x, 1e-6 * (1.0 + float(np.linalg.norm(x))))
            vals.append((float(np.linalg.norm(g - g_comp)) / den, x))
        return vals, skipped

    return _two_radius_report(
        "gradcontrol", ratios_at, n_samples, radius, seed,
        lambda max_big, max_small: max_small <= 2.0 * max(max_big, 1e-300))


# 75 samples fill no whole number of stencil blocks on any problem here.
N_UNEVEN = 75
GROWTH_GRID = np.geomspace(3e-3, 3e-2, 4)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", RAVINE_PROBLEMS)
def test_batched_aiming_and_gradcontrol_match_point_loops(bundles, name,
                                                          seed):
    bundle = bundles[name]
    obj, rav = bundle.objective, bundle.descriptor
    assert N_UNEVEN % max(1, STENCIL_ROWS // (2 * obj.dim)) != 0
    for radius in (0.1, 0.01):
        assert (check_aiming(obj, rav, N_UNEVEN, radius, seed).to_dict()
                == _aiming_per_point(obj, rav, N_UNEVEN, radius,
                                     seed).to_dict())
        assert (check_gradient_control(obj, rav, N_UNEVEN, radius,
                                       seed).to_dict()
                == _gradcontrol_per_point(obj, rav, N_UNEVEN, radius,
                                          seed).to_dict())


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", RAVINE_PROBLEMS + ["quartic1d"])
def test_batched_growth_matches_point_loop(bundles, name, seed):
    bundle = bundles[name]
    obj, rav = bundle.objective, bundle.descriptor
    bracket = bundle.growth_bracket
    assert (check_growth_exponent(obj, rav, N_UNEVEN, GROWTH_GRID, seed,
                                  exact_bracket=bracket).to_dict()
            == _growth_per_point(obj, rav, N_UNEVEN, GROWTH_GRID, seed,
                                 exact_bracket=bracket).to_dict())


def _counting_eval_rows(obj):
    """``obj`` whose ``eval_rows`` records the row count of each call."""
    counts = []

    def eval_rows(X):
        counts.append(len(X))
        return obj.eval_rows(X)

    return dataclasses.replace(obj, eval_rows=eval_rows), counts


@pytest.mark.parametrize("name", RAVINE_PROBLEMS)
def test_gradcontrol_stencil_blocks_stay_bounded(bundles, name):
    bundle = bundles[name]
    obj, counts = _counting_eval_rows(bundle.objective)
    rep = check_gradient_control(obj, bundle.descriptor, N_UNEVEN, 0.01,
                                 seed=1)
    stencil = 2 * obj.dim
    assert max(counts) <= max(STENCIL_ROWS, stencil)
    assert all(c % stencil == 0 for c in counts)
    assert sum(counts) == stencil * rep.samples_tested


def test_gradcontrol_large_stencil_goes_alone():
    # d = 100: each sample's stencil has 400 rows, above STENCIL_ROWS.
    bundle = build("neuron", {"d": 100})
    obj, counts = _counting_eval_rows(bundle.objective)
    rav = bundle.descriptor
    rep = check_gradient_control(obj, rav, 7, 0.01, seed=0)
    assert counts == [400] * rep.samples_tested
    assert rep.to_dict() == _gradcontrol_per_point(
        bundle.objective, rav, 7, 0.01, 0).to_dict()


# ------------------------------------------------------------ Morse solver

def test_morse_rosenbrock_graph(bundles):
    obj = bundles["rosenbrock"].objective
    solver = morse_ravine_solve(obj, np.zeros(2), tol=1e-12, max_iter=50)
    assert solver.tangent_dim == 1 and solver.normal_dim == 1
    # The tangent direction is the x-axis (canonical sign).
    assert solver.tangent_basis[:, 0] == pytest.approx([1.0, 0.0], abs=1e-8)
    for u in np.arange(-0.5, 0.5001, 0.05):
        v = solver(np.array([u]))
        assert abs(v[0] - u * u) <= 1e-10


def test_morse_zero_offset(bundles):
    obj = bundles["rosenbrock"].objective
    solver = morse_ravine_solve(obj, np.zeros(2), tol=1e-12, max_iter=50)
    assert np.linalg.norm(solver(np.zeros(1))) <= 1e-12


def test_morse_circle_implicit_equation(bundles):
    obj = bundles["circle"].objective
    solver = morse_ravine_solve(obj, np.array([0.0, 1.0]), tol=1e-12,
                                max_iter=50)
    for u in np.arange(-0.2, 0.2001, 0.02):
        p = solver.point(np.array([u]))
        assert abs(circle.morse_implicit_residual(p)) <= 1e-6
        # Normal-gradient residual is the defining property.
        assert abs(obj.grad(p)[1]) <= 1e-10


def test_morse_requires_critical_basepoint(bundles):
    obj = bundles["rosenbrock"].objective
    with pytest.raises(ValueError):
        morse_ravine_solve(obj, np.array([0.5, 0.1]), tol=1e-12)


def test_morse_newton_divergence(bundles):
    obj = bundles["circle"].objective
    solver = morse_ravine_solve(obj, np.array([0.0, 1.0]), tol=1e-15,
                                max_iter=1)
    with pytest.raises(NewtonDivergence):
        solver(np.array([0.2]))


def test_morse_rank_ambiguity():
    # Spectrum {2, 5e-4, 1e-6}: the null candidate 1e-6 sits only a factor
    # 5e2 below the next eigenvalue, inside the factor-1e3 guard.
    scales = np.array([1.0, 2.5e-4, 5e-7])

    def f(x):
        return float(np.sum(scales * x * x))

    def g(x):
        return 2.0 * scales * x

    obj = Objective(dim=3, eval=f, grad=g)
    with pytest.raises(RankAmbiguity):
        morse_ravine_solve(obj, np.zeros(3), tol=1e-12)


def test_morse_rejects_large_dimension():
    obj = Objective(dim=11, eval=lambda x: float(x @ x),
                    grad=lambda x: 2 * np.asarray(x))
    with pytest.raises(ValueError):
        morse_ravine_solve(obj, np.zeros(11))

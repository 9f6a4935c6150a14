"""Ravine descriptor, diagnostic check and Morse solver tests."""

import dataclasses
import math

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
from ravinegd.harness import diagnose, run_check
from ravinegd.morse import (
    MAX_HALVINGS, TOL, _canonical_signs, finite_difference_hessian,
    spectral_split)
from ravinegd.objective import (
    _central_differences,
    central_difference_gradient,
    on_row,
    row_norms,
)
from ravinegd.opt_core import OVERFLOW_IS_DATA
from ravinegd.problems import (
    PROBLEM_NAMES, PROBLEMS, build, circle, factorization, quartic,
    sample_init)
from ravinegd.problems.spec import CLOUD_CHECKS
from ravinegd.ravine import (
    GROWTH_SLOPE_TOL,
    SKIP_DISTANCE,
    STENCIL_ROWS,
    RavineDescriptor,
    SampleStream,
    SolutionSampler,
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

def manifold_residuals(B, inst):
    """(||P P^T - D||_F, ||P Q^T||_F) of a factorization point B in the
    eigenbasis of X, with P its first r rows there and D the top r
    eigenvalues."""
    Bp = inst.basis.T @ np.reshape(B, (inst.d, inst.k))
    P, Q = Bp[:inst.r], Bp[inst.r:]
    return (float(np.linalg.norm(P @ P.T - np.diag(inst.evals[:inst.r]))),
            float(np.linalg.norm(P @ Q.T)))


def _on_manifold(bundle, name, x):
    """Whether x lies on the problem's solution manifold, within the
    tolerance of each problem's defining equation."""
    inst = bundle.instance
    if name == "rosenbrock":
        return abs(x[1] - x[0] ** 2) <= 1e-8 * (1.0 + x[0] ** 2)
    if name == "circle":
        return abs(math.hypot(*x) - 1.0) <= 1e-8
    if name == "neuron":
        return (np.linalg.norm(x[:inst.d] + x[inst.d:] - inst.v)
                <= 1e-8 * (1.0 + inst.norm_v))
    tol = 1e-8 * (1.0 + np.linalg.norm(inst.evals[:inst.r]))
    return max(manifold_residuals(x, inst)) <= tol


@pytest.mark.parametrize("name", RAVINE_PROBLEMS)
def test_retraction_identity_on_manifold(bundles, name):
    bundle = bundles[name]
    rav = bundle.descriptor
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = bundle.sample_solution(rng)
        assert np.linalg.norm(rav.retract(s) - s) <= 1e-8
        assert _on_manifold(bundle, name, s)


@pytest.mark.parametrize("name", RAVINE_PROBLEMS)
def test_retraction_idempotent(bundles, name):
    bundle = bundles[name]
    rav = bundle.descriptor
    for seed in range(20):
        x = sample_init(bundle, 0.02, seed)
        r1 = rav.retract(x)
        r2 = rav.retract(r1)
        assert np.linalg.norm(r2 - r1) <= 1e-8
        assert _on_manifold(bundle, name, r1)


# ------------------------------------------------- Procrustes projection

@pytest.fixture(scope="module")
def fact_inst():
    return factorization.random_instance(d=5, r=2, k=3, seed=0)


def _project(B, inst):
    """The Procrustes projection of one (d, k) matrix, as a one-row stack."""
    return factorization.factorization_project_solution_rows(B[None], inst)[0]


def _retract(B, inst):
    """The composite retraction of one (d, k) matrix, as a one-row stack."""
    return factorization.factorization_retraction_rows(B[None], inst)[0]


def test_projection_idempotent_on_solutions(fact_inst):
    rng = np.random.default_rng(3)
    B = factorization.solution_sampler(fact_inst)(rng).reshape(5, 3)
    P = _project(B, fact_inst)
    assert np.linalg.norm(P - B) <= 1e-10


def test_projection_diagonal_example():
    X = np.zeros((2, 2))
    X[0, 0] = 1.0
    inst = factorization.from_matrix(X, k=2)
    B = np.array([[1.0, 0.0], [0.0, 0.3]])
    P = _project(B, inst)
    assert np.allclose(P, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_projection_beats_sampled_solutions(fact_inst):
    rng = np.random.default_rng(7)
    sampler = factorization.solution_sampler(fact_inst)
    for _ in range(5):
        B = sampler(rng).reshape(5, 3)
        B = B + 0.05 * rng.standard_normal(B.shape)
        P = _project(B, fact_inst)
        assert np.allclose(P @ P.T, fact_inst.X, atol=1e-8)
        d_opt = np.linalg.norm(B - P)
        for _ in range(1000):
            other = sampler(rng).reshape(5, 3)
            assert d_opt <= np.linalg.norm(B - other) + 1e-12


def test_projection_degenerate(fact_inst):
    with pytest.raises(DegenerateProjection):
        _project(np.zeros((5, 3)), fact_inst)


def test_retraction_block_example():
    # P block rescales onto the circle; Q is already orthogonal to it.
    X = np.zeros((2, 2))
    X[0, 0] = 1.0
    inst = factorization.from_matrix(X, k=2)
    B = np.array([[1.1, 0.0], [0.0, 0.4]])
    R = _retract(B, inst)
    assert np.allclose(R, [[1.0, 0.0], [0.0, 0.4]], atol=1e-12)


def test_retraction_lands_on_manifold(fact_inst):
    rng = np.random.default_rng(11)
    for _ in range(20):
        B = factorization.solution_sampler(fact_inst)(rng).reshape(5, 3)
        B = B + 0.01 * rng.standard_normal(B.shape)
        R = _retract(B, fact_inst)
        res_p, res_pq = manifold_residuals(R, fact_inst)
        assert res_p <= 1e-8 and res_pq <= 1e-8


def test_retraction_comparable_to_manifold_distance(fact_inst):
    # ||B - R(B)|| stays within a small factor of dist(B, M), estimated by
    # sampling manifold points near the retraction.
    rng = np.random.default_rng(13)
    for _ in range(10):
        B = factorization.solution_sampler(fact_inst)(rng).reshape(5, 3)
        B = B + 0.02 * rng.standard_normal(B.shape)
        R = _retract(B, fact_inst)
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


def _solve_retraction_rows(Bs, inst):
    """The composite retraction with Q projected onto ker(P~) through a
    solve with P~ P~^T: the reference for the closed form Q - (Q W^T) W."""
    r = inst.r
    Bp = inst.basis.T @ Bs
    P, Q = Bp[:, :r], Bp[:, r:]
    sq = np.sqrt(inst.evals[:r])
    u, _, vt = np.linalg.svd(sq[:, None] * P, full_matrices=False)
    P_t = sq[:, None] * (u @ vt)
    P_tT = np.swapaxes(P_t, 1, 2)
    Q_t = Q - (Q @ P_tT) @ np.linalg.solve(P_t @ P_tT, P_t)
    return inst.basis @ np.concatenate([P_t, Q_t], axis=1)


@pytest.mark.parametrize("d, r, k", [(5, 2, 3), (20, 2, 4), (20, 4, 6),
                                     (6, 3, 3), (20, 4, 4)])
def test_retraction_closed_form_matches_the_solve(d, r, k):
    # Both forms share the SVD and P~ and differ in Q~ by rounding only.
    # The solve inverts P~ P~^T = D to a relative error of about cond(D)
    # eps, which the projector P~^T (.) P~ scales by up to cond(D) again,
    # so per entry they may differ by 32 cond(D)^2 eps (1 + ||B||_F).
    inst = factorization.random_instance(d=d, r=r, k=k, seed=d + r + k)
    Bs = np.random.default_rng(k).standard_normal((50, d, k))
    closed = factorization.factorization_retraction_rows(Bs, inst)
    cond = inst.sigma1 / inst.sigmar
    tol = (32.0 * cond ** 2 * np.finfo(float).eps
           * (1.0 + np.linalg.norm(Bs, axis=(1, 2))))
    assert np.all(np.abs(closed - _solve_retraction_rows(Bs, inst))
                  <= tol[:, None, None])
    one = factorization.factorization_retraction_rows(Bs[:1], inst)
    assert one.tobytes() == closed[:1].tobytes()


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
                                exact_bracket=(1.0 / 3.0, 1.0, 0.0))
    assert rep.passed
    assert rep.extras["bracket_ok"]
    assert abs(rep.extras["slope"] - 4.0) <= 0.1


@pytest.mark.parametrize("seed", [44, 86, 222])
def test_growth_bracket_floor_covers_rounding_only(seed):
    # At these instance seeds one retracted sample lies ~1e-6 from S, where
    # the gap's rounding floor exceeds the 1e-10 relative tolerance.  With
    # k - r = 1 every exact ratio is 1, so an upper coefficient 1e-8 too
    # small must still fail with the floor.
    bundle = build("factorization", {"instance_seed": seed})
    lo, hi, floor = bundle.growth_bracket
    assert 0.0 < floor < 1e-26

    def bracket_ok(bracket):
        return check_growth_exponent(
            bundle.objective, bundle.descriptor, 200,
            np.geomspace(0.01 / 30.0, 0.01, 4), seed,
            exact_bracket=bracket).extras["bracket_ok"]

    assert bracket_ok((lo, hi, floor))
    assert not bracket_ok((lo, hi, 0.0))
    assert not bracket_ok((lo, (1.0 - 1e-8) * hi, floor))


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


@pytest.mark.parametrize("name", RAVINE_PROBLEMS + ["quartic1d"])
def test_descriptor_retract_takes_a_point_or_a_stack(bundles, name):
    bundle = bundles[name]
    rav = bundle.descriptor
    Z = _near_solution_stack(bundle, np.random.default_rng(9),
                             2 * bundle.objective.dim, 0.05)
    R = rav.retract(Z)
    assert R.shape == Z.shape and R.dtype == np.float64
    assert R.tobytes() == rav.retract_rows(Z).tobytes()
    for z in Z:
        r = rav.retract(z)
        assert r.shape == z.shape
        assert r.tobytes() == rav.retract_rows(z[None])[0].tobytes()


def test_looped_row_form_turns_overflow_into_inf(bundles):
    # quartic1d has no native row form, and its Python-float powers raise
    # OverflowError: x^4 beyond 1e77, x^3 beyond 1e103.
    obj = bundles["quartic1d"].objective
    X = np.array([[1e80], [2.0], [1e200]])
    values, grads = obj.value_and_grad_rows(X)
    assert values.tolist() == [math.inf, 4.0, math.inf]
    assert np.isnan(grads[[0, 2]]).all() and grads[1].tolist() == [8.0]
    assert obj.eval_rows(X).tobytes() == values.tobytes()


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


@pytest.mark.parametrize("fn", [factorization.factorization_retraction_rows,
                                factorization.factorization_project_solution_rows])
def test_factorization_svd_failure_is_degenerate(fact_inst, fn):
    # A non-finite matrix, as an overflowed stencil point, has no SVD.
    Bs = np.zeros((3, 5, 3))
    Bs[1] = np.nan
    with np.errstate(**OVERFLOW_IS_DATA), pytest.raises(
            DegenerateProjection, match="did not converge"):
        fn(Bs, fact_inst)


def test_gradient_control_derives_missing_eval_rows(bundles):
    # Without a native eval_rows, the stencils are evaluated through the
    # values of value_and_grad_rows, to the same bytes.
    bundle = bundles["rosenbrock"]
    plain = dataclasses.replace(bundle.objective, eval_rows=None)
    assert plain.eval_rows is not bundle.objective.eval_rows
    assert check_gradient_control(
        plain, bundle.descriptor, 10, 0.1, seed=0).to_json() == \
        check_gradient_control(
            bundle.objective, bundle.descriptor, 10, 0.1, seed=0).to_json()


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


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_sampler_row_map_equals_per_sample_draws(name):
    params = {**SMALL_PARAMS, "sensing": {"d": 4, "r": 1, "k": 2, "m": 40}}
    sampler = build(name, params.get(name)).sample_solution
    assert isinstance(sampler, SolutionSampler)
    draws_rng, points_rng = (np.random.default_rng(4) for _ in range(2))
    draws = np.array([sampler.draw(draws_rng) for _ in range(9)], dtype=float)
    assert np.array_equal(sampler.rows(draws),
                          np.array([sampler(points_rng) for _ in range(9)]))
    # Both streams are left in the same state.
    assert draws_rng.random() == points_rng.random()


@pytest.mark.parametrize("name", RAVINE_PROBLEMS + ["quartic1d"])
def test_cloud_equals_points_drawn_one_at_a_time(bundles, name):
    bundle = bundles[name]
    dim, sampler = bundle.objective.dim, bundle.sample_solution
    X = SampleStream(sampler, dim, 6).cloud(0, 11, 0.05)
    assert np.array_equal(X, np.array(list(_points(
        sampler, 11, 0.05, np.random.default_rng(6), dim))))


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_stream_clouds_equal_clouds_drawn_one_after_another(name):
    params = {**SMALL_PARAMS, "sensing": {"d": 4, "r": 1, "k": 2, "m": 40}}
    bundle = build(name, params.get(name))
    dim, n, sampler = bundle.objective.dim, 9, bundle.sample_solution
    rng = np.random.default_rng(5)
    first, second = (np.array(list(_points(sampler, n, rad, rng, dim)))
                     for rad in (0.05, 0.005))
    in_turn = SampleStream(sampler, dim, 5)
    at_once = SampleStream(sampler, dim, 5)
    # All 2n samples drawn by one cloud, then read back as two.
    assert np.array_equal(at_once.cloud(0, 2 * n, 0.05)[:n], first)
    for stream in (in_turn, at_once):
        assert np.array_equal(stream.cloud(0, n, 0.05), first)
        assert np.array_equal(stream.cloud(n, n, 0.005), second)
    # Uneven segments, as the growth check reads them.
    segments = SampleStream(sampler, dim, 5)
    assert np.array_equal(np.concatenate(
        [segments.cloud(0, 4, 0.05), segments.cloud(4, 5, 0.05),
         segments.cloud(9, n, 0.005)]), np.concatenate([first, second]))


def test_stream_of_another_sampler_or_dimension_is_refused(bundles):
    bundle = bundles["circle"]
    obj, rav = bundle.objective, bundle.descriptor
    for stream in (SampleStream(bundles["rosenbrock"].sample_solution, 2, 0),
                   SampleStream(rav.sample_solution, 3, 0)):
        with pytest.raises(ValueError, match="another sampler"):
            check_aiming(obj, rav, 10, 0.05, stream)


def _cloud_check(bundle, check, n_samples, radius, seed):
    """Run a cloud check on the rosenbrock bundle; growth samples the
    grid ``[0.01, radius]``."""
    obj, rav = bundle.objective, bundle.descriptor
    if check == "growth":
        return check_growth_exponent(obj, rav, n_samples, [0.01, radius],
                                     seed)
    if check == "lojasiewicz":
        return check_lojasiewicz(obj, obj.p_growth, n_samples, radius, seed,
                                 sample_solution=bundle.sample_solution,
                                 retract=rav.retract)
    if check == "ravine":
        return check_ravine_quadratic(obj, rav, n_samples, radius, seed,
                                      lower_bracket=5.0, upper_bracket=20.0)
    run = {"aiming": check_aiming, "gradcontrol": check_gradient_control}
    return run[check](obj, rav, n_samples, radius, seed)


@pytest.mark.parametrize("bad", [2.5, -3, 0])
@pytest.mark.parametrize("check", sorted(CLOUD_CHECKS))
def test_cloud_checks_judge_their_sample_count(bundles, check, bad):
    message = f"^n_samples: must be an integer >= 1, got {bad}$"
    with pytest.raises(ValueError, match=message):
        _cloud_check(bundles["rosenbrock"], check, bad, 0.1, 0)


@pytest.mark.parametrize("bad", [1.5, -1])
@pytest.mark.parametrize("check", sorted(CLOUD_CHECKS))
def test_cloud_checks_judge_their_seed(bundles, check, bad):
    message = f"^seed: must be an integer >= 0, got {bad}$"
    with pytest.raises(ValueError, match=message):
        _cloud_check(bundles["rosenbrock"], check, 3, 0.1, bad)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -0.1])
@pytest.mark.parametrize("check", sorted(CLOUD_CHECKS))
def test_cloud_checks_judge_each_radius(bundles, check, bad):
    name = r"radius_grid\[1\]" if check == "growth" else "radius"
    message = f"^{name}: must be a real number > 0, got {bad}$"
    with pytest.raises(ValueError, match=message):
        _cloud_check(bundles["rosenbrock"], check, 3, bad, 0)


def test_cloud_check_errors_name_every_broken_argument(bundles):
    with pytest.raises(ValueError, match=(
            "^n_samples: must be an integer >= 1, got 0; "
            "radius: must be a real number > 0, got -1; "
            "seed: must be an integer >= 0, got None$")):
        _cloud_check(bundles["rosenbrock"], "aiming", 0, -1, None)


@pytest.fixture
def direction_draws(monkeypatch):
    """The count of sample directions the cloud checks draw."""
    import ravinegd.ravine as ravine_module
    draws = [0]
    direction = ravine_module.gaussian_direction

    def counted(rng, dim):
        draws[0] += 1
        return direction(rng, dim)

    monkeypatch.setattr(ravine_module, "gaussian_direction", counted)
    return draws


def test_geometry_benchmark_verdicts_pass():
    # The factorization suite and the RIP measurement at the settings of
    # the perfbench geometry workload: a rounding change in a retraction
    # or a measurement that tips a verdict shows here before it lowers
    # the workload's share of passing operations.
    suite = ["ravine", "aiming", "growth", "lojasiewicz", "gradcontrol"]
    for seed in range(10):
        passed, reports = diagnose(
            "factorization", suite, n_samples=200, radius=0.01, seed=seed,
            problem_params={"instance_seed": seed})
        assert passed, (seed, [c for c, r in reports.items() if not r.passed])
        passed, _ = diagnose(
            "sensing", ["rip"], n_samples=200, radius=0.01, seed=seed,
            problem_params={"d": 20, "m": 800, "instance_seed": seed})
        assert passed, seed


@pytest.mark.parametrize("name", ["rosenbrock", "factorization"])
def test_diagnose_suite_draws_each_sample_once(direction_draws, name):
    n = 40
    params = SMALL_PARAMS.get(name)
    _, suite = diagnose(name, sorted(CLOUD_CHECKS), n_samples=n,
                        radius=0.05, seed=1, problem_params=params)
    assert direction_draws[0] == 2 * n
    for check in sorted(CLOUD_CHECKS):
        direction_draws[0] = 0
        _, alone = diagnose(name, [check], n_samples=n, radius=0.05, seed=1,
                            problem_params=params)
        # One check alone draws what it reads, as it always has.
        assert direction_draws[0] == {"lojasiewicz": 2 * n,
                                      "gradcontrol": 2 * n}.get(check, n)
        assert alone[check].to_dict() == suite[check].to_dict()


@pytest.mark.parametrize("d, r, k", [(5, 2, 3), (5, 2, 2), (20, 3, 5),
                                     (20, 4, 4)])
def test_factorization_sampler_is_l_times_q_transpose(d, r, k):
    inst = factorization.random_instance(d=d, r=r, k=k, seed=1)
    G = np.random.default_rng(2).standard_normal((6, k, r))
    rows = factorization.solution_sampler(inst).rows(G)
    assert np.array_equal(rows, np.array(
        [(inst.L @ np.linalg.qr(g)[0].T).reshape(-1) for g in G]))


@pytest.mark.parametrize("name, params", [
    ("quartic1d", None), ("sensing", {"d": 4, "r": 1, "k": 2, "m": 40}),
    ("rosenbrock", None), ("circle", None),
    ("factorization", SMALL_PARAMS["factorization"]),
    ("factorization", {"d": 20, "r": 3, "k": 5}),
    ("neuron", SMALL_PARAMS["neuron"]), ("neuron", {"d": 100})])
def test_value_and_grad_rows_match_value_and_grad_bitwise(name, params):
    # Native row forms (rosenbrock, factorization, neuron) and looped ones
    # alike, and eval_rows, native or derived.
    bundle = build(name, params)
    obj = bundle.objective
    rng = np.random.default_rng(8)
    for radius in (1e-4, 1e-2, 0.3):
        Z = _near_solution_stack(bundle, rng, 7, radius)
        values, grads = obj.value_and_grad_rows(Z)
        assert values.shape == (7,) and grads.shape == (7, obj.dim)
        assert obj.eval_rows(Z).tobytes() == values.tobytes()
        for z, value, grad in zip(Z, values, grads):
            v, g = obj.value_and_grad(z)
            assert np.float64(v).tobytes() == value.tobytes()
            assert np.asarray(g, dtype=float).tobytes() == grad.tobytes()


def test_rosenbrock_row_forms_equal_the_point_map_past_overflow():
    # The row forms repeat rosenbrock_eval's float64 operations, so a row
    # that overflows to inf or turns NaN does so bit for bit as the point
    # map does.
    obj = build("rosenbrock").objective
    rng = np.random.default_rng(4)
    Z = np.concatenate([
        rng.standard_normal((200, 2)) * 10.0 ** rng.uniform(-200, 200, (200, 1)),
        [[1e100, 0.0], [1e80, -1e200], [0.0, 1e160], [1e155, 1e310],
         [math.inf, 1.0], [math.nan, 0.0], [-0.0, 0.0]]])
    with np.errstate(**OVERFLOW_IS_DATA):
        values, grads = obj.value_and_grad_rows(Z)
        assert obj.eval_rows(Z).tobytes() == values.tobytes()
    assert np.isinf(values).any() and np.isnan(grads).any()
    for z, value, grad in zip(Z, values, grads):
        v, g = obj.value_and_grad(z)
        assert np.float64(v).tobytes() == value.tobytes()
        assert g.tobytes() == grad.tobytes()


def test_factorization_eval_is_the_two_dimensional_formula():
    # The row form on a one-matrix stack equals the value and gradient
    # computed on the (d, k) matrix alone.
    for d, r, k in ((5, 2, 3), (20, 3, 5)):
        inst = factorization.random_instance(d=d, r=r, k=k, seed=3)
        rng = np.random.default_rng(4)
        for _ in range(5):
            B = (factorization.solution_sampler(inst)(rng).reshape(d, k)
                 + 0.1 * rng.standard_normal((d, k)))
            Bp = inst.basis.T @ B
            resid = Bp @ Bp.T
            resid[:r, :r] -= np.diag(inst.evals[:r])
            value, grad = factorization.factorization_eval(B, inst)
            assert value == float(np.sum(resid * resid))
            assert np.array_equal(grad, inst.basis @ (4.0 * resid @ Bp))


# ------------------------------------- batched checks against point loops

def _points(sampler, n_samples, radius, rng, dim):
    """The cloud drawn and yielded one point at a time; ``sampler`` is a
    :class:`SolutionSampler` or a descriptor holding one."""
    sampler = getattr(sampler, "sample_solution", sampler)
    for _ in range(n_samples):
        s = np.asarray(sampler(rng), dtype=float)
        while True:
            # unit_direction's draw, written out with np.linalg.norm.
            d = rng.standard_normal(dim)
            n = np.linalg.norm(d)
            if n > 1e-12:
                break
        yield s + radius * (d / n)


def _arrays(pairs, skipped, attempted, dim):
    """The ``(ratios, points)`` arrays of a point loop's kept ``(ratio,
    point)`` pairs; the loop's own skip count must be the attempts not
    kept."""
    assert len(pairs) + skipped == attempted
    return (np.array([r for r, _ in pairs], dtype=float),
            np.array([x for _, x in pairs], dtype=float).reshape(-1, dim))


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
    return _cloud_report("aiming", *_arrays(ratios, skipped, n_samples,
                                            obj.dim), n_samples,
                         lambda lo, hi: (lo > 0.0, {"radius": radius}))


def _ravine_per_point(obj, rav, n_samples, radius, seed, *, lower_bracket,
                      upper_bracket):
    rng = np.random.default_rng(seed)
    ratios = []
    skipped = 0
    for x in _points(rav, n_samples, radius, rng, obj.dim):
        r_x = rav.retract(x)
        den = float(np.sum((x - r_x) ** 2))
        rho = math.nan
        if not den < SKIP_DISTANCE ** 2:
            rho = (float(obj.eval(x)) - float(obj.eval(r_x))) / den
        if not math.isfinite(rho):
            skipped += 1
            continue
        ratios.append((rho, x))
    return _cloud_report(
        "ravine", *_arrays(ratios, skipped, n_samples, obj.dim), n_samples,
        lambda lo, hi: (lo >= lower_bracket and hi <= upper_bracket,
                        {"lower_bracket": lower_bracket,
                         "upper_bracket": upper_bracket, "radius": radius}))


def _lojasiewicz_per_point(obj, p, n_samples, radius, seed, *,
                           sample_solution, retract):
    f_star = float(obj.f_star)
    exponent = (p - 1.0) / p
    rng = np.random.default_rng(seed)

    def max_ratio(rad, index):
        # The two clouds continue one rng, the first cloud first.
        vals = []
        skipped = 0
        for x in _points(sample_solution, n_samples, rad, rng, obj.dim):
            for pt in (x, np.asarray(retract(x), dtype=float)):
                value, grad = obj.both(pt)
                gap = float(value) - f_star
                gnorm = float(np.linalg.norm(grad))
                ratio = math.nan
                if gap > 0.0 and gnorm > 1e-300:
                    ratio = gap ** exponent / gnorm
                if not math.isfinite(ratio):
                    skipped += 1
                    continue
                vals.append((ratio, pt))
        return _arrays(vals, skipped, 2 * n_samples, obj.dim)

    def stable(max_big, max_small):
        return (np.isfinite(max_big) and np.isfinite(max_small)
                and max(max_big, max_small) <= 2.0 * min(max_big, max_small))

    # Each sample and its retraction are two attempts.
    return _two_radius_report("lojasiewicz", max_ratio, 2 * n_samples,
                              radius, stable, exponent=exponent)


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
                lo_c, hi_c, floor = exact_bracket
                tol = 1e-10 * max(abs(gap), lo_c * dist ** p) + floor
                if gap < lo_c * dist ** p - tol or gap > hi_c * dist ** p + tol:
                    bracket_ok = False

    def judge(lo, hi):
        ld, lg = np.array([a for a, _ in logs]), np.array([b for _, b in logs])
        slope, intercept = np.polyfit(ld, lg, 1)
        resid = float(np.sqrt(np.mean((lg - (slope * ld + intercept)) ** 2)))
        return abs(slope - p) <= GROWTH_SLOPE_TOL and bracket_ok, {
            "slope": float(slope), "expected_exponent": p,
            "fit_residual": resid,
            "exact_bracket": (list(exact_bracket[:2]) if exact_bracket
                              else None),
            "bracket_ok": bracket_ok}

    attempted = per_radius * len(radius_grid)
    return _cloud_report("growth", *_arrays(ratios, skipped, attempted,
                                            obj.dim), attempted, judge)


def _gradcontrol_per_point(obj, rav, n_samples, radius, seed):
    def composite_gradient(x, h):
        # One sample's stencil as one stack: x + h e_i, then x - h e_i.
        step = h * np.eye(x.size)
        values = obj.eval_rows(rav.retract_rows(
            np.concatenate([x + step, x - step])))
        return (values[:x.size] - values[x.size:]) / (2.0 * h)

    rng = np.random.default_rng(seed)

    def ratios_at(rad, index):
        # The two clouds continue one rng, the first cloud first.
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
        return _arrays(vals, skipped, n_samples, obj.dim)

    return _two_radius_report(
        "gradcontrol", ratios_at, n_samples, radius,
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
@pytest.mark.parametrize("name", RAVINE_PROBLEMS)
def test_row_first_ravine_check_matches_point_loop(bundles, name, seed):
    bundle = bundles[name]
    obj, rav = bundle.objective, bundle.descriptor
    lo, hi = bundle.ravine_bracket
    for radius in (0.1, 0.01):
        assert (check_ravine_quadratic(obj, rav, N_UNEVEN, radius, seed,
                                       lower_bracket=lo,
                                       upper_bracket=hi).to_dict()
                == _ravine_per_point(obj, rav, N_UNEVEN, radius, seed,
                                     lower_bracket=lo,
                                     upper_bracket=hi).to_dict())


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", RAVINE_PROBLEMS + ["quartic1d"])
def test_row_first_lojasiewicz_matches_point_loop(bundles, name, seed):
    bundle = bundles[name]
    obj = bundle.objective
    kwargs = {"sample_solution": bundle.sample_solution,
              "retract": bundle.descriptor.retract}
    for radius in (0.1, 0.01):
        assert (check_lojasiewicz(obj, obj.p_growth, N_UNEVEN, radius, seed,
                                  **kwargs).to_dict()
                == _lojasiewicz_per_point(obj, obj.p_growth, N_UNEVEN,
                                          radius, seed, **kwargs).to_dict())


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


def _row_call_counts(obj):
    """``obj`` whose per-point maps raise and whose row maps count calls."""
    counts = {"value_and_grad_rows": 0, "eval_rows": 0}

    def per_point(x):
        raise AssertionError("per-point objective call")

    def counted(name):
        fn = getattr(obj, name)

        def rows(X):
            counts[name] += 1
            return fn(X)
        return rows

    return dataclasses.replace(
        obj, value_and_grad=per_point, eval=per_point, grad=per_point,
        **{name: counted(name) for name in counts}), counts


@pytest.mark.parametrize("check", ["ravine", "aiming", "lojasiewicz",
                                   "gradcontrol"])
@pytest.mark.parametrize("name", ["factorization", "neuron"])
def test_cloud_checks_make_row_calls_only(bundles, name, check):
    bundle = bundles[name]
    obj, counts = _row_call_counts(bundle.objective)
    rav = bundle.descriptor
    lo, hi = bundle.ravine_bracket
    run = {
        "ravine": lambda: check_ravine_quadratic(
            obj, rav, N_UNEVEN, 0.01, 1, lower_bracket=lo, upper_bracket=hi),
        "aiming": lambda: check_aiming(obj, rav, N_UNEVEN, 0.01, 1),
        "lojasiewicz": lambda: check_lojasiewicz(
            obj, obj.p_growth, N_UNEVEN, 0.01, 1,
            sample_solution=bundle.sample_solution, retract=rav.retract),
        "gradcontrol": lambda: check_gradient_control(
            obj, rav, N_UNEVEN, 0.01, 1),
    }[check]
    run()
    clouds = 2 if check in ("lojasiewicz", "gradcontrol") else 1
    per_block = max(1, STENCIL_ROWS // (2 * obj.dim))
    stencil_blocks = (clouds * -(-N_UNEVEN // per_block)
                      if check == "gradcontrol" else 0)
    assert counts["value_and_grad_rows"] <= clouds
    assert counts["eval_rows"] <= clouds + stencil_blocks


def _retraction_counts(rav):
    """A descriptor with ``rav``'s maps whose every retraction, of a point
    or a stack, is counted as one ``retract_rows`` call."""
    calls = []

    def retract_rows(X):
        calls.append(len(X))
        return rav.retract_rows(X)

    return RavineDescriptor(retract_rows=retract_rows,
                            sample_solution=rav.sample_solution), calls


@pytest.mark.parametrize("check", ["ravine", "lojasiewicz", "growth"])
@pytest.mark.parametrize("name", ["factorization", "neuron"])
def test_cloud_checks_retract_and_evaluate_each_cloud_once(bundles, name,
                                                           check):
    bundle = bundles[name]
    obj, counts = _row_call_counts(bundle.objective)
    rav, calls = _retraction_counts(bundle.descriptor)
    lo, hi = bundle.ravine_bracket
    {
        "ravine": lambda: check_ravine_quadratic(
            obj, rav, N_UNEVEN, 0.01, 1, lower_bracket=lo, upper_bracket=hi),
        "lojasiewicz": lambda: check_lojasiewicz(
            obj, obj.p_growth, N_UNEVEN, 0.01, 1,
            sample_solution=rav.sample_solution, retract=rav.retract),
        "growth": lambda: check_growth_exponent(
            obj, rav, N_UNEVEN, GROWTH_GRID, 1,
            exact_bracket=bundle.growth_bracket),
    }[check]()
    clouds = {"ravine": 1, "lojasiewicz": 2, "growth": len(GROWTH_GRID)}
    assert len(calls) <= clouds[check]
    if check == "growth":
        assert counts["eval_rows"] <= len(GROWTH_GRID)


def _nan_beyond(obj, x_max):
    """``obj`` whose row maps give NaN values and gradients at the rows with
    first coordinate above ``x_max``."""
    def eval_rows(X):
        return np.where(X[:, 0] > x_max, np.nan, obj.eval_rows(X))

    def value_and_grad_rows(X):
        values, grads = obj.value_and_grad_rows(X)
        bad = X[:, 0] > x_max
        return (np.where(bad, np.nan, values),
                np.where(bad[:, None], np.nan, grads))

    return dataclasses.replace(obj, eval_rows=eval_rows,
                               value_and_grad_rows=value_and_grad_rows)


@pytest.mark.parametrize("check", ["ravine", "aiming", "lojasiewicz",
                                   "gradcontrol"])
def test_cloud_checks_skip_non_finite_ratios(bundles, check):
    # On rosenbrock R(x) keeps the first coordinate, so a sample and its
    # retraction and stencil are NaN together: about a third of the cloud
    # at radius 0.1, and none at 0.01.
    bundle = bundles["rosenbrock"]
    rav = bundle.descriptor
    obj = _nan_beyond(bundle.objective, 0.05)
    rep = {
        "ravine": lambda: check_ravine_quadratic(
            obj, rav, 60, 0.1, 0, lower_bracket=5.0, upper_bracket=20.0),
        "aiming": lambda: check_aiming(obj, rav, 60, 0.1, 0),
        "lojasiewicz": lambda: check_lojasiewicz(
            obj, 4.0, 60, 0.1, 0, sample_solution=bundle.sample_solution,
            retract=rav.retract),
        "gradcontrol": lambda: check_gradient_control(obj, rav, 60, 0.1, 0),
    }[check]()
    X = SampleStream(bundle.sample_solution, 2, 0).cloud(0, 60, 0.1)
    per_sample = 2 if check == "lojasiewicz" else 1
    assert rep.skipped == per_sample * int(np.sum(X[:, 0] > 0.05)) > 0
    text = rep.to_json()
    assert "NaN" not in text and "Infinity" not in text


def test_lojasiewicz_refuses_only_past_half_its_points():
    # Each sample and its retraction are two of the check's 4 * n points;
    # on rosenbrock R(x) keeps the first coordinate, so both are NaN
    # together.  Beyond x_max = 0.005 lie about a third of the cloud at
    # radius 0.01 and about half of the cloud at 0.1: more than a quarter
    # of the points, which the check refused when it counted two attempts
    # per sample, and at most half of them, which it accepts.
    bundle = build("rosenbrock")
    rav = bundle.descriptor
    n = 60
    stream = SampleStream(rav.sample_solution, 2, 0)
    nan_rows = sum(int(np.sum(stream.cloud(i * n, n, rad)[:, 0] > 0.005))
                   for i, rad in enumerate((0.1, 0.01)))
    assert n < 2 * nan_rows <= 2 * n
    rep = check_lojasiewicz(_nan_beyond(bundle.objective, 0.005), 4.0, n,
                            0.1, 0, sample_solution=rav.sample_solution,
                            retract=rav.retract)
    assert rep.skipped == 2 * nan_rows
    assert rep.samples_tested == 4 * n - 2 * nan_rows


# Attempts of each cloud check at n samples: the growth check spreads them
# over its 4 radii, the two-radius checks draw two clouds, and the
# lojasiewicz check evaluates each sample and its retraction.
ATTEMPTS = {"ravine": lambda n: n, "aiming": lambda n: n,
            "growth": lambda n: 4 * max(1, n // 4),
            "lojasiewicz": lambda n: 4 * n, "gradcontrol": lambda n: 2 * n}


@pytest.mark.parametrize("name, check", [
    (name, check) for name in PROBLEM_NAMES for check in sorted(CLOUD_CHECKS)
    if check in PROBLEMS[name].SPEC.checks])
def test_every_attempt_is_tested_or_skipped(bundles, name, check):
    assert set(ATTEMPTS) == CLOUD_CHECKS
    rep = run_check(bundles[name], check, 30, 0.05, seed=0)
    assert rep.samples_tested + rep.skipped == ATTEMPTS[check](30)


@pytest.mark.parametrize("check", sorted(ATTEMPTS))
def test_skipped_attempts_are_the_ones_not_kept(bundles, check):
    # NaN beyond x = 0.05 on rosenbrock: part of the cloud at radius 0.1.
    bundle = bundles["rosenbrock"]
    bundle = dataclasses.replace(
        bundle, objective=_nan_beyond(bundle.objective, 0.05))
    rep = run_check(bundle, check, 60, 0.1, seed=0)
    assert rep.skipped > 0
    assert rep.samples_tested + rep.skipped == ATTEMPTS[check](60)


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


@pytest.mark.parametrize("name", ["rosenbrock", "circle"])
def test_morse_non_finite_residual_diverges_at_once(name, bundles):
    bundle = bundles[name]
    solver = morse_ravine_solve(bundle.objective, bundle.base_solution,
                                tol=1e-12, max_iter=50)
    with pytest.raises(NewtonDivergence, match="not finite"):
        solver.point([1e300])


def test_morse_rank_ambiguity():
    # Spectrum {2, 5e-4, 1e-6}: the null candidate 1e-6 sits only a factor
    # 5e2 below the next eigenvalue, inside the factor-1e3 guard.
    scales = np.array([1.0, 2.5e-4, 5e-7])

    def f(x):
        return float(np.sum(scales * x * x))

    def g(x):
        return 2.0 * scales * x

    obj = Objective(dim=3, value_and_grad=lambda x: (f(x), g(x)))
    with pytest.raises(RankAmbiguity):
        morse_ravine_solve(obj, np.zeros(3), tol=1e-12)


def _linear_gradient(hessian):
    """The objective x -> x.H.x / 2, whose gradient is H x."""
    hessian = np.asarray(hessian, dtype=float)

    def both(x):
        g = hessian @ x
        return float(x @ g) / 2.0, g

    return Objective(dim=len(hessian), value_and_grad=both)


def test_morse_zero_hessian_has_no_curvature_split():
    with pytest.raises(RankAmbiguity, match="numerically zero"):
        morse_ravine_solve(_linear_gradient(np.zeros((2, 2))), np.zeros(2),
                           tol=1e-12)


def test_morse_quartic_minimizer_is_full_rank():
    # quartic1d is flat to second order at 0, but its central-difference
    # Hessian is of order h^2, so its one direction is the largest.
    with pytest.raises(RankAmbiguity, match="no null directions"):
        morse_ravine_solve(quartic.objective(), np.zeros(1), tol=1e-12)


def test_morse_full_rank_hessian_has_no_null_direction():
    obj = _linear_gradient([[2.0, 0.5], [0.5, 1.0]])
    with pytest.raises(RankAmbiguity, match="no null directions"):
        morse_ravine_solve(obj, np.zeros(2), tol=1e-12)


@pytest.mark.parametrize("hessian", [
    # Finite entries whose largest eigenvalue, 2.4e308, overflows to inf.
    np.full((3, 3), 8e307),
    # An infinite entry gives NaN eigenvalues.
    [[math.inf, 0.0], [0.0, 1.0]]])
def test_morse_non_finite_spectrum_has_no_curvature_split(hessian):
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(RankAmbiguity, match="spectrum is not finite"):
            morse_ravine_solve(_linear_gradient(hessian),
                               np.zeros(len(hessian)), tol=1e-12)


def _canonical_signs_loop(vectors):
    """The column-by-column flip that ``_canonical_signs`` replaced."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        if out[i, j] < 0:
            out[:, j] = -out[:, j]
    return out


def test_canonical_signs_equal_the_loop_bitwise():
    rng = np.random.default_rng(0)
    # Ties of equal magnitude and opposite sign flip by the first one.
    tied = np.array([[0.5, -0.5, 0.0], [-0.5, 0.5, -0.0], [0.0, 0.0, 1.0]])
    for vectors in [tied, *(rng.standard_normal((n, m)) for n, m in
                            ((1, 1), (2, 1), (5, 3), (40, 40)))]:
        assert (_canonical_signs(vectors).tobytes()
                == _canonical_signs_loop(vectors).tobytes())


def test_finite_difference_hessian_equals_the_loop_bitwise(bundles):
    obj = bundles["factorization"].objective
    x = bundles["factorization"].base_solution + 0.01
    h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    rows = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        rows.append((obj.grad(x + e) - obj.grad(x - e)) / (2.0 * h))
    hess = np.array(rows)
    assert (finite_difference_hessian(obj, x).tobytes()
            == ((hess + hess.T) / 2.0).tobytes())


# Measured at each bundle's base solution: (null, normal) direction counts
# and the range of the normal |lambda|.
PAPER_SPLITS = {
    "factorization": ({"d": 20, "r": 2, "k": 4}, 41, 39, 1.345016, 8.0),
    "neuron": ({"d": 100}, 100, 100, 0.9999989, 1.0),
    "sensing": ({"d": 20, "m": 800}, 41, 39, 3.543683, 34.13430),
}


@pytest.fixture(scope="module")
def paper_bundles():
    return {name: build(name, params)
            for name, (params, *_) in PAPER_SPLITS.items()}


@pytest.mark.parametrize("name", sorted(PAPER_SPLITS))
def test_spectral_split_past_ten_dimensions(name, paper_bundles):
    _, n_null, n_normal, lam_lo, lam_hi = PAPER_SPLITS[name]
    bundle = paper_bundles[name]
    obj, base = bundle.objective, bundle.base_solution
    lam, tangent, normal = spectral_split(obj, base)
    assert (tangent.shape, normal.shape, lam.shape) == (
        (obj.dim, n_null), (obj.dim, n_normal), (n_normal,))
    assert np.abs(lam).min() == pytest.approx(lam_lo, rel=1e-6)
    assert np.abs(lam).max() == pytest.approx(lam_hi, rel=1e-6)
    # The bases are orthonormal and together span R^dim.
    basis = np.hstack([tangent, normal])
    assert np.abs(basis.T @ basis - np.eye(obj.dim)).max() <= 1e-13
    # The eigenvalues follow the normal columns.
    hess = finite_difference_hessian(obj, base)
    assert np.abs(hess @ normal - normal * lam).max() <= 1e-9 * lam_hi


def test_morse_traces_past_ten_dimensions(paper_bundles):
    # neuron d=10 (dim 20): its ravine is the plane {w1 + w2 = v}.
    bundle = build("neuron", {"d": 10})
    solver = morse_ravine_solve(bundle.objective, bundle.base_solution,
                                tol=1e-12, max_iter=50)
    assert (solver.tangent_dim, solver.normal_dim) == (10, 10)
    for seed in range(3):
        u = np.random.default_rng(seed).standard_normal(10)
        p = solver.point(0.1 * u / np.linalg.norm(u))
        assert np.linalg.norm(p - bundle.base_solution) == pytest.approx(0.1)
        assert np.abs(p[:10] + p[10:] - bundle.instance.v).max() <= 1e-15
    # factorization d=20, k=4 (dim 80): 2.4e-9 to 6.4e-9 from the
    # descriptor's ravine at tangent radius 0.01.
    bundle = paper_bundles["factorization"]
    solver = morse_ravine_solve(bundle.objective, bundle.base_solution,
                                tol=1e-12, max_iter=50)
    for seed in range(3):
        u = np.random.default_rng(seed).standard_normal(solver.tangent_dim)
        p = solver.point(0.01 * u / np.linalg.norm(u))
        assert np.linalg.norm(p - bundle.descriptor.retract(p)) <= 1e-8
    # A solve costs one gradient, plus one per chord iteration and one per
    # step halving: 7 or 8 at tangent radius 0.1, where the
    # forward-difference Newton iteration made 121.
    calls = []
    obj = dataclasses.replace(
        bundle.objective,
        grad=lambda x: calls.append(1) or bundle.objective.grad(x))
    solver = morse_ravine_solve(obj, bundle.base_solution, tol=1e-12,
                                max_iter=50)
    for seed in range(3):
        u = np.random.default_rng(seed).standard_normal(solver.tangent_dim)
        calls.clear()
        solver.point(0.1 * u / np.linalg.norm(u))
        assert len(calls) <= 10


def _newton_point(solver, u):
    """The Morse point by the damped Newton iteration that the chord step
    replaced: a forward-difference Jacobian of the normal residual at each
    iterate and a linear solve, with the solver's own damping."""
    u = np.asarray(u, dtype=float)
    v = np.zeros(solver.normal_dim)
    g = solver._residual(u, v)
    gnorm = np.linalg.norm(g)
    for _ in range(solver.max_iter):
        if gnorm <= solver.tol:
            break
        h = 1e-6 * (1.0 + float(np.linalg.norm(v)))
        jac = np.column_stack([(solver._residual(u, v + e) - g) / h
                               for e in h * np.eye(solver.normal_dim)])
        step = np.linalg.solve(jac, g)
        for _ in range(MAX_HALVINGS):
            g_new = solver._residual(u, v - step)
            gn_new = np.linalg.norm(g_new)
            if gn_new < gnorm or gn_new <= solver.tol:
                break
            step = step / 2.0
        else:
            raise NewtonDivergence("damping failed to reduce the residual")
        v, g, gnorm = v - step, g_new, gn_new
    assert gnorm <= solver.tol
    return (solver.basepoint + solver.tangent_basis @ u
            + solver.normal_basis @ v)


def _morse_offsets(name, bundles, paper_bundles):
    """A problem's solver and the tangent offsets it is compared on: the
    bundle's ``MorseSpec`` grid in two dimensions, five random directions
    at tangent radius 0.1 and 0.01 past ten."""
    bundle = (paper_bundles if name in PAPER_SPLITS else bundles)[name]
    solver = morse_ravine_solve(bundle.objective, bundle.base_solution,
                                tol=TOL, max_iter=50)
    if name not in PAPER_SPLITS:
        start, stop, step = bundle.spec.morse.grid
        return solver, [[u] for u in np.arange(start, stop + step / 2.0, step)]
    offsets = []
    for radius in (0.1, 0.01):
        for seed in range(5):
            u = np.random.default_rng(seed).standard_normal(solver.tangent_dim)
            offsets.append(radius * u / np.linalg.norm(u))
    return solver, offsets


@pytest.mark.parametrize("name",
                         ["rosenbrock", "circle", *sorted(PAPER_SPLITS)])
def test_morse_chord_points_match_the_newton_reference(name, bundles,
                                                       paper_bundles):
    # Measured largest distances: 4.8e-13 on factorization, 2.8e-13 on
    # circle, 6.0e-14 on sensing, 4.0e-14 on rosenbrock and 0 on neuron.
    solver, offsets = _morse_offsets(name, bundles, paper_bundles)
    for u in offsets:
        distance = np.linalg.norm(solver.point(u) - _newton_point(solver, u))
        assert distance <= 1e-12

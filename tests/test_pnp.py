import warnings

import numpy as np
import pytest

from pnpstab.matrices import validate_stochastic
from pnpstab.operators import P_of, build_deblur, build_inpainting, build_superres, gram, kernel_denoiser, make_family
from pnpstab.pnp import (
    InverseProblem,
    IterationTrace,
    affine_map,
    empirical_rate_from_errors,
    pgd_pnp_run,
    trace_to_csv,
)
from pnpstab.spectral import rho, solve
from pnpstab.stability import rho_on_grid


def _sqrt_psd(b):
    vals, vecs = np.linalg.eigh(b)
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def fixed_point(problem):
    """x* = (I - P(t))^{-1} c, or None where I - P(t) fails the pivot test."""
    p, c = affine_map(problem)
    x, small = solve(np.eye(problem.W.n) - p, c)
    return None if small.any() else x


def geometric_trace(ratio, steps, start=1.0):
    errors = start * ratio ** np.arange(steps + 1.0)
    return IterationTrace(steps + 1, errors, np.empty(0), empirical_rate_from_errors(errors), False)


def inpainting_problem(seed=0, n=4, mask=(1, 1, 0, 1), t=1.0):
    rng = np.random.default_rng(seed)
    w = kernel_denoiser(rng.uniform(0, 1, size=n), bandwidth=0.5)
    op = build_inpainting(np.asarray(mask, dtype=float))
    b = op @ rng.uniform(0, 1, size=n)
    return InverseProblem(A=op, b=b, W=w, t=t)


def test_inpainting_run_converges():
    trace = pgd_pnp_run(inpainting_problem(), x0=np.zeros(4), max_iter=1000, tol=1e-10)
    assert trace.converged
    assert trace.error_norms[-1] <= 1e-8


@pytest.mark.parametrize(
    "kwargs", [{"tol": np.nan}, {"tol": np.inf}, {"tol": -1e-10}, {"max_iter": -1}], ids=["nan", "inf", "negative", "max_iter"]
)
def test_run_rejects_bad_stopping_rules(kwargs):
    # A NaN tol never met its test: the run took every iteration and reported converged=False.
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        pgd_pnp_run(inpainting_problem(), x0=np.zeros(4), **kwargs)


@pytest.mark.parametrize(
    "x0", [[np.nan, 0, 0, 0], [0, np.inf, 0, 0], [0, 0, 0], [1e200] * 4], ids=["nan", "inf", "short", "huge"]
)
def test_run_rejects_a_bad_start(x0):
    # A NaN start ran all 2000 iterations and returned NaN losses; a short one failed in numpy's broadcasting.
    # A huge finite one overflowed in its first norm and loss, outside the loop's errstate, with a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="x0"):
            pgd_pnp_run(inpainting_problem(), x0=np.array(x0, dtype=float), max_iter=2000)


def test_run_rejects_a_problem_whose_affine_map_overflows():
    # A^T A overflows to inf, so P(t) is not finite: the fixed-point solve refuses it.
    problem = inpainting_problem()
    huge = InverseProblem(A=1e160 * problem.A, b=problem.b, W=problem.W, t=1.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="non-finite entries"):
        pgd_pnp_run(huge, x0=np.zeros(4))


def test_diverging_run_stops_unconverged_without_warnings():
    # The iterate overflowed, the stop test read inf <= inf, and the run reported converged=True.
    problem = inpainting_problem(t=50.0)
    assert rho(affine_map(problem)[0]) > 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = pgd_pnp_run(problem, x0=np.zeros(4), max_iter=2000, tol=1e-10)
    assert not trace.converged
    assert trace.iterates_kept < 2000
    assert np.isfinite(trace.error_norms).all() and np.isfinite(trace.loss_values).all()


def test_zero_tol_and_zero_iterations_are_accepted():
    trace = pgd_pnp_run(inpainting_problem(), x0=np.zeros(4), max_iter=0, tol=0.0)
    assert trace.iterates_kept == 1 and not trace.converged


def test_starting_at_fixed_point_stops_immediately():
    problem = inpainting_problem(seed=1)
    x_star = fixed_point(problem)
    trace = pgd_pnp_run(problem, x0=x_star, max_iter=50, tol=1e-10)
    assert trace.converged
    assert trace.iterates_kept == 2
    assert trace.error_norms[-1] <= 1e-12


def test_unstable_family_fails_to_converge():
    # A = B^{1/2} reproduces the indefinite-slope pair as a quadratic loss
    b_matrix = np.array([[34.0, -65.0], [-65.0, 126.0]]) / 10
    w = validate_stochastic(np.array([[7.0, 3.0], [6.0, 4.0]]) / 10)
    problem = InverseProblem(A=_sqrt_psd(b_matrix), b=np.zeros(2), W=w, t=0.25)
    trace = pgd_pnp_run(problem, x0=np.array([0.3, -0.2]), max_iter=500, tol=1e-10)
    assert not trace.converged


def test_first_iterate_matches_gradient_then_denoise_form():
    problem = inpainting_problem(seed=2, t=0.8)
    x0 = np.array([0.1, 0.4, -0.2, 0.7])
    trace = pgd_pnp_run(problem, x0=x0, max_iter=1, tol=0.0)
    a = problem.A
    grad = a.T @ (a @ x0) - a.T @ problem.b
    expected = problem.W.matrix @ (x0 - problem.t * grad)
    p, c = affine_map(problem)
    np.testing.assert_allclose(p @ x0 + c, expected, atol=1e-12)
    assert trace.loss_values[1] == pytest.approx(0.5 * np.linalg.norm(a @ expected - problem.b) ** 2, abs=1e-12)


@pytest.mark.parametrize("t", [0.5, 1.0, 1.9])
@pytest.mark.parametrize("kind", ["inpainting", "deblur", "superres"])
def test_affine_map_builds_the_P_of_matrix(kind, t):
    # The iteration's P(t) is bitwise the matrix P_of builds, W - t WB with B = gram(A), so
    # pnp's printed rho(P) reads the matrix that every rho of P in `stability` reads.
    n = 12
    rng = np.random.default_rng([3, n])
    w = kernel_denoiser(rng.uniform(0.0, 1.0, size=n), bandwidth=0.5)
    h = build_deblur(rng.uniform(0.05, 1.0, size=3), n)
    op = {"inpainting": build_inpainting(np.arange(n) % 3 != 0), "deblur": h, "superres": build_superres(h, 2)}[kind]
    problem = InverseProblem(A=op, b=op @ rng.uniform(0.0, 1.0, size=n), W=w, t=t)
    family = make_family(problem.W, gram(problem.A))
    p = affine_map(problem)[0]
    assert np.array_equal(p, P_of(family, t))
    assert np.array_equal(p, w.matrix - t * (w.matrix @ family.B))
    assert rho(p) == rho_on_grid(family, "P", [t])[0]


def test_loss_values_match_direct_evaluation():
    problem = inpainting_problem(seed=3, t=0.5)
    x0 = np.zeros(4)
    trace = pgd_pnp_run(problem, x0=x0, max_iter=30, tol=0.0)
    a = problem.A
    p, c = affine_map(problem)
    x = x0
    for _ in range(30):
        x = p @ x + c
    first = 0.5 * np.linalg.norm(a @ x0 - problem.b) ** 2
    last = 0.5 * np.linalg.norm(a @ x - problem.b) ** 2
    assert trace.loss_values[0] == pytest.approx(first, abs=1e-12)
    assert trace.loss_values[-1] == pytest.approx(last, abs=1e-12)


def test_error_norms_eventually_decrease_for_stable_runs():
    problem = inpainting_problem(seed=4, t=1.5)
    trace = pgd_pnp_run(problem, x0=np.zeros(4), max_iter=400, tol=1e-12)
    assert trace.converged
    tail = trace.error_norms[5:]
    assert np.all(np.diff(tail) <= 1e-14)


def test_fixed_point_agrees_with_iteration_limit():
    problem = inpainting_problem(seed=5, t=1.0)
    x_star = fixed_point(problem)
    trace = pgd_pnp_run(problem, x0=np.ones(4), max_iter=2000, tol=1e-13)
    assert trace.error_norms[0] == np.linalg.norm(np.ones(4) - x_star)  # errors are measured against x*
    assert trace.error_norms[-1] <= 1e-8


def test_fixed_point_of_zero_observation_is_zero():
    problem = inpainting_problem(seed=6, t=1.0)
    zero_problem = InverseProblem(A=problem.A, b=np.zeros(4), W=problem.W, t=1.0)
    np.testing.assert_allclose(fixed_point(zero_problem), np.zeros(4), atol=1e-15)


def test_run_without_fixed_point_records_losses_only():
    # A e = 0 forces B e = 0, so 1 is an eigenvalue of P(t)
    a = np.array([[1.0, -1.0], [0.0, 0.0]])
    rng = np.random.default_rng(7)
    m = rng.uniform(0.1, 1.0, size=(2, 2))
    w = validate_stochastic(m / m.sum(axis=1, keepdims=True))
    problem = InverseProblem(A=a, b=np.array([1.0, 0.0]), W=w, t=0.7)
    assert fixed_point(problem) is None
    trace = pgd_pnp_run(problem, x0=np.zeros(2), max_iter=200, tol=1e-12)
    assert trace.error_norms.size == 0
    assert trace.estimated_rate is None
    assert trace.loss_values.size == trace.iterates_kept


def test_empirical_rate_exact_for_scaled_identity():
    alpha = 0.8
    trace = geometric_trace(alpha, 60, start=np.linalg.norm([1.0, -2.0, 0.5]))
    assert trace.estimated_rate == pytest.approx(alpha, abs=1e-10)


def test_empirical_rate_matches_spectral_radius_on_slow_run():
    problem = inpainting_problem(seed=8, n=4, mask=(1, 1, 0, 1), t=0.05)
    trace = pgd_pnp_run(problem, x0=np.zeros(4), max_iter=400, tol=0.0)
    radius = rho(problem.W.matrix @ (np.eye(4) - problem.t * gram(problem.A)))
    assert trace.error_norms.size >= 300
    assert trace.estimated_rate == pytest.approx(radius, abs=0.02)


def test_empirical_rate_needs_enough_points():
    assert geometric_trace(0.5, 5).estimated_rate is None


def test_empirical_rate_rejects_bottomed_out_traces():
    assert geometric_trace(0.01, 300).estimated_rate is None


def test_empirical_rate_rejects_a_zero_error_in_its_window():
    errors = np.ones(40)
    errors[35] = 0.0
    assert empirical_rate_from_errors(errors) is None
    assert empirical_rate_from_errors(np.ones(40)) == 1.0


def test_trace_csv_layout(tmp_path):
    trace = pgd_pnp_run(inpainting_problem(seed=9), x0=np.zeros(4), max_iter=25, tol=0.0)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,error_norm,loss"
    assert len(lines) == max(trace.error_norms.size, trace.loss_values.size) + 1


def test_problem_validates_shapes():
    op = build_inpainting([1, 1, 0])
    w = kernel_denoiser([0.1, 0.5, 0.9], bandwidth=0.5)
    with pytest.raises(ValueError):
        InverseProblem(A=op, b=np.zeros(2), W=w, t=1.0)
    with pytest.raises(ValueError):
        InverseProblem(A=op, b=np.zeros(3), W=w, t=-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_rejects_non_finite_observation(bad):
    # A NaN in b ran every iteration of pgd_pnp_run and returned NaN losses.
    problem = inpainting_problem()
    b = problem.b.copy()
    b[1] = bad
    with pytest.raises(ValueError, match="b"):
        InverseProblem(A=problem.A, b=b, W=problem.W, t=1.0)

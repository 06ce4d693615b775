import dataclasses
import math
import os
import pickle
import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from pnpstab import stability
from pnpstab.errors import NoConvergenceError, SingularShiftError
from pnpstab.generators import random_zero_rowsum
from pnpstab.matrices import validate_stochastic
from pnpstab.operators import (
    P_of,
    R_of,
    _R_schur,
    build_deblur,
    build_inpainting,
    conjecture_hypotheses,
    gram,
    kernel_denoiser,
    make_family,
)
from pnpstab.repro import EXAMPLE_IDS, example_family
from pnpstab.spectral import rho, rho_stack
from pnpstab.stability import (
    check_theorem_bound,
    conjecture_trial,
    evaluate_conjecture_family,
    profile,
    profile_to_csv,
    rho_on_grid,
    run_campaign,
    run_suite,
    slope_check,
    stability_threshold,
    suite_family,
)

W_CEX = np.array([[7.0, 3.0], [6.0, 4.0]]) / 10
B_CEX = np.array([[34.0, -65.0], [-65.0, 126.0]]) / 10
W_BLUR = np.array([[0.3, 0.7], [0.6, 0.4]])
H_BLUR = np.array([[0.913, 0.087], [0.087, 0.913]])


def blur_family():
    return make_family(validate_stochastic(W_BLUR), H_BLUR.T @ H_BLUR)


def counterexample_family():
    return make_family(validate_stochastic(W_CEX), B_CEX)


def encoded_counterexample_family():
    # Meets all four encoded conjecture hypotheses, yet rho(P(t)) > 1 inside (0, 2/rho(B)).
    w = [[0.9887, 0.0017, 0.0096], [0.9434, 0.0254, 0.0312], [0.0075, 0.8883, 0.1042]]
    b = [[0.911, 0.2328, -0.1449], [0.2328, 0.1097, 0.1226], [-0.1449, 0.1226, 0.5309]]
    return make_family(validate_stochastic(w), b)


def subsampled_family():
    h = np.array([[0.48, 0.52], [0.52, 0.48]])
    sh = h[:1, :]
    return make_family(validate_stochastic(np.array([[0.0, 1.0], [0.5, 0.5]])), sh.T @ sh)


# -- rho_on_grid against the per-point path -------------------------------------


def per_point_rho(family, which, ts):
    """The per-point reference: one operator build and one eigensolve per t."""
    build = P_of if which == "P" else R_of
    out = []
    for t in ts:
        try:
            out.append(rho(build(family, float(t))))
        except SingularShiftError:
            out.append(math.inf)
    return np.array(out)


def interior_grid(family, points=256):
    return 2.0 / family.rho_B * np.arange(1, points + 1) / (points + 1)


def assert_bitwise_equal_to_per_point(family, ts):
    """rho_on_grid is bitwise its own one-point values, and within 1e-12 relative of the
    per-point reference, with inf at the same singular shifts."""
    for which in ("P", "R"):
        got = rho_on_grid(family, which, ts)
        assert np.array_equal(got, [rho_on_grid(family, which, [t])[0] for t in ts]), which
        np.testing.assert_allclose(got, per_point_rho(family, which, ts), rtol=1e-12, atol=0, err_msg=which)


@pytest.mark.parametrize("seed", range(12))
def test_rho_on_grid_is_bitwise_per_point_on_imaging_families(seed):
    rng = np.random.default_rng(seed)
    family = stability._imaging_instance(rng, int(rng.integers(2, 9)))
    assert_bitwise_equal_to_per_point(family, interior_grid(family))


@pytest.mark.parametrize("seed", range(12))
def test_rho_on_grid_is_bitwise_per_point_on_general_psd_families(seed):
    rng = np.random.default_rng(seed)
    family = stability._general_psd_instance(rng, int(rng.integers(2, 9)))
    assert_bitwise_equal_to_per_point(family, interior_grid(family))


@pytest.mark.parametrize("example", EXAMPLE_IDS)
def test_rho_on_grid_is_bitwise_per_point_on_examples(example):
    assert_bitwise_equal_to_per_point(example_family(example), np.linspace(0.0, 20.0, 401))


def test_rho_on_grid_spans_several_blocks():
    family = stability._imaging_instance(np.random.default_rng(5), 12)
    ts = interior_grid(family)
    assert ts.size > stability._block_points(family.n)
    assert_bitwise_equal_to_per_point(family, ts)


def test_rho_on_grid_single_point():
    family = blur_family()
    assert_bitwise_equal_to_per_point(family, np.array([0.75]))


def test_rho_on_grid_singular_shift_is_inf_at_that_slice_only():
    family = make_family(validate_stochastic(W_BLUR), -np.eye(2))
    ts = np.array([0.5, 1.0, 1.5])  # I + tB = (1 - t) I vanishes at t = 1
    got = rho_on_grid(family, "R", ts)
    assert got[1] == math.inf
    assert np.all(np.isfinite(got[[0, 2]]))
    assert_bitwise_equal_to_per_point(family, ts)
    assert rho_on_grid(family, "R", [1.0])[0] == math.inf  # a block with no solvable slice


def test_rho_on_grid_rejects_bad_input():
    family = blur_family()
    with pytest.raises(ValueError):
        rho_on_grid(family, "Q", [0.5])
    with pytest.raises(ValueError):
        rho_on_grid(family, "P", [0.5, math.nan])
    with pytest.raises(ValueError):
        rho_on_grid(family, "R", [-0.5])
    with pytest.raises(ValueError):
        rho_on_grid(family, "P", [[0.5]])


def test_rho_on_grid_falls_back_per_point_when_the_stacked_eigensolve_fails(monkeypatch):
    family = stability._imaging_instance(np.random.default_rng(2), 6)
    ts = interior_grid(family, 40)
    want = {which: rho_on_grid(family, which, ts) for which in ("P", "R")}
    real_eigvals = np.linalg.eigvals

    def stack_fails(a):
        if np.ndim(a) > 2:
            raise np.linalg.LinAlgError("stacked eigensolve did not converge")
        return real_eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", stack_fails)
    for which in ("P", "R"):
        assert np.array_equal(rho_on_grid(family, which, ts), want[which])


def test_eigensolver_failure_keeps_per_point_nan_and_raise_behaviour(monkeypatch):
    family = blur_family()
    with monkeypatch.context() as m:
        rho_stack_failing_at(m, [same_spectrum_at(family, which, 1.0) for which in ("P", "R")])
        prof = profile(family, 0.25, 2.5, 4)  # grid 0.25, 1.0, 1.75, 2.5
    for radii in (prof.rho_P, prof.rho_R):
        assert math.isnan(radii[1])
        assert np.all(np.isfinite(radii[[0, 2, 3]]))

    def always_fails(a):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvals", always_fails)
    assert np.all(np.isnan(rho_on_grid(family, "R", [0.5, 1.0])))
    # Be = e: P's threshold crosses through its e-eigenvalue and needs no eigensolve.
    assert stability_threshold(family, "P", scan_max=3.0).classification == "stable_then_unstable"
    with pytest.raises(NoConvergenceError, match="^eigensolver failed at t = "):
        stability_threshold(make_family(family.W, np.diag([3.0, 0.5])), "P", scan_max=3.0)
    with pytest.raises(NoConvergenceError, match=re.escape(f"eigensolver failed at t = {2.0 / family.rho_B / 65}")):
        check_theorem_bound(family, "conjecture")
    with pytest.raises(NoConvergenceError, match="^eigensolver failed at t = 1e-05$"):
        slope_check(family, "R")


# -- _first_unstable (fuzz and check) against the per-point path ---------------


def one_point_rho(family, which, ts):
    return np.array([rho_on_grid(family, which, [t])[0] for t in ts])


def first_unstable_reference(family, ts, limit, radii_of=one_point_rho):
    """The per-point reference of _first_unstable: grid order, P before R at each t."""
    radii = {which: radii_of(family, which, ts) for which in ("P", "R")}
    for k in range(ts.size):
        for which in ("P", "R"):
            if not radii[which][k] < limit:
                return float(ts[k]), float(radii[which][k]), which
    return None


def multi_block_case(n, seed, upper):
    family = stability._imaging_instance(np.random.default_rng([seed, n]), n)
    return family, stability._open_grid(upper / family.rho_B, 512)


@pytest.mark.parametrize(
    "n, seed, upper, block_of_crossing",
    [
        (12, 0, 12.0, 0),
        (16, 1, 12.0, 0),
        (24, 0, 6.0, 3),
        (20, 0, 2.0, None),
    ],
)
def test_first_unstable_on_several_blocks_is_the_per_point_scan(n, seed, upper, block_of_crossing):
    family, ts = multi_block_case(n, seed, upper)
    block = stability._block_points(n)
    assert ts.size > 2 * block  # at least three blocks
    got = stability._first_unstable(family, ts, 1.0 - 1e-12)
    assert got == first_unstable_reference(family, ts, 1.0 - 1e-12)
    # and P_of/R_of's radii cross at the same point
    want = first_unstable_reference(family, ts, 1.0 - 1e-12, per_point_rho)
    assert (got is None) == (want is None)
    if got is not None:
        assert got[::2] == want[::2] and got[1] == pytest.approx(want[1], rel=1e-12, abs=0)
    assert (None if got is None else int(np.flatnonzero(ts == got[0])[0]) // block) == block_of_crossing


def rho_stack_failing_at(monkeypatch, matrices):
    """stability.rho_stack giving NaN, as for an eigensolver failure, at each of `matrices` only."""
    real = stability.rho_stack

    def failing(stack):
        radii = real(stack)
        radii[[any(np.array_equal(m, bad) for bad in matrices) for m in stack]] = np.nan
        return radii

    monkeypatch.setattr(stability, "rho_stack", failing)


def test_first_unstable_ignores_an_eigensolver_failure_past_the_crossing(monkeypatch):
    family, ts = multi_block_case(16, 1, 12.0)
    block = stability._block_points(16)
    want = stability._first_unstable(family, ts, 1.0 - 1e-12)
    assert want[0] < ts[block]  # the crossing is in the first block; the failures are in later ones
    failing = [same_spectrum_at(family, "P", ts[block + 3]), same_spectrum_at(family, "R", ts[3 * block])]
    rho_stack_failing_at(monkeypatch, failing)
    assert math.isnan(rho_on_grid(family, "P", ts)[block + 3]) and math.isnan(rho_on_grid(family, "R", ts)[3 * block])
    assert stability._first_unstable(family, ts, 1.0 - 1e-12) == want


def test_first_unstable_raises_at_an_eigensolver_failure_before_the_crossing(monkeypatch):
    family, ts = multi_block_case(24, 0, 6.0)
    block = stability._block_points(24)
    t = stability._first_unstable(family, ts, 1.0 - 1e-12)[0]
    assert t >= ts[3 * block]  # the crossing is in the fourth block; the failure is in the second
    rho_stack_failing_at(monkeypatch, [same_spectrum_at(family, "R", ts[block + 5])])
    assert math.isnan(rho_on_grid(family, "R", ts)[block + 5])
    with pytest.raises(NoConvergenceError, match=re.escape(f"eigensolver failed at t = {ts[block + 5]}")):
        stability._first_unstable(family, ts, 1.0 - 1e-12)


# -- profiles -----------------------------------------------------------------


def test_profile_starts_at_radius_one():
    prof = profile(blur_family(), 0.0, 3.0, 31)
    assert prof.rho_P[0] == pytest.approx(1.0, abs=1e-9)
    assert prof.rho_R[0] == pytest.approx(1.0, abs=1e-9)


def test_profile_blur_window():
    prof = profile(blur_family(), 0.0, 3.0, 301)
    inside = (prof.grid > 0.0) & (prof.grid < 2.0)
    beyond = prof.grid > 2.0
    assert np.all(prof.rho_P[inside] < 1.0)
    assert np.all(prof.rho_P[beyond] >= 1.0)
    assert np.all(prof.rho_R[(prof.grid > 2.0) & (prof.grid <= 3.0)] < 1.0)


def test_profile_marks_singular_shift_as_nan():
    w = validate_stochastic([[0.0, 1.0], [1.0, 0.0]])
    family = make_family(w, np.array([[0.0, 1.0], [1.0, 0.0]]))
    prof = profile(family, 0.5, 1.5, 3)  # grid hits t = 1 where I + tB is singular
    assert math.isnan(prof.rho_R[1])
    assert np.all(np.isfinite(prof.rho_P))


def test_profile_rejects_bad_grid():
    with pytest.raises(ValueError, match="need 0 <= t_min < t_max"):
        profile(blur_family(), 1.0, 0.5, 10)
    with pytest.raises(ValueError, match="need steps >= 2"):
        profile(blur_family(), 0.0, 1.0, 1)


def test_profile_csv_layout(tmp_path):
    prof = profile(blur_family(), 0.0, 1.0, 5)
    path = tmp_path / "p.csv"
    profile_to_csv(prof, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,rho_P,rho_R"
    assert len(lines) == 6
    assert lines[1].startswith("0,1,")


# -- thresholds ---------------------------------------------------------------


def test_threshold_of_blur_profile_is_two():
    report = stability_threshold(blur_family(), "P", scan_max=3.0)
    assert report.classification == "stable_then_unstable"
    assert report.T_star == pytest.approx(2.0, abs=1e-3)
    lo, hi = report.bracket
    assert hi - lo <= report.bisect_tol
    assert lo <= report.T_star <= hi
    family = blur_family()
    assert rho(P_of(family, lo)) < 1.0 <= rho(P_of(family, hi))


def deflation(family):
    """`_deflate_e` of a P threshold, from the product WB of its `_same_spectrum`."""
    return stability._deflate_e(family, stability._same_spectrum(family, "P")[1])


def wrap_same_spectrum(monkeypatch, wrap):
    """Make stability._same_spectrum return wrap(closure) in place of each closure, with its basis."""
    real = stability._same_spectrum

    def same_spectrum(family, which):
        build, basis = real(family, which)
        return wrap(build), basis

    monkeypatch.setattr(stability, "_same_spectrum", same_spectrum)


def budget_builders(monkeypatch, limit):
    """Let stability call `_same_spectrum` closures, a block or one point at a time, at most
    `limit` times in all; the next call raises, so a scan or refinement that never stops fails fast."""
    calls = 0

    def budgeted(build):
        def counted(ts):
            nonlocal calls
            calls += 1
            if calls > limit:
                raise RuntimeError(f"more than {limit} operator builds")
            return build(ts)

        return counted

    wrap_same_spectrum(monkeypatch, budgeted)


@pytest.mark.parametrize(
    "scale, scan_max, bisect_tol, t_star",
    [(1.0, 3.0, 1e-20, 2.0), (1e-11, 3e11, 1e-6, 2e11)],
    ids=["tol_below_float_spacing", "default_tol_coarser_than_ulp"],
)
def test_threshold_bisection_stops_at_adjacent_floats(monkeypatch, scale, scan_max, bisect_tol, t_star):
    # Neither bisect_tol can be met: one ulp is 4.4e-16 at t = 2 and 3.1e-5 at t = 2e11.
    family = example_family("remark_1_7")
    family = make_family(family.W, family.B * scale)
    budget_builders(monkeypatch, 10_000)
    report = stability_threshold(family, "P", scan_max=scan_max, bisect_tol=bisect_tol)
    lo, hi = report.bracket
    assert np.nextafter(lo, np.inf) == hi
    assert report.T_star == pytest.approx(t_star, rel=1e-6)


def recorded_threshold(monkeypatch, family, which, **kwargs):
    """stability_threshold with every (t, rho) it eigensolves (`_rho_at`), in call
    order, and the number of those points up to and including the first crossing.

    A singular shift of R is recorded as rho = inf; points that a power of
    the operator proved stable cost no eigensolve and are left out.
    """
    calls = []
    real_rho_at = stability._rho_at

    def recording(same_spectrum, t):
        r = real_rho_at(same_spectrum, t)
        calls.append((t, r))
        return r

    monkeypatch.setattr(stability, "_rho_at", recording)
    report = stability_threshold(family, which, **kwargs)
    scan_points = next((k + 1 for k, (_, r) in enumerate(calls) if not r < 1.0), len(calls))
    return report, calls, scan_points


@pytest.mark.parametrize(
    "family, which, kwargs",
    [
        (blur_family(), "P", {"scan_max": 3.0, "grid_step": 0.1875}),
        (example_family("example_1_14_B1"), "R", {"scan_max": 20.0}),
        (example_family("example_1_14_B2"), "R", {"scan_max": 20.0}),
    ],
    ids=["blur_P", "example_1_14_B1_R", "example_1_14_B2_R"],
)
def test_threshold_refinement_takes_at_most_six_evaluations(monkeypatch, family, which, kwargs):
    report, calls, scan_points = recorded_threshold(monkeypatch, family, which, **kwargs)
    assert report.classification == "stable_then_unstable"
    # Bisection from the scan bracket to bisect_tol needed 17-18 more.
    assert len(calls) <= scan_points + 6


def test_threshold_bracket_ends_sit_off_the_crossing():
    # remark_1_7 P crosses exactly at 2/rho(B) = 2.
    family = example_family("remark_1_7")
    report = stability_threshold(family, "P", scan_max=3.0)
    assert abs(report.T_star - 2.0 / family.rho_B) <= 1e-9
    assert np.all(np.abs(rho_on_grid(family, "P", report.bracket) - 1.0) >= 1e-8)


def test_threshold_refines_past_a_singular_shift_at_hi(monkeypatch):
    # I + tB is singular at the second scan point t = eps0 + grid_step, so
    # the scan bracket's high end has rho = inf and the secant is undefined.
    # eps0 is certified, so rho_on_grid first sees the pole, then eps0 as the secant's low end.
    t_pole = 1e-4 + 0.25
    family = make_family(validate_stochastic(W_BLUR), np.diag([-1.0 / t_pole, 10.0]))
    report, calls, scan_points = recorded_threshold(monkeypatch, family, "R", scan_max=1.0, grid_step=0.25)
    assert scan_points == 1 and calls[0] == (t_pole, math.inf)
    assert calls[1][0] == 1e-4 and calls[1][1] < 1.0
    lo, hi, f_hi_inf = 1e-4, t_pole, True
    for t, r in calls[2:]:
        if f_hi_inf:
            assert t == 0.5 * (lo + hi)  # a midpoint step while hi is a singular shift
        if r < 1.0:
            lo = t
        else:
            hi, f_hi_inf = t, math.isinf(r)
    assert report.classification == "stable_then_unstable"
    assert report.bracket == (lo, hi) and hi - lo <= report.bisect_tol
    r_lo, r_hi = rho_on_grid(family, "R", [lo, hi])
    assert r_lo < 1.0 <= r_hi < math.inf
    assert len(calls) <= 2 + 6


@pytest.mark.parametrize("generator", ["imaging", "general_psd"])
def test_threshold_brackets_are_sound_on_seeded_families(generator):
    make = stability._imaging_instance if generator == "imaging" else stability._general_psd_instance
    crossings = 0
    for seed in range(20):
        rng = np.random.default_rng([seed, 8])
        family = make(rng, int(rng.integers(2, 9)))
        scan_max = 6.0 / family.rho_B
        for which in ("P", "R"):
            report = stability_threshold(family, which, scan_max=scan_max, grid_step=scan_max / 64)
            if report.classification != "stable_then_unstable":
                continue
            crossings += 1
            lo, hi = report.bracket
            r_lo, r_hi = rho_on_grid(family, which, [lo, hi])
            assert r_lo < 1.0 <= r_hi
            assert 0.0 < hi - lo <= report.bisect_tol
            assert lo <= report.T_star <= hi
    assert crossings >= 5  # the sweep is not vacuous


def test_threshold_unstable_from_start():
    report = stability_threshold(counterexample_family(), "P", scan_max=0.4, eps0=1e-3, grid_step=0.01)
    assert report.classification == "unstable_from_start"
    assert report.T_star is None and report.bracket is None


def test_threshold_stable_throughout_scan():
    report = stability_threshold(blur_family(), "R", scan_max=3.0)
    assert report.classification == "stable_throughout_scan"


def test_threshold_rejects_bad_grid():
    with pytest.raises(ValueError, match=re.escape("need 0 < eps0 (")):
        stability_threshold(blur_family(), "P", scan_max=1.0, grid_step=2.0)
    with pytest.raises(ValueError, match=re.escape("need 0 < eps0 (")):
        stability_threshold(blur_family(), "P", scan_max=1.0, bisect_tol=0.0)


def test_threshold_rejects_nan_bisect_tol():
    # A NaN bracket width skipped the refinement: the raw scan bracket came
    # back and NaN went into the JSON report.
    with pytest.raises(ValueError, match=re.escape("need 0 < eps0 (")):
        stability_threshold(blur_family(), "P", scan_max=3.0, bisect_tol=math.nan)


def test_threshold_rejects_infinite_scan_max_before_scanning(monkeypatch):
    # R of a kernel denoiser with B = I is stable for every t, so a scan up
    # to scan_max = inf with an explicit grid_step never ended.
    budget_builders(monkeypatch, 1000)
    family = make_family(kernel_denoiser(np.linspace(0.0, 1.0, 5), 0.5), np.eye(5))
    with pytest.raises(ValueError, match=re.escape("need 0 < eps0 (")):
        stability_threshold(family, "R", scan_max=math.inf, grid_step=0.5)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("param", ["scan_max", "grid_step", "eps0", "bisect_tol"])
def test_threshold_rejects_non_finite_parameters(monkeypatch, param, value):
    budget_builders(monkeypatch, 1000)
    kwargs = {"scan_max": 3.0, "grid_step": 0.5, "eps0": 1e-4, "bisect_tol": 1e-6, param: value}
    with pytest.raises(ValueError, match=re.escape("need 0 < eps0 (")):
        stability_threshold(blur_family(), "P", **kwargs)


@pytest.mark.parametrize("which", ["X", "p"])
def test_threshold_rejects_unknown_which_before_any_work(monkeypatch, which):
    # An invalid `which` was rejected only when the first scan point reached the operator build.
    def no_eigh(b):
        raise AssertionError("eigh called before `which` was checked")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    budget_builders(monkeypatch, 0)
    with pytest.raises(ValueError, match="which"):
        stability_threshold(blur_family(), which, scan_max=3.0)


def test_threshold_json_fields():
    report = stability_threshold(blur_family(), "P", scan_max=3.0)
    d = report.to_json_dict()
    assert set(d) == {"which", "classification", "T_star", "bracket", "bisect_tol", "scan_max", "grid_step", "eps0"}
    assert d["which"] == "P"
    assert d["bracket"][0] < d["bracket"][1]


# -- the stability certificate of the threshold scan ---------------------------


def seeded_family(generator, seed, n_max):
    make = stability._imaging_instance if generator == "imaging" else stability._general_psd_instance
    rng = np.random.default_rng([seed, 10])
    return make(rng, int(rng.integers(2, n_max + 1)))


@pytest.mark.parametrize("generator", ["imaging", "general_psd"])
def test_certified_slices_have_radius_below_the_certified_bound(generator):
    # P_of and _same_spectrum read P as one matrix, W - t WB, so each P slice is certified once.
    # Each R slice is certified twice: as R_of builds it, and in _same_spectrum's form, the
    # similar matrix in B's eigenbasis. The counts of the built form are R's alone.
    # The first scan point eps0 = 1e-4 is in, where rho is within about 1e-4 of 1.
    certified = {"built": 0, "same_spectrum": 0}
    past_64 = {"built": 0, "same_spectrum": 0}
    for seed in range(30):
        family = seeded_family(generator, seed, 30)
        ts = np.concatenate([[1e-4], np.linspace(0.0, 6.0 / family.rho_B, 66)[1:-1]])
        for which, build in (("P", P_of), ("R", R_of)):
            similar, similar_ok = stability._same_spectrum(family, which)[0](ts)
            stack = np.stack([build(family, t) for t in ts])
            assert similar_ok.all()  # B is positive semidefinite: no singular shift
            assert which == "R" or np.array_equal(stack, similar)
            radii = rho_stack(stack)
            for t, m, e, r in zip(ts, stack, similar, radii):
                forms = (("built", m), ("same_spectrum", e)) if which == "R" else (("same_spectrum", e),)
                for basis, cand in forms:
                    if k := stability._certified_powers(cand[None])[0]:
                        certified[basis] += 1
                        past_64[basis] += k > 64
                        assert r < 2.0 ** (-1.0 / k), (basis, seed, which, t, k)
    assert min(certified.values()) >= 1000  # the sweep is not vacuous in either form
    assert min(past_64.values()) >= 20  # nor are the powers past k = 64


def assert_certificate_changes_no_report(monkeypatch, family, scan_max, grid_steps=(None, 0.1875)):
    """The report equals the one an eigensolve at every scan point gives: bitwise, except
    for P where Be = beta e, whose walk reads the sign of rho - 1 off P's e-eigenvalue and
    the deflated rest; there it has the same classification, a T_star within bisect_tol
    and a bracket that eigensolves confirm."""
    for which in ("P", "R"):
        for grid_step in grid_steps:
            if grid_step is not None and grid_step >= scan_max:
                continue
            with monkeypatch.context() as m:
                m.setattr(stability, "_certified_powers", lambda stack: np.zeros(len(stack), dtype=int))  # certify nothing
                m.setattr(stability, "_deflate_e", lambda family, wb: None)  # and deflate nothing
                want = stability_threshold(family, which, scan_max=scan_max, grid_step=grid_step)
            got = stability_threshold(family, which, scan_max=scan_max, grid_step=grid_step)
            if which == "R" or deflation(family) is None:
                assert got == want
                continue
            assert got.classification == want.classification
            if got.bracket is not None:
                assert abs(got.T_star - want.T_star) <= got.bisect_tol
                r_lo, r_hi = rho_on_grid(family, "P", got.bracket)
                assert r_lo < 1.0 <= r_hi


@pytest.mark.parametrize("generator", ["imaging", "general_psd"])
def test_certificate_changes_no_threshold_report_on_seeded_families(monkeypatch, generator):
    for seed in range(20):
        family = seeded_family(generator, seed, 24)
        assert_certificate_changes_no_report(monkeypatch, family, 6.0 / family.rho_B)


@pytest.mark.parametrize("example", EXAMPLE_IDS)
def test_certificate_changes_no_threshold_report_on_examples(monkeypatch, example):
    assert_certificate_changes_no_report(monkeypatch, example_family(example), 20.0)


def test_certificate_changes_no_threshold_report_on_indefinite_and_non_symmetric_b(monkeypatch):
    w = validate_stochastic(W_BLUR)
    # I + 4B is singular for the indefinite B; the non-symmetric B is read in its real Schur basis.
    assert_certificate_changes_no_report(monkeypatch, make_family(w, np.diag([0.5, -0.25])), 8.0)
    assert_certificate_changes_no_report(monkeypatch, make_family(w, np.array([[0.5, 0.2], [0.1, 0.3]])), 8.0)


def test_certificate_changes_no_threshold_report_where_the_shift_fails_the_pivot_test(monkeypatch):
    # I + tB = diag(1 + t, 1) fails a 1e-13 LU pivot test from t ~ 1e13, but no shift
    # 1 + t lam is zero within the rounding of lam: every scan point is R in B's eigenbasis,
    # certified or eigensolved, and the scan reads no crossing.
    family = make_family(validate_stochastic(W_BLUR), np.diag([1.0, 0.0]))
    assert_certificate_changes_no_report(monkeypatch, family, 3e14, grid_steps=(None,))
    assert stability_threshold(family, "R", scan_max=3e14).classification == "stable_throughout_scan"


def counted_certificates(monkeypatch):
    """A list that gets the number of slices of every _certified_powers call."""
    sizes = []
    real = stability._certified_powers

    def counting(stack):
        sizes.append(len(stack))
        return real(stack)

    monkeypatch.setattr(stability, "_certified_powers", counting)
    return sizes


def test_threshold_certifies_the_remark_1_7_scan_in_one_call(monkeypatch):
    # n = 2 puts 8192 points in a block, so the scan eps0, eps0 + 3/2048, ... <= 3 is one block.
    sizes = counted_certificates(monkeypatch)
    report, calls, _ = recorded_threshold(monkeypatch, example_family("remark_1_7"), "P", scan_max=3.0)
    assert report.classification == "stable_then_unstable" and abs(report.T_star - 2.0) < 1e-6
    # One call for the whole scan (1367 one-point calls before). Be = e, so the walk then
    # certifies the 1x1 deflated rest of P at the two points below 2 that it needs, and eigensolves none.
    assert sizes == [2048, 1, 1] and calls == []


def test_threshold_crossing_at_the_first_point_of_a_block(monkeypatch):
    # P of the blur pair crosses at t = 2. With the grid below, the last point of the
    # first 8192-point block sits just below 2 and is certified, and the first point
    # of the second block is the crossing, so the secant needs rho at a point of the
    # block before, which the scan never eigensolved.
    # Deflation is off, so the walk eigensolves where the scan left off.
    monkeypatch.setattr(stability, "_deflate_e", lambda family, wb: None)
    family = blur_family()
    block = stability._block_points(family.n)
    eps0 = 1e-4
    grid_step = (2.0 - eps0) / (block - 0.5)
    scan, t = [], eps0
    for _ in range(block + 1):
        scan.append(t)
        t += grid_step
    assert scan[block - 1] < 2.0 < scan[block]
    with monkeypatch.context() as m:
        sizes = counted_certificates(m)
        report, calls, _ = recorded_threshold(m, family, "P", scan_max=3.0, grid_step=grid_step, eps0=eps0)
    assert len(sizes) == 2 and sizes[0] == block
    assert calls[0][0] == scan[block] and calls[0][1] >= 1.0  # the crossing is the first point eigensolved
    assert calls[1][0] == scan[block - 1] and calls[1][1] < 1.0  # then the certified point before it
    assert report.classification == "stable_then_unstable" and report.bracket[0] >= scan[block - 1]
    assert_certificate_changes_no_report(monkeypatch, family, 3.0, grid_steps=(grid_step,))


@pytest.mark.parametrize("proved_slice, before_crossing", [(1, "eigensolved"), (2, "proved")])
def test_threshold_walk_eigensolves_only_the_unproved_points_up_to_the_crossing(monkeypatch, proved_slice, before_crossing):
    # n = 24 puts 56 points in a block, so the 257-point scan is five blocks. A stand-in
    # certificate proves every third slice of each block, starting at `proved_slice`.
    # P crosses at scan point 171, the fourth point of the fourth block. Be = beta e here, so
    # deflation is off: the walk is eigensolved, as for a B without equal row sums.
    monkeypatch.setattr(stability, "_deflate_e", lambda family, wb: None)
    n = 24
    rng = np.random.default_rng([801, n])
    w = kernel_denoiser(rng.uniform(0.0, 1.0, size=n), bandwidth=0.5)
    family = make_family(w, gram(build_deblur(rng.uniform(0.05, 1.0, size=3), n)))
    block = stability._block_points(n)
    eps0, grid_step = 1e-4, 0.0117
    scan, t = [], eps0
    while t <= 3.0:
        scan.append(t)
        t += grid_step
    assert block == 56 and len(scan) > 3 * block
    radii = rho_on_grid(family, "P", scan)
    proved = np.arange(len(scan)) % block % 3 == proved_slice
    crossing = next(k for k in range(len(scan)) if not proved[k] and radii[k] >= 1.0)
    assert crossing == 3 * block + 3 and proved[crossing - 1] == (before_crossing == "proved")

    def certify_every_third(stack):
        return np.where(np.arange(len(stack)) % 3 == proved_slice, 2, 0)

    monkeypatch.setattr(stability, "_certified_powers", certify_every_third)
    report, calls, scan_points = recorded_threshold(monkeypatch, family, "P", scan_max=3.0, grid_step=grid_step, eps0=eps0)
    walked = [t for k, t in enumerate(scan[: crossing + 1]) if not proved[k]]
    assert [t for t, _ in calls[:scan_points]] == walked  # bitwise the running sum, in grid order
    refined = [t for t, _ in calls[scan_points:]]
    assert all(scan[crossing - 1] <= t < scan[crossing] for t in refined)  # nothing past the crossing
    assert [t for t, _ in calls].count(scan[crossing - 1]) <= 1
    assert (refined[:1] == [scan[crossing - 1]]) == (before_crossing == "proved")  # a proved point is solved for the secant
    assert report.classification == "stable_then_unstable"
    assert scan[crossing - 1] <= report.bracket[0] < report.bracket[1] <= scan[crossing]


def imaging_family_64():
    # A kernel denoiser with a 3-tap circular blur, as the imaging-large benchmark
    # builds at n = 256 and 400.
    n = 64
    rng = np.random.default_rng([801, n])
    w = kernel_denoiser(rng.uniform(0.0, 1.0, size=n), bandwidth=0.5)
    return make_family(w, gram(build_deblur(rng.uniform(0.05, 1.0, size=3), n)))


def test_certificate_changes_no_threshold_report_on_an_imaging_family(monkeypatch):
    assert_certificate_changes_no_report(monkeypatch, imaging_family_64(), 3.0, grid_steps=(0.1875,))


def test_certificate_spares_the_eigensolves_of_an_imaging_scan(monkeypatch):
    # Without the certificate the scan eigensolves every point: 14 for P and 16 for R.
    # B is symmetric, so R is read in its eigenbasis: no Schur form and no solve.
    family = imaging_family_64()
    for which, classification in [
        ("P", "stable_then_unstable"),  # Be = beta e: the crossing and its refinement read off 1 - t beta
        ("R", "stable_throughout_scan"),  # eps0, where rho(R) is within 1e-4 of 1, certifies too
    ]:
        with monkeypatch.context() as m:
            forbid_schur_and_solves(m)
            budget_builders(m, 2)  # the two 8-point blocks of the scan
            report, calls, _ = recorded_threshold(m, family, which, scan_max=3.0, grid_step=0.1875)
        assert report.classification == classification
        assert calls == []


def ci_imaging_pair():
    # The n = 64 pair of CI's thread-count step.
    rng = np.random.default_rng(64)
    w = kernel_denoiser(rng.uniform(0.0, 1.0, size=64), 0.5)
    return w, gram(build_deblur(rng.uniform(0.05, 1.0, size=3), 64))


@pytest.mark.parametrize("which, eigensolves", [("P", 0), ("R", 0)])
def test_threshold_eigensolve_budget_on_the_ci_imaging_pair(monkeypatch, which, eigensolves):
    # eps0, where rho is 1 - O(1e-4), certifies only past k = 64: before that, P took
    # 5 eigensolves and builds and R 1 of each. Be = beta e: P's crossing and its refinement
    # read off 1 - t beta and the deflated rest of P, where P took 4 before.
    family = make_family(*ci_imaging_pair())
    budget_builders(monkeypatch, 2 + eigensolves)  # the two 8-point blocks, and one build per eigensolved point
    report, calls, _ = recorded_threshold(monkeypatch, family, which, scan_max=3.0, grid_step=0.1875)
    assert report.classification == ("stable_then_unstable" if which == "P" else "stable_throughout_scan")
    assert len(calls) == eigensolves and all(math.isfinite(r) for _, r in calls)


@pytest.mark.parametrize("case", ["b_not_exactly_symmetric", "eigh_fails"])
def test_p_threshold_builds_only_the_points_it_eigensolves(monkeypatch, case):
    # P is W - t WB whatever B is, so besides the two 8-point scan blocks, the only builds
    # are the points that the walk eigensolves: 4, or none where Be = beta e. When P went
    # through B's eigenbasis, a B that is not exactly symmetric, or an eigh that fails, built
    # each 8-point block for the certificate: 6 builds.
    w, b = ci_imaging_pair()
    if case == "b_not_exactly_symmetric":
        b = b.copy()
        b[0, 1] += 1e-3
    family = make_family(w, b)
    eigensolves = 4 if case == "b_not_exactly_symmetric" else 0
    if case == "eigh_fails":

        def eigh_fails(b):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", eigh_fails)
    budget_builders(monkeypatch, 2 + eigensolves)
    report, calls, _ = recorded_threshold(monkeypatch, family, "P", scan_max=3.0, grid_step=0.1875)
    assert report.classification == "stable_then_unstable"
    assert len(calls) == eigensolves


# -- P's e-eigenvalue where Be = beta e ------------------------------------------


def test_p_threshold_of_a_non_symmetric_b_with_equal_row_sums_reads_off_its_e_eigenvalue(monkeypatch):
    # Be = 0.7e. The deflated rest of P(t) is W's other eigenvalue -0.3 times
    # 1 - 0.4t (0.4 is B's other eigenvalue), so P crosses through -1 at t = 2/0.7.
    family = make_family(validate_stochastic(W_BLUR), np.array([[0.5, 0.2], [0.1, 0.6]]))
    beta, w2, w2b2 = deflation(family)
    assert abs(beta - 0.7) <= 1e-15
    assert np.allclose(w2, [[-0.3]], rtol=0, atol=1e-15) and np.allclose(w2b2, [[-0.12]], rtol=0, atol=1e-15)
    report, calls, _ = recorded_threshold(monkeypatch, family, "P", scan_max=4.0)
    assert calls == []
    assert report.classification == "stable_then_unstable"
    assert abs(report.T_star - 2.0 / 0.7) <= report.bisect_tol
    assert_certificate_changes_no_report(monkeypatch, family, 4.0)


@pytest.mark.parametrize("case", ["b01_plus_1e-3", "row_sum_plus_1e-9"])
def test_p_threshold_where_row_sums_differ_is_eigensolved_as_before(monkeypatch, case):
    # CI's non-symmetric n = 64 pair, and a symmetric B whose first row sum is off by 1e-9:
    # no deflation, so the walk is the parent's and eigensolves the crossing, the point
    # before it and two secant points.
    w, b = ci_imaging_pair()
    b = b.copy()
    if case == "b01_plus_1e-3":
        b[0, 1] += 1e-3
    else:
        b[0, 0] += 1e-9
    family = make_family(w, b)
    assert deflation(family) is None
    report, calls, _ = recorded_threshold(monkeypatch, family, "P", scan_max=3.0, grid_step=0.1875)
    assert report.classification == "stable_then_unstable"
    assert len(calls) == 4


def test_p_threshold_of_remark_1_3_stays_unstable_from_start(monkeypatch):
    # Be = e, but W is the swap, so the deflated rest of P(t) is -(1 + t): it never certifies,
    # and eps0 is eigensolved.
    family = example_family("remark_1_3_P")
    assert deflation(family) is not None
    report, calls, _ = recorded_threshold(monkeypatch, family, "P", scan_max=3.0)
    assert report.classification == "unstable_from_start"
    assert len(calls) == 1 and calls[0][1] > 1.0


def same_spectrum_at(family, which, t):
    """The one-point case of _same_spectrum: its matrix at t, or None at a singular shift."""
    m, ok = stability._same_spectrum(family, which)[0](np.array([t]))
    return m[0] if ok[0] else None


def test_eigenbasis_operator_is_similar_and_guarded():
    # P is W - t WB for every B: symmetric, indefinite or not symmetric. R is the similar matrix
    # in B's real Schur basis at every t (its eigenbasis for an exactly symmetric B), guarded only
    # where a shift 1 + t lam is zero within the rounding of lam, and R_of turns it back by Q.
    w = validate_stochastic(W_BLUR)
    indefinite = make_family(w, np.diag([0.5, -0.25]))  # I + 4B is singular
    non_symmetric = make_family(w, np.array([[0.5, 0.2], [0.1, 0.3]]))
    for family in (blur_family(), indefinite, non_symmetric):
        wb = family.W.matrix @ family.B
        for t in (0.5, 1.9, 2.1, 17.9):
            p = same_spectrum_at(family, "P", t)
            assert np.array_equal(p, family.W.matrix - t * wb)  # one product, for any t
            assert np.array_equal(p, P_of(family, t))  # the matrix P_of builds
            factored = family.W.matrix @ (np.eye(2) - t * family.B)
            assert np.allclose(p, factored, rtol=0, atol=1e-14)
            want = np.sort_complex(np.linalg.eigvals(factored))
            assert np.allclose(np.sort_complex(np.linalg.eigvals(p)), want, rtol=0, atol=1e-12)
    eye = np.eye(2)
    for family in (indefinite, non_symmetric):
        q = _R_schur(family.W.matrix, family.B)[1]
        for t in (0.5, 1.9, 2.1, 3.9, 4.1, 17.9):
            similar = same_spectrum_at(family, "R", t)
            assert np.array_equal(q @ similar @ q.T, R_of(family, t))
            built = eye - w.matrix + np.linalg.solve(eye + t * family.B, 2.0 * w.matrix - eye)
            want = np.sort_complex(np.linalg.eigvals(built))
            assert np.allclose(np.sort_complex(np.linalg.eigvals(similar)), want, rtol=0, atol=1e-12)
    assert not np.array_equal(same_spectrum_at(indefinite, "R", 0.5), R_of(indefinite, 0.5))  # the eigenbasis form
    assert same_spectrum_at(indefinite, "R", 4.0) is None
    with pytest.raises(SingularShiftError):
        R_of(indefinite, 4.0)
    wide_family = make_family(w, np.diag([1.0, 0.0]))
    for t in (1e9, 1e11, 1e13):  # no zero shift, though I + tB fails a 1e-13 LU pivot test from 1e13
        similar = same_spectrum_at(wide_family, "R", t)
        assert not np.array_equal(similar, R_of(wide_family, t))  # the eigenbasis form
        want = np.sort(np.linalg.eigvals(R_of(wide_family, t)))
        assert np.allclose(np.sort(np.linalg.eigvals(similar)), want, rtol=0, atol=1e-12)


def ci_non_symmetric_pair():
    # CI's n = 64 pair with B[0, 1] += 1e-3 (B64ns).
    w, b = ci_imaging_pair()
    b = b.copy()
    b[0, 1] += 1e-3
    return w, b


@pytest.mark.parametrize(
    "pair, ts",
    [
        ((validate_stochastic(W_BLUR), np.diag([0.5, -0.25])), [0.5, 4.0, 1.9, 3.0, 2.0, 4.0]),  # I + 4B is singular
        ((validate_stochastic(W_BLUR), np.diag([1.0, 0.0])), [1e9, 1e13, 1e11, 1.0, 3e14]),  # past an LU pivot test
        ((validate_stochastic(W_BLUR), np.array([[0.5, 0.2], [0.1, 0.3]])), [0.5, 1.0, 17.9]),  # not symmetric
        (ci_non_symmetric_pair(), [0.1875, 3.0, 1.5, 0.75, 2.8125]),
    ],
    ids=["indefinite", "wide", "non_symmetric", "non_symmetric_64"],
)
@pytest.mark.parametrize("which", ["P", "R"])
def test_same_spectrum_of_a_block_is_its_points_one_by_one(which, pair, ts):
    # Each slice and its singular-shift mask are bitwise the one-point case, whatever the
    # other points of the block are.
    family = make_family(*pair)
    b = family.B
    build = stability._same_spectrum(family, which)[0]
    m, ok = build(np.array(ts))
    assert m.shape == (len(ts), family.n, family.n)
    for k, t in enumerate(ts):
        one, one_ok = build(np.array([t]))
        assert np.array_equal(m[k], one[0]) and ok[k] == one_ok[0], t
    assert [t for t, good in zip(ts, ok) if not good] == ([4.0, 4.0] if which == "R" and b[1, 1] < 0 else [])


def test_singular_shift_rule_of_a_symmetric_b():
    # A shift 1 + t lam is singular only where it is zero within n eps (1 + t max|lam|),
    # the rounding of lam: at t = 4 for diag(0.5, -0.25), and nowhere up to 3e14 for diag(1, 0),
    # whose I + tB fails a 1e-13 LU pivot test from t = 1e13.
    w = validate_stochastic(W_WIDE)
    indefinite = make_family(w, np.diag([0.5, -0.25]))
    wide = make_family(w, np.diag([1.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        radii = rho_on_grid(indefinite, "R", np.linspace(0.0, 8.0, 33))
        near = rho_on_grid(indefinite, "R", [3.9, 4.1])
        wide_radii = rho_on_grid(wide, "R", [1e13, 1e14, 3e14])
    assert np.flatnonzero(np.isinf(radii)).tolist() == [16] and np.isfinite(np.delete(radii, 16)).all()
    np.testing.assert_allclose(near, [rho(R_of(indefinite, t)) for t in (3.9, 4.1)], rtol=1e-12, atol=0)
    np.testing.assert_allclose(wide_radii, 0.83666, rtol=0, atol=1e-5)


def test_a_singular_shift_is_neither_eigensolved_nor_squared(monkeypatch):
    # I + 4B = diag(3, 0) is singular: its slice is masked out of every eigensolve and certificate.
    family = make_family(validate_stochastic(W_BLUR), np.diag([0.5, -0.25]))
    slices = {"rho_stack": 0, "_certified_powers": 0}
    for name in slices:

        def counting(stack, name=name, real=getattr(stability, name)):
            slices[name] += len(stack)
            return real(stack)

        monkeypatch.setattr(stability, name, counting)
    radii = rho_on_grid(family, "R", np.linspace(0.0, 8.0, 33))
    assert np.isinf(radii[16]) and np.isfinite(np.delete(radii, 16)).all()
    assert slices["rho_stack"] == 32
    slices["rho_stack"] = 0
    # One block of 11 scan points, 0.25, 1.0, ..., 7.75; the sixth is t = 4.
    report = stability_threshold(family, "R", scan_max=8.0, grid_step=0.75, eps0=0.25)
    assert report.classification == "stable_then_unstable"
    assert slices["_certified_powers"] == 10


W_WIDE = np.array([[0.3, 0.7], [0.6, 0.4]])


def test_R_of_the_wide_family_is_stable_past_the_pivot_test():
    # I + tB = diag(1 + t, 1) fails a 1e-13 relative LU pivot test from t = 1e13 on, yet R(t) is
    # well defined there and its radius stays near sqrt(0.7); R_of raised SingularShiftError.
    family = make_family(validate_stochastic(W_WIDE), np.diag([1.0, 0.0]))
    w, eye = family.W.matrix, np.eye(2)
    for t in (1e13, 1e14, 3e14):
        r = eye - w + np.linalg.solve(eye + t * family.B, 2.0 * w - eye)
        assert abs(rho(r) - 0.83666) < 1e-5, t
        assert abs(rho(R_of(family, t)) - 0.83666) < 1e-5, t


def test_R_threshold_of_the_wide_family_reports_no_crossing_that_the_pivot_test_makes():
    family = make_family(validate_stochastic(W_WIDE), np.diag([1.0, 0.0]))
    report = stability_threshold(family, "R", scan_max=3e14)
    assert report.classification == "stable_throughout_scan", report


def test_R_threshold_of_a_non_symmetric_wide_family_reports_no_crossing():
    # I + tB is upper triangular with pivots 1 + t and 1, so an LU pivot test refused t = 1e13,
    # 1e14 and 3e14 and the scan read a crossing at 9990009990008.988. In B's real Schur basis
    # no shift is singular, and rho(R) stays near 0.83630.
    family = make_family(validate_stochastic(W_WIDE), np.array([[1.0, 1e-3], [0.0, 0.0]]))
    report = stability_threshold(family, "R", scan_max=3e14)
    assert report.classification == "stable_throughout_scan", report
    np.testing.assert_allclose(rho_on_grid(family, "R", [1e13, 1e14, 3e14]), 0.83630, rtol=0, atol=1e-5)


def test_R_threshold_of_remark_1_3_reports_no_crossing_where_rho_is_one():
    # W is the 2x2 swap and B = E/2: rho(R(t)) = 1 at every t, so no scan point is unstable.
    # Rounding still decides this verdict: R in B's eigenbasis reads rho = 1 - 2^-52 at every t,
    # where the built R(t) read 1 +- 1 ulp.
    family = example_family("remark_1_3_R")
    report = stability_threshold(family, "R", scan_max=3.0)
    assert report.classification != "stable_then_unstable", report
    assert np.abs(rho_on_grid(family, "R", np.linspace(1e-4, 3.0, 64)) - 1.0).max() <= 4 * np.finfo(float).eps


def test_threshold_falls_back_to_the_schur_form_when_eigh_fails(monkeypatch):
    want = [stability_threshold(blur_family(), which, scan_max=3.0) for which in ("P", "R")]
    schurs = []
    real_schur = scipy.linalg.schur

    def eigh_fails(b):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", eigh_fails)
    monkeypatch.setattr(scipy.linalg, "schur", lambda b, **kwargs: schurs.append(b) or real_schur(b, **kwargs))
    assert [stability_threshold(blur_family(), which, scan_max=3.0) for which in ("P", "R")] == want
    assert len(schurs) == 1  # R's one Schur form


def never_called(name):
    def fails(*args, **kwargs):
        raise AssertionError(f"{name} called")

    return fails


def forbid_schur_and_solves(monkeypatch):
    for module, name in ((scipy.linalg, "schur"), (scipy.linalg, "solve"), (np.linalg, "solve")):
        monkeypatch.setattr(module, name, never_called(f"{module.__name__}.{name}"))


def test_r_threshold_of_a_symmetric_b_runs_one_eigh_and_builds_no_point(monkeypatch):
    # Every scan, walk and secant point of R is a slice of one eigenbasis form: one eigh of B,
    # no Schur form and no solve.
    family = make_family(validate_stochastic(W_BLUR), np.diag([3.0, 0.5]))
    eighs = []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda b: eighs.append(b) or real_eigh(b))
    forbid_schur_and_solves(monkeypatch)
    report, calls, _ = recorded_threshold(monkeypatch, family, "R", scan_max=20.0)
    assert report.classification == "stable_then_unstable" and len(calls) >= 3
    assert len(eighs) == 1


class CountedProducts(np.ndarray):
    """A B that counts the matrix products it takes part in."""

    products = 0

    def __matmul__(self, other):
        CountedProducts.products += 1
        return np.asarray(self) @ np.asarray(other)

    def __rmatmul__(self, other):
        CountedProducts.products += 1
        return np.asarray(other) @ np.asarray(self)


@pytest.mark.parametrize("deflated", [True, False], ids=["be_equals_beta_e", "unequal_row_sums"])
def test_p_threshold_forms_wb_once(monkeypatch, deflated):
    # The scan, the walk, the secant and the deflation of P's e-eigenvalue all read the one WB
    # of `_same_spectrum`; the deflation formed it a second time before.
    family = blur_family() if deflated else make_family(validate_stochastic(W_BLUR), np.diag([3.0, 0.5]))
    assert (deflation(family) is not None) == deflated
    family = dataclasses.replace(family, B=family.B.view(CountedProducts))
    CountedProducts.products = 0
    report, calls, _ = recorded_threshold(monkeypatch, family, "P", scan_max=3.0)
    assert report.classification == "stable_then_unstable" and (calls == []) == deflated
    assert CountedProducts.products == 1


@pytest.mark.parametrize("which", ["P", "R"])
@pytest.mark.parametrize(
    "b",
    [H_BLUR.T @ H_BLUR, np.diag([0.5, -0.25]), np.array([[0.5, 0.2], [0.1, 0.3]])],
    ids=["symmetric", "indefinite", "non_symmetric"],
)
def test_threshold_eigensolves_only_slices_of_its_same_spectrum(monkeypatch, which, b):
    # The threshold makes one `_same_spectrum` closure, and every matrix it eigensolves is a
    # slice that closure gave.
    made, eigensolved = [], []
    real_stack = stability.rho_stack

    def recorded(build):
        made.append([])

        def recording(ts):
            m, ok = build(ts)
            made[-1].extend(m[ok])
            return m, ok

        return recording

    def stack(m):
        eigensolved.extend(m)
        return real_stack(m)

    wrap_same_spectrum(monkeypatch, recorded)
    monkeypatch.setattr(stability, "rho_stack", stack)
    # Every case crosses before 20 (R of the non-symmetric B near t = 17.9), so the
    # crossing and its refinement are eigensolved even where each scan point certifies,
    # except for P of the symmetric B, whose Be = e puts its crossing on 1 - t.
    family = make_family(validate_stochastic(W_BLUR), b)
    report = stability_threshold(family, which, scan_max=20.0, grid_step=0.1875)
    assert report.classification == "stable_then_unstable"
    assert len(made) == 1
    assert all(any(np.array_equal(m, s) for s in made[0]) for m in eigensolved)
    if which == "P" and deflation(family) is not None:
        assert eigensolved == []
    else:
        assert len(eigensolved) >= 1


def test_reference_thresholds_for_r():
    family_b1 = make_family(validate_stochastic(W_BLUR), np.diag([3.0, 0.5]))
    family_b2 = make_family(validate_stochastic(W_BLUR), np.array([[0.4, -0.1], [-0.1, 0.2]]))
    t1 = stability_threshold(family_b1, "R", scan_max=20.0).T_star
    t2 = stability_threshold(family_b2, "R", scan_max=20.0).T_star
    assert t1 == pytest.approx(4.777, abs=0.01)
    assert t2 == pytest.approx(11.904, abs=0.01)


# -- theorem bound checks -------------------------------------------------------


def test_bound_check_passes_for_inpainting_family():
    rng = np.random.default_rng(0)
    m = rng.uniform(0.05, 1.0, size=(5, 5))
    w = validate_stochastic(m / m.sum(axis=1, keepdims=True))
    family = make_family(w, gram(build_inpainting([1, 0, 1, 1, 0])))
    assert 2.0 / family.rho_B == pytest.approx(2.0)
    assert check_theorem_bound(family, "inpainting", grid_steps=32) is None


def test_bound_check_rejects_unmet_hypotheses():
    with pytest.raises(ValueError, match=re.escape("Be exceeds rho(B)e (margin ")):
        check_theorem_bound(subsampled_family(), "conjecture")


def test_bound_check_reports_p_before_r_at_the_same_point(monkeypatch):
    # Both rho(P) and rho(R) exceed 1 at the first grid point, R by slightly more.
    # remark_1_6 has an indefinite B, so the hypothesis check is switched off.
    monkeypatch.setattr(stability, "_check_hypotheses", lambda family, theorem: None)
    family = example_family("remark_1_6")
    t, r, which = check_theorem_bound(family, "conjecture")
    assert which == "P"
    assert t == 2.0 / family.rho_B / 65
    assert t == pytest.approx(0.0019275, abs=1e-7)
    assert r == pytest.approx(1.0000638, abs=1e-7)
    assert rho_on_grid(family, "R", [t])[0] > r


def test_bound_check_reports_the_earliest_failing_grid_point_of_either_operator(monkeypatch):
    # R fails from grid point 15 on, P only from 62; B is indefinite, so the hypothesis check is switched off.
    monkeypatch.setattr(stability, "_check_hypotheses", lambda family, theorem: None)
    family = make_family(validate_stochastic([[0.1, 0.9], [0.6, 0.4]]), [[0.8, 0.8], [0.8, -0.3]])
    ts = stability._open_grid(2.0 / family.rho_B, 64)
    rho_p, rho_r = rho_on_grid(family, "P", ts), rho_on_grid(family, "R", ts)
    assert np.flatnonzero(rho_p >= 1.0 - 1e-10)[0] == 62
    assert np.flatnonzero(rho_r >= 1.0 - 1e-10)[0] == 15
    assert check_theorem_bound(family, "conjecture") == (ts[15], rho_r[15], "R")


def test_bound_check_rejects_unknown_theorem():
    with pytest.raises(ValueError):
        check_theorem_bound(blur_family(), "nonsense")


def test_bound_check_hypothesis_gate_by_theorem():
    rng = np.random.default_rng(1)
    m = rng.uniform(0.05, 1.0, size=(4, 4))
    w = validate_stochastic(m / m.sum(axis=1, keepdims=True))
    family = make_family(w, np.diag([1.0, 0.5, 0.0, 0.2]))
    check_theorem_bound(family, "inpainting", grid_steps=8)
    with pytest.raises(ValueError, match="W is not doubly stochastic"):
        check_theorem_bound(family, "dbl_stochastic", grid_steps=8)
    with pytest.raises(ValueError, match=re.escape("B is not of the form alpha*I + beta*E")):
        check_theorem_bound(family, "alpha_beta", grid_steps=8)


# -- the encoded hypotheses admit counterexamples --------------------------------
#
# `conjecture_hypotheses` encodes four hypotheses: W primitive, B PSD,
# Be <= rho(B)e and pi^T B e > 0. The instances below meet all four, and
# rho(P(t)) still reaches 1 inside (0, 2/rho(B)). Whether the paper's full
# technical conditions exclude them is not decided here.


def test_encoded_hypotheses_admit_counterexamples_instance_meets_all_four():
    hyp = conjecture_hypotheses(encoded_counterexample_family())
    assert hyp.all_met()
    assert hyp.margin == pytest.approx(1.128e-3, abs=1e-6)
    assert hyp.pibe == pytest.approx(0.987, abs=1e-3)


def test_encoded_hypotheses_admit_counterexamples_bound_check_fails_on_p():
    t, r, which = check_theorem_bound(encoded_counterexample_family(), "conjecture")
    assert which == "P"
    assert t == pytest.approx(1.7230286839087774, rel=1e-12)
    assert r == pytest.approx(1.0295947293073262, rel=1e-9)


def test_encoded_hypotheses_admit_counterexamples_fuzzer_verdict_is_violation():
    hyp, verdict, certificate = evaluate_conjecture_family(encoded_counterexample_family())
    assert hyp.all_met()
    assert verdict == "violation"
    t, r, which = certificate
    assert which == "P"
    assert t == pytest.approx(1.6964505594071273, rel=1e-12)
    assert r == pytest.approx(1.0030917090452751, rel=1e-9)


def test_encoded_hypotheses_admit_counterexamples_r_stays_stable():
    family = encoded_counterexample_family()
    report = stability_threshold(family, "R", scan_max=2.0 / family.rho_B)
    assert report.classification == "stable_throughout_scan"


@pytest.mark.parametrize("seed", [523, 1869, 3394, 3707])
def test_encoded_hypotheses_admit_counterexamples_from_the_fuzzer(seed):
    result = conjecture_trial(3, "general_psd", seed)
    assert result.hypotheses.all_met()
    assert result.verdict == "violation"
    t, r, which = result.certificate
    assert which == "P"
    assert r >= 1.0 - 1e-12


@pytest.mark.parametrize("seed", [523, 1869, 3394, 3707])
def test_P_and_R_of_the_fuzzer_counterexamples_cross_together_through_plus_one(seed):
    # If P(t)u = u, then v = (I - tB)u is not 0 and R(t)v = v, and the converse holds the same way,
    # so P and R share every +1 crossing.
    family = stability._general_psd_instance(np.random.default_rng(seed), 3)
    reports = {}
    for which, build in (("P", P_of), ("R", R_of)):
        report = stability_threshold(family, which, scan_max=4.0 / family.rho_B, bisect_tol=1e-12)
        assert report.classification == "stable_then_unstable"
        eigs = np.linalg.eigvals(build(family, report.bracket[1]))
        assert abs(eigs[np.argmax(np.abs(eigs))] - 1.0) <= 1e-9
        reports[which] = report
    assert abs(reports["P"].T_star - reports["R"].T_star) <= 1e-12


# -- slope checks -----------------------------------------------------------------


def test_slope_check_counterexample():
    result = slope_check(counterexample_family(), "P", h=1e-5)
    assert result.predicted == pytest.approx(1 / 30, abs=1e-12)
    assert result.abs_error <= 1e-4


def test_slope_check_blur_family_both_operators():
    family = make_family(validate_stochastic(W_BLUR), H_BLUR @ H_BLUR)
    for which in ("P", "R"):
        result = slope_check(family, which, h=1e-5)
        assert result.predicted == pytest.approx(-1.0, abs=1e-12)
        assert result.abs_error <= 1e-4


def test_slope_check_zero_rowsum_family_is_flat():
    rng = np.random.default_rng(2)
    m = rng.uniform(0.05, 1.0, size=(4, 4))
    w = validate_stochastic(m / m.sum(axis=1, keepdims=True))
    family = make_family(w, random_zero_rowsum(rng, 4))
    result = slope_check(family, "P", h=1e-5)
    assert result.predicted == pytest.approx(0.0, abs=1e-12)
    assert rho(P_of(family, 1e-5)) >= 1.0 - 1e-12


# -- conjecture trials and campaigns ---------------------------------------------


def test_evaluate_family_detects_unmet_hypotheses():
    hyp, verdict, certificate = evaluate_conjecture_family(subsampled_family())
    assert verdict == "hypotheses_unmet"
    assert certificate is None
    assert not hyp.be_bounded_by_rho


def test_evaluate_family_passes_blur_pair():
    hyp, verdict, certificate = evaluate_conjecture_family(blur_family())
    assert verdict == "pass"
    assert hyp.all_met()
    assert certificate is None


def test_trial_is_deterministic():
    a = conjecture_trial(5, "general_psd", seed=123)
    b = conjecture_trial(5, "general_psd", seed=123)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)


def test_trial_and_suite_records_survive_a_pickle_round_trip():
    # The --workers pool returns each trial record through pickle; the records are slotted.
    trial = conjecture_trial(3, "general_psd", seed=523)
    assert trial.verdict == "violation"
    instance = run_suite("alpha_beta", 1)[0][0]
    for record in (trial, trial.hypotheses, instance):
        assert not hasattr(record, "__dict__")
        assert pickle.loads(pickle.dumps(record)) == record


def test_trial_rejects_unknown_generator():
    with pytest.raises(ValueError):
        conjecture_trial(4, "unknown", seed=0)


def test_trial_verdicts_are_wellformed():
    for seed in range(8):
        result = conjecture_trial(4, "imaging", seed=seed)
        assert result.verdict in ("pass", "violation", "hypotheses_unmet")
        if result.verdict == "violation":
            t, r, which = result.certificate
            assert 0 < t < 2.0 and r >= 1.0 - 1e-12 and which in ("P", "R")
        if result.verdict == "pass":
            assert result.hypotheses.all_met()


def test_campaign_is_worker_invariant():
    results_1, summary_1 = run_campaign(trials=24, n_range=(2, 5), base_seed=42, workers=1)
    results_2, summary_2 = run_campaign(trials=24, n_range=(2, 5), base_seed=42, workers=2)
    assert [dataclasses.asdict(r) for r in results_1] == [dataclasses.asdict(r) for r in results_2]
    assert summary_1 == summary_2
    assert summary_1.trials == 24
    assert summary_1.passes + summary_1.violations + summary_1.hypotheses_unmet == 24


@pytest.fixture
def pool_sizes(monkeypatch):
    # A pool forks all max_workers processes at the first submit; this fake records
    # max_workers, maps serially and starts none.
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(stability, "ProcessPoolExecutor", SerialPool)
    return started


def test_campaign_starts_no_more_workers_than_trials(pool_sizes):
    started = pool_sizes
    results, summary = run_campaign(trials=2, n_range=(2, 3), base_seed=8, workers=5000)
    assert started == [2]
    assert summary.trials == 2 and [r.seed for r in results] == [8, 9]
    run_campaign(trials=1, n_range=(2, 3), base_seed=8, workers=8)
    assert started == [2]


def test_campaign_starts_no_more_workers_than_usable_cpus(pool_sizes, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    results, summary = run_campaign(trials=6, n_range=(2, 3), base_seed=8, workers=1000)
    assert pool_sizes == [2]
    assert summary.trials == 6 and [r.seed for r in results] == list(range(8, 14))
    # Without sched_getaffinity the cap is os.cpu_count(); one CPU runs serially.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    run_campaign(trials=6, n_range=(2, 3), base_seed=8, workers=1000)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    run_campaign(trials=6, n_range=(2, 3), base_seed=8, workers=1000)
    assert pool_sizes == [2, 3]


def test_campaign_rejects_zero_trials():
    with pytest.raises(ValueError):
        run_campaign(trials=0)


def test_campaign_seeds_are_sequential():
    results, _ = run_campaign(trials=5, n_range=(2, 4), base_seed=100, workers=1)
    assert [r.seed for r in results] == [100, 101, 102, 103, 104]


# -- suites ---------------------------------------------------------------------


@pytest.mark.parametrize("suite", ["dbl_stochastic", "inpainting", "alpha_beta", "conjecture"])
def test_suite_smoke_zero_failures(suite):
    results, summary = run_suite(suite, trials=20, n_max=6, base_seed=77, grid_steps=24)
    assert summary["failed"] == 0
    assert len(results) == 20
    assert all(r.passed for r in results)


def test_suite_checks_hypotheses_once_per_instance(monkeypatch):
    calls = []
    real = stability._check_hypotheses

    def counting(family, theorem):
        calls.append(theorem)
        real(family, theorem)

    monkeypatch.setattr(stability, "_check_hypotheses", counting)
    run_suite("inpainting", trials=5, n_max=5, base_seed=3, grid_steps=8)
    assert calls == ["inpainting"] * 5


def test_suite_rejects_n_max_below_two():
    with pytest.raises(ValueError, match="n_max"):
        run_suite("inpainting", trials=3, n_max=1)


def test_suite_family_is_deterministic():
    a = suite_family("dbl_stochastic", seed=9, n=5)
    b = suite_family("dbl_stochastic", seed=9, n=5)
    np.testing.assert_array_equal(a.W.matrix, b.W.matrix)
    np.testing.assert_array_equal(a.B, b.B)


def test_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        suite_family("bogus", seed=0, n=4)


# -- input checks ----------------------------------------------------------------


def singular_slope_family():
    # 1 + h b_11 = 0 exactly at h = 2**-17: I + hB is singular, so rho(R(h)) is undefined.
    return make_family(validate_stochastic(W_BLUR), np.diag([-(2.0**17), 1.0]))


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: run_campaign(1, n_range=(1, 3)), ValueError, "n_min"),
        (lambda: run_campaign(1, n_range=(4, 3)), ValueError, "n_min"),
        (lambda: run_campaign(1, generators=()), ValueError, "at least one generator"),
        (lambda: run_campaign(1, generators=("bogus",)), ValueError, "unknown generator"),
        (lambda: run_campaign(1, workers=0), ValueError, "workers"),
        (lambda: run_campaign(1, workers=-2), ValueError, "workers"),
        (lambda: check_theorem_bound(blur_family(), "conjecture", grid_steps=0), ValueError, "need grid_steps >= 1"),
        (lambda: slope_check(blur_family(), "P", h=0.0), ValueError, "h must be positive"),
        (lambda: slope_check(blur_family(), "R", h=-1e-5), ValueError, "h must be positive"),
        (lambda: slope_check(blur_family(), "R", h=math.nan), ValueError, "h must be positive and finite"),
        (lambda: slope_check(blur_family(), "Q"), ValueError, "which must be 'P' or 'R', got 'Q'"),
        (lambda: slope_check(blur_family(), "p"), ValueError, "which must be 'P' or 'R', got 'p'"),
        (lambda: slope_check(singular_slope_family(), "R", h=2.0**-17), SingularShiftError, None),
        (lambda: conjecture_trial(1, "imaging", 0), ValueError, "n must be at least 2"),
        (lambda: run_suite("inpainting", trials=0), ValueError, "trials"),
    ],
    ids=[
        "campaign_n_min_below_two",
        "campaign_n_min_above_n_max",
        "campaign_no_generator",
        "campaign_unknown_generator",
        "campaign_zero_workers",
        "campaign_negative_workers",
        "bound_check_zero_grid_steps",
        "slope_zero_h",
        "slope_negative_h",
        "slope_nan_h",
        "slope_unknown_which",
        "slope_lowercase_which",
        "slope_at_a_singular_shift",
        "trial_n_below_two",
        "suite_zero_trials",
    ],
)
def test_input_checks_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_necessity_zero_rowsum_keeps_radius_at_one():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        m = rng.uniform(0.05, 1.0, size=(n, n))
        w = validate_stochastic(m / m.sum(axis=1, keepdims=True))
        family = make_family(w, random_zero_rowsum(rng, n))
        for t in np.linspace(0.1, 2.0, 8):
            assert rho(P_of(family, float(t))) >= 1.0 - 1e-10

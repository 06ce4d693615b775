import math

import numpy as np
import pytest
import scipy.linalg

from pnpstab import stability

from pnpstab.errors import (
    AllZeroMaskError,
    DegenerateBandwidthError,
    DimensionMismatchError,
    EmptySelectionError,
    NotIrreducibleError,
    SingularShiftError,
    ZeroKernelError,
)
from pnpstab.matrices import is_positive_semidefinite, structure, validate_stochastic
from pnpstab.operators import (
    P_of,
    P_stack,
    R_of,
    R_stack,
    alpha_beta_B,
    build_deblur,
    build_inpainting,
    build_superres,
    conjecture_hypotheses,
    gram,
    kernel_affinity,
    kernel_denoiser,
    make_family,
    predicted_slope,
)
from pnpstab.repro import EXAMPLE_IDS, example_family

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
HALF_E = np.ones((2, 2)) / 2
W_CEX = np.array([[7.0, 3.0], [6.0, 4.0]]) / 10
B_CEX = np.array([[34.0, -65.0], [-65.0, 126.0]]) / 10
W_BLUR = np.array([[0.3, 0.7], [0.6, 0.4]])
H_BLUR = np.array([[0.913, 0.087], [0.087, 0.913]])


def swap_family(b):
    return make_family(validate_stochastic(SWAP), b)


def test_make_family_counterexample_slope():
    family = make_family(validate_stochastic(W_CEX), B_CEX)
    # pi^T B e = -1/30, so the predicted slope of rho at 0 is +1/30
    assert family.perron.pi @ family.B @ np.ones(2) == pytest.approx(-1 / 30, abs=1e-12)
    assert predicted_slope(family) == pytest.approx(1 / 30, abs=1e-12)


def test_remark_1_6_pibe_is_minus_one_thirtieth_to_rounding():
    # pi = (2/3, 1/3) and Be = (-3.1, 6.1), so pi^T B e = -1/30.
    assert abs(conjecture_hypotheses(example_family("remark_1_6")).pibe + 1 / 30) <= 1e-15


@pytest.mark.parametrize(
    "source, key",
    [("example", e) for e in EXAMPLE_IDS] + [(g, seed) for g in ("imaging", "general_psd") for seed in range(6)],
)
def test_predicted_slope_is_bitwise_minus_pibe(source, key):
    if source == "example":
        family = example_family(key)
    else:
        rng = np.random.default_rng(key)
        family = getattr(stability, f"_{source}_instance")(rng, int(rng.integers(2, 9)))
    assert predicted_slope(family) == -conjecture_hypotheses(family).pibe


def test_make_family_caches_rho_b():
    family = swap_family(SWAP)
    assert family.rho_B == pytest.approx(1.0, abs=1e-12)


def test_make_family_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        make_family(validate_stochastic(SWAP), np.eye(3))


def test_P_at_zero_is_w():
    family = swap_family(HALF_E)
    np.testing.assert_array_equal(P_of(family, 0.0), SWAP)


def test_P_of_swap_with_b_equal_w():
    # W(I - tW) = W - tW^2 = W - tI for the swap matrix
    family = swap_family(SWAP)
    for t in (0.1, 0.7, 2.0):
        np.testing.assert_allclose(P_of(family, t), SWAP - t * np.eye(2), atol=1e-15)


def test_P_of_identity_family_vanishes_at_one():
    family = make_family(validate_stochastic(np.eye(1)), np.eye(1))
    np.testing.assert_array_equal(P_of(family, 1.0), np.zeros((1, 1)))


def test_R_of_closed_form():
    family = swap_family(HALF_E)
    for t in (0.0, 0.5, 1.0, 3.0):
        expected = np.array([[-t, t + 2.0], [t + 2.0, -t]]) / (2.0 * (t + 1.0))
        np.testing.assert_allclose(R_of(family, t), expected, atol=1e-14)


def test_R_at_zero_is_w():
    family = make_family(validate_stochastic(W_BLUR), H_BLUR.T @ H_BLUR)
    np.testing.assert_allclose(R_of(family, 0.0), W_BLUR, atol=1e-15)


def test_R_with_identity_b_is_half_identity():
    # (I + I)X = 2W - I gives X = W - I/2, so R(1) = I - W + W - I/2 = I/2
    family = make_family(validate_stochastic(W_CEX), np.eye(2))
    np.testing.assert_allclose(R_of(family, 1.0), np.eye(2) / 2, atol=1e-14)


def test_R_raises_on_singular_shift():
    family = swap_family(SWAP)  # I + tW singular at t = 1
    with pytest.raises(SingularShiftError):
        R_of(family, 1.0)


def test_R_never_singular_for_psd_b():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = rng.uniform(0.05, 1, size=(n, n))
        w = validate_stochastic(m / m.sum(axis=1, keepdims=True))
        g = rng.normal(size=(n, n))
        family = make_family(w, g.T @ g)
        for t in (0.0, 0.5, 5.0, 50.0):
            R_of(family, t)


def test_derivative_of_P_for_swap_pair():
    # P(t) = W - tWB is affine in t, so P(1) - P(0) is dP/dt = -WB = -I
    family = swap_family(SWAP)
    np.testing.assert_array_equal(P_of(family, 1.0) - P_of(family, 0.0), -np.eye(2))


def test_derivative_of_R_for_swap_half_e():
    # B = E/2 is a projector, so (I + hB)^{-1} = I - h/(1+h) B and
    # (R(h) - R(0)) / h = -B(2W - I)/(1+h) = -B/(1+h), tending to -B(2W - I)
    family = swap_family(HALF_E)
    for h in (1e-6, 0.5, 2.0):
        np.testing.assert_allclose((R_of(family, h) - R_of(family, 0.0)) / h, -HALF_E / (1.0 + h), atol=1e-9)


def test_P_is_affine_in_t():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        m = rng.uniform(0.05, 1, size=(n, n))
        w = validate_stochastic(m / m.sum(axis=1, keepdims=True))
        family = make_family(w, rng.normal(size=(n, n)))
        t = float(rng.uniform(0, 2))
        np.testing.assert_allclose(
            P_of(family, t),
            P_of(family, 0.0) - t * (family.W.matrix @ family.B),
            rtol=0,
            atol=1e-14,
        )


def test_ones_vector_is_fixed_when_be_vanishes():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        m = rng.uniform(0.05, 1, size=(n, n))
        w = validate_stochastic(m / m.sum(axis=1, keepdims=True))
        g = rng.normal(size=(n, n))
        b = g - g.mean(axis=1, keepdims=True)  # Be = 0
        family = make_family(w, b)
        e = np.ones(n)
        t = float(rng.uniform(0.1, 2.0))
        np.testing.assert_allclose(P_of(family, t) @ e, e, atol=1e-12)
        try:
            np.testing.assert_allclose(R_of(family, t) @ e, e, atol=1e-12)
        except SingularShiftError:
            pass


def test_predicted_slope_is_minus_one_when_be_equals_e():
    family = make_family(validate_stochastic(W_BLUR), H_BLUR @ H_BLUR)
    assert predicted_slope(family) == pytest.approx(-1.0, abs=1e-12)


def test_inpainting_mask_diagonal():
    op = build_inpainting([1, 0, 1])
    np.testing.assert_array_equal(op.A, np.diag([1.0, 0.0, 1.0]))
    assert op.kind == "inpainting"


def test_inpainting_full_mask_is_identity():
    np.testing.assert_array_equal(build_inpainting([1, 1, 1, 1]).A, np.eye(4))


def test_inpainting_gram_is_idempotent():
    op = build_inpainting([1, 0, 1, 0])
    np.testing.assert_array_equal(gram(op), op.A)


def test_inpainting_rejects_empty_mask():
    with pytest.raises(AllZeroMaskError):
        build_inpainting([0, 0, 0])


def test_deblur_matches_reference_blur():
    op = build_deblur([0.913, 0.087], n=2)
    np.testing.assert_allclose(op.A, H_BLUR, atol=1e-15)


def test_deblur_unit_kernel_is_identity():
    np.testing.assert_array_equal(build_deblur([1.0], n=4).A, np.eye(4))


def test_deblur_rows_are_cyclic_shifts():
    op = build_deblur([2.0, 1.0, 1.0], n=5)
    h = op.A
    np.testing.assert_allclose(h.sum(axis=1), 1.0, atol=1e-15)
    for i in range(5):
        np.testing.assert_array_equal(h[i], np.roll(h[0], i))


def test_deblur_is_doubly_stochastic():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        op = build_deblur(rng.uniform(0.1, 1, size=int(rng.integers(1, n + 1))), n)
        e = np.ones(n)
        np.testing.assert_allclose(op.A @ e, e, atol=1e-12)
        np.testing.assert_allclose(op.A.T @ e, e, atol=1e-12)


def test_deblur_rejects_zero_kernel():
    with pytest.raises(ZeroKernelError):
        build_deblur([0.0, 0.0], n=3)


def test_superres_matches_reference_row():
    h = build_deblur([0.48, 0.52], n=2)
    op = build_superres(h, stride=2)
    np.testing.assert_allclose(op.A, [[0.48, 0.52]], atol=1e-15)
    assert op.kind == "superresolution"


def test_superres_stride_one_is_h():
    h = build_deblur([0.5, 0.25, 0.25], n=4)
    np.testing.assert_array_equal(build_superres(h, stride=1).A, h.A)


def test_superres_gram_reference_values():
    h = build_deblur([0.48, 0.52], n=2)
    b = gram(build_superres(h, stride=2))
    np.testing.assert_allclose(b, [[0.2304, 0.2496], [0.2496, 0.2704]], atol=1e-15)


def test_superres_rejects_bad_stride():
    h = build_deblur([1.0], n=3)
    with pytest.raises(EmptySelectionError):
        build_superres(h, stride=0)


def test_superres_requires_deblur_input():
    with pytest.raises(ValueError):
        build_superres(build_inpainting([1, 1]), stride=1)


def test_gram_is_symmetric_and_psd():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        op = build_deblur(rng.uniform(0.05, 1, size=int(rng.integers(1, n + 1))), n)
        b = gram(op)
        assert np.max(np.abs(b - b.T)) <= 1e-14
        assert is_positive_semidefinite(b, tol=1e-10)


def test_kernel_denoiser_constant_signal_is_uniform():
    w = kernel_denoiser(np.zeros(5), bandwidth=1.0)
    np.testing.assert_allclose(w.matrix, np.ones((5, 5)) / 5, atol=1e-15)


def test_kernel_denoiser_flat_limit():
    rng = np.random.default_rng(4)
    w = kernel_denoiser(rng.uniform(0, 1, size=6), bandwidth=1e12)
    np.testing.assert_allclose(w.matrix, np.ones((6, 6)) / 6, atol=1e-10)


def test_kernel_denoiser_two_point_closed_form():
    w = kernel_denoiser([0.0, 1.0], bandwidth=1.0)
    w12 = math.exp(-0.5) / (1.0 + math.exp(-0.5))
    np.testing.assert_allclose(w.matrix, [[1 - w12, w12], [w12, 1 - w12]], atol=1e-15)


def test_kernel_denoiser_is_stochastic_and_primitive():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        w = kernel_denoiser(rng.uniform(0, 1, size=n), bandwidth=float(rng.uniform(0.2, 2.0)))
        info = structure(w)
        assert info.primitive
        assert w.tol == 1e-12


def test_kernel_denoiser_rejects_degenerate_bandwidth():
    with pytest.raises(DegenerateBandwidthError):
        kernel_denoiser([0.0, 1e6], bandwidth=1.0)


def test_kernel_affinity_is_psd():
    rng = np.random.default_rng(6)
    k = kernel_affinity(rng.uniform(0, 1, size=8), bandwidth=0.5)
    assert is_positive_semidefinite(k, tol=1e-10)


def test_conjecture_hypotheses_subsampled_case_fails_be_bound():
    h = np.array([[0.48, 0.52], [0.52, 0.48]])
    sh = h[:1, :]
    family = make_family(validate_stochastic(np.array([[0.0, 1.0], [0.5, 0.5]])), sh.T @ sh)
    hyp = conjecture_hypotheses(family)
    assert hyp.w_primitive and hyp.b_psd and hyp.pibe_positive
    assert not hyp.be_bounded_by_rho
    assert hyp.margin == pytest.approx(0.5008 - 0.52, abs=1e-12)


def test_conjecture_hypotheses_counterexample_fails_slope_sign():
    family = make_family(validate_stochastic(W_CEX), B_CEX)
    hyp = conjecture_hypotheses(family)
    assert hyp.w_primitive and hyp.b_psd
    assert not hyp.pibe_positive
    assert hyp.pibe == pytest.approx(-1 / 30, abs=1e-12)


def test_conjecture_hypotheses_all_met_for_symmetric_blur_square():
    rng = np.random.default_rng(7)
    n = 6
    m = rng.uniform(0.05, 1, size=(n, n))
    w = validate_stochastic(m / m.sum(axis=1, keepdims=True))
    kernel = np.zeros(n)
    kernel[0], kernel[1], kernel[-1] = 0.8, 0.1, 0.1  # symmetric circulant
    h = build_deblur(np.roll(kernel, 0), n).A
    family = make_family(w, h @ h)
    hyp = conjecture_hypotheses(family)
    assert hyp.w_primitive and hyp.b_psd and hyp.be_bounded_by_rho and hyp.pibe_positive
    assert hyp.pibe == pytest.approx(1.0, abs=1e-10)


def test_alpha_beta_builder_values_and_psd():
    b = alpha_beta_B(2.0, -0.3, 4)
    np.testing.assert_allclose(b, 2.0 * np.eye(4) - 0.3 * np.ones((4, 4)))
    assert is_positive_semidefinite(b, tol=1e-12)


def test_alpha_beta_builder_rejects_negative_alpha():
    with pytest.raises(ValueError):
        alpha_beta_B(-0.1, 1.0, 3)


def test_alpha_beta_builder_rejects_nonpositive_be():
    with pytest.raises(ValueError):
        alpha_beta_B(1.0, -0.5, 2)


def test_make_family_rejects_reducible_w():
    with pytest.raises(NotIrreducibleError):
        make_family(validate_stochastic(np.eye(2)), np.eye(2))


# -- builders against an independent rebuild ----------------------------------


def assert_builders_match_rebuild(family, ts):
    """P_of/R_of are bitwise W (I - tB) and I - W + LU-solve(I + tB, 2W - I)."""
    w, b, eye = family.W.matrix, family.B, np.eye(family.n)
    for t in ts:
        t = float(t)
        assert np.array_equal(P_of(family, t), w @ (eye - t * b)), t
        shift = eye + t * b
        try:
            got = R_of(family, t)
        except SingularShiftError:
            assert np.linalg.cond(shift) > 1e12, t
            continue
        want = eye - w + scipy.linalg.lu_solve(scipy.linalg.lu_factor(shift), 2.0 * w - eye)
        assert np.array_equal(got, want), t


@pytest.mark.parametrize("seed", range(6))
def test_builders_match_rebuild_on_imaging_families(seed):
    rng = np.random.default_rng(seed)
    family = stability._imaging_instance(rng, int(rng.integers(2, 9)))
    assert_builders_match_rebuild(family, 2.0 / family.rho_B * np.arange(0, 34) / 32)


@pytest.mark.parametrize("seed", range(6))
def test_builders_match_rebuild_on_general_psd_families(seed):
    rng = np.random.default_rng(seed)
    family = stability._general_psd_instance(rng, int(rng.integers(2, 9)))
    assert_builders_match_rebuild(family, 2.0 / family.rho_B * np.arange(0, 34) / 32)


@pytest.mark.parametrize("example", EXAMPLE_IDS)
def test_builders_match_rebuild_on_examples(example):
    assert_builders_match_rebuild(example_family(example), np.linspace(0.0, 20.0, 81))


def test_stacked_builders_equal_one_point_calls_slice_by_slice():
    family = stability._imaging_instance(np.random.default_rng(5), 12)
    w, b = family.W.matrix, family.B
    ts = 2.0 / family.rho_B * np.arange(1, 301) / 301  # more points than one scan block
    p = P_stack(w, b, ts)
    r, ok = R_stack(w, b, ts)
    assert p.shape == r.shape == (ts.size, 12, 12) and ok.all()
    for k, t in enumerate(ts):
        assert np.array_equal(p[k], P_of(family, t)), t
        assert np.array_equal(r[k], R_of(family, t)), t


def test_R_stack_drops_the_singular_slice_only():
    family = make_family(validate_stochastic(W_BLUR), -np.eye(2))
    ts = np.array([0.5, 1.0, 1.5])  # I + tB = (1 - t) I vanishes at t = 1
    r, ok = R_stack(family.W.matrix, family.B, ts)
    assert ok.tolist() == [True, False, True]
    assert np.array_equal(r[0], R_of(family, 0.5))
    assert np.array_equal(r[1], R_of(family, 1.5))
    with pytest.raises(SingularShiftError):
        R_of(family, 1.0)

import warnings

import numpy as np
import pytest

from pnpstab.errors import (
    NoConvergenceError,
    NotSquareError,
    NotSymmetricError,
    SingularMatrixError,
    SingularShiftError,
)
from pnpstab.matrices import validate_stochastic
from pnpstab.operators import P_of, R_of, make_family
from pnpstab.repro import example_family
from pnpstab.spectral import (
    _certified_stable,
    eigenvalues,
    rho,
    rho_stack,
    shifted_inverse_norm,
    solve_linear,
    symmetric_eigenvalues,
)


def test_eigenvalues_of_shifted_permutation():
    # W(I - tW) with W the swap matrix equals W - tI; eigenvalues 1-t, -(1+t)
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    t = 0.5
    vals = eigenvalues(w @ (np.eye(2) - t * w))
    np.testing.assert_allclose(np.sort(vals.real), [-1.5, 0.5], atol=1e-14)
    np.testing.assert_allclose(vals.imag, 0.0, atol=1e-14)


def test_eigenvalues_of_identity():
    vals = eigenvalues(np.eye(4))
    np.testing.assert_allclose(vals, np.ones(4), atol=0)


def test_eigenvalues_of_rotation_are_conjugate_pair():
    vals = eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(np.sort(vals.imag), [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(vals.real, 0.0, atol=1e-14)


def test_eigenvalues_rejects_non_square():
    with pytest.raises(NotSquareError):
        eigenvalues(np.ones((2, 3)))


def test_conjugate_pairing_on_random_matrices():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        vals = eigenvalues(rng.normal(size=(n, n)))
        complex_vals = vals[np.abs(vals.imag) > 0]
        paired = np.sort_complex(np.conj(complex_vals))
        np.testing.assert_allclose(np.sort_complex(complex_vals), paired, rtol=1e-9)


def _quadratic_roots(m):
    tr, det = m[0, 0] + m[1, 1], m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = np.sqrt(complex(tr * tr - 4 * det))
    return np.array([(tr + disc) / 2, (tr - disc) / 2])


def _cubic_roots(m):
    # Characteristic polynomial x^3 - c2 x^2 + c1 x - c0, solved by Cardano.
    c2 = np.trace(m)
    c1 = 0.5 * (np.trace(m) ** 2 - np.trace(m @ m))
    c0 = np.linalg.det(m)
    p = c1 - c2**2 / 3.0
    q = -c0 + c2 * c1 / 3.0 - 2.0 * c2**3 / 27.0
    disc = np.sqrt(complex(q * q / 4.0 + p**3 / 27.0))
    u = (-q / 2.0 + disc) ** (1.0 / 3.0)
    if abs(u) < 1e-12:
        u = (-q / 2.0 - disc) ** (1.0 / 3.0)
    roots = []
    for k in range(3):
        w = u * np.exp(2j * np.pi * k / 3.0)
        roots.append(w - p / (3.0 * w) + c2 / 3.0 if abs(w) > 0 else c2 / 3.0)
    return np.array(roots)


def _assert_multiset_close(got, want, tol):
    remaining = list(got)
    for w in want:
        i = min(range(len(remaining)), key=lambda k: abs(remaining[k] - w))
        assert abs(remaining[i] - w) <= tol, f"no match for root {w}"
        remaining.pop(i)


def test_eigenvalues_match_quadratic_formula():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = rng.normal(size=(2, 2)) * 3
        want = _quadratic_roots(m)
        tol = 1e-8 * max(1.0, np.abs(want).max())
        _assert_multiset_close(eigenvalues(m), want, tol)


def test_eigenvalues_match_cubic_formula():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = rng.normal(size=(3, 3))
        want = _cubic_roots(m)
        tol = 1e-8 * max(1.0, np.abs(want).max())
        _assert_multiset_close(eigenvalues(m), want, tol)


def test_eigenvalue_sum_and_product_match_trace_and_det():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        m = rng.normal(size=(n, n))
        vals = eigenvalues(m)
        np.testing.assert_allclose(vals.sum().real, np.trace(m), rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(vals.sum().imag, 0.0, atol=1e-8)
        np.testing.assert_allclose(np.prod(vals).real, np.linalg.det(m), rtol=1e-8, atol=1e-8)


def test_radius_of_stochastic_matrix_is_one():
    rng = np.random.default_rng(5)
    m = rng.uniform(0.01, 1.0, size=(6, 6))
    m /= m.sum(axis=1, keepdims=True)
    assert rho(m) == pytest.approx(1.0, abs=1e-10)


def test_radius_of_zero_matrix():
    assert rho(np.zeros((3, 3))) == 0.0


def test_radius_equals_transpose_radius():
    rng = np.random.default_rng(6)
    for _ in range(30):
        m = rng.normal(size=(5, 5))
        assert abs(rho(m) - rho(m.T)) <= 1e-10


def test_symmetric_eigenvalues_of_rank_one_gram():
    sh = np.array([[0.48, 0.52]])
    vals = symmetric_eigenvalues(sh.T @ sh)
    np.testing.assert_allclose(vals, [0.0, 0.5008], atol=1e-14)


def test_symmetric_eigenvalues_of_diagonal():
    np.testing.assert_allclose(symmetric_eigenvalues(np.diag([3.0, 0.5])), [0.5, 3.0])


def test_symmetric_eigenvalues_of_half_ones():
    np.testing.assert_allclose(symmetric_eigenvalues(np.ones((2, 2)) / 2), [0.0, 1.0], atol=1e-15)


def test_symmetric_eigenvalues_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectral_norm_dominates_radius():
    rng = np.random.default_rng(8)
    for _ in range(30):
        m = rng.normal(size=(6, 6))
        assert np.linalg.norm(m, 2) >= rho(m) - 1e-10


def test_solve_identity_returns_rhs():
    b = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(solve_linear(np.eye(3), b), b)


def test_solve_rank_one_shift():
    # (I + E) e = 3e, so the solution of (I + 2*(E/2)) x = e is e/3
    a = np.eye(2) + 2.0 * (np.ones((2, 2)) / 2)
    np.testing.assert_allclose(solve_linear(a, np.ones(2)), np.ones(2) / 3, atol=1e-15)


def test_solve_detects_singular():
    with pytest.raises(SingularMatrixError):
        solve_linear(np.ones((2, 2)), np.array([1.0, 0.0]))


def test_solve_reports_the_first_small_pivot():
    with pytest.raises(SingularMatrixError) as info:
        solve_linear(np.diag([1.0, 0.0, 1.0]), np.ones(3))
    assert info.value.pivot_index == 1


def test_singular_shift_raises_without_a_warning():
    family = make_family(validate_stochastic(np.array([[0.0, 1.0], [1.0, 0.0]])), -np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularShiftError):
            R_of(family, 1.0)


def test_rho_raises_where_rho_stack_gives_nan(monkeypatch):
    m = np.array([[0.5, 0.5], [0.2, 0.8]])

    def always_fails(a):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvals", always_fails)
    assert np.all(np.isnan(rho_stack(np.stack([m, m]))))
    with pytest.raises(NoConvergenceError):
        rho(m)
    with pytest.raises(ValueError):
        rho_stack(np.stack([m, np.full((2, 2), np.nan)]))


def test_solve_residual_on_random_systems():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(1, 10))
        a = rng.normal(size=(n, n)) + np.eye(n) * 0.5
        b = rng.normal(size=n)
        x = solve_linear(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * (1 + np.linalg.norm(x)) * np.linalg.norm(a, np.inf)


def test_solve_supports_matrix_rhs():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(4, 4)) + 2 * np.eye(4)
    rhs = rng.normal(size=(4, 3))
    x = solve_linear(a, rhs)
    np.testing.assert_allclose(a @ x, rhs, atol=1e-12)


def test_shifted_inverse_contraction_for_psd():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        g = rng.normal(size=(n, n))
        b = g.T @ g
        t = float(rng.choice([0.1, 1.0, 10.0]))
        radius = 1.0 if rng.random() < 0.3 else float(rng.uniform(1.0, 5.0))
        lam = radius * np.exp(2j * np.pi * rng.random())
        assert shifted_inverse_norm(b, t, lam) <= 1.0 + 1e-10


# -- stability certificate ----------------------------------------------------


def test_certificate_proves_a_non_normal_matrix_stable_once_its_powers_decay():
    m = np.array([[0.5, 10.0], [0.0, 0.5]])  # rho = 0.5, but ||M||_2 > 10
    assert np.linalg.norm(m, 2) > 1.0 and np.linalg.norm(m @ m) > 1.0
    assert _certified_stable(m)


def test_certificate_never_proves_a_unit_radius_stable():
    # remark_1_3_R: W is the 2x2 swap and B = E/2, so rho(P(t)) = rho(R(t)) = 1
    # for every t; the swap itself and the identity have rho = 1 too.
    family = example_family("remark_1_3_R")
    for t in (1e-4, 0.1, 0.5, 1.0, 3.0, 20.0):
        assert not _certified_stable(P_of(family, t))
        assert not _certified_stable(R_of(family, t))
    assert not _certified_stable(family.W.matrix)
    assert not _certified_stable(np.eye(3))


def test_certificate_never_certifies_non_finite_powers():
    assert not _certified_stable(np.array([[np.nan, 0.0], [0.0, 0.1]]))
    assert not _certified_stable(np.array([[np.inf, 0.0], [0.0, 0.1]]))
    # Nilpotent (rho = 0), but its square overflows.
    huge = 1e200 * np.array([[1.0, 1.0], [-1.0, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not _certified_stable(huge)
        assert not _certified_stable(np.diag([1e200, 0.1]))

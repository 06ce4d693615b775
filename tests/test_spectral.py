import pickle
import re
import warnings

import numpy as np
import pytest

from pnpstab.errors import NoConvergenceError, SingularShiftError
from pnpstab.matrices import _symmetric_eigvals, left_perron_vector, validate_stochastic
from pnpstab.operators import P_of, R_of, make_family
from pnpstab.repro import example_family
from pnpstab.spectral import (
    _certified_powers,
    eigenvalues,
    rho,
    rho_stack,
    solve,
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
    with pytest.raises(ValueError, match=re.escape("expected a square matrix, got shape (2, 3)")):
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
    vals = _symmetric_eigvals(sh.T @ sh, 1e-9)
    np.testing.assert_allclose(vals, [0.0, 0.5008], atol=1e-14)


def test_symmetric_eigenvalues_of_diagonal():
    np.testing.assert_allclose(_symmetric_eigvals(np.diag([3.0, 0.5]), 1e-9), [0.5, 3.0])


def test_symmetric_eigenvalues_of_half_ones():
    np.testing.assert_allclose(_symmetric_eigvals(np.ones((2, 2)) / 2, 1e-9), [0.0, 1.0], atol=1e-15)


def test_symmetric_eigenvalues_rejects_asymmetric():
    assert _symmetric_eigvals(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-9) is None


def test_spectral_norm_dominates_radius():
    rng = np.random.default_rng(8)
    for _ in range(30):
        m = rng.normal(size=(6, 6))
        assert np.linalg.norm(m, 2) >= rho(m) - 1e-10


def solve_one(a, b):
    return solve(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def test_solve_identity_returns_rhs():
    b = np.array([1.0, -2.0, 3.0])
    x, small = solve_one(np.eye(3), b)
    np.testing.assert_array_equal(x, b)
    assert not small.any()


def test_solve_rank_one_shift():
    # (I + E) e = 3e, so the solution of (I + 2*(E/2)) x = e is e/3
    a = np.eye(2) + 2.0 * (np.ones((2, 2)) / 2)
    x, small = solve_one(a, np.ones(2))
    np.testing.assert_allclose(x, np.ones(2) / 3, atol=1e-15)
    assert not small.any()


def test_solve_detects_singular():
    x, small = solve_one(np.ones((2, 2)), np.array([1.0, 0.0]))
    assert small.any()
    assert np.array_equal(x, np.zeros(2))


def test_solve_reports_the_first_small_pivot():
    _, small = solve_one(np.diag([1.0, 0.0, 1.0]), np.ones(3))
    assert np.flatnonzero(small).tolist() == [1]


def test_solve_masks_small_pivots_and_zeroes_x():
    rng = np.random.default_rng(3)
    a = [
        rng.normal(size=(3, 3)) + 3.0 * np.eye(3),
        np.diag([1.0, 0.0, 1.0]),  # an exact zero pivot: gesv skips the solve
        np.diag([1.0, 1.0, 1e-14]),  # solvable, but the last pivot fails the relative test
        np.ones((3, 3)),
        rng.normal(size=(3, 3)) + 3.0 * np.eye(3),
    ]
    b = rng.normal(size=(3, 2))
    assert np.linalg.solve(a[2], b).all()  # so x = 0 comes from the mask
    first_small = []
    for k, ak in enumerate(a):
        x, small = solve(ak, b)
        assert x.shape == (3, 2) and small.shape == (3,)
        if small.any():
            assert np.array_equal(x, np.zeros((3, 2)))
            first_small.append(int(np.flatnonzero(small)[0]))
        else:
            np.testing.assert_allclose(ak @ x, b, rtol=0, atol=1e-13)
    assert first_small == [1, 2, 1]


def raised(call, *args):
    try:
        call(*args)
    except Exception as exc:
        return exc
    raise AssertionError(f"{call.__name__} raised nothing")


@pytest.mark.parametrize(
    "error, call, args",
    [
        (NoConvergenceError, left_perron_vector, (validate_stochastic([[1.0, 1e-20], [1.0, 0.0]]),)),
        (SingularShiftError, lambda: R_of(make_family(validate_stochastic([[0.0, 1.0], [1.0, 0.0]]), -np.eye(2)), 1.0), ()),
    ],
    ids=["NoConvergenceError", "SingularShiftError"],
)
def test_errors_survive_a_pickle_round_trip(error, call, args):
    # A run_campaign worker returns its exceptions through pickle. The classes that formatted
    # their message from one argument got the formatted message back as that argument.
    exc = raised(call, *args)
    back = pickle.loads(pickle.dumps(exc))
    assert type(exc) is type(back) is error
    assert str(back) == str(exc)


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
    with pytest.raises(NoConvergenceError, match="^eigensolver failed$"):
        rho(m)
    with pytest.raises(ValueError):
        rho_stack(np.stack([m, np.full((2, 2), np.nan)]))


def test_solve_residual_on_random_systems():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(1, 10))
        a = rng.normal(size=(n, n)) + np.eye(n) * 0.5
        b = rng.normal(size=n)
        x, small = solve_one(a, b)
        assert not small.any()
        assert np.linalg.norm(a @ x - b) <= 1e-10 * (1 + np.linalg.norm(x)) * np.linalg.norm(a, np.inf)


def test_solve_supports_matrix_rhs():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(4, 4)) + 2 * np.eye(4)
    rhs = rng.normal(size=(4, 3))
    x, small = solve_one(a, rhs)
    assert x.shape == (4, 3) and not small.any()
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
        smin = np.linalg.svd(lam * np.eye(n) + t * (lam - 1.0) * b, compute_uv=False)[-1]
        assert 1.0 / smin <= 1.0 + 1e-10  # ||(lam I + t(lam - 1)B)^{-1}||_2


# -- stability certificate ----------------------------------------------------


def certified_power(m):
    """The power that certifies m alone: the one-slice case of _certified_powers."""
    return _certified_powers(np.asarray(m, dtype=float)[None])[0]


def test_certificate_proves_a_non_normal_matrix_stable_once_its_powers_decay():
    m = np.array([[0.5, 10.0], [0.0, 0.5]])  # rho = 0.5, but ||M||_2 > 10
    assert np.linalg.norm(m, 2) > 1.0 and np.linalg.norm(m @ m) > 1.0
    assert certified_power(m)


def test_certificate_never_proves_a_unit_radius_stable():
    # remark_1_3_R: W is the 2x2 swap and B = E/2, so rho(P(t)) = rho(R(t)) = 1
    # for every t; the swap itself and the identity have rho = 1 too.
    family = example_family("remark_1_3_R")
    for t in (1e-4, 0.1, 0.5, 1.0, 3.0, 20.0):
        assert not certified_power(P_of(family, t))
        assert not certified_power(R_of(family, t))
    assert not certified_power(family.W.matrix)
    assert not certified_power(np.eye(3))


def squarings_taken(monkeypatch, m):
    """(certified power, number of squarings) of certified_power(m): it takes the norms of
    a stack's slices in one np.einsum call per square."""
    norms = 0
    real_einsum = np.einsum

    def counting(*args, **kwargs):
        nonlocal norms
        norms += 1
        return real_einsum(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "einsum", counting)
        power = certified_power(m)
    return power, norms


def test_certificate_squares_past_k_64_while_the_powers_decay(monkeypatch):
    # rho = 1 - 1e-4 needs k = 8192: (1 - 1e-4)^4096 = 0.66 and (1 - 1e-4)^8192 = 0.44.
    assert squarings_taken(monkeypatch, np.diag([1.0 - 1e-4, 0.5])) == (8192, 13)
    # (1 - 1e-6)^65536 = 0.94: no power up to 2^16 reaches 1/2, and the rate from
    # k = 64 to 128 shows it, so the certificate stops there.
    assert squarings_taken(monkeypatch, np.diag([1.0 - 1e-6, 0.0])) == (0, 7)


def test_certificate_gives_up_on_a_unit_radius_by_k_128(monkeypatch):
    # Rounding makes some of these powers shrink by an ulp or so per square for ever:
    # a computed stochastic W has its unit eigenvalue a little below 1, and some
    # rotations drift. The rate test stops them all at the 7th square (k = 128).
    rotations = [np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]) for a in (0.1, 0.3, 1.234, np.pi / 2)]
    stochastic = [example_family(e).W.matrix for e in ("remark_1_3_R", "remark_1_7", "example_1_14_B1")]
    for m in [np.eye(3)] + rotations + stochastic:
        assert squarings_taken(monkeypatch, m) == (0, 7)


def test_certificate_never_certifies_non_finite_powers():
    assert not certified_power(np.array([[np.nan, 0.0], [0.0, 0.1]]))
    assert not certified_power(np.array([[np.inf, 0.0], [0.0, 0.1]]))
    # Nilpotent (rho = 0), but its square overflows.
    huge = 1e200 * np.array([[1.0, 1.0], [-1.0, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not certified_power(huge)
        assert not certified_power(np.diag([1e200, 0.1]))


def test_certificate_of_a_stack_gives_each_slice_its_own_power(monkeypatch):
    rotation = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    stack = np.stack(
        [
            np.array([[0.5, 10.0], [0.0, 0.5]]),  # non-normal: certifies at k = 16
            np.array([[np.nan, 0.0], [0.0, 0.1]]),  # non-finite: given up at the first square
            np.diag([1.0 - 1e-4, 0.5]),  # certifies at k = 8192
            rotation,  # unit radius: given up at k = 128
        ]
    )
    sizes = []
    real_einsum = np.einsum

    def recording(subscripts, x, *args, **kwargs):
        sizes.append(len(x))
        return real_einsum(subscripts, x, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "einsum", recording)
        powers = _certified_powers(stack)
    assert list(powers) == [certified_power(m) for m in stack] == [16, 0, 8192, 0]
    # One squaring of the whole stack per power; a decided slice leaves it.
    assert sizes == [4, 3, 3, 3, 2, 2, 2] + [1] * 6
    assert _certified_powers(np.empty((0, 3, 3))).shape == (0,)

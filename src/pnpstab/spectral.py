"""Dense eigensolution, spectral radius, and pivot-checked linear solves.

Backed by LAPACK via numpy/scipy. `rho` and `solve_linear` are the
one-matrix cases of `rho_stack` and `solve_stack`. Complex arithmetic is
confined to this module; every public matrix elsewhere in the package is
real.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NoConvergenceError, SingularMatrixError
from .matrices import _symmetric_eigvals, as_square_matrix

__all__ = [
    "eigenvalues",
    "rho",
    "rho_stack",
    "symmetric_eigenvalues",
    "solve_linear",
    "solve_stack",
    "shifted_inverse_norm",
]


def eigenvalues(m) -> np.ndarray:
    """Full spectrum of a real square matrix, sorted by (re, im), as a
    read-only array (complex unless every eigenvalue is real)."""
    a = as_square_matrix(m)
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(iterations=-1, residual=float("nan")) from exc
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    vals.setflags(write=False)
    return vals


def rho(m) -> float:
    """Spectral radius as a bare float: the one-matrix case of `rho_stack`."""
    radius = float(rho_stack(as_square_matrix(m)[None])[0])
    if np.isnan(radius):
        raise NoConvergenceError(iterations=-1, residual=float("nan"))
    return radius


def rho_stack(stack: np.ndarray) -> np.ndarray:
    """Spectral radius of every matrix of an (m, n, n) stack, NaN where the
    eigensolver fails.

    One stacked LAPACK call covers the stack; each value is bitwise the one
    `rho` gives for that slice alone. If it fails, the slices are
    retried one by one, so only the failing ones become NaN; non-finite
    entries raise ValueError.
    """
    try:
        return np.abs(np.linalg.eigvals(stack)).max(axis=-1)
    except np.linalg.LinAlgError:
        if not np.all(np.isfinite(stack)):
            raise ValueError("matrix has non-finite entries") from None
        radii = np.full(len(stack), np.nan)
        for k, m in enumerate(stack):
            try:
                radii[k] = np.abs(np.linalg.eigvals(m)).max()
            except np.linalg.LinAlgError:
                pass
        return radii


_CERT_SQUARINGS = 6  # powers k = 2, 4, ..., 64
_CERT_NORM = 0.5  # ||M^k||_F <= 1/2 gives rho(M) <= 2^(-1/k) <= 2^(-1/64) < 0.9893


def _certified_stable(m: np.ndarray) -> bool:
    """True when some ||M^k||_F <= 1/2 proves rho(m) < 0.9893 without an eigensolve.

    rho(M)^k = rho(M^k) <= ||M^k||_F (Gelfand; Horn & Johnson, Matrix Analysis, Thm 5.6.9),
    so a non-normal M with ||M|| > 1 certifies once its powers decay; a non-finite power never does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_CERT_SQUARINGS):
            m = m @ m
            norm = np.linalg.norm(m)
            if norm <= _CERT_NORM:
                return True
            if not np.isfinite(norm):
                return False
    return False


def symmetric_eigenvalues(s) -> np.ndarray:
    """Ascending real eigenvalues of a matrix symmetric within 1e-9."""
    return _symmetric_eigvals(as_square_matrix(s), 1e-9)


def _lu_solve_each(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # One LAPACK gesv call per slice of an (m, n, n) stack. Returns the
    # solutions and the (m, n) mask of U pivots at or below 1e-13 * ||A_k||_inf.
    # A zero pivot (gesv info > 0) is in that mask; gesv then skips the solve,
    # and the slice is masked either way.
    scale = np.linalg.norm(a, np.inf, axis=(-2, -1))
    (gesv,) = scipy.linalg.get_lapack_funcs(("gesv",), (a,))
    lu = np.empty_like(a)
    x = np.empty(a.shape[:1] + np.shape(b))
    for k in range(len(a)):
        lu[k], _, x[k], _ = gesv(a[k], b)
    return x, np.abs(np.diagonal(lu, axis1=-2, axis2=-1)) <= 1e-13 * scale[:, None]


def solve_linear(a, b) -> np.ndarray:
    """Solve Ax = b (vector or matrix right-hand side) by pivoted LU: the
    one-matrix case of `solve_stack`.

    Raises SingularMatrixError at the first pivot at or below 1e-13 * ||A||.
    """
    a = as_square_matrix(a)
    rhs = np.asarray(b, dtype=float)
    if rhs.shape[0] != a.shape[0]:
        raise ValueError(f"rhs length {rhs.shape[0]} does not match matrix size {a.shape[0]}")
    x, small = _lu_solve_each(a[None], rhs)
    bad = np.flatnonzero(small[0])
    if bad.size:
        raise SingularMatrixError(int(bad[0]))
    return x[0]


def solve_stack(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve A_k X = b for every matrix A_k of an (m, n, n) stack.

    Returns `(x, ok)`: `ok` masks the slices that pass the pivot test of
    `solve_linear`, and `x` stacks their solutions in order. Each slice is
    bitwise the solution `solve_linear(a[k], b)` returns.
    """
    x, small = _lu_solve_each(a, b)
    ok = ~small.any(axis=-1)
    return x[ok], ok


def shifted_inverse_norm(b, t: float, lam: complex) -> float:
    """Spectral norm of (lam*I + t*(lam-1)*B)^{-1}.

    For positive semidefinite B, t > 0, and |lam| >= 1 this is at most 1;
    the complex shift is handled here so callers stay real-valued.
    """
    a = as_square_matrix(b)
    n = a.shape[0]
    c = lam * np.eye(n, dtype=complex) + (t * (lam - 1.0)) * a.astype(complex)
    smin = float(np.linalg.svd(c, compute_uv=False)[-1])
    if smin == 0.0:
        raise SingularMatrixError(0)
    return 1.0 / smin

"""Dense eigensolution, spectral radius/norm, and pivot-checked linear solves.

Backed by LAPACK via numpy/scipy. Complex arithmetic is confined to this
module; every public matrix elsewhere in the package is real.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NoConvergenceError, NotSymmetricError, SingularMatrixError
from .matrices import as_square_matrix

__all__ = [
    "Spectrum",
    "SpectralSummary",
    "eigenvalues",
    "spectral_radius",
    "rho",
    "rho_stack",
    "symmetric_eigenvalues",
    "spectral_norm",
    "solve_linear",
    "solve_stack",
    "shifted_inverse_norm",
]

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues of a real square matrix, sorted by (re, im)."""

    values: np.ndarray

    @property
    def size(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class SpectralSummary:
    radius: float
    dominant: complex
    gap: float


def eigenvalues(m) -> Spectrum:
    """Full spectrum of a real square matrix."""
    a = as_square_matrix(m)
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(iterations=-1, residual=float("nan")) from exc
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    vals.setflags(write=False)
    return Spectrum(values=vals)


def spectral_radius(m) -> SpectralSummary:
    """Spectral radius with the dominant eigenvalue and modulus gap.

    Ties on the radius are broken by largest real part, then nonnegative
    imaginary part.
    """
    spec = eigenvalues(m)
    moduli = np.abs(spec.values)
    radius = float(moduli.max())
    # Among (near-)maximal moduli pick the tie-break representative.
    near = np.flatnonzero(moduli >= radius * (1.0 - 4.0 * _EPS))
    candidates = sorted(
        (complex(spec.values[i]) for i in near),
        key=lambda z: (-z.real, -z.imag),
    )
    dominant = candidates[0]
    rest = np.sort(moduli)[:-1]
    second = float(rest[-1]) if rest.size else 0.0
    return SpectralSummary(radius=radius, dominant=dominant, gap=radius - second)


def rho(m) -> float:
    """Spectral radius as a bare float (hot-loop form of spectral_radius)."""
    a = as_square_matrix(m)
    try:
        return float(np.abs(np.linalg.eigvals(a)).max())
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(iterations=-1, residual=float("nan")) from exc


def rho_stack(stack: np.ndarray) -> np.ndarray:
    """Spectral radius of every matrix of an (m, n, n) stack, NaN where the
    eigensolver fails.

    One stacked LAPACK call covers the stack; each value is bitwise the one
    `rho` gives for that slice. If the stacked call fails, the slices are
    retried one by one, so only the failing ones become NaN and non-finite
    entries raise ValueError as `rho` does.
    """
    try:
        return np.abs(np.linalg.eigvals(stack)).max(axis=-1)
    except np.linalg.LinAlgError:
        radii = np.empty(len(stack))
        for k, m in enumerate(stack):
            try:
                radii[k] = rho(m)
            except NoConvergenceError:
                radii[k] = np.nan
        return radii


def symmetric_eigenvalues(s, sym_tol: float = 1e-9) -> np.ndarray:
    """Ascending real eigenvalues of a symmetric matrix."""
    a = as_square_matrix(s)
    asym = float(np.max(np.abs(a - a.T)))
    if asym > sym_tol:
        raise NotSymmetricError(asym)
    return np.linalg.eigvalsh((a + a.T) / 2.0)


def spectral_norm(m) -> float:
    """Largest singular value, i.e. sqrt(max eigenvalue of M^T M)."""
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def _small_pivots(lu: np.ndarray, scale) -> np.ndarray:
    # Mask of the U pivots at or below 1e-13 * ||A||_inf, for one LU or a stack.
    return np.abs(np.diagonal(lu, axis1=-2, axis2=-1)) <= 1e-13 * np.asarray(scale)[..., None]


def _check_pivots(lu: np.ndarray, scale: float) -> None:
    small = np.flatnonzero(_small_pivots(lu, scale))
    if small.size:
        raise SingularMatrixError(int(small[0]))


def solve_linear(a, b) -> np.ndarray:
    """Solve Ax = b (vector or matrix right-hand side) by pivoted LU.

    Raises SingularMatrixError when a pivot falls below 1e-13 * ||A||.
    """
    a = as_square_matrix(a)
    rhs = np.asarray(b, dtype=float)
    if rhs.shape[0] != a.shape[0]:
        raise ValueError(f"rhs length {rhs.shape[0]} does not match matrix size {a.shape[0]}")
    scale = float(np.linalg.norm(a, np.inf)) if a.size else 0.0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SingularMatrixError(0) from exc
    _check_pivots(lu, scale)
    return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)


def solve_stack(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve A_k X = b for every matrix A_k of an (m, n, n) stack.

    Returns `(x, ok)`: `ok` masks the slices that pass the pivot test of
    `solve_linear`, and `x` stacks their solutions in order. Each slice
    goes through the LAPACK getrf/getrs pair behind `solve_linear`, so its
    solution is bitwise the one `solve_linear(a[k], b)` returns; calling
    them directly skips scipy's per-call checks and batch bookkeeping.
    """
    scale = np.linalg.norm(a, np.inf, axis=(-2, -1))
    getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (a,))
    lu = np.empty_like(a)
    x = np.empty(a.shape[:1] + np.shape(b))
    for k in range(len(a)):
        # A zero pivot (getrf info > 0) fails the pivot test below; getrs
        # then only fills the dropped slice with non-finite values.
        factor, piv, _ = getrf(a[k])
        lu[k] = factor
        x[k] = getrs(factor, piv, b)[0]
    ok = ~_small_pivots(lu, scale).any(axis=-1)
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

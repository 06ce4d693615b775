"""Dense eigensolution, spectral radius, and a pivot-checked linear solve.

Backed by LAPACK via numpy/scipy. `rho` is the one-matrix case of
`rho_stack`; `solve`'s pivot mask says whether the matrix is numerically
singular. `eigenvalues` is the one public function that returns complex
values; every public matrix of the package is real.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NoConvergenceError
from .matrices import as_square_matrix

__all__ = [
    "eigenvalues",
    "rho",
    "rho_stack",
    "solve",
]


def eigenvalues(m) -> np.ndarray:
    """Full spectrum of a real square matrix, sorted by (re, im), as a
    read-only array (complex unless every eigenvalue is real)."""
    a = as_square_matrix(m)
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError("eigensolver failed") from exc
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    vals.setflags(write=False)
    return vals


def rho(m) -> float:
    """Spectral radius as a bare float: the one-matrix case of `rho_stack`."""
    radius = float(rho_stack(as_square_matrix(m)[None])[0])
    if np.isnan(radius):
        raise NoConvergenceError("eigensolver failed")
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


_CERT_SQUARINGS = 16  # powers k = 2, 4, ..., 2^16
_CERT_ALWAYS = 6  # powers up to k = 64 are always taken; later ones only while they decay fast enough
_CERT_NORM = 0.5  # ||M^k||_F <= 1/2 gives rho(M) <= 2^(-1/k) <= 2^(-1/65536) < 1 - 1.06e-5
_PIVOT_RTOL = 1e-13  # an LU pivot at or below _PIVOT_RTOL * ||A||_inf fails the pivot test


def _certified_powers(stack: np.ndarray) -> np.ndarray:
    """For each matrix M of an (m, n, n) stack, the first power k = 2, 4, ..., 2^16 with
    ||M^k||_F <= 1/2, or 0 if none is found.

    A k > 0 proves rho(M) <= 2^(-1/k) < 1 - 1.06e-5 without an eigensolve, since
    rho(M)^k = rho(M^k) <= ||M^k||_F (Gelfand; Horn & Johnson, Matrix Analysis, Thm 5.6.9):
    a non-normal M with ||M|| > 1 certifies once its powers decay; a non-finite power never does.
    Past k = 64 a slice squares on only while ||M^k||_F decreases fast enough that the last rate,
    ||M^k||_F / ||M^(k/2)||_F per k/2 steps, would reach 1/2 by k = 2^16; a norm that does not
    strictly decrease stops it. For a normal M, log ||M^k||_F is convex in k, so that rate only
    slows and no power that certifies is lost.
    Powers that have settled by k = 64, as those of the identity, a rotation or a stochastic W
    have, stop at k = 128. One `@` squares every undecided slice; a decided slice leaves the
    stack, so the rule is the one each slice would meet on its own.
    """
    powers = np.zeros(len(stack), dtype=int)
    live = np.arange(len(stack))
    prev = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for squarings in range(1, _CERT_SQUARINGS + 1):
            if not live.size:
                break
            stack = stack @ stack
            norm = np.sqrt(np.einsum("ijk,ijk->i", stack, stack))  # ||M^k||_F of each slice
            certified = norm <= _CERT_NORM
            powers[live[certified]] = 2**squarings
            going = ~certified & np.isfinite(norm)
            if squarings > _CERT_ALWAYS:
                steps_left = 2 ** (_CERT_SQUARINGS + 1 - squarings) - 2  # steps of k/2 from k to 2^16
                going &= norm * (norm / prev) ** steps_left <= _CERT_NORM
            if not going.all():  # a copy of the stack costs as much as its norms; skip it when none leaves
                live, stack = live[going], stack[going]
            prev = norm[going]
    return powers


def solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve A X = b by one LAPACK gesv call.

    Returns `(x, small)`. `small` is the (n,) mask of the U pivots at or below
    1e-13 * ||A||_inf; a zero pivot, where gesv skips the solve, is in it. `x` is
    the solve where `small` has no True, and 0 elsewhere.
    """
    (gesv,) = scipy.linalg.get_lapack_funcs(("gesv",), (a,))
    lu, _, x, _ = gesv(a, b)
    small = np.abs(np.diagonal(lu)) <= _PIVOT_RTOL * np.linalg.norm(a, np.inf)
    return (np.zeros_like(x) if small.any() else x), small

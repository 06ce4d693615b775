"""Construction of the operator families and imaging forward models.

A family couples a validated stochastic denoiser W with a data matrix B
and generates the step operators

    P(t) = W (I - t B)
    R(t) = I - W + (I + t B)^{-1} (2 W - I)

whose spectral radii decide whether the associated fixed-point iterations
converge. Forward operators for inpainting, deblurring, and
superresolution produce B = A^T A; kernel denoisers produce W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SingularShiftError
from .matrices import (
    PerronData,
    StochasticMatrix,
    _symmetric_eigvals,
    as_square_matrix,
    is_positive_semidefinite,
    left_perron_vector,
    structure,
    validate_stochastic,
)
from .spectral import rho

__all__ = [
    "OperatorFamily",
    "ConjectureHypotheses",
    "make_family",
    "P_of",
    "R_of",
    "predicted_slope",
    "build_inpainting",
    "build_deblur",
    "build_superres",
    "gram",
    "kernel_affinity",
    "kernel_denoiser",
    "conjecture_hypotheses",
    "alpha_beta_B",
]

_HYP_TOL = 1e-10


@dataclass(frozen=True)
class OperatorFamily:
    """A validated (W, B) pair with cached Perron data and rho(B)."""

    W: StochasticMatrix
    B: np.ndarray
    perron: PerronData
    rho_B: float

    @property
    def n(self) -> int:
        return self.W.n


@dataclass(frozen=True, slots=True)
class ConjectureHypotheses:
    """Hypotheses of the 2/rho(B) stability conjecture for one family.

    `margin` is min_i of rho(B) - (Be)_i; `pibe` is pi^T B e as computed.
    """

    w_primitive: bool
    b_psd: bool
    be_bounded_by_rho: bool
    pibe_positive: bool
    pibe: float
    margin: float

    def all_met(self) -> bool:
        return self.w_primitive and self.b_psd and self.be_bounded_by_rho and self.pibe_positive


def make_family(w: StochasticMatrix, b) -> OperatorFamily:
    """Bundle (W, B) with Perron data and cached rho(B).

    W must be irreducible (checked while computing the Perron vector);
    rho(B) uses the symmetric eigensolver when B is symmetric within 1e-9.
    """
    b = as_square_matrix(b)
    if b.shape[0] != w.n:
        raise ValueError(f"W is {w.n}x{w.n} but B is {b.shape[0]}x{b.shape[1]}")
    perron = left_perron_vector(w)
    vals = _symmetric_eigvals(b, 1e-9)
    rho_b = rho(b) if vals is None else float(np.max(np.abs(vals)))
    b = b.copy()
    b.setflags(write=False)
    return OperatorFamily(W=w, B=b, perron=perron, rho_B=rho_b)


def _P_affine(w: np.ndarray, b: np.ndarray):
    """(ts -> (m, ok), WB): P(t) = W (I - tB) as W - t WB, one slice per t of a 1-D array, for
    any B, with WB formed once; `ok` is all True."""
    wb = w @ b

    def affine(ts: np.ndarray):
        return w - ts[:, None, None] * wb, np.ones(len(ts), dtype=bool)

    return affine, wb


def _R_schur(w: np.ndarray, b: np.ndarray):
    """(ts -> (m, ok), Q): R(t) in B's real Schur basis, one slice per t of a 1-D array.

    With B = Q T Q^T, T quasi-upper-triangular (Golub & Van Loan, Matrix Computations, 4th ed.,
    sec. 7.4), and W~ = Q^T W Q, R(t) = Q m Q^T for m = I - W~ + (I + tT)^{-1} (2 W~ - I). For an
    exactly symmetric B, Q and T = diag(lam) come from one eigh and the solve is a row division;
    for any other B, or if eigh fails, from `scipy.linalg.schur`, with one stacked solve. The shift
    is singular where some |1 + t lam_i| <= n eps (1 + t max|lam|), lam the eigenvalues of T: zero
    within their rounding. `ok` is False there, and m holds W~.
    """
    tri = q = None
    if np.array_equal(b, b.T):
        try:
            lam, q = np.linalg.eigh(b)
        except np.linalg.LinAlgError:
            pass
    if q is None:
        tri, q = scipy.linalg.schur(b, output="real")
        lam = np.linalg.eigvals(tri)
    eye = np.eye(len(w))
    w_tilde = q.T @ w @ q
    i_minus_w, two_w_minus_i = eye - w_tilde, 2.0 * w_tilde - eye
    rounding = len(w) * np.finfo(float).eps
    lam_max = np.abs(lam).max()

    def similar(ts: np.ndarray):
        shift = 1.0 + ts[:, None] * lam
        ok = (np.abs(shift) > rounding * (1.0 + ts[:, None] * lam_max)).all(axis=1)
        # A singular slice solves with I (or divides by 1), so it raises no warning.
        if tri is None:
            return i_minus_w + two_w_minus_i / np.where(ok[:, None], shift, 1.0)[:, :, None], ok
        shifts = np.where(ok[:, None, None], eye + ts[:, None, None] * tri, eye)
        # A right-hand side of a stack's dimension is a stack of matrices for numpy 1.x as for 2.x.
        return i_minus_w + np.linalg.solve(shifts, np.broadcast_to(two_w_minus_i, shifts.shape)), ok

    return similar, q


def P_of(family: OperatorFamily, t: float) -> np.ndarray:
    """P(t) = W - t WB: the one-point slice of `_P_affine`, which every rho of P is read off."""
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    return _P_affine(family.W.matrix, family.B)[0](np.array([t], dtype=float))[0][0]


def R_of(family: OperatorFamily, t: float) -> np.ndarray:
    """R(t) = I - W + (I + t B)^{-1} (2 W - I), as Q m Q^T from the one-point slice m of
    `_R_schur`. Raises SingularShiftError where its rule marks the shift singular."""
    if not (np.isfinite(t) and t >= 0.0):
        raise ValueError("t must be finite and nonnegative")
    similar, q = _R_schur(family.W.matrix, family.B)
    m, ok = similar(np.array([t], dtype=float))
    if not ok[0]:
        raise SingularShiftError(f"I + tB is numerically singular at t = {t}")
    return q @ m[0] @ q.T


def predicted_slope(family: OperatorFamily) -> float:
    """Slope of t -> rho at t = 0 for both families: -pi^T B e."""
    return float(-(family.perron.pi @ (family.B @ np.ones(family.n))))


def build_inpainting(mask) -> np.ndarray:
    """A = diag(mask) for a 0/1 observation mask."""
    mask = np.asarray(mask, dtype=float).ravel()
    if mask.size == 0 or not np.all(np.isin(mask, (0.0, 1.0))):
        raise ValueError("mask must be a nonempty 0/1 vector")
    if not mask.any():
        raise ValueError("mask keeps no pixels")
    return np.diag(mask)


def build_deblur(kernel, n: int) -> np.ndarray:
    """Circulant blur H whose first row is the normalized kernel.

    The kernel is zero-padded to length n and normalized to sum 1, so H is
    stochastic; being circulant it has equal column sums and is therefore
    doubly stochastic.
    """
    kernel = np.asarray(kernel, dtype=float).ravel()
    if kernel.size == 0 or kernel.size > n:
        raise ValueError(f"kernel length must be in [1, {n}]")
    if not np.isfinite(kernel).all():
        raise ValueError("kernel has non-finite entries")
    if np.any(kernel < 0):
        raise ValueError("kernel must be nonnegative")
    total = kernel.sum()
    if total <= 0:
        raise ValueError("kernel weight must be positive")
    first_row = np.zeros(n)
    first_row[: kernel.size] = kernel / total
    cols = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return first_row[cols]


def build_superres(h: np.ndarray, stride: int) -> np.ndarray:
    """A = S H, keeping every stride-th row of the blur starting at row 0."""
    n = h.shape[0]
    if stride < 1:
        raise ValueError("stride must be at least 1")
    keep = np.arange(0, n, stride)
    if keep.size == 0:
        raise ValueError("selector keeps no rows")
    return h[keep, :]


def gram(a: np.ndarray) -> np.ndarray:
    """B = A^T A, symmetrized exactly against rounding."""
    b = a.T @ a
    return (b + b.T) / 2.0


def kernel_affinity(signal, bandwidth: float) -> np.ndarray:
    """Gaussian affinity matrix K over signal intensities.

    K_ij = exp(-(s_i - s_j)^2 / (2 h^2)). K is symmetric, strictly positive
    on the diagonal, and positive semidefinite.
    """
    s = np.asarray(signal, dtype=float).ravel()
    if s.size < 2:
        raise ValueError("signal must have length >= 2")
    if not np.isfinite(s).all():
        raise ValueError("signal has non-finite entries")
    if not 0 < bandwidth < np.inf:
        raise ValueError("bandwidth must be finite and positive")
    d2 = (s[:, None] - s[None, :]) ** 2
    return np.exp(-d2 / (2.0 * bandwidth**2))


def kernel_denoiser(signal, bandwidth: float) -> StochasticMatrix:
    """Row-normalized Gaussian affinity denoiser W.

    Strict positivity of the affinities makes W stochastic and primitive.
    Raises ValueError when the bandwidth is so small that a row's
    off-diagonal weights underflow to zero (W would collapse to I).
    """
    k = kernel_affinity(signal, bandwidth)
    off = k.sum(axis=1) - np.diag(k)
    if np.any(off < 1e-300):
        raise ValueError(f"bandwidth {bandwidth} underflows off-diagonal affinities")
    w = k / k.sum(axis=1, keepdims=True)
    return validate_stochastic(w, tol=1e-12)


def conjecture_hypotheses(family: OperatorFamily) -> ConjectureHypotheses:
    """Evaluate the conjecture's hypotheses with tolerance 1e-10."""
    be = family.B @ np.ones(family.n)
    pibe = float(family.perron.pi @ be)
    margin = float(np.min(family.rho_B - be))
    return ConjectureHypotheses(
        w_primitive=structure(family.W).primitive,
        b_psd=is_positive_semidefinite(family.B, _HYP_TOL),
        be_bounded_by_rho=bool(margin >= -_HYP_TOL),
        pibe_positive=bool(pibe > _HYP_TOL),
        pibe=pibe,
        margin=margin,
    )


def alpha_beta_B(alpha: float, beta: float, n: int) -> np.ndarray:
    """B = alpha*I + beta*E, admitted only when positive semidefinite
    with Be != 0 (alpha >= 0 and alpha + n*beta > 0)."""
    if n < 1:
        raise ValueError("n must be positive")
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if alpha + n * beta <= 0:
        raise ValueError("alpha + n*beta must be positive")
    return alpha * np.eye(n) + beta * np.ones((n, n))

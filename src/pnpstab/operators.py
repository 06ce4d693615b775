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

from .errors import (
    AllZeroMaskError,
    DegenerateBandwidthError,
    DimensionMismatchError,
    EmptySelectionError,
    NotSymmetricError,
    SingularShiftError,
    ZeroKernelError,
)
from .matrices import (
    PerronData,
    StochasticMatrix,
    _is_psd,
    as_square_matrix,
    left_perron_vector,
    structure,
    validate_stochastic,
)
from .spectral import rho, solve_stack, symmetric_eigenvalues

__all__ = [
    "OperatorFamily",
    "ForwardOperator",
    "ConjectureHypotheses",
    "make_family",
    "P_of",
    "R_of",
    "P_stack",
    "R_stack",
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


@dataclass(frozen=True)
class ForwardOperator:
    """Imaging measurement matrix A and the kind of model that built it."""

    A: np.ndarray
    kind: str


@dataclass(frozen=True)
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
        raise DimensionMismatchError(f"W is {w.n}x{w.n} but B is {b.shape[0]}x{b.shape[1]}")
    perron = left_perron_vector(w)
    try:
        rho_b = float(np.max(np.abs(symmetric_eigenvalues(b))))
    except NotSymmetricError:
        rho_b = rho(b)
    b = b.copy()
    b.setflags(write=False)
    return OperatorFamily(W=w, B=b, perron=perron, rho_B=rho_b)


def P_stack(w: np.ndarray, b: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """P(t) = W (I - t B) for every t of a 1-D array, as an (m, n, n) stack."""
    return w @ (np.eye(len(w)) - ts[:, None, None] * b)


def R_stack(w: np.ndarray, b: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R(t) = I - W + (I + t B)^{-1} (2 W - I) for every t of a 1-D array.

    Returns `(r, ok)` as `spectral.solve_stack` does: `ok` masks the t where
    I + t B passes the pivot test, and `r` stacks R(t) at those t in order.
    """
    eye = np.eye(len(w))
    x, ok = solve_stack(eye + ts[:, None, None] * b, 2.0 * w - eye)
    return eye - w + x, ok


def P_of(family: OperatorFamily, t: float) -> np.ndarray:
    """P(t) = W (I - t B): the one-point case of `P_stack`."""
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    return P_stack(family.W.matrix, family.B, np.array([t], dtype=float))[0]


def R_of(family: OperatorFamily, t: float) -> np.ndarray:
    """R(t) = I - W + (I + t B)^{-1} (2 W - I): the one-point case of `R_stack`."""
    if not (np.isfinite(t) and t >= 0.0):
        raise ValueError("t must be finite and nonnegative")
    r, ok = R_stack(family.W.matrix, family.B, np.array([t], dtype=float))
    if not ok[0]:
        raise SingularShiftError(t)
    return r[0]


def predicted_slope(family: OperatorFamily) -> float:
    """Slope of t -> rho at t = 0 for both families: -pi^T B e."""
    return float(-(family.perron.pi @ (family.B @ np.ones(family.n))))


def build_inpainting(mask) -> ForwardOperator:
    """A = diag(mask) for a 0/1 observation mask."""
    mask = np.asarray(mask, dtype=float).ravel()
    if mask.size == 0 or not np.all(np.isin(mask, (0.0, 1.0))):
        raise ValueError("mask must be a nonempty 0/1 vector")
    if not mask.any():
        raise AllZeroMaskError("mask keeps no pixels")
    return ForwardOperator(A=np.diag(mask), kind="inpainting")


def build_deblur(kernel, n: int) -> ForwardOperator:
    """Circulant blur H whose first row is the normalized kernel.

    The kernel is zero-padded to length n and normalized to sum 1, so H is
    stochastic; being circulant it has equal column sums and is therefore
    doubly stochastic.
    """
    kernel = np.asarray(kernel, dtype=float).ravel()
    if kernel.size == 0 or kernel.size > n:
        raise ValueError(f"kernel length must be in [1, {n}]")
    if np.any(kernel < 0):
        raise ValueError("kernel must be nonnegative")
    total = kernel.sum()
    if total <= 0:
        raise ZeroKernelError("kernel weight must be positive")
    first_row = np.zeros(n)
    first_row[: kernel.size] = kernel / total
    cols = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    h = first_row[cols]
    return ForwardOperator(A=h, kind="deblurring")


def build_superres(h: ForwardOperator, stride: int) -> ForwardOperator:
    """A = S H, keeping every stride-th row of the blur starting at row 0."""
    if h.kind != "deblurring":
        raise ValueError("superresolution subsamples a deblurring operator")
    n = h.A.shape[0]
    if stride < 1:
        raise EmptySelectionError("stride must be at least 1")
    keep = np.arange(0, n, stride)
    if keep.size == 0:
        raise EmptySelectionError("selector keeps no rows")
    return ForwardOperator(A=h.A[keep, :], kind="superresolution")


def gram(a: ForwardOperator) -> np.ndarray:
    """B = A^T A, symmetrized exactly against rounding."""
    b = a.A.T @ a.A
    return (b + b.T) / 2.0


def kernel_affinity(signal, bandwidth: float) -> np.ndarray:
    """Gaussian affinity matrix K over signal intensities.

    K_ij = exp(-(s_i - s_j)^2 / (2 h^2)). K is symmetric, strictly positive
    on the diagonal, and positive semidefinite.
    """
    s = np.asarray(signal, dtype=float).ravel()
    if s.size < 2:
        raise ValueError("signal must have length >= 2")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    d2 = (s[:, None] - s[None, :]) ** 2
    return np.exp(-d2 / (2.0 * bandwidth**2))


def kernel_denoiser(signal, bandwidth: float) -> StochasticMatrix:
    """Row-normalized Gaussian affinity denoiser W.

    Strict positivity of the affinities makes W stochastic and primitive.
    Raises DegenerateBandwidthError when the bandwidth is so small that a
    row's off-diagonal weights underflow to zero (W would collapse to I).
    """
    k = kernel_affinity(signal, bandwidth)
    off = k.sum(axis=1) - np.diag(k)
    if np.any(off < 1e-300):
        raise DegenerateBandwidthError(f"bandwidth {bandwidth} underflows off-diagonal affinities")
    w = k / k.sum(axis=1, keepdims=True)
    return validate_stochastic(w, tol=1e-12)


def conjecture_hypotheses(family: OperatorFamily) -> ConjectureHypotheses:
    """Evaluate the conjecture's hypotheses with tolerance 1e-10."""
    be = family.B @ np.ones(family.n)
    pibe = float(family.perron.pi @ be)
    margin = float(np.min(family.rho_B - be))
    return ConjectureHypotheses(
        w_primitive=structure(family.W).primitive,
        b_psd=_is_psd(family.B, _HYP_TOL),
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
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if alpha + n * beta <= 0:
        raise ValueError("alpha + n*beta must be positive")
    return alpha * np.eye(n) + beta * np.ones((n, n))

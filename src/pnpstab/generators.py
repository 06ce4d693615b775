"""Seeded random instance generators for the property suites and fuzzer.

Every generator takes a numpy Generator so campaigns are reproducible:
the same seed yields the same instance on any platform (PCG64 streams are
part of numpy's stability guarantees).
"""

from __future__ import annotations

import numpy as np

from .matrices import StochasticMatrix, validate_stochastic

__all__ = [
    "random_positive_stochastic",
    "random_bipartite_stochastic",
    "random_doubly_stochastic",
    "random_unit_psd",
    "random_nonneg_diagonal",
    "random_alpha_beta",
    "random_zero_rowsum",
    "random_mask",
    "random_blur_kernel",
]


def random_positive_stochastic(rng: np.random.Generator, n: int) -> StochasticMatrix:
    """Strictly positive rows normalized to sum 1; primitive by construction."""
    m = rng.uniform(0.05, 1.0, size=(n, n))
    return validate_stochastic(m / m.sum(axis=1, keepdims=True), tol=1e-10)


def random_bipartite_stochastic(rng: np.random.Generator, n: int) -> StochasticMatrix:
    """Irreducible but non-primitive: all mass crosses a two-block split.

    The nonzero pattern is bipartite, so every cycle has even length and
    the matrix has period 2.
    """
    if n < 2:
        raise ValueError("bipartite structure needs n >= 2")
    half = n // 2
    m = np.zeros((n, n))
    m[:half, half:] = rng.uniform(0.05, 1.0, size=(half, n - half))
    m[half:, :half] = rng.uniform(0.05, 1.0, size=(n - half, half))
    return validate_stochastic(m / m.sum(axis=1, keepdims=True), tol=1e-10)


def random_doubly_stochastic(rng: np.random.Generator, n: int) -> StochasticMatrix:
    """Sinkhorn-balance a strictly positive matrix to doubly stochastic.

    Alternating row/column normalization for at most 200 sweeps, stopping
    once every row sum is within 1e-12 of 1; converges for positive inputs.
    Ends on a row normalization so rows sum to 1 exactly on admission.
    """
    m = rng.uniform(0.05, 1.0, size=(n, n))
    for _ in range(200):
        m /= m.sum(axis=1, keepdims=True)
        m /= m.sum(axis=0, keepdims=True)
        if np.abs(m.sum(axis=1) - 1.0).max() <= 1e-12:
            break
    m /= m.sum(axis=1, keepdims=True)
    return validate_stochastic(m, tol=1e-10)


def random_unit_psd(rng: np.random.Generator, n: int) -> np.ndarray:
    """B = G^T G for Gaussian G, resampled until Be is clearly nonzero, then
    rescaled so rho(B) = 1."""
    while True:
        g = rng.normal(size=(n, n))
        b = g.T @ g
        b = (b + b.T) / 2.0
        if np.abs(b.sum(axis=1)).max() > 1e-8:
            return b / np.linalg.eigvalsh(b).max()


def random_nonneg_diagonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Nonzero diagonal B >= 0 whose entries are each exactly zero with probability 0.3."""
    d = rng.uniform(0.1, 3.0, size=n)
    d[rng.random(n) < 0.3] = 0.0
    if not d.any():
        d[int(rng.integers(n))] = float(rng.uniform(0.1, 3.0))
    return np.diag(d)


def random_alpha_beta(rng: np.random.Generator, n: int) -> tuple[float, float]:
    """(alpha, beta) with alpha >= 0 and alpha + n*beta > 0; beta may be negative."""
    if rng.random() < 0.15:
        return 0.0, float(rng.uniform(0.05, 1.5))
    alpha = float(rng.uniform(0.1, 3.0))
    beta = float(rng.uniform(-0.9 * alpha / n, 1.0))
    return alpha, beta


def random_zero_rowsum(rng: np.random.Generator, n: int) -> np.ndarray:
    """Nonzero B with Be = 0: centered rows of a Gaussian matrix."""
    while True:
        g = rng.normal(size=(n, n))
        b = g - g.mean(axis=1, keepdims=True)
        if np.abs(b).max() > 1e-6:
            return b


def random_mask(rng: np.random.Generator, n: int) -> np.ndarray:
    """0/1 inpainting mask keeping each pixel with probability 0.7, and at least one."""
    mask = (rng.random(n) < 0.7).astype(float)
    if not mask.any():
        mask[int(rng.integers(n))] = 1.0
    return mask


def random_blur_kernel(rng: np.random.Generator, n: int) -> np.ndarray:
    """Positive blur kernel of random length <= min(n, 4)."""
    length = int(rng.integers(1, min(n, 4) + 1))
    return rng.uniform(0.05, 1.0, size=length)

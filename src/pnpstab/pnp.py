"""Plug-and-play fixed-point iterations and empirical convergence rates.

The gradient-then-denoise update x <- W(x - t(A^T A x - A^T b)) is the
affine map x <- P(t) x + t W A^T b; its convergence is governed by
rho(P(t)), and the observed geometric decay rate of the error should
approach that radius for generic starts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, SingularMatrixError
from .matrices import StochasticMatrix, as_matrix
from .operators import ForwardOperator, P_stack, gram
from .spectral import solve_linear

__all__ = [
    "InverseProblem",
    "IterationTrace",
    "affine_map",
    "pgd_pnp_run",
    "empirical_rate",
    "trace_to_csv",
]

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class InverseProblem:
    """Ax = b with denoiser W and step size t."""

    A: ForwardOperator
    b: np.ndarray
    W: StochasticMatrix
    t: float

    def __post_init__(self):
        a = as_matrix(self.A.A)
        b = np.asarray(self.b, dtype=float).ravel()
        if a.shape[1] != self.W.n:
            raise ValueError(f"A has {a.shape[1]} columns but W is {self.W.n}x{self.W.n}")
        if b.size != a.shape[0]:
            raise ValueError(f"b has length {b.size} but A has {a.shape[0]} rows")
        if not (np.isfinite(self.t) and self.t > 0):
            raise ValueError("step size t must be positive")
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class IterationTrace:
    """History of one PnP iteration run.

    error_norms holds ||x_k - x*||_2 when a fixed point is known (empty
    otherwise); loss_values holds 0.5 ||A x_k - b||^2 at every iterate.
    estimated_rate is the geometric-mean error ratio over the final
    quartile, or None when the trace cannot support it.
    """

    iterates_kept: int
    error_norms: np.ndarray
    loss_values: np.ndarray
    estimated_rate: float | None
    converged: bool
    final_x: np.ndarray


def _iterate(m, c, x0, max_iter, tol, x_star, loss):
    x = np.asarray(x0, dtype=float).ravel().copy()
    kept = 1
    errors = [] if x_star is None else [float(np.linalg.norm(x - x_star))]
    losses = [loss(x)]
    converged = False
    for _ in range(max_iter):
        x_next = m @ x + c
        step = float(np.linalg.norm(x_next - x))
        x = x_next
        kept += 1
        if x_star is not None:
            errors.append(float(np.linalg.norm(x - x_star)))
        losses.append(loss(x))
        if step <= tol * (1.0 + float(np.linalg.norm(x))):
            converged = True
            break
    errors = np.asarray(errors)
    try:
        rate = empirical_rate_from_errors(errors)
    except InsufficientDataError:
        rate = None
    return IterationTrace(
        iterates_kept=kept,
        error_norms=errors,
        loss_values=np.asarray(losses),
        estimated_rate=rate,
        converged=converged,
        final_x=x,
    )


def affine_map(problem: InverseProblem) -> tuple[np.ndarray, np.ndarray]:
    """(P(t), c) of the PnP update x <- P(t) x + c, with P(t) = W (I - t A^T A)
    and c = t W A^T b."""
    w = problem.W.matrix
    p = P_stack(w, gram(problem.A), np.array([problem.t], dtype=float))[0]
    c = problem.t * (w @ (problem.A.A.T @ problem.b))
    return p, c


def pgd_pnp_run(problem: InverseProblem, x0, max_iter: int = 1000, tol: float = 1e-10) -> IterationTrace:
    """Iterate x <- P(t) x + t W A^T b from x0.

    Stops when the relative successive difference falls below tol or at
    max_iter; non-convergence is reported via converged=False, never as an
    error. Error norms are measured against the affine fixed point when
    I - P(t) is invertible.
    """
    p, c = affine_map(problem)
    try:
        x_star = solve_linear(np.eye(problem.W.n) - p, c)
    except SingularMatrixError:
        x_star = None

    def loss(x):
        r = problem.A.A @ x - problem.b
        return 0.5 * float(r @ r)

    return _iterate(p, c, x0, max_iter, tol, x_star, loss)


def empirical_rate_from_errors(errors: np.ndarray) -> float:
    """Geometric mean of successive error ratios over the last quartile."""
    errors = np.asarray(errors, dtype=float)
    if errors.size < 20:
        raise InsufficientDataError(f"need at least 20 error norms, have {errors.size}")
    scale = max(1.0, float(errors[0]))
    if errors[-1] <= 100.0 * _EPS * scale:
        raise InsufficientDataError("trace bottomed out at rounding noise")
    tail = errors[-max(2, errors.size // 4) :]
    if np.any(tail <= 0.0):
        raise InsufficientDataError("zero error inside the averaging window")
    ratios = tail[1:] / tail[:-1]
    return float(np.exp(np.mean(np.log(ratios))))


def empirical_rate(trace: IterationTrace) -> float:
    """Asymptotic per-step error contraction of a trace.

    For a stable map with a simple dominant eigenvalue and generic start
    this approaches the spectral radius.
    """
    return empirical_rate_from_errors(trace.error_norms)


def trace_to_csv(trace: IterationTrace, path) -> None:
    """Write `k,error_norm,loss` rows at 12 significant digits."""
    rows = max(trace.error_norms.size, trace.loss_values.size)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "error_norm", "loss"])
        for k in range(rows):
            err = f"{trace.error_norms[k]:.12g}" if k < trace.error_norms.size else ""
            lo = f"{trace.loss_values[k]:.12g}" if k < trace.loss_values.size else ""
            writer.writerow([k, err, lo])

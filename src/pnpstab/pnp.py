"""Plug-and-play fixed-point iterations and empirical convergence rates.

For a measurement matrix A, data b, denoiser W and step t, the
gradient-then-denoise update x <- W(x - t(A^T A x - A^T b)) is the affine
map x <- P(t) x + t W A^T b. `pgd_pnp_run` iterates it, recording the
error against the affine fixed point and the loss; the error's geometric
decay rate (`IterationTrace.estimated_rate`) should approach rho(P(t)) for
generic starts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .matrices import StochasticMatrix, as_matrix
from .operators import P_stack, gram
from .spectral import solve

__all__ = [
    "InverseProblem",
    "IterationTrace",
    "affine_map",
    "pgd_pnp_run",
    "trace_to_csv",
]

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class InverseProblem:
    """Ax = b with denoiser W and step size t."""

    A: np.ndarray
    b: np.ndarray
    W: StochasticMatrix
    t: float

    def __post_init__(self):
        a = as_matrix(self.A)
        b = np.asarray(self.b, dtype=float).ravel()
        if a.shape[1] != self.W.n:
            raise ValueError(f"A has {a.shape[1]} columns but W is {self.W.n}x{self.W.n}")
        if b.size != a.shape[0]:
            raise ValueError(f"b has length {b.size} but A has {a.shape[0]} rows")
        if not np.isfinite(b).all():
            raise ValueError("b has non-finite entries")
        if not (np.isfinite(self.t) and self.t > 0):
            raise ValueError("step size t must be positive")
        object.__setattr__(self, "A", a)
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


def affine_map(problem: InverseProblem) -> tuple[np.ndarray, np.ndarray]:
    """(P(t), c) of the PnP update x <- P(t) x + c, with P(t) = W (I - t A^T A)
    and c = t W A^T b."""
    w = problem.W.matrix
    p = P_stack(w, gram(problem.A), np.array([problem.t], dtype=float))[0]
    c = problem.t * (w @ (problem.A.T @ problem.b))
    return p, c


def pgd_pnp_run(problem: InverseProblem, x0, max_iter: int = 1000, tol: float = 1e-10) -> IterationTrace:
    """Iterate x <- P(t) x + t W A^T b from x0.

    Stops when the relative successive difference falls below tol or at
    max_iter; non-convergence is reported via converged=False, never as an
    error. A diverging run ends, unconverged, at the first iterate whose
    step, norm, error or loss overflows; that iterate is not recorded.
    Error norms are measured against the affine fixed point when
    I - P(t) passes the pivot test of `spectral.solve`. A tol that is negative or not finite, a
    negative max_iter, or an x0 that is not of length n or whose entries,
    norm or loss are not finite raises ValueError.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    x = np.asarray(x0, dtype=float).ravel()
    if x.size != problem.W.n:
        raise ValueError(f"x0 has length {x.size} but W is {problem.W.n}x{problem.W.n}")
    if not np.isfinite(x).all():
        raise ValueError("x0 has non-finite entries")
    p, c = affine_map(problem)
    solved, small = solve(as_matrix(np.eye(problem.W.n) - p), c)  # as_matrix rejects an overflowed P(t)
    x_star = None if small.any() else solved

    def loss(x):
        r = problem.A @ x - problem.b
        return 0.5 * float(r @ r)

    with np.errstate(over="ignore", invalid="ignore"):  # a huge x0 overflows here; it is rejected, not warned about
        size, losses = float(np.linalg.norm(x)), [loss(x)]
    if not np.isfinite([size, losses[0]]).all():
        raise ValueError(f"x0 has norm {size} and loss {losses[0]}; both must be finite")
    errors = [] if x_star is None else [float(np.linalg.norm(x - x_star))]
    converged = False
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends the run below
        for _ in range(max_iter):
            x_next = p @ x + c
            step = float(np.linalg.norm(x_next - x))
            size = float(np.linalg.norm(x_next))
            error = 0.0 if x_star is None else float(np.linalg.norm(x_next - x_star))
            lo = loss(x_next)
            if not np.isfinite([step, size, error, lo]).all():
                break
            x = x_next
            if x_star is not None:
                errors.append(error)
            losses.append(lo)
            if step <= tol * (1.0 + size):
                converged = True
                break
    errors = np.asarray(errors)
    return IterationTrace(
        iterates_kept=len(losses),
        error_norms=errors,
        loss_values=np.asarray(losses),
        estimated_rate=empirical_rate_from_errors(errors),
        converged=converged,
    )


def empirical_rate_from_errors(errors: np.ndarray) -> float | None:
    """Geometric mean of successive error ratios over the last quartile.

    None when there are fewer than 20 error norms, the last has bottomed
    out at rounding noise, or the averaging window holds a zero error.
    """
    errors = np.asarray(errors, dtype=float)
    if errors.size < 20 or errors[-1] <= 100.0 * _EPS * max(1.0, float(errors[0])):
        return None
    tail = errors[-max(2, errors.size // 4) :]
    if np.any(tail <= 0.0):
        return None
    ratios = tail[1:] / tail[:-1]
    return float(np.exp(np.mean(np.log(ratios))))


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

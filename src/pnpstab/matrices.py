"""Dense matrix carrier, stochastic-matrix validation, and Perron data.

All matrices are dense row-major float64 numpy arrays. Structural classes
(stochastic, doubly stochastic, irreducible, primitive, positive
semidefinite) are decided here, along with the left Perron vector of an
irreducible stochastic matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    NegativeEntryError,
    NoConvergenceError,
    NotIrreducibleError,
    NotSquareError,
    NotSymmetricError,
    RowSumViolationError,
)

__all__ = [
    "StochasticMatrix",
    "PerronData",
    "StructureReport",
    "as_matrix",
    "as_square_matrix",
    "validate_stochastic",
    "structure",
    "left_perron_vector",
    "is_positive_semidefinite",
    "read_matrix",
    "write_matrix",
]


def as_matrix(entries) -> np.ndarray:
    """Coerce to a 2-D float64 array and require finite entries."""
    m = np.asarray(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def as_square_matrix(entries) -> np.ndarray:
    m = as_matrix(entries)
    if m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class StochasticMatrix:
    """A validated row-stochastic matrix: entries >= 0, rows summing to 1.

    `tol` is the admission tolerance used at validation time; it is reused
    as the column-sum tolerance of the double-stochasticity test.
    """

    matrix: np.ndarray
    tol: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PerronData:
    """Left Perron vector pi of an irreducible stochastic matrix.

    Normalized so pi @ e = 1, with residual = max-norm of pi @ W - pi.
    `iterations` is always 0: pi comes from one direct solve, not an
    iteration. It stays because the benchmark's trace probe for
    `left_perron_vector` (`perfbench/tracing.py`) reads it.
    """

    pi: np.ndarray
    residual: float
    iterations: int


@dataclass(frozen=True)
class StructureReport:
    irreducible: bool
    primitive: bool
    doubly_stochastic: bool


def validate_stochastic(entries, tol: float = 1e-10) -> StochasticMatrix:
    """Admit a matrix as row-stochastic.

    Entries in [-tol, 0) are clamped to 0 and each row is renormalized to
    sum to 1, so identities like We = e hold to machine precision
    downstream. Entries below -tol or row sums off by more than tol are
    rejected.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    m = as_square_matrix(entries).copy()
    neg = np.argwhere(m < -tol)
    if neg.size:
        i, j = map(int, neg[0])
        raise NegativeEntryError(i, j, float(m[i, j]))
    sums = m.sum(axis=1)
    bad = np.argwhere(np.abs(sums - 1.0) > tol)
    if bad.size:
        i = int(bad[0][0])
        raise RowSumViolationError(i, float(sums[i]))
    np.clip(m, 0.0, None, out=m)
    m /= m.sum(axis=1, keepdims=True)
    m.setflags(write=False)
    return StochasticMatrix(matrix=m, tol=float(tol))


def _bfs_levels(pattern: np.ndarray) -> np.ndarray:
    """BFS level of each node from node 0 in the graph of `pattern`, -1 where unreachable."""
    level = np.full(pattern.shape[0], -1)
    frontier = np.zeros(pattern.shape[0], dtype=bool)
    frontier[0] = True
    depth = 0
    while frontier.any():
        level[frontier] = depth
        frontier = pattern[frontier].any(axis=0) & (level < 0)
        depth += 1
    return level


def _irreducible_levels(pattern: np.ndarray) -> np.ndarray | None:
    """Forward BFS levels of an irreducible square 0/1 pattern, None when it
    is reducible: node 0 must reach, and be reached from, every node."""
    level = _bfs_levels(pattern)
    if level.min() < 0 or _bfs_levels(pattern.T).min() < 0:
        return None
    return level


def structure(w: StochasticMatrix) -> StructureReport:
    """Structural classification of an admitted stochastic matrix.

    Irreducible means node 0 reaches every node by breadth-first search
    in the graph of the nonzero pattern and in its reverse. Primitive means
    irreducible with period 1, where the period is the gcd over edges
    (u, v) of level(u) + 1 - level(v) for the forward BFS levels. Both cost
    two BFS passes, O(n^2) for an n x n pattern, and no matrix product.
    Doubly stochastic means every column sums to 1 within `w.tol`. No
    eigenvalue is computed; `is_positive_semidefinite` answers PSD questions.
    """
    m = w.matrix
    pattern = m > 0.0
    level = _irreducible_levels(pattern)
    primitive = False
    if level is not None:
        # Period of a strongly connected graph (Denardo, Math. Oper. Res. 1977).
        u, v = np.nonzero(pattern)
        primitive = bool(np.gcd.reduce(level[u] + 1 - level[v]) == 1)
    return StructureReport(
        irreducible=level is not None,
        primitive=primitive,
        doubly_stochastic=bool(np.all(np.abs(m.sum(axis=0) - 1.0) <= w.tol)),
    )


def left_perron_vector(w: StochasticMatrix, tol: float = 1e-13) -> PerronData:
    """Left Perron vector of an irreducible stochastic matrix.

    One direct solve of (W^T - I) pi = 0 with the last equation replaced
    by sum(pi) = 1, which is nonsingular whenever 1 is a simple eigenvalue
    (irreducible W; Stewart, Introduction to the Numerical Solution of
    Markov Chains, 1994). The result is accepted only if its residual is
    at most tol and every entry is positive; otherwise NoConvergenceError.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = w.matrix
    if _irreducible_levels(m > 0.0) is None:
        raise NotIrreducibleError("nonzero pattern is not strongly connected")
    a = m.T - np.eye(w.n)
    a[-1, :] = 1.0
    rhs = np.zeros(w.n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(a, rhs)
    pi /= pi.sum()
    residual = float(np.max(np.abs(pi @ m - pi)))
    if not (residual <= tol and pi.min() > 0.0):  # also rejects a NaN pi
        raise NoConvergenceError(0, residual)
    pi.setflags(write=False)
    return PerronData(pi=pi, residual=residual, iterations=0)


def _symmetric_eigvals(m: np.ndarray, tol: float) -> np.ndarray:
    """Ascending eigenvalues of (M + M^T)/2; NotSymmetricError when
    max |M - M^T| exceeds tol."""
    asym = float(np.max(np.abs(m - m.T)))
    if asym > tol:
        raise NotSymmetricError(asym)
    return np.linalg.eigvalsh((m + m.T) / 2.0)


def is_positive_semidefinite(b, tol: float = 1e-10) -> bool:
    """True iff the symmetrized matrix has minimum eigenvalue >= -tol.

    The input must be symmetric to within tol; it is symmetrized as
    (B + B^T)/2 before the eigenvalue test.
    """
    return bool(_symmetric_eigvals(as_square_matrix(b), tol).min() >= -tol)


def _is_psd(b, tol: float) -> bool:
    # is_positive_semidefinite, reading an asymmetric matrix as not PSD.
    try:
        return is_positive_semidefinite(b, tol)
    except NotSymmetricError:
        return False


def read_matrix(path) -> np.ndarray:
    """Read the plain matrix text format.

    Line 1 holds `rows cols`; each following non-comment line holds one
    matrix row of whitespace-separated decimals. `#` starts a comment.
    """
    lines = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    try:
        rows, cols = map(int, lines[0].split())
    except ValueError:
        raise ValueError(f"{path}: header must be `rows cols`") from None
    if rows < 1 or cols < 1:
        raise ValueError(f"{path}: dimensions must be positive")
    if len(lines) - 1 != rows:
        raise ValueError(f"{path}: expected {rows} data rows, found {len(lines) - 1}")
    try:
        data = np.loadtxt(lines[1:], ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if data.shape[1] != cols:
        raise ValueError(f"{path}: rows have {data.shape[1]} entries, expected {cols}")
    return as_matrix(data)


def write_matrix(path, m) -> None:
    """Write the matrix text format with value-preserving precision.

    17 significant decimal digits guarantee a bitwise float64 round trip.
    """
    m = as_matrix(m)
    rows, cols = m.shape
    out = [f"{rows} {cols}"]
    for row in m:
        out.append(" ".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(out) + "\n")

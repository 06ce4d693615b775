"""Independent reference checks on pnpstab outputs, run outside the timed region.

P(t) = W (I - tB) and R(t) = I - W + (I + tB)^{-1} (2W - I) are rebuilt
here with numpy and scipy.linalg alone; nothing in this module calls
pnpstab.operators or pnpstab.spectral.  Each check returns a list of
problems, empty when the program's output is confirmed.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

# The program's own criteria use these slacks; a violation it reports must
# replay at least this close to 1 with the reference eigensolver.
REPLAY_SLACK = 1e-9


def operator(w: np.ndarray, b: np.ndarray, which: str, t: float) -> np.ndarray:
    n = w.shape[0]
    eye = np.eye(n)
    if which == "P":
        return w @ (eye - t * b)
    if which == "R":
        return eye - w + scipy.linalg.solve(eye + t * b, 2.0 * w - eye)
    raise ValueError(f"which must be 'P' or 'R', got {which!r}")


def rho(w: np.ndarray, b: np.ndarray, which: str, t: float) -> float:
    """rho(P(t)) or rho(R(t)); a singular shift I + tB counts as infinite."""
    try:
        m = operator(w, b, which, t)
    except scipy.linalg.LinAlgError:
        return float("inf")
    return float(np.abs(scipy.linalg.eigvals(m, check_finite=False)).max())


def rho_b(b: np.ndarray) -> float:
    if np.array_equal(b, b.T):
        return float(np.abs(scipy.linalg.eigvalsh(b)).max())
    return float(np.abs(scipy.linalg.eigvals(b)).max())


def strongly_connected(w: np.ndarray) -> bool:
    count, _ = connected_components(csr_matrix(w > 0.0), directed=True, connection="strong")
    return count == 1


def load_matrix(path) -> np.ndarray:
    """Read the matrix text format without pnpstab: `rows cols`, then rows."""
    return np.loadtxt(path, skiprows=1, ndmin=2, comments="#")


def check_threshold(w: np.ndarray, b: np.ndarray, report: dict, rng: np.random.Generator) -> list[str]:
    """Confirm a `threshold` JSON report.

    stable_then_unstable: rho(lo) < 1 <= rho(hi) at the bracket, which is
    no wider than bisect_tol and holds T_star.  stable_throughout_scan:
    rho < 1 at the first, the last and one seeded scan point.
    unstable_from_start: rho(eps0) >= 1.
    """
    which = report["which"]
    eps0, step, scan_max = report["eps0"], report["grid_step"], report["scan_max"]
    cls = report["classification"]
    problems = []
    if cls == "stable_then_unstable":
        lo, hi = report["bracket"]
        if not (lo <= report["T_star"] <= hi and hi - lo <= report["bisect_tol"]):
            problems.append(f"{which}: bracket [{lo}, {hi}] is wider than bisect_tol or misses T_star")
        r_lo, r_hi = rho(w, b, which, lo), rho(w, b, which, hi)
        if not r_lo < 1.0:
            problems.append(f"{which}: rho({lo}) = {r_lo!r} is not below 1 at the bracket's low end")
        if not r_hi >= 1.0:
            problems.append(f"{which}: rho({hi}) = {r_hi!r} is below 1 at the bracket's high end")
    elif cls == "stable_throughout_scan":
        points = int(np.floor((scan_max * (1.0 + 1e-12) - eps0) / step))
        for k in sorted({0, points, int(rng.integers(0, points + 1))}):
            t = eps0 + k * step
            r = rho(w, b, which, t)
            if not r < 1.0:
                problems.append(f"{which}: rho({t}) = {r!r} >= 1 inside a scan reported stable")
    elif cls == "unstable_from_start":
        r = rho(w, b, which, eps0)
        if not r >= 1.0:
            problems.append(f"{which}: rho({eps0}) = {r!r} < 1 but reported unstable from start")
    else:
        problems.append(f"{which}: unknown classification {cls!r}")
    return problems


def check_violation(w: np.ndarray, b: np.ndarray, t: float, reported: float, which: str) -> list[str]:
    """Replay a stability-violation certificate (t, rho, which)."""
    r = rho(w, b, which, t)
    if r < 1.0 - REPLAY_SLACK:
        return [f"certificate {which} at t={t} (rho {reported!r}) replays to rho {r!r}"]
    return []


def check_stable_on_grid(w: np.ndarray, b: np.ndarray, steps: int) -> list[str]:
    """rho(P) < 1 and rho(R) < 1 at t = upper*k/(steps+1), k = 1..steps, upper = 2/rho(B)."""
    upper = 2.0 / rho_b(b)
    for k in range(1, steps + 1):
        t = upper * k / (steps + 1)
        for which in ("P", "R"):
            r = rho(w, b, which, t)
            if not r < 1.0:
                return [f"{which}: rho({t}) = {r!r} >= 1 in a family reported stable on (0, 2/rho(B))"]
    return []

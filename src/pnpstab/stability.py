"""Spectral-radius profiles, stability thresholds, bound suites, and fuzzing.

The central objects are scans of t -> rho(P(t)) and t -> rho(R(t)) for an
operator family: profiles over a grid, first-crossing threshold searches,
grid assertions of the 2/rho(B) stability bounds, slope checks against
the -pi^T B e prediction, and a randomized conjecture fuzzer that emits
replayable violation certificates.
"""

from __future__ import annotations

import csv
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import NoConvergenceError, SingularShiftError
from .generators import (
    random_alpha_beta,
    random_bipartite_stochastic,
    random_blur_kernel,
    random_doubly_stochastic,
    random_nonneg_diagonal,
    random_positive_stochastic,
    random_unit_psd,
)
from .matrices import is_positive_semidefinite, structure, validate_stochastic
from .operators import (
    OperatorFamily,
    alpha_beta_B,
    build_deblur,
    build_superres,
    conjecture_hypotheses,
    ConjectureHypotheses,
    _R_schur,
    gram,
    kernel_denoiser,
    make_family,
    predicted_slope,
)
from .spectral import _certified_powers, rho_stack

__all__ = [
    "StabilityProfile",
    "ThresholdReport",
    "SlopeCheck",
    "ConjectureTrialResult",
    "CampaignSummary",
    "SuiteInstanceResult",
    "rho_on_grid",
    "profile",
    "profile_to_csv",
    "stability_threshold",
    "check_theorem_bound",
    "slope_check",
    "evaluate_conjecture_family",
    "conjecture_trial",
    "run_campaign",
    "suite_family",
    "run_suite",
    "THEOREMS",
    "GENERATORS",
]

THEOREMS = ("dbl_stochastic", "inpainting", "alpha_beta", "conjecture")
GENERATORS = ("imaging", "general_psd")

_VIOLATION_SLACK = 1e-12
_SUITE_SLACK = 1e-10
_REJECTION_ROUNDS = 1000

# Float64 entries of one stacked block of P(t) or R(t) matrices (256 KiB).
# At n >= 182 a block is a single matrix, so large families keep the memory of one point.
_BLOCK_ENTRIES = 2**15


def _block_points(n: int) -> int:
    return max(1, _BLOCK_ENTRIES // (n * n))


def _same_spectrum(family: OperatorFamily, which: str):
    """ts -> (m, ok), one slice per t: m[k] has the spectrum of P(t) or R(t) where ok[k], and ok
    is False only at a singular shift of R. Every rho that pnpstab measures is read off it.

    P(t) = W (I - tB) = W - t WB is affine in t, so for P it is W - t WB for any B, with WB
    formed once; the closure keeps it as `.wb`. For R it is R(t) in B's real Schur basis, with
    its singular-shift mask (`operators._R_schur`). Any which other than "P" or "R" raises
    ValueError before any product or decomposition.
    """
    if which not in ("P", "R"):
        raise ValueError(f"which must be 'P' or 'R', got {which!r}")
    w, b = family.W.matrix, family.B
    if which == "P":
        wb = w @ b

        def affine(ts: np.ndarray):
            return w - ts[:, None, None] * wb, np.ones(len(ts), dtype=bool)

        affine.wb = wb
        return affine

    return _R_schur(w, b)[0]


def _deflate_e(family: OperatorFamily, wb: np.ndarray) -> tuple[float, np.ndarray, np.ndarray] | None:
    """(beta, W2, W2B2) when B's row sums equal one beta > 0 within rounding, else None; wb is
    the product WB of P's `_same_spectrum`.

    We = e and Be = beta e make e an eigenvector of P(t) = W (I - tB) with eigenvalue 1 - t beta.
    The Householder reflector H = I - 2vv^T / v^Tv, v = e_1 + e / sqrt(n), has first column
    -e / sqrt(n), so H P(t) H = [[1 - t beta, *], [0, W2 - t W2B2]], W2 and W2B2 the trailing
    (n-1)x(n-1) blocks of HWH and H WB H, and the rest of P(t)'s spectrum is that of
    W2 - t W2B2 (deflation: Golub & Van Loan, Matrix Computations, 4th ed., sec. 7.4), whether
    or not B is symmetric. Row sums within n eps max_i sum_j |b_ij| of each other keep the
    dropped column H P(t) H [1:, 0] within the rounding that the product WB already carries.
    """
    b, n = family.B, family.n
    rows = b.sum(axis=1)
    beta = float(rows.mean())
    if not beta > 0.0 or np.ptp(rows) > n * np.finfo(float).eps * np.abs(b).sum(axis=1).max():
        return None
    v = np.full(n, 1.0 / math.sqrt(n))
    v[0] += 1.0
    v2 = (2.0 / (v @ v)) * v

    def trailing_block(m):  # of H m H, by two rank-one updates
        m = m - np.outer(v2, v @ m)
        return (m - np.outer(m @ v, v2))[1:, 1:]

    return beta, trailing_block(family.W.matrix), trailing_block(wb)


def rho_on_grid(family: OperatorFamily, which: str, ts) -> np.ndarray:
    """rho(P(t)) or rho(R(t)) at every t of a 1-D grid.

    The matrices are `_same_spectrum`'s, eigensolved by `spectral.rho_stack`,
    so each value is bitwise its own one-point `rho_on_grid` value and within
    1e-12 relative of `spectral.rho` of `P_of(family, t)` or `R_of(family, t)`.
    inf marks a singular shift I + tB (R only) and NaN an eigensolver failure.
    The grid is evaluated in blocks of at most `_BLOCK_ENTRIES` stacked
    entries, with one stacked eigensolve per block; a slice at a singular
    shift is not eigensolved.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValueError(f"expected a 1-D grid of t values, got shape {ts.shape}")
    if not np.isfinite(ts).all() or (which == "R" and (ts < 0.0).any()):
        raise ValueError("t must be finite, and nonnegative for R")
    same_spectrum = _same_spectrum(family, which)
    radii = np.full(ts.size, np.inf)
    step = _block_points(family.n)
    for lo in range(0, ts.size, step):
        m, ok = same_spectrum(ts[lo : lo + step])
        radii[lo : lo + step][ok] = rho_stack(m[ok])
    return radii


def _first_unstable(family: OperatorFamily, ts: np.ndarray, limit: float) -> tuple[float, float, str] | None:
    """First (t, rho, which) in grid order with rho >= limit, or None.

    At each t, P is tried before R; a singular shift counts as rho = inf.
    Each operator is evaluated on the whole grid by one `rho_on_grid` call.
    An eigensolver failure met before any crossing raises
    NoConvergenceError; one past it is ignored.
    """
    radii = np.column_stack([rho_on_grid(family, "P", ts), rho_on_grid(family, "R", ts)])
    bad = np.argwhere(~(radii < limit))  # row-major: by t, then P before R
    if not bad.size:
        return None
    k, j = bad[0]
    r = float(radii[k, j])
    if math.isnan(r):
        raise NoConvergenceError(f"eigensolver failed at t = {ts[k]}")
    return float(ts[k]), r, "PR"[j]


@dataclass(frozen=True)
class StabilityProfile:
    """rho(P(t)) and rho(R(t)) sampled on a common grid.

    NaN marks points where the value is undefined (singular shift) or the
    eigensolver failed; the scan itself never aborts.
    """

    grid: np.ndarray
    rho_P: np.ndarray
    rho_R: np.ndarray


def profile(family: OperatorFamily, t_min: float, t_max: float, steps: int) -> StabilityProfile:
    """Sample both spectral radii at `steps` uniform points of [t_min, t_max]."""
    if not (0.0 <= t_min < t_max):
        raise ValueError("need 0 <= t_min < t_max")
    if steps < 2:
        raise ValueError("need steps >= 2")
    grid = np.linspace(t_min, t_max, steps)
    rho_p = rho_on_grid(family, "P", grid)
    rho_r = rho_on_grid(family, "R", grid)
    rho_r[np.isinf(rho_r)] = np.nan
    return StabilityProfile(grid=grid, rho_P=rho_p, rho_R=rho_r)


def profile_to_csv(prof: StabilityProfile, path) -> None:
    """Write `t,rho_P,rho_R` rows at 12 significant digits; NaN -> empty field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "rho_P", "rho_R"])
        for t, rp, rr in zip(prof.grid, prof.rho_P, prof.rho_R):
            writer.writerow(
                [
                    f"{t:.12g}",
                    "" if math.isnan(rp) else f"{rp:.12g}",
                    "" if math.isnan(rr) else f"{rr:.12g}",
                ]
            )


@dataclass(frozen=True)
class ThresholdReport:
    """First loss of stability found by a grid scan plus a bracketed secant.

    `bracket` (lo, hi) has rho(lo) < 1 <= rho(hi) and is no wider than
    `bisect_tol`, the maximum bracket width, unless lo and hi are adjacent
    floats; T_star is its midpoint. The classification is relative to the
    declared scan window: rho is not monotone in t, so T_star is the first
    crossing at the scanned resolution, not a global supremum. Every rho
    is a one-point `rho_on_grid` value, eigensolved from the matrix that the
    certificate squares; scan points that ||M^k||_F <= 1/2 proves stable,
    certified a block of scan points at a time, cost no eigensolve and
    change no field. For P where Be = beta e, the sign of rho - 1 may
    come from 1 - t beta and the deflated rest of P instead; the bracket
    holds the same sign change, so T_star moves by at most bisect_tol where
    rho - 1 changes sign once between the two scan points.
    """

    which: str
    classification: str
    T_star: float | None
    bracket: tuple[float, float] | None
    bisect_tol: float
    scan_max: float
    grid_step: float
    eps0: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def _rho_at(same_spectrum, t: float) -> float:
    """rho at t from a `_same_spectrum` closure, bitwise the one-point `rho_on_grid` value
    (inf at a singular shift); an eigensolver failure raises NoConvergenceError."""
    m, ok = same_spectrum(np.array([t]))
    r = float(rho_stack(m)[0]) if ok[0] else math.inf
    if math.isnan(r):
        raise NoConvergenceError(f"eigensolver failed at t = {t}")
    return r


def stability_threshold(
    family: OperatorFamily,
    which: str,
    scan_max: float,
    grid_step: float | None = None,
    bisect_tol: float = 1e-6,
    eps0: float = 1e-4,
) -> ThresholdReport:
    """Locate the first t > 0 with rho >= 1 (zero slack) inside the scan.

    Scans t = eps0, eps0 + grid_step, ... <= scan_max; a crossing is
    refined by Illinois regula falsi on rho - 1 until the bracket is no
    wider than bisect_tol, or until its ends are adjacent floats when
    bisect_tol is finer than the float spacing at the crossing. Each rho - 1
    is a one-point `rho_on_grid` value less 1, except for P where Be = beta e
    (below). The scan certifies a block of
    `rho_on_grid`'s block size at a time, then walks its unproved points.
    One stacked squaring (`spectral._certified_powers`) per block finds some
    ||M^k||_F <= 1/2 (k = 2, 4, ..., 2^16; past 64 only while the powers
    decay) of a matrix M with the spectrum of P(t) or R(t), a slice of the
    call's one `_same_spectrum` function (one WB for P, one eigh or real Schur
    form of B for R); that proves rho <= 2^(-1/k) < 1 - 1.06e-5 without an
    eigensolve, and spares the point eps0, where rho is near 1 - eps0 pi^T B e. The points
    it leaves are eigensolved in order, and nothing past the first crossing
    is eigensolved; the grid point before the crossing is eigensolved for
    the secant if the walk has not done so. The eigensolve reads the same M,
    within about kappa(lambda) n eps of each eigenvalue, and the certified
    bound sits 1.06e-5 below 1, so every report is the one an eigensolve at
    every scan point gives while kappa(lambda) n eps << 1e-5.

    For P where B's row sums equal one beta > 0 within rounding (`_deflate_e`),
    P(t) has the eigenvalue 1 - t beta on e, and the rest of its spectrum is
    that of W2 - t W2B2. A point the walk evaluates gets |1 - t beta| - 1 where
    that is >= 0 (rho >= 1), or where `_certified_powers` proves W2 - t W2B2
    stable (rho < 1); only other points are eigensolved. The sign is that of
    rho - 1, by the argument above, since the deflation drops no more than the
    rounding of WB. The value is not always rho - 1, so the secant may step
    elsewhere: where rho - 1 changes sign once between the two scan points,
    T_star moves by at most bisect_tol.
    """
    if grid_step is None:
        grid_step = scan_max / 2048.0
    if not (0.0 < eps0 < grid_step < scan_max < math.inf and 0.0 < bisect_tol < math.inf):
        raise ValueError(
            f"need 0 < eps0 ({eps0}) < grid_step ({grid_step}) < scan_max ({scan_max}) < inf, 0 < bisect_tol < inf"
        )

    def report(classification, t_star=None, bracket=None):
        return ThresholdReport(
            which=which,
            classification=classification,
            T_star=t_star,
            bracket=bracket,
            bisect_tol=bisect_tol,
            scan_max=scan_max,
            grid_step=grid_step,
            eps0=eps0,
        )

    same_spectrum = _same_spectrum(family, which)
    deflated = _deflate_e(family, same_spectrum.wb) if which == "P" else None

    def f(t: float) -> float:
        if deflated is not None:
            beta, w2, w2b2 = deflated
            e_radius = abs(1.0 - t * beta)  # of P(t)'s eigenvalue on e
            if e_radius >= 1.0 or _certified_powers((w2 - t * w2b2)[None])[0] > 0:
                return e_radius - 1.0  # the sign of rho(P(t)) - 1
        return _rho_at(same_spectrum, t) - 1.0

    size = _block_points(family.n)
    edge = scan_max * (1.0 + 1e-12)
    # The next scan point, the last point of the blocks walked, and the last (t, f(t)) eigensolved.
    t, before, solved = eps0, None, (None, None)
    while t <= edge:
        points = np.cumsum(np.append(t, np.full(size, grid_step)))  # bitwise the running sum t += grid_step
        block, t = points[:-1][points[:-1] <= edge], float(points[-1])
        m, ok = same_spectrum(block)
        proved = np.zeros(block.size, dtype=bool)
        proved[ok] = _certified_powers(m[ok]) > 0  # a singular shift is never squared
        ts = block.tolist()
        for k in np.flatnonzero(~proved):
            hi, f_hi = ts[k], f(ts[k])
            if f_hi < 0.0:
                solved = hi, f_hi
                continue
            lo = ts[k - 1] if k else before
            if lo is None:
                return report("unstable_from_start")
            f_lo = solved[1] if solved[0] == lo else f(lo)  # the secant needs rho where the scan certified
            kept = None  # Illinois: f of an end kept twice halves
            while hi - lo > bisect_tol:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break  # lo and hi are adjacent floats: no finer bracket exists
                x = mid  # while rho(hi) is a singular shift (inf), or when the secant point is not inside
                if math.isfinite(f_hi):
                    # Step 0.4*bisect_tol toward the farther end: no point lands on the crossing,
                    # and a good estimate closes the bracket on the next step.
                    x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
                    x += 0.4 * bisect_tol if hi - x > x - lo else -0.4 * bisect_tol
                    if not lo < x < hi:
                        x = mid
                f_x = f(x)
                if f_x >= 0.0:
                    hi, f_hi, f_lo = x, f_x, f_lo * (0.5 if kept == "lo" else 1.0)
                    kept = "lo"
                else:
                    lo, f_lo, f_hi = x, f_x, f_hi * (0.5 if kept == "hi" else 1.0)
                    kept = "hi"
            return report("stable_then_unstable", t_star=0.5 * (lo + hi), bracket=(lo, hi))
        before = ts[-1]
    return report("stable_throughout_scan")


def _open_grid(upper: float, points: int) -> np.ndarray:
    # t_k = upper * k / (points + 1), k = 1..points: evenly spaced inside (0, upper).
    return upper * np.arange(1, points + 1) / (points + 1)


def _require(condition: bool, details: str) -> None:
    if not condition:
        raise ValueError(details)


def _check_hypotheses(family: OperatorFamily, theorem: str) -> None:
    w = family.W.matrix
    b = family.B
    tol = 1e-10
    if theorem == "dbl_stochastic":
        info = structure(family.W)
        _require(info.doubly_stochastic, "W is not doubly stochastic")
        wtw = validate_stochastic(w.T @ w, tol=1e-8)
        wwt = validate_stochastic(w @ w.T, tol=1e-8)
        _require(structure(wtw).irreducible, "W^T W is not irreducible")
        _require(structure(wwt).irreducible, "W W^T is not irreducible")
        _require(is_positive_semidefinite(b, tol), "B is not positive semidefinite")
        _require(np.abs(b.sum(axis=1)).max() > tol, "Be = 0")
    elif theorem == "inpainting":
        _require(structure(family.W).irreducible, "W is not irreducible")
        off = b - np.diag(np.diag(b))
        _require(np.abs(off).max() <= 1e-12, "B is not diagonal")
        _require(np.diag(b).min() >= -tol, "B has negative diagonal entries")
        _require(np.diag(b).max() > tol, "B = 0")
    elif theorem == "alpha_beta":
        _require(structure(family.W).primitive, "W is not primitive")
        n = family.n
        beta = float(b[0, 1]) if n > 1 else 0.0
        alpha = float(b[0, 0]) - beta
        expected = alpha * np.eye(n) + beta * np.ones((n, n))
        _require(np.abs(b - expected).max() <= tol, "B is not of the form alpha*I + beta*E")
        _require(alpha >= -tol, "alpha < 0")
        _require(alpha + n * beta > tol, "alpha + n*beta <= 0")
    elif theorem == "conjecture":
        hyp = conjecture_hypotheses(family)
        _require(hyp.w_primitive, "W is not primitive")
        _require(hyp.b_psd, "B is not positive semidefinite")
        _require(hyp.be_bounded_by_rho, f"Be exceeds rho(B)e (margin {hyp.margin})")
        _require(hyp.pibe_positive, f"pi^T B e = {hyp.pibe} is not positive")
    else:
        raise ValueError(f"unknown theorem {theorem!r}; expected one of {THEOREMS}")


def check_theorem_bound(family: OperatorFamily, theorem: str, grid_steps: int = 64) -> tuple[float, float, str] | None:
    """First (t, rho, which) with rho >= 1 - 1e-10 at interior points of
    (0, 2/rho(B)), or None when rho(P) and rho(R) stay below it.

    Hypotheses of the named bound are verified first and raise ValueError
    when violated. The earliest failing grid point is reported, P first
    when both fail there.
    """
    if grid_steps < 1:
        raise ValueError("need grid_steps >= 1")
    _check_hypotheses(family, theorem)
    if family.rho_B <= 0.0:
        raise ValueError("rho(B) = 0; the interval (0, 2/rho(B)) is empty")
    return _first_unstable(family, _open_grid(2.0 / family.rho_B, grid_steps), 1.0 - _SUITE_SLACK)


class SlopeCheck(NamedTuple):
    fd_slope: float
    predicted: float
    abs_error: float


def slope_check(family: OperatorFamily, which: str, h: float = 1e-5) -> SlopeCheck:
    """One-sided finite-difference slope of rho at 0 vs the -pi^T B e prediction.

    Uses rho(0) = 1 exactly (W is stochastic). h should stay at or below
    1e-4 so t = h remains inside the analyticity neighborhood.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    r = _rho_at(_same_spectrum(family, which), h)
    if math.isinf(r):
        raise SingularShiftError(f"I + tB is numerically singular at t = {h}")
    fd = (r - 1.0) / h
    predicted = predicted_slope(family)
    return SlopeCheck(fd_slope=fd, predicted=predicted, abs_error=abs(fd - predicted))


@dataclass(frozen=True, slots=True)
class ConjectureTrialResult:
    """One fuzzer trial: generated instance, hypotheses, and verdict.

    A `violation` verdict carries a certificate (t, rho, which) with
    0 < t < 2/rho(B) and rho >= 1 - 1e-12; trials are pure functions of
    (n, generator, seed), so certificates replay exactly.
    """

    seed: int
    n: int
    generator: str
    hypotheses: ConjectureHypotheses
    verdict: str
    certificate: tuple[float, float, str] | None

    def to_json_dict(self) -> dict:
        return {"record": "trial", **asdict(self)}


def evaluate_conjecture_family(family: OperatorFamily) -> tuple[ConjectureHypotheses, str, tuple[float, float, str] | None]:
    """Check hypotheses, then scan 256 interior points of (0, 2/rho(B)) for a
    stability violation (rho >= 1 - 1e-12)."""
    hyp = conjecture_hypotheses(family)
    if not hyp.all_met():
        return hyp, "hypotheses_unmet", None
    certificate = _first_unstable(family, _open_grid(2.0 / family.rho_B, 256), 1.0 - _VIOLATION_SLACK)
    return hyp, "pass" if certificate is None else "violation", certificate


def _imaging_instance(rng: np.random.Generator, n: int) -> OperatorFamily:
    signal = rng.uniform(0.0, 1.0, size=n)
    bandwidth = float(rng.uniform(0.2, 1.0))
    w = kernel_denoiser(signal, bandwidth)
    h = build_deblur(random_blur_kernel(rng, n), n)
    op = build_superres(h, stride=2) if n >= 4 and rng.random() < 0.5 else h
    return make_family(w, gram(op))


def _general_psd_instance(rng: np.random.Generator, n: int) -> OperatorFamily:
    for _ in range(_REJECTION_ROUNDS):
        family = make_family(random_positive_stochastic(rng, n), random_unit_psd(rng, n))
        if conjecture_hypotheses(family).all_met():
            return family
    raise ValueError(f"no admissible (W, B) in {_REJECTION_ROUNDS} rejection rounds")


def conjecture_trial(n: int, generator: str, seed: int) -> ConjectureTrialResult:
    """Run one seeded conjecture trial; deterministic in (n, generator, seed)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)
    if generator == "imaging":
        family = _imaging_instance(rng, n)
    elif generator == "general_psd":
        family = _general_psd_instance(rng, n)
    else:
        raise ValueError(f"unknown generator {generator!r}; expected one of {GENERATORS}")
    return ConjectureTrialResult(seed, n, generator, *evaluate_conjecture_family(family))


@dataclass(frozen=True)
class CampaignSummary:
    trials: int
    passes: int
    violations: int
    hypotheses_unmet: int
    certificates: tuple[tuple[int, int, str, float, float, str], ...]

    def to_json_dict(self) -> dict:
        return {"record": "summary", **asdict(self)}


def _trial_n(seed: int, n_min: int, n_max: int) -> int:
    return int(np.random.default_rng([seed, 0x6E]).integers(n_min, n_max + 1))


def _run_trial_spec(spec: tuple[int, str, int]) -> ConjectureTrialResult:
    # The pool pickles this function by name. Mapping `conjecture_trial` itself fails with PicklingError
    # once a wrapper with another `__module__` (a tracer's, say) replaces the public name.
    n, generator, seed = spec
    return conjecture_trial(n, generator, seed)


def run_campaign(
    trials: int,
    n_range: tuple[int, int] = (2, 8),
    generators: tuple[str, ...] = ("imaging", "general_psd"),
    base_seed: int = 0,
    workers: int = 1,
) -> tuple[list[ConjectureTrialResult], CampaignSummary]:
    """Run `trials` seeded conjecture trials; trial i uses seed base_seed + i.

    Results are merged in seed order, so the output is identical for any
    worker count.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    n_min, n_max = n_range
    if not (2 <= n_min <= n_max):
        raise ValueError("need 2 <= n_min <= n_max")
    if not generators:
        raise ValueError("need at least one generator")
    for g in generators:
        if g not in GENERATORS:
            raise ValueError(f"unknown generator {g!r}; expected one of {GENERATORS}")
    specs = []
    for i in range(trials):
        seed = base_seed + i
        specs.append((_trial_n(seed, n_min, n_max), generators[i % len(generators)], seed))
    # A pool starts all of its workers at the first submit, however few the tasks or CPUs.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, trials, cpus)
    if workers <= 1:
        results = [_run_trial_spec(s) for s in specs]
    else:
        chunk = max(1, trials // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_trial_spec, specs, chunksize=chunk))
    counts = Counter(r.verdict for r in results)
    certificates = tuple(
        (r.seed, r.n, r.generator, r.certificate[0], r.certificate[1], r.certificate[2])
        for r in results
        if r.verdict == "violation"
    )
    summary = CampaignSummary(
        trials=trials,
        passes=counts.get("pass", 0),
        violations=counts.get("violation", 0),
        hypotheses_unmet=counts.get("hypotheses_unmet", 0),
        certificates=certificates,
    )
    return results, summary


@dataclass(frozen=True, slots=True)
class SuiteInstanceResult:
    suite: str
    seed: int
    n: int
    passed: bool
    which_failed: str | None
    violation: tuple[float, float] | None

    def to_json_dict(self) -> dict:
        return {"record": "instance", **asdict(self)}


def suite_family(suite: str, seed: int, n: int) -> OperatorFamily:
    """Deterministically generate one instance of a theorem property suite."""
    rng = np.random.default_rng(seed)
    if suite == "dbl_stochastic":
        w = random_doubly_stochastic(rng, n)
        b = random_unit_psd(rng, n)
    elif suite == "inpainting":
        if n >= 3 and rng.random() < 0.25:
            w = random_bipartite_stochastic(rng, n)
        else:
            w = random_positive_stochastic(rng, n)
        b = random_nonneg_diagonal(rng, n)
    elif suite == "alpha_beta":
        w = random_positive_stochastic(rng, n)
        alpha, beta = random_alpha_beta(rng, n)
        b = alpha_beta_B(alpha, beta, n)
    elif suite == "conjecture":
        return _general_psd_instance(rng, n)
    else:
        raise ValueError(f"unknown suite {suite!r}; expected one of {THEOREMS}")
    return make_family(w, b)


def run_suite(
    suite: str,
    trials: int,
    n_max: int = 8,
    base_seed: int = 0,
    grid_steps: int = 64,
) -> tuple[list[SuiteInstanceResult], dict]:
    """Run `trials` seeded instances of a theorem suite over n in [2, n_max].

    Each instance checks the suite's hypotheses once, then asserts
    rho(P) < 1 and rho(R) < 1 at interior grid points of (0, 2/rho(B)).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    results = []
    for i in range(trials):
        seed = base_seed + i
        n = _trial_n(seed, 2, n_max)
        failure = check_theorem_bound(suite_family(suite, seed, n), suite, grid_steps=grid_steps)
        results.append(
            SuiteInstanceResult(
                suite=suite,
                seed=seed,
                n=n,
                passed=failure is None,
                which_failed=None if failure is None else failure[2],
                violation=None if failure is None else failure[:2],
            )
        )
    summary = {
        "record": "summary",
        "suite": suite,
        "trials": trials,
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
    }
    return results, summary

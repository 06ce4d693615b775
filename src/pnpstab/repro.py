"""Bundled worked examples with known spectral behavior.

One table maps each example id to the builder of its fixed (W, B)
family and to its profile window; `_checks_for` holds the expected values
with per-value tolerances: closed-form eigenvalues, slope values,
stability thresholds, and instability windows. Running an example
produces a profile CSV, a JSON report, and a pass/fail verdict per check.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .matrices import validate_stochastic
from .operators import (
    OperatorFamily,
    P_of,
    R_of,
    conjecture_hypotheses,
    make_family,
    predicted_slope,
)
from .spectral import eigenvalues
from .stability import profile, profile_to_csv, rho_on_grid, stability_threshold

__all__ = ["EXAMPLE_IDS", "CheckResult", "ReproReport", "example_family", "repro", "repro_all"]


def _frac(rows) -> np.ndarray:
    return np.array([[float(Fraction(*x)) for x in row] for row in rows])


# Fixed matrices behind the example ids, entered as exact rationals.
_W_SWAP = _frac([[(0, 1), (1, 1)], [(1, 1), (0, 1)]])  # [[0,1],[1,0]]
_B_HALF_E = _frac([[(1, 2), (1, 2)], [(1, 2), (1, 2)]])
_W_1_6 = _frac([[(7, 10), (3, 10)], [(6, 10), (4, 10)]])
_B_1_6 = _frac([[(34, 10), (-65, 10)], [(-65, 10), (126, 10)]])
_W_BLUR = _frac([[(3, 10), (7, 10)], [(6, 10), (4, 10)]])
_H_BLUR = _frac([[(913, 1000), (87, 1000)], [(87, 1000), (913, 1000)]])
_W_1_13 = _frac([[(0, 1), (1, 1)], [(1, 2), (1, 2)]])
_H_1_13 = _frac([[(48, 100), (52, 100)], [(52, 100), (48, 100)]])
_B1_1_14 = _frac([[(3, 1), (0, 1)], [(0, 1), (1, 2)]])
_B2_1_14 = _frac([[(4, 10), (-1, 10)], [(-1, 10), (2, 10)]])


def _swap_family(b) -> OperatorFamily:
    return make_family(validate_stochastic(_W_SWAP, tol=0.0), b)


def _family(w, b) -> OperatorFamily:
    return make_family(validate_stochastic(w), b)


# Each example id -> (builder of its family, profile window (t_min, t_max, steps)).
_EXAMPLES = {
    "remark_1_3_P": (lambda: _swap_family(_W_SWAP), (0.0, 3.0, 301)),
    "remark_1_3_R": (lambda: _swap_family(_B_HALF_E), (0.0, 3.0, 301)),
    "remark_1_6": (lambda: _family(_W_1_6, _B_1_6), (0.0, 0.5, 251)),
    "remark_1_7": (lambda: _family(_W_BLUR, _H_BLUR.T @ _H_BLUR), (0.0, 3.0, 301)),
    "example_1_13": (lambda: _family(_W_1_13, _H_1_13[:1, :].T @ _H_1_13[:1, :]), (0.0, 4.2, 301)),
    "example_1_14_B1": (lambda: _family(_W_BLUR, _B1_1_14), (0.0, 20.0, 401)),
    "example_1_14_B2": (lambda: _family(_W_BLUR, _B2_1_14), (0.0, 20.0, 401)),
}
EXAMPLE_IDS = tuple(_EXAMPLES)


def example_family(example: str) -> OperatorFamily:
    """The (W, B) family behind an example id."""
    if example not in _EXAMPLES:
        raise ValueError(f"unknown example {example!r}; expected one of {EXAMPLE_IDS}")
    return _EXAMPLES[example][0]()


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: object
    computed: object
    tolerance: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "computed": self.computed,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class ReproReport:
    example: str
    checks: tuple[CheckResult, ...]
    artifacts: tuple[str, ...]
    overall_pass: bool

    def to_json_dict(self) -> dict:
        return {
            "example": self.example,
            "overall_pass": self.overall_pass,
            "checks": [c.to_json_dict() for c in self.checks],
            "artifacts": list(self.artifacts),
        }


def _check(name, compute, expected=True, tolerance=0.0) -> CheckResult:
    """Pass when |compute() - expected| <= tolerance; a predicate passes only when True.
    A failed computation fails this check alone, with the error as its computed value."""
    try:
        computed = compute()
        if isinstance(computed, np.generic):
            computed = computed.item()
        passed = abs(computed - expected) <= tolerance
    except Exception as exc:  # a failed computation fails the check, not the report
        return CheckResult(name, expected, f"error: {exc}", tolerance, False)
    return CheckResult(name, expected, computed, tolerance, passed)


def _eig_error(matrix, expected) -> float:
    """Largest distance between the sorted eigenvalues of matrix and the sorted expected ones."""
    want = np.sort_complex(np.asarray(expected, dtype=complex))
    return np.max(np.abs(np.sort_complex(eigenvalues(matrix)) - want))


def _checks_for(example: str, family: OperatorFamily) -> list[CheckResult]:
    """The checks of one example id; an id with no checks here raises ValueError."""
    if example == "remark_1_3_P":
        return [
            _check(f"eig_P@t={t}", lambda t=t: _eig_error(P_of(family, t), [1.0 - t, -(1.0 + t)]), 0.0, 1e-12)
            for t in (0.1, 0.5, 1.0, 3.0)
        ]
    if example == "remark_1_3_R":
        return [
            _check(f"eig_R@t={t}", lambda t=t: _eig_error(R_of(family, t), [-1.0, 1.0 / (t + 1.0)]), 0.0, 1e-12)
            for t in (0.1, 0.5, 1.0, 3.0)
        ]
    if example == "remark_1_6":
        ts = 0.5 * np.arange(1, 51) / 51  # 50 points strictly inside (0, 0.5)
        return [
            _check("piTBe", lambda: -predicted_slope(family), float(Fraction(-1, 30)), 1e-12),
            _check("rho_P>1_on_(0,0.5)", lambda: rho_on_grid(family, "P", ts).min() > 1.0),
            _check("rho_R>1_on_(0,0.5)", lambda: rho_on_grid(family, "R", ts).min() > 1.0),
        ]
    if example == "remark_1_7":
        ts = 2.0 + np.arange(1, 26) / 25  # 25 points inside (2, 3]
        return [
            _check("rho_B", lambda: family.rho_B, 1.0, 1e-10),
            _check("T_star_P", lambda: stability_threshold(family, "P", scan_max=3.0).T_star, 2.0, 1e-3),
            _check("rho_R<1_on_(2,3]", lambda: rho_on_grid(family, "R", ts).max() < 1.0),
        ]
    if example == "example_1_13":
        ts = np.linspace(3.87, 3.99, 20)
        return [
            _check("2/rho_B", lambda: 2.0 / family.rho_B, 3.9936, 1e-3),
            _check("Be_not_bounded_by_rho", lambda: not conjecture_hypotheses(family).be_bounded_by_rho),
            _check("(Be)_2", lambda: family.B[1].sum(), 0.52, 1e-12),  # (Be)_2 is row 2's sum
            _check("(Be)_2>rho_B", lambda: family.B[1].sum() > family.rho_B),
            _check("rho_P>1_on_[3.87,3.99]", lambda: rho_on_grid(family, "P", ts).min() > 1.0),
        ]
    if example in ("example_1_14_B1", "example_1_14_B2"):
        expected_t, expected_bound = (4.777, float(Fraction(2, 3))) if example.endswith("B1") else (11.904, 4.5308)
        t_star = functools.cache(lambda: stability_threshold(family, "R", scan_max=20.0).T_star)
        return [
            _check("T_star_R", t_star, expected_t, 1e-2),
            _check("2/rho_B", lambda: 2.0 / family.rho_B, expected_bound, 1e-3),
            _check("T_star>2/rho_B", lambda: t_star() > 2.0 / family.rho_B),
        ]
    raise ValueError(f"example {example!r} has no checks")


def repro(example: str, out_dir) -> ReproReport:
    """Run one bundled example: emit its profile CSV and JSON report."""
    family = example_family(example)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{example}_profile.csv"
    report_path = out / f"{example}_report.json"
    t_min, t_max, steps = _EXAMPLES[example][1]
    profile_to_csv(profile(family, t_min, t_max, steps), csv_path)
    checks = tuple(_checks_for(example, family))
    report = ReproReport(example, checks, (str(csv_path), str(report_path)), all(c.passed for c in checks))
    report_path.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    return report


def repro_all(out_dir) -> list[ReproReport]:
    return [repro(example, out_dir) for example in EXAMPLE_IDS]

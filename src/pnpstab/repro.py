"""Bundled worked examples with known spectral behavior.

Each example id maps to a fixed (W, B) pair plus expected values with
per-value tolerances: closed-form eigenvalues, slope values, stability
thresholds, and instability windows. Running an example produces a
profile CSV, a JSON report, and a pass/fail verdict per check.
"""

from __future__ import annotations

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

EXAMPLE_IDS = (
    "remark_1_3_P",
    "remark_1_3_R",
    "remark_1_6",
    "remark_1_7",
    "example_1_13",
    "example_1_14_B1",
    "example_1_14_B2",
)


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


def example_family(example: str) -> OperatorFamily:
    """The (W, B) family behind an example id."""
    if example == "remark_1_3_P":
        return _swap_family(_W_SWAP)
    if example == "remark_1_3_R":
        return _swap_family(_B_HALF_E)
    if example == "remark_1_6":
        return make_family(validate_stochastic(_W_1_6), _B_1_6)
    if example == "remark_1_7":
        return make_family(validate_stochastic(_W_BLUR), _H_BLUR.T @ _H_BLUR)
    if example == "example_1_13":
        sh = _H_1_13[:1, :]
        return make_family(validate_stochastic(_W_1_13), sh.T @ sh)
    if example == "example_1_14_B1":
        return make_family(validate_stochastic(_W_BLUR), _B1_1_14)
    if example == "example_1_14_B2":
        return make_family(validate_stochastic(_W_BLUR), _B2_1_14)
    raise ValueError(f"unknown example {example!r}; expected one of {EXAMPLE_IDS}")


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


def _value_check(name, computed_fn, expected, tolerance) -> CheckResult:
    try:
        computed = float(computed_fn())
        passed = abs(computed - expected) <= tolerance
    except Exception as exc:  # a failed computation fails the check, not the report
        return CheckResult(name, expected, f"error: {exc}", tolerance, False)
    return CheckResult(name, expected, computed, tolerance, passed)


def _bool_check(name, predicate_fn) -> CheckResult:
    try:
        computed = bool(predicate_fn())
    except Exception as exc:
        return CheckResult(name, True, f"error: {exc}", 0.0, False)
    return CheckResult(name, True, computed, 0.0, computed)


def _eig_check(name, matrix_fn, expected, tolerance=1e-12) -> CheckResult:
    def err():
        vals = np.sort_complex(eigenvalues(matrix_fn()).values)
        want = np.sort_complex(np.asarray(expected, dtype=complex))
        return float(np.max(np.abs(vals - want)))

    try:
        deviation = err()
    except Exception as exc:
        return CheckResult(name, list(map(str, expected)), f"error: {exc}", tolerance, False)
    return CheckResult(name, 0.0, deviation, tolerance, deviation <= tolerance)


def _interior_grid(lo: float, hi: float, count: int) -> np.ndarray:
    # count points strictly inside (lo, hi]
    return lo + (hi - lo) * np.arange(1, count + 1) / count


def _checks_for(example: str, family: OperatorFamily) -> list[CheckResult]:
    checks: list[CheckResult] = []
    if example == "remark_1_3_P":
        for t in (0.1, 0.5, 1.0, 3.0):
            checks.append(_eig_check(f"eig_P@t={t}", lambda t=t: P_of(family, t), [1.0 - t, -(1.0 + t)]))
    elif example == "remark_1_3_R":
        for t in (0.1, 0.5, 1.0, 3.0):
            checks.append(_eig_check(f"eig_R@t={t}", lambda t=t: R_of(family, t), [-1.0, 1.0 / (t + 1.0)]))
    elif example == "remark_1_6":
        checks.append(_value_check("piTBe", lambda: -predicted_slope(family), float(Fraction(-1, 30)), 1e-12))
        ts = _interior_grid(0.0, 0.5, 51)[:-1]  # 50 points strictly inside (0, 0.5)
        checks.append(_bool_check("rho_P>1_on_(0,0.5)", lambda: rho_on_grid(family, "P", ts).min() > 1.0))
        checks.append(_bool_check("rho_R>1_on_(0,0.5)", lambda: rho_on_grid(family, "R", ts).min() > 1.0))
    elif example == "remark_1_7":
        checks.append(_value_check("rho_B", lambda: family.rho_B, 1.0, 1e-10))
        checks.append(
            _value_check(
                "T_star_P",
                lambda: stability_threshold(family, "P", scan_max=3.0).T_star,
                2.0,
                1e-3,
            )
        )
        ts = _interior_grid(2.0, 3.0, 25)
        checks.append(_bool_check("rho_R<1_on_(2,3]", lambda: rho_on_grid(family, "R", ts).max() < 1.0))
    elif example == "example_1_13":
        checks.append(_value_check("2/rho_B", lambda: 2.0 / family.rho_B, 3.9936, 1e-3))
        checks.append(
            _bool_check("Be_not_bounded_by_rho", lambda: not conjecture_hypotheses(family).be_bounded_by_rho)
        )
        be = family.B @ np.ones(family.n)
        checks.append(_value_check("(Be)_2", lambda: be[1], 0.52, 1e-12))
        checks.append(_bool_check("(Be)_2>rho_B", lambda: be[1] > family.rho_B))
        ts = np.linspace(3.87, 3.99, 20)
        checks.append(_bool_check("rho_P>1_on_[3.87,3.99]", lambda: rho_on_grid(family, "P", ts).min() > 1.0))
    elif example in ("example_1_14_B1", "example_1_14_B2"):
        expected_t = 4.777 if example.endswith("B1") else 11.904
        expected_bound = float(Fraction(2, 3)) if example.endswith("B1") else 4.5308
        rep = stability_threshold(family, "R", scan_max=20.0)
        checks.append(_value_check("T_star_R", lambda: rep.T_star, expected_t, 1e-2))
        checks.append(_value_check("2/rho_B", lambda: 2.0 / family.rho_B, expected_bound, 1e-3))
        checks.append(_bool_check("T_star>2/rho_B", lambda: rep.T_star > 2.0 / family.rho_B))
    return checks


_PROFILE_WINDOWS = {
    "remark_1_3_P": (0.0, 3.0, 301),
    "remark_1_3_R": (0.0, 3.0, 301),
    "remark_1_6": (0.0, 0.5, 251),
    "remark_1_7": (0.0, 3.0, 301),
    "example_1_13": (0.0, 4.2, 301),
    "example_1_14_B1": (0.0, 20.0, 401),
    "example_1_14_B2": (0.0, 20.0, 401),
}


def repro(example: str, out_dir) -> ReproReport:
    """Run one bundled example: emit its profile CSV and JSON report."""
    family = example_family(example)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = []
    csv_path = out / f"{example}_profile.csv"
    t_min, t_max, steps = _PROFILE_WINDOWS[example]
    profile_to_csv(profile(family, t_min, t_max, steps), csv_path)
    artifacts.append(str(csv_path))
    try:
        checks = tuple(_checks_for(example, family))
    except Exception as exc:
        checks = (CheckResult("example_computation", "no error", f"error: {exc}", 0.0, False),)
    report = ReproReport(
        example=example,
        checks=checks,
        artifacts=tuple(artifacts) + (str(out / f"{example}_report.json"),),
        overall_pass=all(c.passed for c in checks),
    )
    (out / f"{example}_report.json").write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    return report


def repro_all(out_dir) -> list[ReproReport]:
    return [repro(example, out_dir) for example in EXAMPLE_IDS]

"""Bundled worked examples with known spectral behavior.

One table maps each example id to the builder of its fixed (W, B)
family and to its profile window; `_checks_for` holds the expected values
with per-value tolerances: closed-form eigenvalues, slope values,
stability thresholds, and instability windows. Running an example
produces a profile CSV, a JSON report, and a pass/fail verdict per check.
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
        vals = np.sort_complex(eigenvalues(matrix_fn()))
        want = np.sort_complex(np.asarray(expected, dtype=complex))
        return float(np.max(np.abs(vals - want)))

    try:
        deviation = err()
    except Exception as exc:
        return CheckResult(name, list(map(str, expected)), f"error: {exc}", tolerance, False)
    return CheckResult(name, 0.0, deviation, tolerance, deviation <= tolerance)


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
        ts = 0.5 * np.arange(1, 51) / 51  # 50 points strictly inside (0, 0.5)
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
        ts = 2.0 + np.arange(1, 26) / 25  # 25 points inside (2, 3]
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


def repro(example: str, out_dir) -> ReproReport:
    """Run one bundled example: emit its profile CSV and JSON report."""
    family = example_family(example)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = []
    csv_path = out / f"{example}_profile.csv"
    t_min, t_max, steps = _EXAMPLES[example][1]
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

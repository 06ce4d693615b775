"""The exception types that some caller tells apart, and the numerical failure.

`operators.make_family` and `matrices._is_psd` catch NotSymmetricError,
`pnp.pgd_pnp_run` catches InsufficientDataError and SingularMatrixError,
and `perfbench/tracing.py` counts SingularShiftError by name.
NoConvergenceError is a numerical failure: an eigensolver failed, or a
left Perron vector was rejected. Every other invalid input raises a plain
ValueError. The CLI prints a ValueError or ArithmeticError on one stderr
line and exits 2.
"""


class NotSymmetricError(ValueError):
    """Matrix is not symmetric within the requested tolerance."""

    def __init__(self, max_asymmetry: float):
        super().__init__(f"matrix asymmetry {max_asymmetry} exceeds tolerance")


class InsufficientDataError(ValueError):
    """Trace too short or too converged for rate estimation."""


class NoConvergenceError(ArithmeticError):
    """An eigensolver failed, or a computed left Perron vector was rejected."""


class SingularMatrixError(ArithmeticError):
    """Linear solve hit a pivot below the relative threshold."""

    def __init__(self, pivot_index: int):
        super().__init__(f"matrix numerically singular at pivot {pivot_index}")
        self.pivot_index = pivot_index


class SingularShiftError(ArithmeticError):
    """I + tB is numerically singular at the requested t."""

    def __init__(self, t: float):
        super().__init__(f"I + tB is numerically singular at t = {t}")

"""The exception type that some caller tells apart, and the numerical failure.

`perfbench/tracing.py` counts SingularShiftError by name; `R_of` and
`slope_check` raise it where some shift 1 + t lam_i of B's eigenvalues is zero
within rounding. NoConvergenceError is a numerical failure: an eigensolver
failed, or a left Perron vector was rejected. Every other invalid input raises
a plain ValueError, and a singular linear solve is a mask that `spectral.solve`
returns, not an exception. The CLI prints a ValueError or ArithmeticError on
one stderr line and exits 2. Each is raised with its message already
formatted, so it survives the pickle round trip that brings it back from a
worker process.
"""


class NoConvergenceError(ArithmeticError):
    """An eigensolver failed, or a computed left Perron vector was rejected."""


class SingularShiftError(ArithmeticError):
    """I + tB is singular within rounding at the requested t."""

"""The exception types that some caller tells apart, and the numerical failure.

`pnp.pgd_pnp_run` catches SingularMatrixError, and `perfbench/tracing.py`
counts SingularShiftError by name. NoConvergenceError is a numerical
failure: an eigensolver failed, or a left Perron vector was rejected. Every
other invalid input raises a plain ValueError. The CLI prints a ValueError
or ArithmeticError on one stderr line and exits 2. Each is raised with its
message already formatted, so it survives the pickle round trip that brings
it back from a worker process.
"""


class NoConvergenceError(ArithmeticError):
    """An eigensolver failed, or a computed left Perron vector was rejected."""


class SingularMatrixError(ArithmeticError):
    """Linear solve hit a pivot below the relative threshold."""


class SingularShiftError(ArithmeticError):
    """I + tB is numerically singular at the requested t."""

"""The exception type that some caller tells apart, and the numerical failure.

`perfbench/tracing.py` counts SingularShiftError by name. NoConvergenceError
is a numerical failure: an eigensolver failed, or a left Perron vector was
rejected. Every other invalid input raises a plain ValueError, and a
singular linear solve is a mask that `spectral.solve_stack` returns, not an
exception. The CLI prints a ValueError or ArithmeticError on one stderr line
and exits 2. Each is raised with its message already formatted, so it
survives the pickle round trip that brings it back from a worker process.
"""


class NoConvergenceError(ArithmeticError):
    """An eigensolver failed, or a computed left Perron vector was rejected."""


class SingularShiftError(ArithmeticError):
    """I + tB is numerically singular at the requested t."""

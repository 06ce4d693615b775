"""Property tests for invariants the paper states exactly.

For a stochastic W, P(0) = R(0) = W, so both radii start at 1; and when
Be = 0, P(t)e = R(t)e = e for every t, so neither radius can drop below 1.
The matrix text format gives back every finite float64 bit for bit.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from pnpstab.matrices import read_matrix, validate_stochastic, write_matrix
from pnpstab.operators import make_family
from pnpstab.stability import rho_on_grid

TOL = 1e-12


@st.composite
def positive_stochastic(draw, n):
    m = draw(arrays(np.float64, (n, n), elements=st.floats(0.05, 1.0)))
    return validate_stochastic(m / m.sum(axis=1, keepdims=True))


@st.composite
def psd_family(draw):
    n = draw(st.integers(2, 8))
    w = draw(positive_stochastic(n))
    g = draw(arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
    b = g.T @ g
    return make_family(w, (b + b.T) / 2.0)


@st.composite
def zero_rowsum_family(draw):
    n = draw(st.integers(2, 8))
    w = draw(positive_stochastic(n))
    c = draw(st.floats(0.1, 10.0))
    return make_family(w, c * (np.eye(n) - np.ones((n, n)) / n))


@settings(max_examples=60, deadline=None)
@given(psd_family())
def test_both_radii_are_one_at_t_zero(family):
    for which in ("P", "R"):
        assert abs(rho_on_grid(family, which, [0.0])[0] - 1.0) <= TOL


@settings(max_examples=60, deadline=None)
@given(zero_rowsum_family())
def test_zero_rowsum_b_keeps_both_radii_at_least_one(family):
    ts = 2.0 / family.rho_B * np.arange(1, 33) / 33
    for which in ("P", "R"):
        assert np.all(rho_on_grid(family, which, ts) >= 1.0 - TOL)


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
@example(np.array([[0.0, -0.0, 5e-324], [-5e-324, np.finfo(float).max, -np.finfo(float).max]]))
def test_matrix_file_round_trip_keeps_every_bit(m):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.txt"
        write_matrix(path, m)
        back = read_matrix(path)
    assert back.shape == m.shape
    assert np.array_equal(back.view(np.uint64), m.view(np.uint64))

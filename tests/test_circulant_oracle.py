"""Exact thresholds of circulant families, from their Fourier symbols.

When W and B are both circulant, the Fourier vectors diagonalise both, with
symbols w_k = n ifft(first row of W)_k and b_k likewise (Davis, Circulant
Matrices, 1979). The eigenvalues of P(t) are w_k (1 - t b_k), and those of
R(t) are 1 - w_k + s (2 w_k - 1) with s = 1 / (1 + t b_k). The oracle below
reads the first crossing of rho = 1 off these closed forms and calls no
eigensolver, so it checks `stability_threshold`'s certificate and eigenbasis
paths against exact values.
"""

import numpy as np
import pytest

from pnpstab.matrices import validate_stochastic
from pnpstab.operators import build_deblur, gram, make_family
from pnpstab.stability import stability_threshold


def circulant_family(seed, n):
    rng = np.random.default_rng(seed)
    w = build_deblur(rng.uniform(0.05, 1.0, 5), n)
    b = gram(build_deblur(rng.uniform(0.05, 1.0, 3), n))
    return make_family(validate_stochastic(w), b)


def symbols(family):
    n = family.n
    return n * np.fft.ifft(family.W.matrix[0]), (n * np.fft.ifft(family.B[0])).real


def oracle_P(family):
    """min_k (1 + 1/|w_k|) / b_k over b_k > 0: where |w_k (1 - t b_k)| first reaches 1."""
    w, b = symbols(family)
    keep = b > 0
    return float(np.min((1.0 + 1.0 / np.abs(w[keep])) / b[keep]))


def oracle_R(family):
    """The first t with |1 - w_k + s (2 w_k - 1)| = 1 for some k, or inf.

    f(s) = |a + s d|^2 - 1, with a = 1 - w_k and d = 2 w_k - 1, is a quadratic
    in s with f(1) = |w_k|^2 - 1 < 0 off k = 0, so (0, 1) holds at most its
    smaller root; t = (1/s - 1) / b_k maps it back to the t axis.
    """
    w, b = symbols(family)
    a, d = 1.0 - w, 2.0 * w - 1.0
    alpha, beta, gamma = np.abs(d) ** 2, (a * d.conj()).real, np.abs(a) ** 2 - 1.0
    s = (-beta - np.sqrt(beta**2 - alpha * gamma)) / alpha
    crosses = (np.abs(w) < 1.0) & (b > 0) & (s > 0.0) & (s < 1.0)
    return float(np.min((1.0 / s[crosses] - 1.0) / b[crosses], initial=np.inf))


@pytest.mark.parametrize("n, grid_step", [(16, None), (64, None), (256, 0.1875)])
def test_P_threshold_matches_the_fourier_oracle(n, grid_step):
    family = circulant_family(5, n)
    report = stability_threshold(family, "P", scan_max=3.0, grid_step=grid_step, bisect_tol=1e-10)
    assert report.classification == "stable_then_unstable"
    # B = H^T H with H doubly stochastic, so rho(B) = 1 and the bound 2/rho(B) is attained.
    assert oracle_P(family) == pytest.approx(2.0, abs=1e-14)
    assert abs(report.T_star - oracle_P(family)) <= 1e-14


@pytest.mark.parametrize("seed", [1, 2, 3, 5, 6])
def test_R_threshold_matches_the_fourier_oracle(seed):
    family = circulant_family(seed, 16)
    report = stability_threshold(family, "R", scan_max=30.0, grid_step=30.0 / 4096, bisect_tol=1e-10)
    t_star = oracle_R(family)
    if seed == 5:  # crosses in neither method
        assert t_star > 30.0
        assert report.classification == "stable_throughout_scan"
    else:
        assert t_star < 30.0
        assert report.classification == "stable_then_unstable"
        assert abs(report.T_star - t_star) <= 1e-10

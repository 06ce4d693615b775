"""Exact P and R thresholds of the alpha*I + beta*E class, for any stochastic W.

With B = alpha I + beta E, span(e) is invariant under P(t) = W (I - tB), and
P(t) acts on it as 1 - t(alpha + n beta). On the rest of the spectrum B acts
as alpha I, so the other eigenvalues of P(t) are (1 - t alpha) lambda for each
eigenvalue lambda != 1 of W. rho(P(t)) is therefore
max(|1 - t(alpha + n beta)|, |1 - t alpha| rho_2), with rho_2 the largest
|lambda| other than 1, and P first reaches rho = 1 at
T = min(2 / (alpha + n beta), (1 + 1/rho_2) / alpha), the second term only
when alpha > 0. The oracle calls no eigensolver on P.

R(t) has a closed form as well; see test_R_radius_matches_the_alpha_beta_oracle, and
R_crossing for its first crossing.
"""

import numpy as np

from pnpstab import stability
from pnpstab.stability import _trial_n, rho_on_grid, stability_threshold, suite_family

SEEDS = range(200)  # the `check --suite alpha_beta` instances at the default --n 8


def alpha_beta_case(seed):
    family = suite_family("alpha_beta", seed, _trial_n(seed, 2, 8))
    beta = float(family.B[0, 1])
    alpha = float(family.B[0, 0]) - beta
    lam = np.linalg.eigvals(family.W.matrix)
    rho_2 = float(np.abs(np.delete(lam, np.argmin(np.abs(lam - 1.0)))).max())
    t = min(2.0 / (alpha + family.n * beta), (1.0 + 1.0 / rho_2) / alpha if alpha > 0.0 else np.inf)
    return family, alpha, beta, rho_2, t


def test_P_threshold_matches_the_alpha_beta_oracle():
    for seed in SEEDS:
        family, _, _, _, t = alpha_beta_case(seed)
        report = stability_threshold(family, "P", scan_max=1.5 * t, bisect_tol=1e-12)
        assert report.classification == "stable_then_unstable", seed
        assert abs(report.T_star - t) <= 1e-12 * t, (seed, report.T_star, t)


def test_P_radius_matches_the_alpha_beta_oracle_past_the_crossing():
    for seed in SEEDS:
        family, alpha, beta, rho_2, t = alpha_beta_case(seed)
        ts = 1.4 * t * np.arange(1, 24) / 23
        want = np.maximum(np.abs(1.0 - ts * (alpha + family.n * beta)), np.abs(1.0 - ts * alpha) * rho_2)
        np.testing.assert_allclose(rho_on_grid(family, "P", ts), want, rtol=0, atol=1e-13, err_msg=f"seed {seed}")


def test_P_threshold_past_a_crossing_of_the_deflated_rest_is_eigensolved(monkeypatch):
    # Be = (alpha + n beta) e for every instance, so P's e-eigenvalue 1 - t(alpha + n beta)
    # is split off. Where (1 + 1/rho_2)/alpha comes first, the crossing is in the rest of
    # the spectrum: the walk cannot certify it and eigensolves up to it.
    eigensolved = []
    real_rho_at = stability._rho_at

    def recording(same_spectrum, t):
        eigensolved.append(t)
        return real_rho_at(same_spectrum, t)

    monkeypatch.setattr(stability, "_rho_at", recording)
    crossings = 0
    for seed in SEEDS:
        family, alpha, beta, _, t = alpha_beta_case(seed)
        assert stability._deflate_e(family, stability._same_spectrum(family, "P")[1]) is not None, seed
        if t == 2.0 / (alpha + family.n * beta):
            continue
        crossings += 1
        eigensolved.clear()
        report = stability_threshold(family, "P", scan_max=1.5 * t, bisect_tol=1e-12)
        assert abs(report.T_star - t) <= 1e-12 * t, (seed, report.T_star, t)
        assert max(eigensolved) >= report.bracket[1], seed
    assert crossings >= 5  # the sweep is not vacuous


def test_R_radius_matches_the_alpha_beta_oracle():
    # In a basis whose first vector is e / sqrt(n), B = diag(alpha + n beta, alpha I) and W is
    # block upper triangular, so R(t) is too: rho(R(t)) = max(1 / (1 + t(alpha + n beta)),
    # max over lambda != 1 of |1 - lambda + (2 lambda - 1) / (1 + t alpha)|).
    for seed in SEEDS:
        family, alpha, beta, _, t = alpha_beta_case(seed)
        lam = np.linalg.eigvals(family.W.matrix)
        lam = np.delete(lam, np.argmin(np.abs(lam - 1.0)))
        ts = t * np.geomspace(1e-3, 100.0, 23)
        shrink = 1.0 / (1.0 + ts * alpha)
        rest = np.abs(1.0 - lam + (2.0 * lam - 1.0) * shrink[:, None]).max(axis=1)
        want = np.maximum(1.0 / (1.0 + ts * (alpha + family.n * beta)), rest)
        np.testing.assert_allclose(rho_on_grid(family, "R", ts), want, rtol=0, atol=1e-13, err_msg=f"seed {seed}")


def R_crossing(family, alpha):
    """R's first crossing by the oracle, or None where R stays stable for every t > 0.

    With s = 1 / (1 + t alpha), which falls from 1 to 0 as t grows, the eigenvalue of R(t)
    for lambda != 1 is mu(s) = 1 - lambda + (2 lambda - 1) s, and |mu(s)| = 1 is the
    quadratic |2 lambda - 1|^2 s^2 + 2 Re(conj(1 - lambda)(2 lambda - 1)) s + |1 - lambda|^2 - 1 = 0.
    The first crossing is the largest root s in (0, 1), at t = (1/s - 1) / alpha. e's
    eigenvalue 1 / (1 + t(alpha + n beta)) never reaches 1, and with alpha = 0 mu is lambda
    at every t, so then there is none.
    """
    if alpha == 0.0:
        return None
    lam = np.linalg.eigvals(family.W.matrix)
    roots = []
    for lam_i in np.delete(lam, np.argmin(np.abs(lam - 1.0))):
        a, c = 2.0 * lam_i - 1.0, 1.0 - lam_i
        s = np.roots([abs(a) ** 2, 2.0 * (np.conj(c) * a).real, abs(c) ** 2 - 1.0])
        roots.extend(s.real[(np.abs(s.imag) == 0.0) & (s.real > 0.0) & (s.real < 1.0)])
    return (1.0 / max(roots) - 1.0) / alpha if roots else None


def test_R_threshold_matches_the_alpha_beta_oracle():
    crossings = 0
    for seed in SEEDS:
        family, alpha, _, _, _ = alpha_beta_case(seed)
        t = R_crossing(family, alpha)
        if t is None:
            # The scan to 100/alpha covers s in [1/101, 1); with alpha = 0, R's spectrum is fixed for t > 0.
            scan_max = 100.0 / (alpha if alpha > 0.0 else family.rho_B)
            report = stability_threshold(family, "R", scan_max=scan_max)
            assert report.classification == "stable_throughout_scan", (seed, report)
            continue
        crossings += 1
        report = stability_threshold(family, "R", scan_max=1.5 * t, bisect_tol=1e-12)
        assert report.classification == "stable_then_unstable", (seed, report)
        assert abs(report.T_star - t) <= 1e-12 * t, (seed, report.T_star, t)
    assert crossings >= 100  # the sweep is not vacuous

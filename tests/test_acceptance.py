"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines; the whole suite is deterministic and finishes in a few
minutes on a laptop.
"""

import json

import numpy as np

from pnpstab.cli import main
from pnpstab.errors import SingularShiftError
from pnpstab.generators import random_positive_stochastic, random_zero_rowsum
from pnpstab.matrices import structure, validate_stochastic
from pnpstab.operators import (
    P_of,
    R_of,
    build_inpainting,
    conjecture_hypotheses,
    gram,
    kernel_denoiser,
    make_family,
)
from pnpstab.pnp import InverseProblem, pgd_pnp_run
from pnpstab.spectral import eigenvalues, rho
from pnpstab.stability import run_suite, slope_check, stability_threshold, suite_family

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
HALF_E = np.ones((2, 2)) / 2
W_CEX = np.array([[7.0, 3.0], [6.0, 4.0]]) / 10
B_CEX = np.array([[34.0, -65.0], [-65.0, 126.0]]) / 10
W_BLUR = np.array([[0.3, 0.7], [0.6, 0.4]])
H_BLUR = np.array([[0.913, 0.087], [0.087, 0.913]])


def _verdict(num, description, ok):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"acceptance criterion {num} failed: {description}"


def _sorted_real(values):
    assert np.max(np.abs(values.imag)) <= 1e-12
    return np.sort(values.real)


def test_criterion_01_closed_form_eigenvalues():
    family_p = make_family(validate_stochastic(SWAP), SWAP)
    family_r = make_family(validate_stochastic(SWAP), HALF_E)
    ok = True
    for t in (0.1, 0.5, 1.0, 3.0):
        got_p = _sorted_real(eigenvalues(P_of(family_p, t)))
        ok &= np.max(np.abs(got_p - np.sort([1.0 - t, -(1.0 + t)]))) <= 1e-12
        got_r = _sorted_real(eigenvalues(R_of(family_r, t)))
        ok &= np.max(np.abs(got_r - np.sort([-1.0, 1.0 / (t + 1.0)]))) <= 1e-12
    _verdict(1, "closed-form eigenvalues of P(t) and R(t) at t in {0.1,0.5,1,3} (1e-12)", ok)


def test_criterion_02_negative_slope_counterexample():
    family = make_family(validate_stochastic(W_CEX), B_CEX)
    pibe = float(family.perron.pi @ family.B @ np.ones(2))
    ok = abs(pibe - (-1.0 / 30.0)) <= 1e-12
    ts = 0.5 * np.arange(1, 51) / 51.0
    ok &= all(rho(P_of(family, float(t))) > 1.0 for t in ts)
    ok &= all(rho(R_of(family, float(t))) > 1.0 for t in ts)
    _verdict(2, "pi^T B e = -1/30 and both radii exceed 1 on (0, 0.5)", ok)


def test_criterion_03_blur_threshold_at_two():
    family = make_family(validate_stochastic(W_BLUR), H_BLUR.T @ H_BLUR)
    ok = abs(family.rho_B - 1.0) <= 1e-10
    report = stability_threshold(family, "P", scan_max=3.0)
    ok &= report.T_star is not None and abs(report.T_star - 2.0) <= 1e-3
    ts = 2.0 + np.arange(1, 26) / 25.0
    ok &= all(rho(R_of(family, float(t))) < 1.0 for t in ts)
    _verdict(3, "rho(B) = 1, P threshold at 2 (1e-3), R stable on (2, 3]", ok)


def test_criterion_04_conjecture_counter_case():
    h = np.array([[0.48, 0.52], [0.52, 0.48]])
    sh = h[:1, :]
    family = make_family(validate_stochastic(np.array([[0.0, 1.0], [0.5, 0.5]])), sh.T @ sh)
    ok = abs(2.0 / family.rho_B - 3.9936) <= 1e-3
    hyp = conjecture_hypotheses(family)
    be = family.B @ np.ones(2)
    ok &= not hyp.be_bounded_by_rho
    ok &= abs(be[1] - 0.52) <= 1e-12 and be[1] > family.rho_B
    ts = np.linspace(3.87, 3.99, 20)
    ok &= all(rho(P_of(family, float(t))) > 1.0 for t in ts)
    _verdict(4, "2/rho(B) = 3.9936, Be exceeds rho(B)e, P unstable on [3.87, 3.99]", ok)


def test_criterion_05_reference_thresholds():
    w = validate_stochastic(W_BLUR)
    family_1 = make_family(w, np.diag([3.0, 0.5]))
    family_2 = make_family(w, np.array([[0.4, -0.1], [-0.1, 0.2]]))
    rep_1 = stability_threshold(family_1, "R", scan_max=20.0)
    rep_2 = stability_threshold(family_2, "R", scan_max=20.0)
    bound_1 = 2.0 / family_1.rho_B
    bound_2 = 2.0 / family_2.rho_B
    ok = abs(rep_1.T_star - 4.777) <= 0.01 and abs(rep_2.T_star - 11.904) <= 0.01
    ok &= abs(bound_1 - 2.0 / 3.0) <= 1e-3 and abs(bound_2 - 4.5308) <= 1e-3
    ok &= rep_1.T_star > bound_1 and rep_2.T_star > bound_2
    _verdict(5, "R thresholds 4.777 and 11.904 (0.01), both above 2/rho(B)", ok)


def test_criterion_06_doubly_stochastic_suite():
    _, summary = run_suite("dbl_stochastic", trials=200, n_max=8, base_seed=1000, grid_steps=64)
    _verdict(6, "200 doubly stochastic + PSD instances stable on (0, 2/rho(B))", summary["failed"] == 0)


def test_criterion_07_inpainting_suite():
    _, summary = run_suite("inpainting", trials=200, n_max=8, base_seed=2000, grid_steps=64)
    _verdict(7, "200 irreducible + diagonal-B instances stable on (0, 2/rho(B))", summary["failed"] == 0)


def test_criterion_08_alpha_beta_suite():
    _, summary = run_suite("alpha_beta", trials=200, n_max=8, base_seed=3000, grid_steps=64)
    _verdict(8, "200 alpha*I + beta*E instances stable on (0, 2/rho(B))", summary["failed"] == 0)


def test_criterion_09_slope_matches_prediction():
    worst = 0.0
    for i in range(200):
        family = suite_family("dbl_stochastic", seed=1000 + i, n=2 + i % 7)
        if not structure(family.W).primitive:
            continue
        for which in ("P", "R"):
            worst = max(worst, slope_check(family, which, h=1e-5).abs_error)
    _verdict(9, f"finite-difference slope matches -pi^T B e to 1e-3 (worst {worst:.2e})", worst <= 1e-3)


def test_criterion_10_zero_rowsum_keeps_radius_at_one():
    ok = True
    r_points = 0
    for i in range(50):
        rng = np.random.default_rng(5000 + i)
        n = int(rng.integers(2, 9))
        family = make_family(random_positive_stochastic(rng, n), random_zero_rowsum(rng, n))
        for t in np.linspace(0.05, 2.0, 16):
            ok &= rho(P_of(family, float(t))) >= 1.0 - 1e-10
            try:
                ok &= rho(R_of(family, float(t))) >= 1.0 - 1e-10
                r_points += 1
            except SingularShiftError:
                pass  # I + tB can be singular for indefinite zero-rowsum B
    _verdict(10, f"50 Be = 0 families keep both radii >= 1 - 1e-10 ({r_points} R points)", ok and r_points > 0)


def test_criterion_11_shifted_inverse_contraction():
    rng = np.random.default_rng(31)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 7))
        g = rng.normal(size=(n, n))
        b = g.T @ g
        t = float(rng.choice([0.1, 1.0, 10.0]))
        radius = 1.0 if rng.random() < 0.25 else float(rng.uniform(1.0, 4.0))
        lam = radius * np.exp(2j * np.pi * rng.random())
        smin = np.linalg.svd(lam * np.eye(n) + t * (lam - 1.0) * b, compute_uv=False)[-1]
        ok &= 1.0 / smin <= 1.0 + 1e-10
    _verdict(11, "100 samples: ||(lam I + t(lam-1)B)^{-1}||_2 <= 1 + 1e-10", ok)


def _inpainting_problem(seed, t):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 17))
    w = kernel_denoiser(rng.uniform(0, 1, size=n), bandwidth=float(rng.uniform(0.3, 0.8)))
    mask = (rng.random(n) < 0.7).astype(float)
    if not mask.any():
        mask[0] = 1.0
    op = build_inpainting(mask)
    return InverseProblem(A=op, b=op @ rng.uniform(0, 1, size=n), W=w, t=t), n


def test_criterion_12_pnp_convergence_and_rate():
    ok = True
    for seed in range(5):
        for t in (0.5, 1.0, 1.5, 1.9):
            problem, _ = _inpainting_problem(100 + seed, t)
            ok &= pgd_pnp_run(problem, x0=np.zeros(problem.W.n), max_iter=1500, tol=1e-10).converged
    worst_rate_gap = 0.0
    for seed in range(3):
        problem, n = _inpainting_problem(200 + seed, 0.05)
        trace = pgd_pnp_run(problem, x0=np.zeros(n), max_iter=400, tol=0.0)
        assert trace.error_norms.size >= 300
        radius = rho(problem.W.matrix @ (np.eye(n) - problem.t * gram(problem.A)))
        worst_rate_gap = max(worst_rate_gap, abs(trace.estimated_rate - radius))
    ok &= worst_rate_gap <= 0.02
    vals, vecs = np.linalg.eigh(B_CEX)
    sqrt_b = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
    unstable = InverseProblem(
        A=sqrt_b,
        b=np.zeros(2),
        W=validate_stochastic(W_CEX),
        t=0.25,
    )
    trace = pgd_pnp_run(unstable, x0=np.array([0.3, -0.2]), max_iter=500, tol=1e-10)
    ok &= not trace.converged
    _verdict(
        12,
        f"inpainting converges at t in {{0.5,1,1.5,1.9}}, rate gap {worst_rate_gap:.3f} <= 0.02, "
        "unstable pair stalls at t = 0.25",
        ok,
    )


def test_criterion_13_fuzzer_determinism(tmp_path):
    out_1 = tmp_path / "w1.jsonl"
    out_8 = tmp_path / "w8.jsonl"
    base = ["fuzz", "--trials", "500", "--generator", "imaging", "--seed", "7"]
    code_1 = main(base + ["--workers", "1", "--out", str(out_1)])
    code_8 = main(base + ["--workers", "8", "--out", str(out_8)])
    identical = out_1.read_bytes() == out_8.read_bytes()
    summary = json.loads(out_1.read_text().strip().splitlines()[-1])
    no_violations = summary["violations"] == 0 and code_1 == 0 and code_8 == 0
    if not no_violations:
        print("replayable certificates:", summary["certificates"])
    _verdict(
        13,
        f"500-trial fuzz identical for workers 1 and 8 (violations: {summary['violations']})",
        identical and no_violations,
    )

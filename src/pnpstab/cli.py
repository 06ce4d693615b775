"""Command-line front end.

Subcommands: profile, threshold, check, fuzz, pnp, repro. Exit code 0 on
success / all checks passed, 1 when a check fails or a violation is
found, 2 on a usage, input or I/O error or a numerical failure, which
prints one `pnpstab: ` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain

import numpy as np

from .generators import random_blur_kernel, random_mask
from .matrices import read_matrix, validate_stochastic
from .operators import build_deblur, build_inpainting, build_superres, kernel_denoiser, make_family
from .pnp import InverseProblem, affine_map, pgd_pnp_run, trace_to_csv
from .repro import EXAMPLE_IDS, repro, repro_all
from .spectral import rho
from .stability import (
    GENERATORS,
    THEOREMS,
    profile,
    profile_to_csv,
    run_campaign,
    run_suite,
    stability_threshold,
)

__all__ = ["main", "entry"]


def _seed(text: str) -> int:
    """A --seed value: numpy seeds are non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnpstab",
        description="Stability analysis of linear plug-and-play reconstruction operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="spectral-radius profile over a t grid")
    p.add_argument("--w", required=True, help="stochastic matrix file (matrix text format)")
    p.add_argument("--b", required=True, help="data matrix file")
    p.add_argument("--tmin", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("threshold", help="first loss of stability for P or R")
    p.add_argument("--w", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--which", choices=("P", "R"), required=True)
    p.add_argument("--scan-max", type=float, required=True, help="last t of the scan")
    p.add_argument("--grid-step", type=float, default=None, help="scan spacing (default scan_max/2048)")
    p.add_argument("--bisect-tol", type=float, default=1e-6, help="maximum bracket width of the refined crossing")
    p.add_argument("--eps0", type=float, default=1e-4, help="first scan point")
    p.add_argument("--out", required=True, help="output JSON path")

    p = sub.add_parser("check", help="seeded property suite for a stability bound")
    p.add_argument("--suite", choices=THEOREMS, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--n", type=int, default=8, help="maximum dimension (instances draw n in [2, N])")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--grid-steps", type=int, default=64)
    p.add_argument("--out", required=True, help="output JSON-lines path")

    p = sub.add_parser("fuzz", help="randomized conjecture fuzzer")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--generator", choices=GENERATORS, default="imaging")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="output JSON-lines path")

    p = sub.add_parser("pnp", help="run a seeded plug-and-play reconstruction")
    p.add_argument("--kind", choices=("inpainting", "deblur", "superres"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", required=True, help="output trace CSV path")

    p = sub.add_parser("repro", help="run bundled worked examples with expected-value checks")
    p.add_argument("--example", choices=EXAMPLE_IDS + ("all",), required=True)
    p.add_argument("--out", required=True, help="output directory")

    return parser


def _load_family(w_path: str, b_path: str):
    return make_family(validate_stochastic(read_matrix(w_path)), read_matrix(b_path))


def _write_jsonl(path, records) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def _cmd_profile(args) -> int:
    family = _load_family(args.w, args.b)
    prof = profile(family, args.tmin, args.tmax, args.steps)
    profile_to_csv(prof, args.out)
    print(f"wrote {args.steps}-point profile to {args.out}")
    return 0


def _cmd_threshold(args) -> int:
    family = _load_family(args.w, args.b)
    report = stability_threshold(
        family,
        args.which,
        scan_max=args.scan_max,
        grid_step=args.grid_step,
        bisect_tol=args.bisect_tol,
        eps0=args.eps0,
    )
    with open(args.out, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")
    if report.T_star is not None:
        print(f"{args.which}: {report.classification}, T_star = {report.T_star:.6g}")
    else:
        print(f"{args.which}: {report.classification}")
    return 0


def _cmd_check(args) -> int:
    results, summary = run_suite(
        args.suite,
        trials=args.trials,
        n_max=args.n,
        base_seed=args.seed,
        grid_steps=args.grid_steps,
    )
    _write_jsonl(args.out, chain((r.to_json_dict() for r in results), [summary]))
    print(f"suite {args.suite}: {summary['passed']}/{summary['trials']} instances passed")
    return 0 if summary["failed"] == 0 else 1


def _cmd_fuzz(args) -> int:
    results, summary = run_campaign(
        trials=args.trials,
        n_range=(args.n_min, args.n_max),
        generators=(args.generator,),
        base_seed=args.seed,
        workers=args.workers,
    )
    _write_jsonl(args.out, chain((r.to_json_dict() for r in results), [summary.to_json_dict()]))
    print(
        f"fuzz: {summary.trials} trials, {summary.passes} pass, "
        f"{summary.hypotheses_unmet} hypotheses_unmet, {summary.violations} violations"
    )
    for cert in summary.certificates:
        print(f"VIOLATION seed={cert[0]} n={cert[1]} gen={cert[2]} t={cert[3]} rho={cert[4]} which={cert[5]}")
    return 0 if summary.violations == 0 else 1


def _cmd_pnp(args) -> int:
    rng = np.random.default_rng(args.seed)
    n = args.n
    signal = rng.uniform(0.0, 1.0, size=n)
    w = kernel_denoiser(signal, bandwidth=0.5)
    if args.kind == "inpainting":
        op = build_inpainting(random_mask(rng, n))
    elif args.kind == "deblur":
        op = build_deblur(random_blur_kernel(rng, n), n)
    else:
        op = build_superres(build_deblur(random_blur_kernel(rng, n), n), stride=2)
    x_true = rng.uniform(0.0, 1.0, size=n)
    problem = InverseProblem(A=op, b=op @ x_true, W=w, t=args.t)
    trace = pgd_pnp_run(problem, x0=np.zeros(n), max_iter=args.max_iter, tol=args.tol)
    trace_to_csv(trace, args.out)
    radius = rho(affine_map(problem)[0])
    rate = "n/a" if trace.estimated_rate is None else f"{trace.estimated_rate:.6g}"
    print(
        f"{args.kind} n={n} t={args.t}: converged={trace.converged} "
        f"iterates={trace.iterates_kept} rho(P)={radius:.6g} rate={rate}"
    )
    return 0 if trace.converged else 1


def _cmd_repro(args) -> int:
    reports = repro_all(args.out) if args.example == "all" else [repro(args.example, args.out)]
    ok = True
    for report in reports:
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"[{status}] {report.example}: {check.name}")
        ok = ok and report.overall_pass
    print("overall:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


_HANDLERS = {
    "profile": _cmd_profile,
    "threshold": _cmd_threshold,
    "check": _cmd_check,
    "fuzz": _cmd_fuzz,
    "pnp": _cmd_pnp,
    "repro": _cmd_repro,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return _HANDLERS[args.command](args)
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"pnpstab: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

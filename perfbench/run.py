"""pnpstab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {fuzz,suites,imaging-large} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; pnpstab is imported from the
checkout's `src`.  `--trace 0` sets the workload up three times, repeats
rounds of it for S seconds with nothing wrapped, checks every output
against the reference and prints the end-to-end metrics.  `--trace 1`
runs the workload's fixed traced rounds with pnpstab's public functions
wrapped, repeats them untraced to price the tracing, and prints the
per-layer metrics.  The last line of standard output is the JSON result;
`perfbench/out/` keeps a result file with the run manifest.
"""

import time

_T_START = time.perf_counter()  # setup_s counts from here, before numpy or pnpstab load

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("fuzz", "suites", "imaging-large")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "pnpstab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pnpstab sources under {src}")
    sys.path.insert(0, str(src))
    import pnpstab

    if Path(pnpstab.__file__).resolve().parent != (src / "pnpstab").resolve():
        raise SystemExit(f"perfbench: imported pnpstab from {pnpstab.__file__}, not from {src}")


def _declared(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _check(wl, inputs, rounds, seed) -> None:
    import numpy as np

    for rd in rounds:
        wl.check(inputs, rd, np.random.default_rng([seed, rd.index, 7]))


def _rounds(wl, inputs, count, tracer=None, **kwargs):
    """Run rounds 0 .. count-1; with a tracer, return their spans too."""
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        rounds = [wl.run_round(inputs, r, **kwargs) for r in range(count)]
        wall = time.perf_counter() - t0
    finally:
        spans = []
        if tracer is not None:
            spans = tracer.take()
            tracer.uninstall()
    return rounds, wall, spans


def run_timed(wl, seed, seconds, import_s):
    # setup_s = import time + the median of three set-ups (inputs, matrix
    # files, warm-up); the imports can only be timed once per process.
    setup_times = []
    for k in range(SETUP_REPEATS):
        workdir = Path(f"setup-{k}")
        workdir.mkdir()
        t0 = time.perf_counter()
        inputs = wl.setup(workdir, seed)
        wl.warm_up(inputs)
        setup_times.append(time.perf_counter() - t0)

    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(wl.run_round(inputs, len(rounds)))
    elapsed = time.perf_counter() - t0

    _check(wl, inputs, rounds, seed)
    items = [item for rd in rounds for item in rd.items]
    completed = sum(item.completed for item in items)
    metrics = {
        "items_per_s": (completed / elapsed, "1/s"),
        "completed_frac": (completed / len(items), "ratio"),
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    details = {"import_s": import_s, "setup_repeats_s": setup_times, "timed_s": elapsed}
    return rounds, metrics, details


def run_traced(wl, seed):
    import tracing

    tracer = tracing.Tracer(Path("trace"))
    workdir = Path("setup-0")
    workdir.mkdir()
    tracer.install()
    try:
        inputs = wl.setup(workdir, seed)
    finally:
        spans = tracer.take()
        tracer.uninstall()
    wl.warm_up(inputs)

    n = wl.trace_rounds
    campaign = {"busy_s": 0.0, "parallel_eff": 0.0, "cpu_s": 0.0, "speedup_vs_serial": 0.0}
    worker_spans = 0
    if wl.name == "fuzz":
        # Per-function metrics come from the serial pass; round 0 then runs
        # again in the workers=2 pool, traced and untraced.
        rounds, traced_wall, serial_spans = _rounds(wl, inputs, n, tracer, workers=1)
        plain_rounds, plain_wall, _ = _rounds(wl, inputs, n, workers=1)
        pool_rounds, _, pool_spans = _rounds(wl, inputs, 1, tracer, workers=wl.pool_workers)
        cpu0 = _cpu_seconds()
        _, pool_wall, _ = _rounds(wl, inputs, 1, workers=wl.pool_workers)
        cpu_s = _cpu_seconds() - cpu0
        spans += serial_spans
        for item, pool_item in zip(rounds[0].items, pool_rounds[0].items):
            if item.output != pool_item.output:
                item.problems.append(f"{item.label}: workers={wl.pool_workers} output differs from workers=1")
        me = os.getpid()
        worker = [s for s in pool_spans if s.pid != me]
        worker_spans = len(worker)
        busy = sum(s.dur for s in worker if s.name == "stability.conjecture_trial")
        campaign_wall = sum(s.dur for s in pool_spans if s.name == "stability.run_campaign")
        campaign = {
            "busy_s": busy,
            "parallel_eff": busy / (wl.pool_workers * campaign_wall) if campaign_wall else 0.0,
            "cpu_s": cpu_s,
            "speedup_vs_serial": plain_rounds[0].wall / pool_wall,
        }
    else:
        rounds, traced_wall, round_spans = _rounds(wl, inputs, n, tracer)
        _, plain_wall, _ = _rounds(wl, inputs, n)
        spans += round_spans

    _check(wl, inputs, rounds, seed)
    metrics = tracing.function_metrics(spans)
    units = {"busy_s": "s", "parallel_eff": "ratio", "cpu_s": "s", "speedup_vs_serial": "x"}
    for key, value in campaign.items():
        metrics[f"stability.run_campaign.{key}"] = (value, units[key])
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio")
    metrics["trace.worker_spans"] = (worker_spans, "count")
    details = {"traced_s": traced_wall, "untraced_s": plain_wall, "spans": len(spans)}
    return rounds, metrics, details


if __name__ == "__mp_main__":
    # A pool worker started by spawn or forkserver imports this script first.
    import tracing

    tracing.trace_spawned_worker()


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    import manifest
    import workloads

    import_s = time.perf_counter() - _T_START
    wl = workloads.WORKLOADS[args.workload]
    kind = "per_layer" if args.trace else "end_to_end"
    declared = _declared(kind)

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        if args.trace:
            rounds, metrics, details = run_traced(wl, args.seed)
        else:
            rounds, metrics, details = run_timed(wl, args.seed, args.seconds, import_s)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != declared:
        raise SystemExit(f"perfbench: metrics {sorted(got.items())} do not match BENCHMARK.json {kind}")

    workers = [1, wl.pool_workers] if args.trace and wl.name == "fuzz" else [1]
    items = [item for rd in rounds for item in rd.items]
    failed = sum(not item.completed for item in items)
    problems = [p for item in items for p in item.problems]
    notes = {}
    for item in items:
        if item.note:
            notes[item.note] = notes.get(item.note, 0) + 1
    sha = hashlib.sha256(b"".join(item.output for item in rounds[0].items)).hexdigest()
    result = {
        "correct": not problems,
        "attempted": len(items),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "manifest": manifest.manifest(ROOT, args.seed, workers),
        "result": result,
        "output_sha256_round0": sha,
        "rounds": [
            {"index": rd.index, "wall_s": rd.wall, "attempted": len(rd.items),
             "completed": sum(i.completed for i in rd.items)}
            for rd in rounds
        ],
        "summary": wl.summary(items),
        "problems": problems[:50],
        "notes": notes,
        "details": details,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {len(rounds)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:.6g} {unit}")
    print(f"  output_sha256 (round 0, {len(rounds[0].items)} items) {sha}")
    print(f"  reference: {len(items)} items, {failed} failed, {len(problems)} rejected outputs, notes {notes}")
    for p in problems[:10]:
        print(f"  REJECTED {p}")
    print(f"  result file {path.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: seeded inputs, reference checks, tracing.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pnpstab import repro, stability  # noqa: E402


def _files(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def test_same_seed_gives_identical_inputs_and_another_seed_different(tmp_path):
    wl = workloads.WORKLOADS["imaging-large"]
    dirs = {}
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        dirs[name] = tmp_path / name
        dirs[name].mkdir()
        wl.setup(dirs[name], seed)
    a, b, c = (_files(dirs[k]) for k in "abc")
    assert set(a) == {f"{m}{n}.txt" for m in "WB" for n in (8, 256, 400)}
    assert a == b
    assert all(a[name] != c[name] for name in a)
    for name in ("fuzz", "suites"):
        wl = workloads.WORKLOADS[name]
        assert wl.setup(tmp_path, 3) == wl.setup(tmp_path, 3)
        assert wl.setup(tmp_path, 3) != wl.setup(tmp_path, 4)


@pytest.fixture(scope="module")
def blur_family():
    family = repro.example_family("remark_1_7")
    return family, np.array(family.W.matrix), np.array(family.B)


def test_reference_confirms_a_true_threshold_report(blur_family):
    family, w, b = blur_family
    report = stability.stability_threshold(family, "P", scan_max=3.0).to_json_dict()
    assert report["classification"] == "stable_then_unstable"
    assert reference.check_threshold(w, b, report, np.random.default_rng(0)) == []


def test_reference_rejects_a_perturbed_bracket(blur_family):
    family, w, b = blur_family
    report = stability.stability_threshold(family, "P", scan_max=3.0).to_json_dict()
    lo, hi = report["bracket"]
    shifted = dict(report, bracket=[lo + 0.01, hi + 0.01], T_star=report["T_star"] + 0.01)
    assert reference.check_threshold(w, b, shifted, np.random.default_rng(0))
    early = dict(report, bracket=[lo - 0.01, hi - 0.01], T_star=report["T_star"] - 0.01)
    assert reference.check_threshold(w, b, early, np.random.default_rng(0))
    stable = dict(report, classification="stable_throughout_scan", bracket=None, T_star=None)
    assert reference.check_threshold(w, b, stable, np.random.default_rng(0))


def test_reference_rejects_a_perturbed_rho(blur_family):
    family, w, b = blur_family
    t_star = stability.stability_threshold(family, "P", scan_max=3.0).T_star
    assert reference.check_violation(w, b, t_star + 0.01, 1.0, "P") == []
    assert reference.check_violation(w, b, 0.5 * t_star, 1.0, "P")
    assert reference.check_stable_on_grid(w, b, steps=16) == []
    unstable = repro.example_family("remark_1_6")  # rho(P) > 1 on (0, 0.5)
    assert reference.check_stable_on_grid(np.array(unstable.W.matrix), np.array(unstable.B), steps=16)


def test_pool_worker_spans_reach_the_merged_trace(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        stability.run_campaign(4, (2, 4), ("imaging",), base_seed=0, workers=2)
    finally:
        spans = tracer.take()
        tracer.uninstall()
    campaign = [s for s in spans if s.name == "stability.run_campaign"]
    trials = [s for s in spans if s.name == "stability.conjecture_trial"]
    assert len(campaign) == 1 and campaign[0].pid == os.getpid()
    assert len(trials) == 4
    assert all(s.pid != os.getpid() and s.parent == campaign[0].sid for s in trials)
    assert not list(tmp_path.glob("spans-*.jsonl"))
    assert stability.run_campaign.__name__ == "run_campaign" and not hasattr(stability.run_campaign, "__wrapped__")


def test_self_time_subtracts_child_spans():
    spans = [
        tracing.Span(1, None, "stability.stability_threshold", 0.0, 10.0, 6.0, None, None, 1),
        tracing.Span(2, 1, "operators.P_of", 1.0, 3.0, 0.0, None, None, 1),
        tracing.Span(3, 1, "spectral.rho", 4.0, 8.0, 0.0, None, None, 1),
    ]
    m = tracing.function_metrics(spans)
    assert m["stability.stability_threshold.self_s"][0] == 4.0
    assert m["stability.stability_threshold.evals"][0] == 1
    assert m["spectral.rho.self_s"][0] == 4.0


def test_tail_has_ten_samples_beyond_it():
    assert tracing.tail(list(range(10))) == (0.0, 0.0)
    value, pct = tracing.tail([float(v) for v in range(100)])
    assert value == 89.0 and pct == 90.0


_SPAWN_SCRIPT = """
import os, sys
sys.path[:0] = [{src!r}, {bench!r}]
import tracing

if __name__ == "__mp_main__":
    tracing.trace_spawned_worker()

if __name__ == "__main__":
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from pnpstab import stability

    tracer = tracing.Tracer({trace!r})
    tracer.install()
    try:
        with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
            list(pool.map(stability._run_trial_spec, [(3, "imaging", seed) for seed in range(4)]))
    finally:
        spans = tracer.take()
        tracer.uninstall()
    print(sum(s.name == "stability.conjecture_trial" and s.pid != os.getpid() for s in spans))
"""


def test_spawned_pool_worker_spans_reach_the_merged_trace(tmp_path):
    script = tmp_path / "spawn_main.py"
    script.write_text(
        _SPAWN_SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"), trace=str(tmp_path / "trace"))
    )
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "4"

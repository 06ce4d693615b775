"""Span tracing of pnpstab's public functions, recorded from outside the package.

`Tracer.install()` replaces every public function of the measured layers
with a timing wrapper at each pnpstab module that holds it by name (both
`pnpstab.spectral.rho` and `pnpstab.stability.rho`, for example), and
`uninstall()` puts the originals back.  Spans stay in memory.  A pool
worker forked while the tracer is installed inherits the wrappers; a
worker started by spawn or forkserver installs its own tracer through
`trace_spawned_worker()`, which the main script calls when it is imported
as `__mp_main__`.  Either kind of worker appends its spans to
`<trace_dir>/spans-<pid>.jsonl` each time its outermost traced call
returns, and `take()` merges those files with the parent's spans.

A span's self time is its duration minus the time covered by its child
spans.  Children of one span run one after another in the same thread, so
that coverage is the sum of their durations.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

# `pnp` is left out on purpose: no workload calls it.
LAYERS = ("matrices", "spectral", "operators", "generators", "stability", "repro", "cli")

BUILDERS = ("operators.kernel_denoiser", "operators.build_deblur", "operators.build_superres", "operators.gram")


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    t0: float
    t1: float
    child_s: float
    err: str | None
    extra: float | None
    pid: int

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


# Per-function values recorded on a span when the call returns normally.
_PROBES = {
    "matrices.left_perron_vector": lambda a, k, r: r.iterations,
    "matrices.read_matrix": _file_bytes,
    "matrices.write_matrix": _file_bytes,
    "operators.conjecture_hypotheses": lambda a, k, r: float(r.all_met()),
    "stability.evaluate_conjecture_family": lambda a, k, r: float(r[1] != "hypotheses_unmet"),
    "cli.main": lambda a, k, r: r,
}

# "<trace dir><os.pathsep><parent pid>" while a tracer is installed, for spawned workers.
TRACE_ENV = "PERFBENCH_TRACE"

_ACTIVE: Tracer | None = None
_FORK_HOOKED = False


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE._forked()


class Tracer:
    """Collects spans for calls into the public functions of LAYERS."""

    def __init__(self, trace_dir) -> None:
        self.trace_dir = Path(trace_dir).resolve()
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.spans: list[tuple] = []  # Span fields, as plain tuples
        self._stack: list[list] = []  # open spans: [sid, child seconds]
        self._ids = itertools.count(1)
        self._pid = self._root_pid = os.getpid()
        self._base_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        global _ACTIVE, _FORK_HOOKED
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"pnpstab.{layer}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pnpstab" or mod_name.startswith("pnpstab.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))
        _ACTIVE = self
        os.environ[TRACE_ENV] = f"{self.trace_dir}{os.pathsep}{self._root_pid}"
        if not _FORK_HOOKED:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _FORK_HOOKED = True

    def uninstall(self) -> None:
        global _ACTIVE
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        _ACTIVE = None
        os.environ.pop(TRACE_ENV, None)

    def take(self) -> list[Span]:
        """Return and forget every span so far, pool workers' spans included."""
        spans = [Span(*s) for s in self.spans]
        self.spans = []
        for path in sorted(self.trace_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                spans.extend(Span(*json.loads(line)) for line in fh)
            path.unlink()
        return spans

    def _wrap(self, name, fn):
        probe = _PROBES.get(name)
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            pid = self._pid
            sid = (pid << 32) | next(ids)
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                self.spans.append((sid, parent, name, t0, t1, frame[1], type(exc).__name__, None, pid))
                if pid != self._root_pid and len(stack) == self._base_depth:
                    self._flush()
                raise
            t1 = clock()
            stack.pop()
            if stack:
                stack[-1][1] += t1 - t0
            extra = probe(args, kwargs, result) if probe is not None else None
            self.spans.append((sid, parent, name, t0, t1, frame[1], None, extra, pid))
            if pid != self._root_pid and len(stack) == self._base_depth:
                self._flush()
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _forked(self) -> None:
        # The child keeps the open stack, so its spans still name the
        # parent's enclosing span, but not the parent's recorded spans.
        self._pid = os.getpid()
        self.spans = []
        self._base_depth = len(self._stack)

    def _flush(self) -> None:
        with open(self.trace_dir / f"spans-{self._pid}.jsonl", "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans.clear()


def trace_spawned_worker() -> None:
    """In a spawn or forkserver pool worker of a traced run, trace this process too."""
    spec = os.environ.get(TRACE_ENV)
    if spec:
        trace_dir, parent_pid = spec.rsplit(os.pathsep, 1)
        tracer = Tracer(trace_dir)
        tracer._root_pid = int(parent_pid)
        tracer.install()


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    if len(values) < 11:
        return 0.0, 0.0
    ordered = sorted(values)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def function_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-function counts and self times, keyed by per-layer metric name."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    by_id = {s.sid: s for s in spans}

    def ancestor(span: Span, name: str) -> Span | None:
        p = by_id.get(span.parent)
        while p is not None and p.name != name:
            p = by_id.get(p.parent)
        return p

    def calls(*names) -> int:
        return sum(len(by_name[n]) for n in names)

    def self_s(*names) -> float:
        return sum(s.self_s for n in names for s in by_name[n])

    def failed(name, errors=None) -> int:
        return sum(1 for s in by_name[name] if s.err and (errors is None or s.err in errors))

    def extra_sum(name) -> float:
        return sum(s.extra for s in by_name[name] if s.extra is not None)

    def median_of(name, scale) -> float:
        durs = [s.dur * scale for s in by_name[name]]
        return statistics.median(durs) if durs else 0.0

    hyp = by_name["operators.conjecture_hypotheses"]
    scanned = {s.sid for s in by_name["stability.evaluate_conjecture_family"] if s.extra}
    points = 0
    for s in by_name["operators.P_of"]:
        a = ancestor(s, "stability.evaluate_conjecture_family")
        if a is not None and a.sid in scanned:
            points += 1
    evals = sum(
        1
        for n in ("operators.P_of", "operators.R_of")
        for s in by_name[n]
        if ancestor(s, "stability.stability_threshold") is not None
    )
    generators = [n for n in by_name if n.startswith("generators.")]
    trial_ms = [s.dur * 1e3 for s in by_name["stability.conjecture_trial"]]
    tail_ms, tail_pct = tail(trial_ms)
    return {
        "spectral.rho.calls": (calls("spectral.rho"), "count"),
        "spectral.rho.self_s": (self_s("spectral.rho"), "s"),
        "spectral.rho.p50_us": (median_of("spectral.rho", 1e6), "us"),
        "spectral.rho.fail": (failed("spectral.rho"), "count"),
        "spectral.solve_linear.calls": (calls("spectral.solve_linear"), "count"),
        "spectral.solve_linear.self_s": (self_s("spectral.solve_linear"), "s"),
        "operators.P_of.calls": (calls("operators.P_of"), "count"),
        "operators.P_of.self_s": (self_s("operators.P_of"), "s"),
        "operators.R_of.calls": (calls("operators.R_of"), "count"),
        "operators.R_of.self_s": (self_s("operators.R_of"), "s"),
        "operators.R_of.singular": (failed("operators.R_of", {"SingularShiftError"}), "count"),
        "operators.make_family.calls": (calls("operators.make_family"), "count"),
        "operators.make_family.self_s": (self_s("operators.make_family"), "s"),
        "operators.make_family.fail": (failed("operators.make_family"), "count"),
        "operators.conjecture_hypotheses.calls": (len(hyp), "count"),
        "operators.conjecture_hypotheses.self_s": (self_s("operators.conjecture_hypotheses"), "s"),
        "operators.conjecture_hypotheses.met_ratio": (
            extra_sum("operators.conjecture_hypotheses") / len(hyp) if hyp else 0.0,
            "ratio",
        ),
        "operators.builders.self_s": (self_s(*BUILDERS), "s"),
        "matrices.structure.calls": (calls("matrices.structure"), "count"),
        "matrices.structure.self_s": (self_s("matrices.structure"), "s"),
        "matrices.left_perron_vector.calls": (calls("matrices.left_perron_vector"), "count"),
        "matrices.left_perron_vector.self_s": (self_s("matrices.left_perron_vector"), "s"),
        "matrices.left_perron_vector.iterations": (extra_sum("matrices.left_perron_vector"), "count"),
        "matrices.read_matrix.self_s": (self_s("matrices.read_matrix"), "s"),
        "matrices.read_matrix.bytes": (extra_sum("matrices.read_matrix"), "bytes"),
        "matrices.write_matrix.self_s": (self_s("matrices.write_matrix"), "s"),
        "matrices.write_matrix.bytes": (extra_sum("matrices.write_matrix"), "bytes"),
        "generators.calls": (calls(*generators), "count"),
        "generators.self_s": (self_s(*generators), "s"),
        "stability.conjecture_trial.calls": (len(trial_ms), "count"),
        "stability.conjecture_trial.p50_ms": (statistics.median(trial_ms) if trial_ms else 0.0, "ms"),
        "stability.conjecture_trial.tail_ms": (tail_ms, "ms"),
        "stability.conjecture_trial.tail_pct": (tail_pct, "%"),
        "stability.scan.points_per_trial": (points / len(scanned) if scanned else 0.0, "count"),
        "stability.stability_threshold.calls": (calls("stability.stability_threshold"), "count"),
        "stability.stability_threshold.evals": (evals, "count"),
        "stability.stability_threshold.self_s": (self_s("stability.stability_threshold"), "s"),
        "stability.check_theorem_bound.calls": (calls("stability.check_theorem_bound"), "count"),
        "stability.check_theorem_bound.self_s": (self_s("stability.check_theorem_bound"), "s"),
        "repro.repro.calls": (calls("repro.repro"), "count"),
        "repro.repro.self_s": (self_s("repro.repro"), "s"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.main.exit_nonzero": (sum(1 for s in by_name["cli.main"] if s.err or s.extra), "count"),
    }

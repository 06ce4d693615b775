"""The benchmark's workloads: inputs made from a seed, timed rounds, reference checks.

A round is a fixed, seed-determined batch of work items.  The timed run
repeats rounds 0, 1, 2, ... until its time is up; the traced run does
rounds 0 .. trace_rounds - 1, so its call counts repeat exactly.  An item
is one fuzz trial, one suite instance or repro example, or one `threshold`
report.  It fails when the program raises, exits non-zero, or gives an
output that the reference check rejects.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pnpstab import cli, matrices, operators, repro, stability

import reference


@dataclass
class Item:
    label: str
    ok: bool  # the program finished the item (no exception, exit code 0)
    output: bytes  # what the program produced for it, hashed for determinism
    data: object = None  # what the reference check needs
    problems: list[str] = field(default_factory=list)  # reference-check rejections
    note: str = ""

    @property
    def completed(self) -> bool:
        return self.ok and not self.problems


@dataclass
class Round:
    index: int
    items: list[Item]
    wall: float


def _failed_items(labels, exc: Exception) -> list[Item]:
    return [Item(label, False, f"error: {exc!r}\n".encode()) for label in labels]


class Fuzz:
    """`run_campaign` on the imaging generator, n in [2, 8], 32 trials a round.

    The timed run uses workers=1, the CLI default.  With workers=2 on a
    2-core machine, BLAS oversubscription (each pool worker runs threaded
    OpenBLAS) makes throughput swing about tenfold from one round to the
    next (1.3 to 15.8 trials/s measured), so no bound would hold; the
    traced run measures the workers=2 pool instead (stability.run_campaign.*).
    """

    name = "fuzz"
    chunk = 32
    n_range = (2, 8)
    trace_rounds = 2
    pool_workers = 2

    def setup(self, workdir: Path, seed: int) -> dict:
        # Trial i of round r uses pnpstab seed base_seed + r * chunk + i.
        return {"base_seed": seed * 1_000_000}

    def warm_up(self, inputs: dict) -> None:
        stability.run_campaign(2, self.n_range, ("imaging",), base_seed=inputs["base_seed"], workers=1)

    def run_round(self, inputs: dict, r: int, workers: int = 1) -> Round:
        first = inputs["base_seed"] + r * self.chunk
        t0 = time.perf_counter()
        try:
            results, _ = stability.run_campaign(
                self.chunk, self.n_range, ("imaging",), base_seed=first, workers=workers
            )
        except Exception as exc:
            wall = time.perf_counter() - t0
            return Round(r, _failed_items([f"trial {first + i}" for i in range(self.chunk)], exc), wall)
        wall = time.perf_counter() - t0
        items = [
            Item(f"trial {res.seed}", True, (json.dumps(res.to_json_dict()) + "\n").encode(), data=res)
            for res in results
        ]
        return Round(r, items, wall)

    def check(self, inputs: dict, rd: Round, rng: np.random.Generator) -> None:
        """Replay every violation; re-scan one seeded `pass` trial of the round."""
        passes = []
        for item in rd.items:
            res = item.data
            if res is None:
                continue
            if res.verdict == "violation":
                w, b = self._instance(res)
                t, r, which = res.certificate
                item.problems += reference.check_violation(w, b, t, r, which)
            elif res.verdict == "pass":
                passes.append(item)
        if passes:
            item = passes[int(rng.integers(len(passes)))]
            w, b = self._instance(item.data)
            item.problems += reference.check_stable_on_grid(w, b, steps=256)

    def summary(self, items: list[Item]) -> dict:
        verdicts: dict[str, int] = {}
        for item in items:
            if item.data is not None:
                verdicts[item.data.verdict] = verdicts.get(item.data.verdict, 0) + 1
        return {"verdicts": verdicts, "hypotheses_unmet_share": verdicts.get("hypotheses_unmet", 0) / len(items)}

    @staticmethod
    def _instance(res) -> tuple[np.ndarray, np.ndarray]:
        # The fuzzer's own generator, so the check sees the trial's exact (W, B);
        # only the spectral verdict is recomputed independently.
        family = stability._imaging_instance(np.random.default_rng(res.seed), res.n)
        return np.array(family.W.matrix), np.array(family.B)


class Suites:
    """The serial path: four `run_suite` suites (8 instances each, n <= 8,
    64 grid points) and `repro_all` make one round."""

    name = "suites"
    suites = stability.THEOREMS
    proved = ("dbl_stochastic", "inpainting", "alpha_beta")
    trials = 8
    n_max = 8
    grid_steps = 64
    trace_rounds = 2

    def setup(self, workdir: Path, seed: int) -> dict:
        # Instance i of round r of every suite uses seed base_seed + r * trials + i.
        return {"base_seed": seed * 1_000_000}

    def warm_up(self, inputs: dict) -> None:
        for suite in self.suites:
            stability.run_suite(suite, 1, self.n_max, inputs["base_seed"], self.grid_steps)
        repro.repro_all(Path("repro-warm"))

    def run_round(self, inputs: dict, r: int) -> Round:
        first = inputs["base_seed"] + r * self.trials
        out = Path(f"repro-{r}")
        raw = []
        t0 = time.perf_counter()
        for suite in self.suites:
            try:
                raw.append((suite, stability.run_suite(suite, self.trials, self.n_max, first, self.grid_steps)[0]))
            except Exception as exc:
                raw.append((suite, exc))
        try:
            reports = repro.repro_all(out)
        except Exception as exc:
            reports = exc
        wall = time.perf_counter() - t0

        items = []
        for suite, results in raw:
            if isinstance(results, Exception):
                items += _failed_items([f"{suite} seed {first + i}" for i in range(self.trials)], results)
                continue
            for res in results:
                line = (json.dumps(res.to_json_dict()) + "\n").encode()
                items.append(Item(f"{suite} seed {res.seed}", True, line, data=(suite, res)))
        if isinstance(reports, Exception):
            items += _failed_items([f"repro {ex}" for ex in repro.EXAMPLE_IDS], reports)
        else:
            for rep in reports:
                output = b"".join(Path(p).read_bytes() for p in rep.artifacts)
                items.append(Item(f"repro {rep.example}", True, output, data=("repro", rep)))
        return Round(r, items, wall)

    def check(self, inputs: dict, rd: Round, rng: np.random.Generator) -> None:
        """Proved-bound suites must not fail, repro examples must pass, a
        conjecture failure must replay, and one seeded passing instance per
        suite is re-scanned."""
        passing: dict[str, list[Item]] = {}
        for item in rd.items:
            if item.data is None:
                continue
            kind, res = item.data
            if kind == "repro":
                if not res.overall_pass:
                    failed = [c.name for c in res.checks if not c.passed]
                    item.problems.append(f"repro {res.example}: checks failed: {failed}")
            elif res.passed:
                passing.setdefault(kind, []).append(item)
            elif kind in self.proved:
                item.problems.append(f"{kind} seed {res.seed}: proved bound violated at {res.violation}")
            else:
                w, b = self._instance(kind, res)
                t, r = res.violation
                item.problems += reference.check_violation(w, b, t, r, res.which_failed)
        for suite, items in passing.items():
            item = items[int(rng.integers(len(items)))]
            w, b = self._instance(*item.data)
            item.problems += reference.check_stable_on_grid(w, b, steps=self.grid_steps)

    def summary(self, items: list[Item]) -> dict:
        passed: dict[str, int] = {}
        for item in items:
            if item.data is not None:
                kind, res = item.data
                ok = res.overall_pass if kind == "repro" else res.passed
                passed[kind] = passed.get(kind, 0) + int(ok)
        return {"passed": passed}

    @staticmethod
    def _instance(suite: str, res) -> tuple[np.ndarray, np.ndarray]:
        family = stability.suite_family(suite, res.seed, res.n)
        return np.array(family.W.matrix), np.array(family.B)


class ImagingLarge:
    """`pnpstab threshold` for P and R on two imaging families read from files.

    Each family is a kernel denoiser W (seeded signal, bandwidth 0.5) and
    a circulant deblur B = H^T H with a seeded 3-tap kernel.  n = 256 is
    the size the uint8 path-count overflow in the structure check rejects.
    n = 400 stands in for n = 1000: on a 2-core machine one round at
    n = 1000 takes about 95 s, more than one benchmark run may last.
    """

    name = "imaging-large"
    sizes = (256, 400)
    warm_size = 8
    cli_args = ("--scan-max", "3", "--grid-step", "0.1875", "--bisect-tol", "1e-6")
    trace_rounds = 1

    def setup(self, workdir: Path, seed: int) -> dict:
        workdir = Path(workdir)
        for n in self.sizes + (self.warm_size,):
            rng = np.random.default_rng([seed, n])
            w = operators.kernel_denoiser(rng.uniform(0.0, 1.0, size=n), bandwidth=0.5)
            b = operators.gram(operators.build_deblur(rng.uniform(0.05, 1.0, size=3), n))
            matrices.write_matrix(workdir / f"W{n}.txt", w.matrix)
            matrices.write_matrix(workdir / f"B{n}.txt", b)
        return {"dir": workdir}

    def warm_up(self, inputs: dict) -> None:
        self._threshold(inputs, self.warm_size, "P")

    def _threshold(self, inputs: dict, n: int, which: str) -> tuple[int, str, Path]:
        d = inputs["dir"]
        out = d / f"T{n}{which}.json"
        out.unlink(missing_ok=True)
        argv = ["threshold", "--w", str(d / f"W{n}.txt"), "--b", str(d / f"B{n}.txt"), "--which", which]
        text = io.StringIO()
        with redirect_stdout(text), redirect_stderr(text):
            rc = cli.main(argv + list(self.cli_args) + ["--out", str(out)])
        return rc, text.getvalue(), out

    def run_round(self, inputs: dict, r: int) -> Round:
        raw = []
        t0 = time.perf_counter()
        for n in self.sizes:
            for which in ("P", "R"):
                raw.append((n, which) + self._threshold(inputs, n, which))
        wall = time.perf_counter() - t0
        items = []
        for n, which, rc, text, out in raw:
            report = out.read_bytes() if rc == 0 else b""
            output = f"exit {rc}\n{text}".encode() + report
            items.append(Item(f"threshold {which} n={n}", rc == 0, output, data=(n, report)))
        return Round(r, items, wall)

    def check(self, inputs: dict, rd: Round, rng: np.random.Generator) -> None:
        """Confirm each report's bracket or scan points; for a refused input,
        note whether W really is irreducible."""
        loaded = {}
        for item in rd.items:
            n, report = item.data
            if n not in loaded:
                d = inputs["dir"]
                loaded[n] = (reference.load_matrix(d / f"W{n}.txt"), reference.load_matrix(d / f"B{n}.txt"))
            w, b = loaded[n]
            if item.ok:
                item.problems += reference.check_threshold(w, b, json.loads(report), rng)
            elif reference.strongly_connected(w):
                item.note = "refused an irreducible W"

    def summary(self, items: list[Item]) -> dict:
        outcomes: dict[str, str] = {}
        for item in items:
            n, report = item.data
            outcomes[item.label] = json.loads(report)["classification"] if item.ok else "refused"
        return {"outcomes": outcomes}


WORKLOADS = {wl.name: wl for wl in (Fuzz(), Suites(), ImagingLarge())}

"""``repro --spec specs/figure14.json`` in process, cold or warm.

Cold: an empty ``RunCache`` and ``SweepManifest`` per request, so every
stage runs (VM trace, batched engine, encode and store, manifest,
critical path, render).  Warm: the cache and manifest are filled before
timing starts, so a request loads, decodes, walks the critical path and
renders, with zero simulations.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

from common import Sample, cycle_digest, cycles
from repro.experiments.cache import RunCache
from repro.experiments.fig14 import BARS_BY_CLUSTER
from repro.experiments.harness import Workbench
from repro.experiments.manifest import SweepManifest, default_manifest_dir
from repro.experiments.sweep import run_spec
from repro.specs import load_spec, spec_hash

# Small enough that a run measures several figures, large enough that
# every stage (store, load, critical path) does real work.
INSTRUCTIONS = 300
# Seconds per request on the reference host; ``--seconds`` divided by it
# is the number of requests a run makes.
REQUEST_S = {False: 5.0, True: 1.3}  # keyed by warm
PAPER_REDUCTION = {2: 42, 4: 57, 8: 66}


def render_text(figure) -> str:
    """The table a user reads; the traced run attributes it to fig14."""
    return str(figure)


def penalty_reductions(figure) -> dict[int, float]:
    """Figure 14's clustering-penalty cut per cluster count, in percent."""
    ave = {(row[1], row[2]): row[3] for row in figure.rows if row[0] == "AVE"}
    cuts = {}
    for clusters, policies in BARS_BY_CLUSTER.items():
        focused = ave[(clusters, "focused")] - 1.0
        best = ave[(clusters, policies[-1])] - 1.0
        cuts[clusters] = 100.0 * (focused - best) / focused
    return cuts


def _strip_resume_note(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("note: resumed:")
    )


def _load_spec(root: Path):
    return load_spec(root / "specs" / "figure14.json")


def _bench(spec, data_seed: int, cache_dir: Path | None):
    cache = RunCache(cache_dir) if cache_dir is not None else None
    bench = Workbench(instructions=INSTRUCTIONS, seed=data_seed, cache=cache)
    manifest = None
    if cache is not None:
        manifest = SweepManifest.open(
            default_manifest_dir(cache.root), spec_hash(spec), spec.name
        )
    return bench, manifest


def setup(root: Path, cache_dir: Path, ready) -> None:
    """What a user's run does before submitting: load and construct."""
    _bench(_load_spec(root), 0, cache_dir)
    ready()


class Figure14:
    """One workload instance; ``warm`` picks the cache side."""

    def __init__(self, root: Path, work: Path, seed: int, warm: bool):
        self.spec = _load_spec(root)
        self.work = work
        self.data_seed = seed
        self.warm = warm
        self.errors: list[str] = []
        self.loop_s = 0.0

    def setup_dir(self, index: int) -> Path:
        """Cache directory a set-up probe constructs against."""
        return self.work / ("warm" if self.warm else f"setup-{index}")

    def prepare(self) -> None:
        """Untimed: the cache-off reference, and the warm cache filled."""
        bench, _ = _bench(self.spec, self.data_seed, None)
        figure = run_spec(bench, self.spec)
        self.jobs = self.spec.jobs(bench)
        self.expected_text = str(figure)
        self.expected_cycles = cycles(bench, self.jobs)
        self.digest = cycle_digest(self.expected_cycles)
        self.reductions = penalty_reductions(figure)
        if self.warm:
            bench, manifest = _bench(self.spec, self.data_seed, self.work / "warm")
            run_spec(bench, self.spec, manifest=manifest)

    def requests_for(self, seconds: float) -> int:
        return max(3, round(seconds / REQUEST_S[self.warm]))

    def run(self, count: int, trace=None) -> list[Sample]:
        samples: list[Sample] = []
        self.loop_s = 0.0
        while len(samples) < count:
            cache_dir = self.work / ("warm" if self.warm else "cold")
            bench, manifest = _bench(self.spec, self.data_seed, cache_dir)
            start = time.perf_counter()
            figure = run_spec(bench, self.spec, manifest=manifest)
            text = render_text(figure)
            elapsed = time.perf_counter() - start
            self.loop_s += elapsed
            self._check(len(samples), bench, text)
            samples.append(
                Sample(elapsed, len(self.jobs), len(bench.failed_outcomes()))
            )
            if trace is not None:
                trace.measure_stored_entries()
            if not self.warm:
                shutil.rmtree(cache_dir)
        return samples

    def _check(self, index: int, bench: Workbench, text: str) -> None:
        if _strip_resume_note(text) != self.expected_text:
            self.errors.append(f"request {index}: figure text differs from reference")
        if cycles(bench, self.jobs) != self.expected_cycles:
            self.errors.append(f"request {index}: cycle counts differ from reference")
        expected_runs = 0 if self.warm else len(self.jobs)
        if bench.simulations_run != expected_runs:
            self.errors.append(
                f"request {index}: {bench.simulations_run} simulations, "
                f"expected {expected_runs}"
            )

    def check(self) -> None:
        """Every request was checked as it finished."""

    def service_metrics(self) -> dict:
        return {}

    def report_lines(self) -> list[str]:
        lines = [f"cycle digest (cache-off reference): {self.digest}"]
        for clusters, cut in self.reductions.items():
            lines.append(
                f"accuracy: {clusters} clusters penalty cut {cut:.4f}% "
                f"(paper {PAPER_REDUCTION[clusters]}%; data seed {self.data_seed}, "
                f"{INSTRUCTIONS} instructions)"
            )
        lines.append("accuracy: the timing model is unvalidated against hardware")
        return lines

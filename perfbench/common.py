"""What every workload shares: request samples and cycle digests."""

from __future__ import annotations

import hashlib
import math
import statistics
import threading
import time
from dataclasses import dataclass

from repro.specs import policy_label


@dataclass
class Sample:
    """One request: a spec submitted until its figure is rendered."""

    elapsed: float
    jobs: int
    failed_jobs: int
    submit_s: float = 0.0
    queue_wait_s: float = 0.0
    result_s: float = 0.0

    @property
    def latency(self) -> float:
        """A request with any failed job misses every latency limit."""
        return math.inf if self.failed_jobs else self.elapsed


def job_label(job) -> str:
    return (
        f"{job.kernel}/{job.instructions}/{job.seed}/{job.config.name}/"
        f"{policy_label(job.policy)}/{job.sim}"
    )


def cycles(bench, jobs) -> list[tuple[str, int | None]]:
    """``(job label, simulated cycles)`` for each job, None if absent."""
    rows = []
    for job in jobs:
        result = bench.result_for(job)
        rows.append((job_label(job), None if result is None else result.cycles))
    return rows


def cycle_digest(rows) -> str:
    """SHA-256 over the sorted ``label cycles`` lines."""
    lines = sorted(f"{label} {count}" for label, count in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class HostSpeed:
    """How fast the host runs fixed pure-Python work, sampled through a run.

    The reference host (a shared 2-vCPU machine) drifts between speed states
    that last seconds to minutes (up to 2x apart), far more than a
    change under test moves.  Each sample times the same loop in the
    calling thread's CPU time (so waiting for the GIL does not count),
    keeping the best of three.  ``scale`` maps a run's wall times to the
    reference host's fast state: reported time = measured time x
    ``REFERENCE_S`` / median sample.
    """

    REFERENCE_S = 0.005  # the loop's best time on the reference host

    def __init__(self):
        self.samples: list[float] = []
        self._lock = threading.Lock()

    @staticmethod
    def _loop() -> float:
        start = time.thread_time()
        total = 0
        for i in range(60_000):
            total += i * i % 7
        return time.thread_time() - start

    def sample(self) -> None:
        best = min(self._loop() for _ in range(3))
        with self._lock:
            self.samples.append(best)

    def sample_every(self, seconds: float, stop: threading.Event) -> None:
        """Sample until ``stop`` is set (about 3% of one core at 0.5 s)."""
        while not stop.wait(seconds):
            self.sample()

    def scale(self) -> float:
        with self._lock:
            return self.REFERENCE_S / statistics.median(self.samples)

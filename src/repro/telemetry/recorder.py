"""Opt-in pipeline telemetry: per-interval metrics with zero cost when off.

The design exploits a property the simulator already has: every
:class:`~repro.core.instruction.InFlight` record carries full event
provenance (why it dispatched when it did, what steering decided, why it
committed when it did).  Every *cumulative* telemetry metric -- dispatch
stalls split by cause, steering decisions per policy arm, commit reasons,
the LoC-predictor confusion matrix, the Figure 6 lost-cycle event
classification -- is therefore derived **post-run** from the records, at
zero hot-loop cost and with bit-identical simulation output by
construction.

Only *live* machine state that is gone by the end of the run needs an
in-loop hook: per-cluster occupancy, ready-pool and wakeup-heap depths,
and ready-pressure.  :class:`Recorder` samples those once every
``interval`` cycles; with telemetry off the entire hot-loop cost is one
integer comparison per simulated cycle against a sentinel that never
fires.

The output is a :class:`TelemetryData` payload: plain JSON types, carried
on :attr:`SimulationResult.telemetry <repro.core.results.SimulationResult>`
and round-tripped losslessly through :mod:`repro.core.serialize` and the
persistent :class:`~repro.experiments.cache.RunCache` (telemetry-off
entries are unaffected -- see :func:`repro.experiments.cache.job_key`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids core<->telemetry cycle
    from repro.core.results import SimulationResult
    from repro.core.wakeup import ClusterWakeupQueue

__all__ = [
    "DEFAULT_INTERVAL",
    "NullTelemetry",
    "Recorder",
    "Telemetry",
    "TelemetryData",
    "telemetry_from_dict",
    "telemetry_to_dict",
]

# Cycles between live samples.  Deliberately not configurable per run-job:
# the payload a job produces must be a pure function of the job so the
# persistent cache stays content-addressed (see RunJob.metrics).
DEFAULT_INTERVAL = 256

# DispatchReason value -> interval-series name for the stall split.
_STALL_SERIES = {
    "steer_stall": "stall_steer",
    "cluster_full": "stall_window",
    "rob_full": "stall_rob",
    "fetch_redirect": "stall_fetch",
}


class Telemetry(Protocol):
    """What the simulator needs from a telemetry sink.

    ``interval <= 0`` disables live sampling entirely (the simulator then
    never calls :meth:`sample`).  ``sample`` observes -- it must not
    mutate machine state; simulation output is identical with any
    implementation attached.
    """

    interval: int

    def sample(
        self,
        now: int,
        occupancy: Sequence[int],
        queues: Sequence["ClusterWakeupQueue"],
    ) -> None: ...

    def finalize(self, result: "SimulationResult") -> "TelemetryData | None": ...


class NullTelemetry:
    """The no-op default: never samples, finalizes to nothing."""

    interval = 0

    def sample(self, now, occupancy, queues) -> None:  # pragma: no cover
        pass

    def finalize(self, result) -> None:
        return None


@dataclass
class TelemetryData:
    """One run's telemetry payload, in plain JSON types.

    ``samples`` are the live per-interval snapshots; everything else is
    derived from the run's records at :meth:`Recorder.finalize` time.
    ``interval_series`` bins per-instruction events by ``time // interval``:
    ``dispatched`` / ``issued`` / ``committed`` throughput plus the
    dispatch-stall split (``stall_steer`` = stall-over-steer,
    ``stall_window`` = all cluster windows full, ``stall_rob``,
    ``stall_fetch``).
    """

    interval: int
    cycles: int
    instructions: int
    # Per-cluster window sizes, for occupancy normalization.  Empty on
    # payloads recorded before this field existed (cache entries round-trip
    # losslessly either way).
    window_sizes: list[int] = field(default_factory=list)
    samples: list[dict[str, Any]] = field(default_factory=list)
    interval_series: dict[str, list[int]] = field(default_factory=dict)
    dispatch_reasons: dict[str, int] = field(default_factory=dict)
    steer_causes: dict[str, int] = field(default_factory=dict)
    commit_reasons: dict[str, int] = field(default_factory=dict)
    predictor: dict[str, float] = field(default_factory=dict)
    contention_events: dict[str, int] = field(default_factory=dict)
    forwarding_events: dict[str, int] = field(default_factory=dict)
    policy: dict[str, Any] | None = None

    # ------------------------------------------------------------------
    @property
    def dispatch_stalls(self) -> int:
        """Dispatches gated by a stall (any cause but start/bandwidth)."""
        return sum(
            count
            for reason, count in self.dispatch_reasons.items()
            if reason in _STALL_SERIES
        )

    def max_wakeup_depth(self) -> int:
        """Deepest per-cluster wakeup heap seen across all samples."""
        return max(
            (max(s["wakeup_depth"]) for s in self.samples if s["wakeup_depth"]),
            default=0,
        )

    def mean_occupancy(self) -> float:
        """Mean window utilization (occupancy / window size) over all samples.

        Each cluster's sampled occupancy is normalized by *that cluster's*
        window size: on a heterogeneous machine a raw average would let a
        fat cluster's large window drown out the thin ones.  Legacy
        payloads without recorded window sizes fall back to the raw mean
        occupancy count.
        """
        sizes = self.window_sizes
        if not sizes:
            cells = [v for s in self.samples for v in s["occupancy"]]
            return sum(cells) / len(cells) if cells else 0.0
        cells = [
            occupancy / sizes[index]
            for s in self.samples
            for index, occupancy in enumerate(s["occupancy"])
        ]
        return sum(cells) / len(cells) if cells else 0.0

    def summary(self) -> dict[str, Any]:
        """Compact aggregate view (what run reports embed per run)."""
        return {
            "interval": self.interval,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "samples": len(self.samples),
            "dispatch_stalls": self.dispatch_stalls,
            "stall_steer": self.dispatch_reasons.get("steer_stall", 0),
            "stall_window": self.dispatch_reasons.get("cluster_full", 0),
            "stall_rob": self.dispatch_reasons.get("rob_full", 0),
            "stall_fetch": self.dispatch_reasons.get("fetch_redirect", 0),
            "steer_causes": dict(self.steer_causes),
            "predictor": dict(self.predictor),
            "contention_events": dict(self.contention_events),
            "forwarding_events": dict(self.forwarding_events),
            "max_wakeup_depth": self.max_wakeup_depth(),
            "mean_occupancy": self.mean_occupancy(),
        }


# The payload's keyed tables: each must decode from a JSON object.
_TELEMETRY_TABLES = (
    "interval_series",
    "dispatch_reasons",
    "steer_causes",
    "commit_reasons",
    "predictor",
    "contention_events",
    "forwarding_events",
)


def telemetry_to_dict(data: TelemetryData) -> dict[str, Any]:
    """Lossless JSON-type representation (stable key order)."""
    return {
        "interval": data.interval,
        "cycles": data.cycles,
        "instructions": data.instructions,
        "window_sizes": list(data.window_sizes),
        "samples": [dict(sample) for sample in data.samples],
        "interval_series": {k: list(v) for k, v in data.interval_series.items()},
        "dispatch_reasons": dict(data.dispatch_reasons),
        "steer_causes": dict(data.steer_causes),
        "commit_reasons": dict(data.commit_reasons),
        "predictor": dict(data.predictor),
        "contention_events": dict(data.contention_events),
        "forwarding_events": dict(data.forwarding_events),
        "policy": data.policy,
    }


def telemetry_from_dict(data: dict[str, Any]) -> TelemetryData:
    """Inverse of :func:`telemetry_to_dict`.

    A payload that is not an object, or one of whose tables is not,
    raises ``TypeError``, so a damaged cache entry is quarantined.
    """
    if not isinstance(data, dict) or not all(
        isinstance(data[name], dict) for name in _TELEMETRY_TABLES
    ):
        raise TypeError("telemetry payload or one of its tables is not a JSON object")
    return TelemetryData(
        interval=data["interval"],
        cycles=data["cycles"],
        instructions=data["instructions"],
        # .get(): payloads cached before window sizes were recorded.
        window_sizes=list(data.get("window_sizes", [])),
        samples=[dict(sample) for sample in data["samples"]],
        interval_series={k: list(v) for k, v in data["interval_series"].items()},
        dispatch_reasons=dict(data["dispatch_reasons"]),
        steer_causes=dict(data["steer_causes"]),
        commit_reasons=dict(data["commit_reasons"]),
        predictor=dict(data["predictor"]),
        contention_events=dict(data["contention_events"]),
        forwarding_events=dict(data["forwarding_events"]),
        policy=data["policy"],
    )


class Recorder:
    """Collects live samples during a run and derives the full payload.

    ``classify`` additionally runs the Figure 6 critical-path event
    classification and the predictor confusion matrix at finalize time
    (one chunked critical-path walk over the records -- the same cost the
    figure analyses pay).
    """

    def __init__(
        self,
        interval: int = DEFAULT_INTERVAL,
        classify: bool = True,
        pressure_horizon: int = 0,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive; use NullTelemetry to disable")
        self.interval = interval
        self.classify = classify
        self.pressure_horizon = pressure_horizon
        self._samples: list[tuple[int, tuple[int, ...], tuple]] = []
        self._policy: dict[str, Any] | None = None

    # ------------------------------------------------------------------
    def note_policies(self, steering, scheduler) -> None:
        """Record the policy stack's structured self-description."""
        self._policy = {
            "steering": steering.describe(),
            "scheduler": scheduler.describe(),
        }

    def sample(self, now, occupancy, queues) -> None:
        """Snapshot live per-cluster state (called by the simulator)."""
        horizon = self.pressure_horizon
        self._samples.append(
            (
                now,
                tuple(occupancy),
                tuple(q.snapshot(now, horizon) for q in queues),
            )
        )

    # ------------------------------------------------------------------
    def finalize(self, result: "SimulationResult") -> TelemetryData:
        """Derive the payload from ``result``'s records plus the samples."""
        records = result.records
        interval = self.interval
        cycles = result.cycles
        bins = cycles // interval + 1

        dispatched = [0] * bins
        issued = [0] * bins
        committed = [0] * bins
        stall_series = {name: [0] * bins for name in _STALL_SERIES.values()}
        dispatch_reasons: dict[str, int] = {}
        steer_causes: dict[str, int] = {}
        commit_reasons: dict[str, int] = {}
        for record in records:
            dispatched[record.dispatch_time // interval] += 1
            issued[record.issue_time // interval] += 1
            committed[record.commit_time // interval] += 1
            reason = record.dispatch_reason.value
            dispatch_reasons[reason] = dispatch_reasons.get(reason, 0) + 1
            series = _STALL_SERIES.get(reason)
            if series is not None:
                stall_series[series][record.dispatch_time // interval] += 1
            cause = record.steer_cause.value
            steer_causes[cause] = steer_causes.get(cause, 0) + 1
            commit = record.commit_reason.value
            commit_reasons[commit] = commit_reasons.get(commit, 0) + 1

        samples = [
            {
                "cycle": cycle,
                "occupancy": list(occupancy),
                "ready": [snap[0] for snap in snaps],
                "wakeup_depth": [snap[1] for snap in snaps],
                "pressure": [snap[2] for snap in snaps],
            }
            for cycle, occupancy, snaps in self._samples
        ]

        data = TelemetryData(
            interval=interval,
            cycles=cycles,
            instructions=len(records),
            window_sizes=[
                cluster.window_size for cluster in result.config.clusters
            ],
            samples=samples,
            interval_series={
                "dispatched": dispatched,
                "issued": issued,
                "committed": committed,
                **stall_series,
            },
            dispatch_reasons=dispatch_reasons,
            steer_causes=steer_causes,
            commit_reasons=commit_reasons,
            policy=self._policy,
        )
        if self.classify:
            self._classify(records, data)
        return data

    @staticmethod
    def _classify(records, data: TelemetryData) -> None:
        """Predictor confusion + Figure 6 event classification.

        Imported lazily: the critical-path walk lives above the core
        layer, and telemetry must stay importable from anywhere.
        """
        from repro.analysis.events import classify_lost_cycle_events
        from repro.criticality.critical_path import critical_flags

        flags = critical_flags(records)
        tp = fp = fn = tn = 0
        loc_critical = 0.0
        loc_other = 0.0
        for record, critical in zip(records, flags):
            if record.predicted_critical:
                if critical:
                    tp += 1
                else:
                    fp += 1
            elif critical:
                fn += 1
            else:
                tn += 1
            if critical:
                loc_critical += record.loc
            else:
                loc_other += record.loc
        critical_count = tp + fn
        other_count = fp + tn
        data.predictor = {
            "true_positive": tp,
            "false_positive": fp,
            "false_negative": fn,
            "true_negative": tn,
            "mean_loc_critical": loc_critical / critical_count if critical_count else 0.0,
            "mean_loc_other": loc_other / other_count if other_count else 0.0,
        }
        contention, forwarding = classify_lost_cycle_events(records, flags)
        data.contention_events = {
            "predicted_critical": contention.predicted_critical,
            "other": contention.other,
        }
        data.forwarding_events = {
            "load_balance": forwarding.load_balance,
            "dyadic": forwarding.dyadic,
            "other": forwarding.other,
        }

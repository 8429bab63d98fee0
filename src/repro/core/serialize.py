"""Exact JSON serialization of :class:`RunSummary`, and record identity.

The persistent run cache (:mod:`repro.experiments.cache`), the lanes'
returns and the distributed wire all carry a run as its
:class:`~repro.core.results.RunSummary`.  :func:`result_to_dict` writes
one in plain JSON types and :func:`result_from_dict` reads it back equal:
floats round-trip exactly through ``repr``, and int-keyed dicts (the LoC
table, the ILP profile) travel as ``[key, value]`` pairs so they come back
with int keys in their original order.  The decoder checks the JSON type
of every summary field, so a damaged entry raises ``KeyError`` /
``TypeError`` / ``ValueError`` instead of loading as a wrong summary.

Telemetry payloads are optional and round-trip losslessly, but are
**absent** from the dict when unset.

Full per-instruction records never leave the process that ran the
engine.  :func:`results_identical` compares two in-process
:class:`~repro.core.results.SimulationResult` pairs record by record -- the
definition of "bit-identical results" the differential suites use.
"""

from __future__ import annotations

from dataclasses import asdict, astuple
from operator import attrgetter
from typing import Any

from repro.core.config import ClusterConfig, MachineConfig
from repro.core.instruction import InFlight
from repro.core.results import (
    FIGURE5_SEGMENTS,
    ConsumerCriticalityStats,
    ContentionEvents,
    CpiBreakdown,
    ForwardingEvents,
    IlpProfile,
    RunSummary,
    SimulationResult,
)
from repro.frontend.fetch import FrontEndConfig
from repro.memory.cache import CacheConfig, MemoryConfig

# ---------------------------------------------------------------------------
# Machine configuration
# ---------------------------------------------------------------------------


def _cluster_to_dict(cluster: ClusterConfig) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "issue_width": cluster.issue_width,
        "int_ports": cluster.int_ports,
        "fp_ports": cluster.fp_ports,
        "mem_ports": cluster.mem_ports,
        "window_size": cluster.window_size,
    }
    # Key only present when set: a cluster without overrides serializes
    # byte-identically to the pre-heterogeneity schema.
    if cluster.latency_overrides:
        payload["latency_overrides"] = {
            name: cycles for name, cycles in cluster.latency_overrides
        }
    return payload


def config_to_dict(config: MachineConfig) -> dict[str, Any]:
    """Flatten a :class:`MachineConfig` tree into JSON types.

    Uniform machines keep the legacy ``num_clusters``/``cluster`` spelling
    byte-for-byte (existing cache entries and goldens stay valid);
    heterogeneous machines serialize a ``clusters`` list instead.
    """
    memory = config.memory
    if config.is_uniform:
        core: dict[str, Any] = {
            "num_clusters": config.num_clusters,
            "cluster": _cluster_to_dict(config.cluster),
        }
    else:
        core = {"clusters": [_cluster_to_dict(c) for c in config.clusters]}
    return {
        **core,
        "rob_size": config.rob_size,
        "dispatch_width": config.dispatch_width,
        "commit_width": config.commit_width,
        "forwarding_latency": config.forwarding_latency,
        "forwarding_bandwidth": config.forwarding_bandwidth,
        "frontend": {
            "width": config.frontend.width,
            "depth_to_dispatch": config.frontend.depth_to_dispatch,
            "buffer_size": config.frontend.buffer_size,
            "break_on_taken_branch": config.frontend.break_on_taken_branch,
        },
        "memory": {
            "l1": _cache_config_to_dict(memory.l1),
            "l2_latency": memory.l2_latency,
            "l2": _cache_config_to_dict(memory.l2) if memory.l2 else None,
            "memory_latency": memory.memory_latency,
        },
    }


def config_from_dict(data: dict[str, Any]) -> MachineConfig:
    """Inverse of :func:`config_to_dict` (accepts both cluster spellings)."""
    memory = data["memory"]
    if "clusters" in data:
        clusters = tuple(ClusterConfig(**c) for c in data["clusters"])
    else:
        clusters = (ClusterConfig(**data["cluster"]),) * data["num_clusters"]
    return MachineConfig(
        clusters=clusters,
        rob_size=data["rob_size"],
        dispatch_width=data["dispatch_width"],
        commit_width=data["commit_width"],
        forwarding_latency=data["forwarding_latency"],
        forwarding_bandwidth=data["forwarding_bandwidth"],
        frontend=FrontEndConfig(**data["frontend"]),
        memory=MemoryConfig(
            l1=CacheConfig(**memory["l1"]),
            l2_latency=memory["l2_latency"],
            l2=CacheConfig(**memory["l2"]) if memory["l2"] else None,
            memory_latency=memory["memory_latency"],
        ),
    )


def _cache_config_to_dict(cache: CacheConfig) -> dict[str, Any]:
    return {
        "size_bytes": cache.size_bytes,
        "associativity": cache.associativity,
        "line_bytes": cache.line_bytes,
        "hit_latency": cache.hit_latency,
    }


# ---------------------------------------------------------------------------
# Run summaries
# ---------------------------------------------------------------------------

# Scalar fields of a summary dict and their JSON types.
_SCALARS = {
    "cycles": int,
    "instructions": int,
    "global_values": int,
    "l1_hits": int,
    "l1_misses": int,
    "steering_name": str,
    "scheduler_name": str,
    "cpi": float,
    "attributed_cycles": int,
}


def _checked(value: Any, kind: type, name: str) -> Any:
    """``value`` if its JSON type is exactly ``kind`` (so no bool for int)."""
    if type(value) is not kind:
        raise TypeError(
            f"summary field {name!r} is {type(value).__name__}, want {kind.__name__}"
        )
    return value


def _counts(values: Any, name: str) -> list[int]:
    return [_checked(value, int, name) for value in _checked(values, list, name)]


def _pairs(mapping: dict) -> list[list]:
    return [[key, value] for key, value in mapping.items()]


def _int_keyed(pairs: Any, kind: type, name: str) -> dict:
    """Inverse of :func:`_pairs` for int keys and ``kind`` values."""
    return {
        _checked(key, int, name): _checked(value, kind, name)
        for key, value in _checked(pairs, list, name)
    }


def result_to_dict(summary: RunSummary) -> dict[str, Any]:
    """Lossless JSON-type representation of a run's summary.

    The ``telemetry`` key exists only when the run carried a payload.
    """
    ilp = summary.ilp_profile
    contention, forwarding = summary.lost_cycle_events
    breakdown = summary.breakdown
    data = {
        "config": config_to_dict(summary.config),
        "cycles": summary.cycles,
        "instructions": summary.instructions,
        "global_values": summary.global_values,
        "l1_hits": summary.l1_hits,
        "l1_misses": summary.l1_misses,
        "steering_name": summary.steering_name,
        "scheduler_name": summary.scheduler_name,
        "ilp_profile": None
        if ilp is None
        else {"issued_sum": _pairs(ilp.issued_sum), "cycle_count": _pairs(ilp.cycle_count)},
        "segments": breakdown.segments,
        "cpi": breakdown.cpi,
        "attributed_cycles": breakdown.attributed_cycles,
        "contention_events": list(astuple(contention)),
        "forwarding_events": list(astuple(forwarding)),
        "loc_by_pc": _pairs(summary.loc_by_pc),
        "pc_counts": _pairs(summary.pc_counts),
        "consumer_stats": asdict(summary.consumer_stats),
        "latencies": list(summary.latencies),
    }
    if summary.telemetry is not None:
        from repro.telemetry.recorder import telemetry_to_dict

        data["telemetry"] = telemetry_to_dict(summary.telemetry)
    return data


def result_from_dict(data: dict[str, Any]) -> RunSummary:
    """Inverse of :func:`result_to_dict`.

    Raises ``KeyError`` for a missing field, ``TypeError`` for a field of
    the wrong JSON type and ``ValueError`` for per-instruction columns that
    disagree with ``instructions``, segments other than Figure 5's, or a
    LoC table whose PCs are not ``pc_counts``', so a damaged payload never
    loads.
    """
    scalars = {name: _checked(data[name], kind, name) for name, kind in _SCALARS.items()}
    latencies = tuple(_counts(data["latencies"], "latencies"))
    pc_counts = _int_keyed(data["pc_counts"], int, "pc_counts")
    if not len(latencies) == sum(pc_counts.values()) == scalars["instructions"]:
        raise ValueError(
            f"summary of {scalars['instructions']} instructions holds "
            f"{len(latencies)} latencies and {sum(pc_counts.values())} counted"
        )
    ilp = data["ilp_profile"]
    if ilp is not None:
        ilp = IlpProfile(
            issued_sum=_int_keyed(ilp["issued_sum"], int, "ilp_profile"),
            cycle_count=_int_keyed(ilp["cycle_count"], int, "ilp_profile"),
        )
    segments = _checked(data["segments"], dict, "segments")
    for value in segments.values():
        _checked(value, float, "segments")
    if segments.keys() != set(FIGURE5_SEGMENTS):
        raise ValueError(f"summary segments {sorted(segments)} are not Figure 5's")
    loc_by_pc = _int_keyed(data["loc_by_pc"], float, "loc_by_pc")
    if loc_by_pc.keys() != pc_counts.keys():
        raise ValueError("summary loc_by_pc and pc_counts hold different PCs")
    stats = _checked(data["consumer_stats"], dict, "consumer_stats")
    telemetry = None
    if data.get("telemetry") is not None:
        from repro.telemetry.recorder import telemetry_from_dict

        telemetry = telemetry_from_dict(data["telemetry"])
    return RunSummary(
        config=config_from_dict(data["config"]),
        cycles=scalars["cycles"],
        instructions=scalars["instructions"],
        global_values=scalars["global_values"],
        l1_hits=scalars["l1_hits"],
        l1_misses=scalars["l1_misses"],
        steering_name=scalars["steering_name"],
        scheduler_name=scalars["scheduler_name"],
        ilp_profile=ilp,
        breakdown=CpiBreakdown(segments, scalars["cpi"], scalars["attributed_cycles"]),
        lost_cycle_events=(
            ContentionEvents(*_counts(data["contention_events"], "contention_events")),
            ForwardingEvents(*_counts(data["forwarding_events"], "forwarding_events")),
        ),
        loc_by_pc=loc_by_pc,
        pc_counts=pc_counts,
        consumer_stats=ConsumerCriticalityStats(
            statically_unique_fraction=_checked(
                stats["statically_unique_fraction"], float, "consumer_stats"
            ),
            bimodal_fraction=_checked(stats["bimodal_fraction"], float, "consumer_stats"),
            most_critical_not_first_fraction=_checked(
                stats["most_critical_not_first_fraction"], float, "consumer_stats"
            ),
            values_analyzed=_checked(stats["values_analyzed"], int, "consumer_stats"),
        ),
        latencies=latencies,
        telemetry=telemetry,
    )


# ---------------------------------------------------------------------------
# Record identity
# ---------------------------------------------------------------------------

# Every InFlight slot compared by value; the two cross-record fields are
# compared below by trace index and arrival order.
_RECORD_VALUES = attrgetter(
    *(name for name in InFlight.__slots__ if name not in ("waiters", "forwarded_to_clusters"))
)
_RESULT_VALUES = attrgetter(
    "config",
    "cycles",
    "mispredicted",
    "global_values",
    "l1_hits",
    "l1_misses",
    "ilp_profile",
    "steering_name",
    "scheduler_name",
)


def results_identical(a: SimulationResult, b: SimulationResult) -> bool:
    """Whether two in-process runs produced bit-identical results.

    Every :class:`~repro.core.instruction.InFlight` slot must match --
    timing fields, provenance enums, ``instr`` and ``deps``, ``waiters``
    by trace index and ``forwarded_to_clusters`` in arrival order -- and
    so must the counters, ``mispredicted`` and the ILP profile.  Telemetry
    is observational metadata, not simulation output, and is excluded.
    """
    if _RESULT_VALUES(a) != _RESULT_VALUES(b) or len(a.records) != len(b.records):
        return False
    return all(
        _RECORD_VALUES(x) == _RECORD_VALUES(y)
        and [w.index for w in x.waiters] == [w.index for w in y.waiters]
        and list(x.forwarded_to_clusters.items()) == list(y.forwarded_to_clusters.items())
        for x, y in zip(a.records, b.records)
    )

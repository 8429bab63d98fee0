"""Exact JSON serialization of :class:`SimulationResult`.

The persistent run cache (:mod:`repro.experiments.cache`) and the
parallel-vs-serial determinism tests both need a lossless, canonical
representation of everything a run produced: the machine configuration,
every per-instruction :class:`~repro.core.instruction.InFlight` record
(including its event provenance enums and its consumer back-references),
the misprediction set and the optional ILP profile.

The representation is plain JSON types only, so ``result_to_dict(a) ==
result_to_dict(b)`` is the definition of "bit-identical results" used by
the test suite, and ``result_from_dict(result_to_dict(r))`` reproduces a
result whose every derived statistic (CPI, breakdowns, event
classifications) matches the original exactly.

``records`` is packed as columns: one list per field, in trace order, so
each field name appears once per result instead of once per record.
Enums are stored by name.  Cross-record references (``InFlight.waiters``)
are stored as trace indices and re-linked on load, so the reconstructed
record graph has the same shape as the live one.

Telemetry payloads (``SimulationResult.telemetry``) are optional and
round-trip losslessly, but are **absent** from the dict when unset.
``results_identical`` compares *simulation* output and ignores telemetry
(an observational payload that legitimately differs between the event
and reference simulators, which sample live state differently).
"""

from __future__ import annotations

from itertools import starmap
from operator import attrgetter
from typing import Any

from repro.core.config import ClusterConfig, MachineConfig
from repro.core.instruction import (
    CommitReason,
    DispatchReason,
    InFlight,
    SteerCause,
)
from repro.core.rename import Dependences
from repro.core.results import IlpProfile, SimulationResult
from repro.frontend.fetch import FrontEndConfig
from repro.memory.cache import CacheConfig, MemoryConfig
from repro.vm.isa import OpClass
from repro.vm.trace import DynamicInstruction

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
# Per-instruction records, as packed columns
# ---------------------------------------------------------------------------

# DynamicInstruction's fields in constructor order (``opclass`` is stored
# by name, ``srcs`` as a list).
_INSTR_FIELDS = DynamicInstruction.__match_args__
# InFlight fields holding an enum member, stored by name (name -> member).
_ENUM_FIELDS = {
    "dispatch_reason": DispatchReason.__members__,
    "steer_cause": SteerCause.__members__,
    "commit_reason": CommitReason.__members__,
}
# Every other InFlight slot holds a JSON scalar and is stored as it is,
# except the instruction, its dependences and trace index (the columns
# above) and the cross-record fields converted below.
_PLAIN_FIELDS = tuple(
    name
    for name in InFlight.__slots__
    if name not in _ENUM_FIELDS
    and name not in ("instr", "deps", "index", "waiters", "forwarded_to_clusters")
)


def _records_to_columns(records: list[InFlight]) -> dict[str, list[Any]]:
    """One list per field, in trace order; ``waiters`` become indices."""
    instrs = [record.instr for record in records]
    columns = {name: list(map(attrgetter(name), instrs)) for name in _INSTR_FIELDS}
    columns["opclass"] = [opclass.name for opclass in columns["opclass"]]
    columns["srcs"] = list(map(list, columns["srcs"]))
    columns["reg_deps"] = [list(record.deps.reg_deps) for record in records]
    columns["mem_dep"] = [record.deps.mem_dep for record in records]
    for name in _PLAIN_FIELDS:
        columns[name] = list(map(attrgetter(name), records))
    for name in _ENUM_FIELDS:
        columns[name] = list(map(attrgetter(f"{name}.name"), records))
    columns["waiters"] = [[w.index for w in record.waiters] for record in records]
    # [cluster, arrival] pairs: JSON object keys would be strings.
    columns["forwarded_to_clusters"] = [
        list(map(list, record.forwarded_to_clusters.items())) for record in records
    ]
    return columns


def _records_from_columns(columns: dict[str, list[Any]]) -> list[InFlight]:
    """Inverse of :func:`_records_to_columns`, re-linking ``waiters``.

    Every column is zipped with ``strict=True``, so a damaged entry whose
    columns differ in length raises instead of loading short.
    """
    instr_columns = {name: columns[name] for name in _INSTR_FIELDS}
    instr_columns["opclass"] = [OpClass[name] for name in columns["opclass"]]
    instr_columns["srcs"] = map(tuple, columns["srcs"])
    instrs = starmap(DynamicInstruction, zip(*instr_columns.values(), strict=True))
    deps = zip(map(tuple, columns["reg_deps"]), columns["mem_dep"], strict=True)
    records = [
        InFlight(instr, Dependences(*dep)) for instr, dep in zip(instrs, deps, strict=True)
    ]
    for name in _PLAIN_FIELDS:
        for record, value in zip(records, columns[name], strict=True):
            setattr(record, name, value)
    for name, members in _ENUM_FIELDS.items():
        for record, member in zip(records, columns[name], strict=True):
            setattr(record, name, members[member])
    by_index = {record.index: record for record in records}
    for record, waiters, forwarded in zip(
        records, columns["waiters"], columns["forwarded_to_clusters"], strict=True
    ):
        record.waiters = [by_index[i] for i in waiters]
        record.forwarded_to_clusters = dict(forwarded)
    return records


# ---------------------------------------------------------------------------
# Whole results
# ---------------------------------------------------------------------------


def result_to_dict(result: SimulationResult) -> dict[str, Any]:
    """Lossless JSON-type representation of a run.

    The ``telemetry`` key exists only when the run carried a payload, so
    telemetry-off results keep the exact pre-telemetry representation.
    """
    ilp = result.ilp_profile
    data = {
        "config": config_to_dict(result.config),
        "records": _records_to_columns(result.records),
        "cycles": result.cycles,
        "mispredicted": sorted(result.mispredicted),
        "global_values": result.global_values,
        "l1_hits": result.l1_hits,
        "l1_misses": result.l1_misses,
        "ilp_profile": None
        if ilp is None
        else {
            "issued_sum": {str(k): v for k, v in sorted(ilp.issued_sum.items())},
            "cycle_count": {str(k): v for k, v in sorted(ilp.cycle_count.items())},
        },
        "steering_name": result.steering_name,
        "scheduler_name": result.scheduler_name,
    }
    if result.telemetry is not None:
        from repro.telemetry.recorder import telemetry_to_dict

        data["telemetry"] = telemetry_to_dict(result.telemetry)
    return data


def result_from_dict(data: dict[str, Any]) -> SimulationResult:
    """Inverse of :func:`result_to_dict`, re-linking consumer references."""
    records = _records_from_columns(data["records"])
    ilp = None
    if data["ilp_profile"] is not None:
        ilp = IlpProfile(
            issued_sum={
                int(k): v for k, v in data["ilp_profile"]["issued_sum"].items()
            },
            cycle_count={
                int(k): v for k, v in data["ilp_profile"]["cycle_count"].items()
            },
        )
    telemetry = None
    if data.get("telemetry") is not None:
        from repro.telemetry.recorder import telemetry_from_dict

        telemetry = telemetry_from_dict(data["telemetry"])
    return SimulationResult(
        config=config_from_dict(data["config"]),
        records=records,
        cycles=data["cycles"],
        mispredicted=frozenset(data["mispredicted"]),
        global_values=data["global_values"],
        l1_hits=data["l1_hits"],
        l1_misses=data["l1_misses"],
        ilp_profile=ilp,
        steering_name=data["steering_name"],
        scheduler_name=data["scheduler_name"],
        telemetry=telemetry,
    )


def results_identical(a: SimulationResult, b: SimulationResult) -> bool:
    """Whether two runs produced bit-identical results.

    Compares the canonical JSON forms, so every timing field, provenance
    enum, waiter edge and counter must match -- the invariant the parallel
    execution layer guarantees relative to serial execution.  Telemetry is
    observational metadata, not simulation output, and is excluded.
    """
    left = result_to_dict(a)
    right = result_to_dict(b)
    left.pop("telemetry", None)
    right.pop("telemetry", None)
    return left == right

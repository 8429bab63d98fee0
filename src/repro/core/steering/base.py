"""Steering-policy interface.

Steering (cluster assignment) happens at dispatch, in fetch order, one
instruction at a time.  A policy sees the machine through the
:class:`MachineView` protocol -- cluster occupancies plus the
microarchitectural state of the instruction's producers -- and returns a
:class:`SteeringDecision`: either a cluster, or "stall dispatch this cycle"
(used by stall-over-steer and by the structural all-clusters-full case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.core.instruction import DispatchReason, InFlight, SteerCause


class MachineView(Protocol):
    """What a steering policy may observe (implemented by the simulator)."""

    num_clusters: int
    forwarding_latency: int
    now: int

    def window_free(self, cluster: int) -> int:
        """Free scheduling-window entries at ``cluster``."""
        ...

    def cluster_load(self, cluster: int) -> int:
        """In-flight (dispatched, un-issued) instructions at ``cluster``."""
        ...

    def record(self, index: int) -> InFlight:
        """Microarchitectural state of a dispatched instruction."""
        ...

    def cluster_ready_pressure(self, cluster: int, horizon: int = 0) -> int:
        """(Soon-)ready instructions competing for ``cluster``'s ports."""
        ...

    def ports_for(self, cluster: int, opclass) -> int:
        """Issue ports ``cluster`` has for ``opclass``'s pool (0 = cannot)."""
        ...

    def cluster_latency(self, cluster: int, opclass) -> int:
        """Execution latency of ``opclass`` on ``cluster`` (with overrides)."""
        ...


@dataclass(frozen=True, slots=True)
class SteeringDecision:
    """Outcome of one steering choice.

    ``cluster`` is None to stall dispatch this cycle; ``stall_reason`` then
    says why (STEER_STALL for a deliberate policy stall, CLUSTER_FULL for a
    structural one).  ``blocking_cluster`` names the cluster whose window the
    stall is waiting on, for critical-path attribution.
    """

    cluster: int | None
    cause: SteerCause = SteerCause.NO_PRODUCER
    stall_reason: DispatchReason | None = None
    blocking_cluster: int | None = None

    @property
    def is_stall(self) -> bool:
        return self.cluster is None


class SteeringPolicy:
    """Base class for steering policies."""

    name: str = "base"
    # Hot-loop hints for the simulator.  ``wants_commit_events`` lets it
    # skip the per-commit ``on_commit`` callback for policies that do not
    # learn at retirement; ``uses_ready_pressure`` enables the mutation
    # counters that keep ``cluster_ready_pressure`` memoization exact.
    # Both default to the conservative setting for unknown subclasses
    # (callbacks delivered, pressure computed fresh on every query).
    wants_commit_events: bool = True
    uses_ready_pressure: bool = False
    # Cached (machine, records, occupancy, window_size) fast-path view,
    # re-resolved whenever the machine object changes and dropped on
    # reset() -- both simulators reset the policy before rebinding their
    # per-run state lists, so a stale view can never leak across runs,
    # and again when a run ends, so the view (which holds the machine,
    # which holds this policy) never keeps a finished run alive until
    # the cyclic collector runs.
    _mview: tuple | None = None

    def reset(self) -> None:
        """Clear per-run state (called before and after each simulation)."""
        self._mview = None

    def describe(self) -> dict:
        """JSON-type description for telemetry / run reports.

        Subclasses with tunable knobs extend the dict; every description
        carries at least the policy ``name``.
        """
        return {"name": self.name}

    def choose(self, instr: InFlight, machine: MachineView) -> SteeringDecision:
        """Pick a cluster (or stall) for ``instr``."""
        raise NotImplementedError

    def on_commit(self, instr: InFlight) -> None:
        """Observe a retiring instruction (used by learning policies)."""


# SteeringDecision is frozen, so identical decisions are freely shared.
# Steering policies return decisions from a tiny value space (cluster x
# cause, or stall-reason x blocking-cluster), and every dispatch allocates
# one -- interning them removes that allocation from the hot path.  The
# cache keys use the enums' string values (hash computed once and cached
# by the str object) instead of the members themselves, whose ``__hash__``
# is a Python-level call.
_STEER_CACHE: dict[tuple[int, str], SteeringDecision] = {}
_STALL_CACHE: dict[tuple[str, int | None], SteeringDecision] = {}


def steer_decision(cluster: int, cause: SteerCause) -> SteeringDecision:
    """Interned "steer to ``cluster`` because ``cause``" decision."""
    key = (cluster, cause._value_)
    decision = _STEER_CACHE.get(key)
    if decision is None:
        decision = SteeringDecision(cluster, cause)
        _STEER_CACHE[key] = decision
    return decision


def stall_decision(
    reason: DispatchReason, blocking_cluster: int | None
) -> SteeringDecision:
    """Interned "stall dispatch because ``reason``" decision."""
    key = (reason._value_, blocking_cluster)
    decision = _STALL_CACHE.get(key)
    if decision is None:
        decision = SteeringDecision(
            cluster=None, stall_reason=reason, blocking_cluster=blocking_cluster
        )
        _STALL_CACHE[key] = decision
    return decision


def least_loaded_cluster(
    machine: MachineView,
    require_space: bool = True,
    eligible: tuple[int, ...] | None = None,
) -> int | None:
    """The cluster with the fewest in-flight instructions.

    With ``require_space``, clusters whose window is full are excluded and
    None is returned when every window is full.  ``eligible`` restricts the
    scan to a subset of clusters (capability redirects).  Ties break toward
    the lowest-numbered cluster for determinism.
    """
    occupancy = getattr(machine, "_occupancy", None)
    if occupancy is not None:
        # Both simulators track occupancy as one list and expose the
        # per-cluster window sizes, so the scan walks the lists directly
        # instead of paying two method calls per cluster.  (Older machine
        # views without ``_window_sizes`` are uniform; one probe recovers
        # the shared size.)
        window_sizes = getattr(machine, "_window_sizes", None)
        if window_sizes is None:
            window_sizes = [machine.window_free(0) + occupancy[0]] * len(occupancy)
        best = None
        best_load = None
        candidates = eligible if eligible is not None else range(len(occupancy))
        for cluster in candidates:
            load = occupancy[cluster]
            if require_space and load >= window_sizes[cluster]:
                continue
            if best_load is None or load < best_load:
                best, best_load = cluster, load
        return best
    window_free = machine.window_free
    cluster_load = machine.cluster_load
    best = None
    best_load = None
    candidates = eligible if eligible is not None else range(machine.num_clusters)
    for cluster in candidates:
        if require_space and window_free(cluster) <= 0:
            continue
        load = cluster_load(cluster)
        if best_load is None or load < best_load:
            best, best_load = cluster, load
    return best


def structural_stall(machine: MachineView) -> SteeringDecision:
    """The decision to return when every cluster window is full."""
    fullest = max(range(machine.num_clusters), key=machine.cluster_load)
    return stall_decision(DispatchReason.CLUSTER_FULL, fullest)


def capability_redirect(
    machine: MachineView, eligible: tuple[int, ...]
) -> SteeringDecision:
    """Re-steer an op whose chosen cluster cannot execute its class.

    Picks the least-loaded cluster among ``eligible`` (those with ports for
    the op's pool); when every capable window is full, stalls dispatch on
    the fullest capable cluster.  Both simulators apply this identically at
    dispatch, after the policy's choice, so policies stay capability-blind.
    """
    best = least_loaded_cluster(machine, eligible=eligible)
    if best is not None:
        return steer_decision(best, SteerCause.CAPABILITY)
    fullest = max(eligible, key=machine.cluster_load)
    return stall_decision(DispatchReason.CLUSTER_FULL, fullest)

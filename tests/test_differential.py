"""Differential oracle: every simulation backend against every other.

The event-driven :class:`~repro.core.simulator.ClusteredSimulator` must be
*bit-identical* to :class:`~repro.core.reference.ReferenceSimulator` -- not
approximately equal: every per-instruction timestamp, provenance enum,
waiter edge, counter and the ILP profile must match, which is exactly what
:func:`repro.core.serialize.results_identical` (a record-by-record compare)
checks.  The same contract binds the batched sweep engine
(:func:`repro.core.batched.simulate_batched`) under a *matched* warm-up
protocol: when both engines warm their predictors on the same
config/policy and then measure, their results must be bit-identical too
(the production ``sim="batched"`` path differs from the event path only
in *which* run does the warming -- one canonical pass per trace -- never
in engine timing).  The matrix covers:

* every policy stack of Figure 14 plus readiness-aware steering, on
  1/2/4/8 clusters, with warm predictors and a live trainer;
* the same Figure 14 stacks through the batched engine, plus a custom
  (non-preset) stack the fast path must lower correctly;
* stress configurations (tiny windows, long forwarding latency) that
  maximize stalls, port conflicts and idle-skip opportunities;
* frozen-predictor runs (the benchmark and batched-measurement
  methodology);
* hypothesis-driven (kernel, seed, length, policy, clusters) combinations,
  so every run of the suite explores traces the fixed matrix does not.

A summary round-trip is asserted along the way: identical records give
equal run summaries, and a summary survives
the JSON form the run cache stores.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.summary import summarize
from repro.core.batched import (
    ArrayPredictorState,
    TracePrecompute,
    simulate_batched,
)
from repro.core.config import (
    MachineConfig,
    clustered_machine,
    fat_thin_machine,
    fp_less_thin_machine,
    monolithic_machine,
    slow_divider_machine,
)
from repro.core.instruction import InFlight
from repro.core.reference import ReferenceSimulator
from repro.core.simulator import ClusteredSimulator
from repro.core.serialize import (
    result_from_dict,
    result_to_dict,
    results_identical,
)
from repro.criticality.loc import LocPredictor, PredictorSuite
from repro.criticality.trainer import ChunkedCriticalityTrainer
from repro.experiments.batch import batchable_config, fast_policy
from repro.experiments.harness import POLICY_NAMES
from repro.experiments.parallel import prepare_workload
from repro.specs import MachineSpec, spec_hash
from repro.specs.policy import (
    PolicySpec,
    PredictorSpec,
    SchedulerSpec,
    SteeringSpec,
    resolve_policy,
)

INSTRUCTIONS = 700
CLUSTER_COUNTS = (1, 2, 4, 8)


def _machine(clusters: int, forwarding_latency: int = 2):
    if clusters == 1:
        return monolithic_machine()
    return clustered_machine(clusters, forwarding_latency=forwarding_latency)


def _stress(clusters: int, forwarding_latency: int = 4, window: int = 4):
    """Tiny windows + slow forwarding: maximal stalling and idle skipping."""
    base = clustered_machine(clusters, forwarding_latency=forwarding_latency)
    narrow = dataclasses.replace(base.cluster, window_size=window)
    return dataclasses.replace(base, clusters=(narrow,) * clusters)


@pytest.fixture(scope="module")
def workloads():
    cache: dict[tuple[str, int, int], object] = {}

    def get(kernel: str, instructions: int = INSTRUCTIONS, seed: int = 0):
        key = (kernel, instructions, seed)
        if key not in cache:
            cache[key] = prepare_workload(kernel, instructions, seed)
        return cache[key]

    return get


def _policy_pair(policy: str):
    """Fresh (steering, scheduler, needs_predictors); knows 'readiness'."""
    return resolve_policy(policy).build()


def run_one(
    sim_cls,
    prepared,
    config,
    policy,
    collect_ilp: bool = True,
    live_trainer: bool = True,
):
    """One warm-then-measure run of ``sim_cls`` (the harness methodology)."""
    max_cycles = 64 * len(prepared.trace) + 10_000
    steering, scheduler, needs_predictors = _policy_pair(policy)
    suite = trainer = None
    if needs_predictors:
        suite = PredictorSuite(
            loc_predictor=LocPredictor(mode="probabilistic", seed=0)
        )
        trainer = ChunkedCriticalityTrainer(suite)
        warm = sim_cls(
            config,
            steering=steering,
            scheduler=scheduler,
            predictors=suite,
            trainer=trainer,
            max_cycles=max_cycles,
        )
        warm.run(prepared.trace, prepared.dependences, prepared.mispredicted)
        steering, scheduler, __ = _policy_pair(policy)
    sim = sim_cls(
        config,
        steering=steering,
        scheduler=scheduler,
        predictors=suite,
        trainer=trainer if live_trainer else None,
        collect_ilp=collect_ilp,
        max_cycles=max_cycles,
    )
    return sim.run(prepared.trace, prepared.dependences, prepared.mispredicted)


def run_both(
    prepared, config, policy: str, collect_ilp: bool = True, live_trainer: bool = True
):
    """Run both simulators with identical warm predictors.

    ``live_trainer=False`` freezes the warmed predictor suite for the
    measured runs (the benchmark-harness methodology), which exercises the
    optimized simulator's frozen-priority precompute path.
    """
    return [
        run_one(sim_cls, prepared, config, policy, collect_ilp, live_trainer)
        for sim_cls in (ClusteredSimulator, ReferenceSimulator)
    ]


def run_batched_matched(
    prepared, config, policy, collect_ilp: bool = True, live_trainer: bool = True
):
    """The batched engine under :func:`run_one`'s exact warm-up protocol.

    Warm on the *same* config/policy (not the production canonical pass),
    then measure -- with live training or frozen, mirroring
    ``live_trainer``.  Under this matched protocol the batched engine
    must be bit-identical to the event simulator.
    """
    fast = fast_policy(policy)
    assert fast is not None, f"policy {policy!r} should lower to the fast path"
    max_cycles = 64 * len(prepared.trace) + 10_000
    pre = TracePrecompute.from_prepared(prepared)
    suite = None
    if fast.needs_predictors:
        suite = ArrayPredictorState(pre, "probabilistic", 0)
        simulate_batched(
            pre,
            config,
            fast,
            predictors=suite,
            live_training=True,
            max_cycles=max_cycles,
        )
    return simulate_batched(
        pre,
        config,
        fast,
        predictors=suite,
        live_training=live_trainer,
        collect_ilp=collect_ilp,
        max_cycles=max_cycles,
    )


def _slots(record: InFlight) -> dict:
    """One record's slots, cross-record fields by trace index and in order."""
    values = {name: getattr(record, name) for name in InFlight.__slots__}
    values["waiters"] = [waiter.index for waiter in record.waiters]
    values["forwarded_to_clusters"] = list(record.forwarded_to_clusters.items())
    return values


_TOP_LEVEL = (
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


def assert_bit_identical(event, reference, context: str):
    __tracebackhide__ = True
    if not results_identical(event, reference):
        for w, g in zip(map(_slots, reference.records), map(_slots, event.records)):
            if w != g:
                diff = {k: (w[k], g[k]) for k in w if w[k] != g[k]}
                pytest.fail(
                    f"{context}: first divergent record, trace index "
                    f"{w['index']}: {diff}"
                )
        top = {
            k: (getattr(reference, k), getattr(event, k))
            for k in _TOP_LEVEL
            if getattr(reference, k) != getattr(event, k)
        }
        top["instructions"] = (len(reference.records), len(event.records))
        pytest.fail(f"{context}: top-level divergence: {top}")


# ---------------------------------------------------------------------------
# The fixed policy matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("clusters", CLUSTER_COUNTS)
@pytest.mark.parametrize("policy", POLICY_NAMES + ("readiness",))
def test_policy_matrix_bit_identical(workloads, policy, clusters):
    prepared = workloads("gcc")
    event, reference = run_both(prepared, _machine(clusters), policy)
    assert_bit_identical(event, reference, f"gcc {policy} {clusters}cl")


@pytest.mark.parametrize("clusters", (2, 8))
@pytest.mark.parametrize("policy", ("dependence", "s", "p", "readiness"))
def test_stress_configs_bit_identical(workloads, policy, clusters):
    """Tiny windows and slow forwarding exercise every stall path."""
    prepared = workloads("mcf")
    event, reference = run_both(prepared, _stress(clusters), policy)
    assert_bit_identical(event, reference, f"mcf {policy} {clusters}cl stress")


@pytest.mark.parametrize("clusters", (2, 8))
@pytest.mark.parametrize("policy", ("focused", "l", "s", "p"))
def test_frozen_predictors_bit_identical(workloads, policy, clusters):
    """Warm suite, no trainer: the benchmark methodology.  Exercises the
    optimized simulator's frozen-priority precompute path."""
    prepared = workloads("gzip")
    event, reference = run_both(
        prepared, _machine(clusters), policy, live_trainer=False
    )
    assert_bit_identical(event, reference, f"gzip {policy} {clusters}cl frozen")


# ---------------------------------------------------------------------------
# The batched sweep engine under the matched warm-up protocol
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("clusters", CLUSTER_COUNTS)
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_batched_policy_matrix_bit_identical(workloads, policy, clusters):
    """Every Figure 14 stack, every cluster count: batched == event."""
    prepared = workloads("gcc")
    event = run_one(ClusteredSimulator, prepared, _machine(clusters), policy)
    batched = run_batched_matched(prepared, _machine(clusters), policy)
    assert_bit_identical(batched, event, f"gcc {policy} {clusters}cl batched")


@pytest.mark.parametrize("clusters", (2, 8))
@pytest.mark.parametrize("policy", ("dependence", "s", "p"))
def test_batched_stress_configs_bit_identical(workloads, policy, clusters):
    """Tiny windows and slow forwarding through the batched engine."""
    prepared = workloads("mcf")
    event = run_one(ClusteredSimulator, prepared, _stress(clusters), policy)
    batched = run_batched_matched(prepared, _stress(clusters), policy)
    assert_bit_identical(
        batched, event, f"mcf {policy} {clusters}cl stress batched"
    )


@pytest.mark.parametrize("clusters", (2, 8))
@pytest.mark.parametrize("policy", ("focused", "l", "s", "p"))
def test_batched_frozen_predictors_bit_identical(workloads, policy, clusters):
    """Warm suite, frozen measurement: the production batched methodology's
    measurement shape (and the frozen-priority tabulation path)."""
    prepared = workloads("gzip")
    event = run_one(
        ClusteredSimulator, prepared, _machine(clusters), policy, live_trainer=False
    )
    batched = run_batched_matched(
        prepared, _machine(clusters), policy, live_trainer=False
    )
    assert_bit_identical(
        batched, event, f"gzip {policy} {clusters}cl frozen batched"
    )


def test_batched_custom_stack_bit_identical(workloads):
    """A non-preset stack (dependence steering + LoC scheduling + chunked
    predictor) must lower to the fast path and stay bit-identical."""
    spec = PolicySpec(
        steering=SteeringSpec("dependence"),
        scheduler=SchedulerSpec("loc"),
        predictor=PredictorSpec("chunked"),
    )
    prepared = workloads("vpr")
    event = run_one(ClusteredSimulator, prepared, _machine(4), spec)
    batched = run_batched_matched(prepared, _machine(4), spec)
    assert_bit_identical(batched, event, "vpr dependence+loc 4cl batched")


def test_fast_policy_rejects_unbatchable_stacks():
    """Readiness steering has no fast-path lowering; the promotion logic
    must leave such jobs on the event backend."""
    assert fast_policy("readiness") is None


def test_serialize_round_trip_preserves_identity(workloads):
    prepared = workloads("vpr")
    event, reference = run_both(prepared, _machine(4), "s")
    assert results_identical(event, reference)
    summary = summarize(event)
    revived = result_from_dict(json.loads(json.dumps(result_to_dict(summary))))
    assert revived == summary == summarize(reference)


def test_telemetry_does_not_perturb_identity(workloads):
    """A telemetry-observed event run stays bit-identical to the reference.

    The recorder only reads live state (occupancy, heap snapshots), so the
    event simulator with a telemetry hook attached must produce exactly
    the timing the plain reference loop does.
    """
    from repro.telemetry import Recorder

    prepared = workloads("gcc")
    max_cycles = 64 * len(prepared.trace) + 10_000
    steering, scheduler, __ = _policy_pair("dependence")
    recorder = Recorder(interval=64)
    recorder.note_policies(steering, scheduler)
    sim = ClusteredSimulator(
        config=_machine(4),
        steering=steering,
        scheduler=scheduler,
        collect_ilp=True,
        max_cycles=max_cycles,
        telemetry=recorder,
    )
    event = sim.run(prepared.trace, prepared.dependences, prepared.mispredicted)
    event.telemetry = recorder.finalize(event)
    assert event.telemetry is not None and event.telemetry.samples

    steering, scheduler, __ = _policy_pair("dependence")
    reference = ReferenceSimulator(
        config=_machine(4),
        steering=steering,
        scheduler=scheduler,
        collect_ilp=True,
        max_cycles=max_cycles,
    ).run(prepared.trace, prepared.dependences, prepared.mispredicted)
    assert_bit_identical(event, reference, "gcc dependence 4cl telemetry")


# ---------------------------------------------------------------------------
# Hypothesis-driven exploration
# ---------------------------------------------------------------------------


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    kernel=st.sampled_from(("gcc", "vpr", "gzip", "twolf", "perl")),
    seed=st.integers(min_value=0, max_value=2**16),
    instructions=st.integers(min_value=50, max_value=900),
    policy=st.sampled_from(POLICY_NAMES + ("readiness",)),
    clusters=st.sampled_from(CLUSTER_COUNTS),
    forwarding_latency=st.integers(min_value=1, max_value=6),
    window=st.sampled_from((4, 8, 32)),
)
def test_hypothesis_traces_bit_identical(
    kernel, seed, instructions, policy, clusters, forwarding_latency, window
):
    prepared = prepare_workload(kernel, instructions, seed)
    if clusters == 1:
        config = monolithic_machine()
    else:
        base = clustered_machine(clusters, forwarding_latency=forwarding_latency)
        narrow = dataclasses.replace(base.cluster, window_size=window)
        config = dataclasses.replace(base, clusters=(narrow,) * clusters)
    event, reference = run_both(prepared, config, policy)
    context = (
        f"{kernel} seed={seed} n={instructions} {policy} {clusters}cl "
        f"fwd={forwarding_latency} win={window}"
    )
    assert_bit_identical(event, reference, context)
    if fast_policy(policy) is not None:
        batched = run_batched_matched(prepared, config, policy)
        assert_bit_identical(batched, event, f"{context} batched")


# ---------------------------------------------------------------------------
# Heterogeneous machines: asymmetric geometry through every backend
# ---------------------------------------------------------------------------

# One kernel per machine, chosen to exercise its quirk: the FP-less thin
# clusters see eon's FP traffic (capability redirects), the slow-divider
# cluster sees gap's integer multiplies (per-cluster latency plane), and
# the fat+thin machine gets plain gcc (pure geometry asymmetry).
HETERO_CASES = (
    ("fat_thin", fat_thin_machine, "gcc"),
    ("fp_less_thin", fp_less_thin_machine, "eon"),
    ("slow_divider", slow_divider_machine, "gap"),
)

HETERO_POLICIES = ("dependence", "focused", "l", "s", "p", "affinity")


@pytest.mark.parametrize("policy", HETERO_POLICIES)
@pytest.mark.parametrize(
    "name,builder,kernel", HETERO_CASES, ids=[c[0] for c in HETERO_CASES]
)
def test_hetero_event_vs_reference_bit_identical(
    workloads, name, builder, kernel, policy
):
    config = builder()
    prepared = workloads(kernel)
    event, reference = run_both(prepared, config, policy)
    assert_bit_identical(event, reference, f"{kernel} {policy} {name}")
    if batchable_config(config) and fast_policy(policy) is not None:
        batched = run_batched_matched(prepared, config, policy)
        assert_bit_identical(batched, event, f"{kernel} {policy} {name} batched")


def test_hetero_latency_overrides_actually_bite(workloads):
    """The slow-divider machine must not silently equal the uniform one."""
    prepared = workloads("gap")
    slow = run_one(
        ClusteredSimulator, prepared, slow_divider_machine(), "dependence"
    )
    uniform = run_one(
        ClusteredSimulator, prepared, clustered_machine(2), "dependence"
    )
    assert not results_identical(slow, uniform)


def test_fp_less_machine_confines_fp_ops(workloads):
    """Every FP op lands on a cluster that has FP ports."""
    from repro.vm.isa import OpClass

    config = fp_less_thin_machine()
    prepared = workloads("eon")
    result = run_one(ClusteredSimulator, prepared, config, "dependence")
    fp_records = [
        record
        for record in result.records
        if record.instr.opclass is OpClass.FP
    ]
    assert fp_records, "eon must carry FP traffic for this test to bite"
    for record in fp_records:
        assert config.clusters[record.cluster].fp_ports > 0


def test_batched_rejects_zero_port_clusters(workloads):
    prepared = workloads("gcc", 200)
    pre = TracePrecompute.from_prepared(prepared)
    fast = fast_policy("dependence")
    with pytest.raises(ValueError, match="FP and memory ports"):
        simulate_batched(pre, fp_less_thin_machine(), fast)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    clusters=st.sampled_from((2, 4, 8)),
    policy=st.sampled_from(("dependence", "s")),
    kernel=st.sampled_from(("gcc", "twolf")),
    instructions=st.integers(min_value=100, max_value=500),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_uniform_percluster_spelling_is_the_legacy_machine(
    clusters, policy, kernel, instructions, seed
):
    """Spelling N equal clusters explicitly is *the same machine*: equal
    config, identical spec hash, and bit-identical results on all three
    backends."""
    legacy = clustered_machine(clusters)
    spelled = MachineConfig(
        clusters=tuple(legacy.clusters),
        rob_size=legacy.rob_size,
        dispatch_width=legacy.dispatch_width,
        commit_width=legacy.commit_width,
        forwarding_latency=legacy.forwarding_latency,
        forwarding_bandwidth=legacy.forwarding_bandwidth,
    )
    assert spelled == legacy
    assert spec_hash(MachineSpec(clusters=tuple(legacy.clusters))) == spec_hash(
        MachineSpec(clusters=clusters)
    )

    prepared = prepare_workload(kernel, instructions, seed)
    context = f"{kernel} n={instructions} seed={seed} {policy} {clusters}cl"
    event_legacy, reference_legacy = run_both(prepared, legacy, policy)
    event_spelled, reference_spelled = run_both(prepared, spelled, policy)
    assert_bit_identical(event_spelled, event_legacy, f"{context} event")
    assert_bit_identical(reference_spelled, reference_legacy, f"{context} ref")
    if fast_policy(policy) is not None:
        batched_legacy = run_batched_matched(prepared, legacy, policy)
        batched_spelled = run_batched_matched(prepared, spelled, policy)
        assert_bit_identical(batched_spelled, batched_legacy, f"{context} batched")
        assert_bit_identical(batched_spelled, event_spelled, f"{context} b-vs-e")

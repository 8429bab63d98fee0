"""The declarative spec layer: round-trips, hash stability, registries.

Three families of guarantees:

* **Serialization** -- ``from_dict(to_dict(spec)) == spec`` for every
  spec type, through real JSON (hypothesis-driven);
* **Hash stability** -- semantically equal specs produce identical
  cache keys regardless of dict key order, defaulted-vs-explicit
  parameter spelling, preset-name-vs-expanded form, or cosmetic names;
* **Registries** -- presets build exactly the stacks the pre-spec
  hand-written policy table built, unknown kinds/params fail with
  messages that list the valid choices, and out-of-tree components plug
  in.

Plus the machine-geometry edge cases of Section 2.1 (resource rounding
on 1-wide clusters, invalid cluster counts failing at spec time) and the
checked-in ``specs/`` files staying in lock-step with the code.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    POLICY_NAMES,
    PRESETS,
    SPECS,
    CriticalitySteering,
    ExperimentSpec,
    MachineSpec,
    PolicySpec,
    PredictorSpec,
    RunJob,
    SchedulerSpec,
    SpecError,
    SteeringSpec,
    SweepSpec,
    Workbench,
    WorkloadSpec,
    canonical_policy,
    clustered_machine,
    get_kernel,
    job_key,
    load_spec,
    policy_label,
    policy_names,
    register_steering,
    resolve_policy,
    run_spec,
    spec_hash,
    suite_names,
)
from repro.experiments import PLANS
from repro.specs.registry import PREDICTORS, SCHEDULERS, STEERING

ROOT = pathlib.Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

machine_specs = st.builds(
    MachineSpec,
    clusters=st.sampled_from([1, 2, 4, 8]),
    forwarding_latency=st.integers(min_value=0, max_value=8),
    forwarding_bandwidth=st.none() | st.integers(min_value=1, max_value=8),
    rob_size=st.none() | st.integers(min_value=128, max_value=512),
)

steering_specs = st.sampled_from(STEERING.names()).map(SteeringSpec)
scheduler_specs = st.sampled_from(SCHEDULERS.names()).map(SchedulerSpec)
predictor_specs = st.sampled_from(PREDICTORS.names()).map(PredictorSpec)

policy_specs = st.builds(
    PolicySpec,
    steering=steering_specs,
    scheduler=scheduler_specs,
    predictor=st.none() | predictor_specs,
    name=st.sampled_from(["", "x", "my policy"]),
)

workload_specs = st.builds(
    WorkloadSpec,
    kernel=st.sampled_from(suite_names()),
    instructions=st.none() | st.integers(min_value=500, max_value=5000),
    seed=st.none() | st.integers(min_value=0, max_value=3),
)

sweep_specs = st.builds(
    SweepSpec,
    machines=st.lists(machine_specs, min_size=1, max_size=2).map(tuple),
    policies=st.lists(
        st.sampled_from(sorted(PRESETS)) | policy_specs, min_size=1, max_size=2
    ).map(tuple),
    collect_ilp=st.booleans(),
    warm=st.booleans(),
)

experiment_specs = st.builds(
    ExperimentSpec,
    name=st.text(alphabet="abcdefgh_", min_size=1, max_size=12),
    sweeps=st.lists(sweep_specs, min_size=1, max_size=2).map(tuple),
    workloads=st.none()
    | st.lists(st.sampled_from(suite_names()), min_size=1, max_size=3, unique=True).map(
        lambda kernels: tuple(WorkloadSpec(k) for k in kernels)
    ),
    instructions=st.none() | st.integers(min_value=500, max_value=5000),
    seed=st.none() | st.integers(min_value=0, max_value=3),
    loc_mode=st.none() | st.sampled_from(["probabilistic", "exact"]),
    description=st.sampled_from(["", "a sweep"]),
)


def _json_roundtrip(data):
    """Through actual JSON text, so payloads must be JSON-serializable."""
    return json.loads(json.dumps(data))


def _reorder(data):
    """The same JSON value with every dict's key order reversed."""
    if isinstance(data, dict):
        return {k: _reorder(data[k]) for k in reversed(list(data))}
    if isinstance(data, list):
        return [_reorder(v) for v in data]
    return data


# ---------------------------------------------------------------------------
# Round-trips
# ---------------------------------------------------------------------------


class TestRoundTrips:
    @given(machine_specs)
    @settings(max_examples=50, deadline=None)
    def test_machine(self, spec):
        assert MachineSpec.from_dict(_json_roundtrip(spec.to_dict())) == spec

    @given(policy_specs)
    @settings(max_examples=50, deadline=None)
    def test_policy(self, spec):
        assert PolicySpec.from_dict(_json_roundtrip(spec.to_dict())) == spec

    @given(workload_specs)
    @settings(max_examples=50, deadline=None)
    def test_workload(self, spec):
        assert WorkloadSpec.from_dict(_json_roundtrip(spec.to_dict())) == spec

    @given(experiment_specs)
    @settings(max_examples=25, deadline=None)
    def test_experiment(self, spec):
        rebuilt = ExperimentSpec.from_dict(json.loads(spec.to_json()))
        assert rebuilt == spec
        # to_json is itself stable once through a round-trip.
        assert rebuilt.to_json() == spec.to_json()

    def test_experiment_schema_tag_checked(self):
        data = SPECS["figure2"]().to_dict()
        data["schema"] = "repro.experiment_spec/999"
        with pytest.raises(SpecError, match="schema"):
            ExperimentSpec.from_dict(data)

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="unknown"):
            MachineSpec.from_dict({"clusters": 4, "cache_size": 64})
        with pytest.raises(SpecError, match="unknown"):
            ExperimentSpec.from_dict(
                {"name": "x", "sweeps": [], "colour": "blue"}
            )


# ---------------------------------------------------------------------------
# Hash stability -- the cache-key contract
# ---------------------------------------------------------------------------


def _job(policy) -> RunJob:
    return RunJob(
        kernel="gcc",
        instructions=1000,
        seed=0,
        loc_mode="probabilistic",
        config=clustered_machine(4),
        policy=policy,
    )


class TestHashStability:
    @given(experiment_specs)
    @settings(max_examples=25, deadline=None)
    def test_key_order_is_irrelevant(self, spec):
        shuffled = ExperimentSpec.from_dict(_reorder(spec.to_dict()))
        assert spec_hash(shuffled) == spec_hash(spec)

    def test_defaults_spelled_or_omitted_hash_identically(self):
        terse = SteeringSpec("criticality", (("preference", "loc"),))
        verbose = SteeringSpec(
            "criticality",
            (
                ("preference", "loc"),
                ("stall_over_steer", False),
                ("stall_loc_threshold", 0.30),
                ("proactive", False),
                ("keep_min_loc", 0.05),
                ("keep_fraction", 0.5),
            ),
        )
        assert terse == verbose
        assert spec_hash(terse) == spec_hash(verbose)

    def test_int_literal_coerced_for_float_parameter(self):
        json_spelling = SteeringSpec("criticality", (("keep_fraction", 1),))
        python_spelling = SteeringSpec("criticality", (("keep_fraction", 1.0),))
        assert json_spelling == python_spelling
        assert dict(json_spelling.params)["keep_fraction"] == 1.0

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_name_and_expanded_spec_share_a_cache_key(self, name):
        expanded = dict(PRESETS[name].canonical_payload())
        expanded["name"] = "renamed for display"
        assert job_key(_job(name)) == job_key(_job(expanded))

    def test_cosmetic_name_never_reaches_the_cache_key(self):
        novel = {"steering": "dependence", "scheduler": "loc", "predictor": "chunked"}
        a = job_key(_job({**novel, "name": "alpha"}))
        b = job_key(_job({**novel, "name": "beta"}))
        assert a == b

    def test_machine_null_override_hashes_like_omitted(self):
        assert spec_hash(MachineSpec(4)) == spec_hash(
            MachineSpec(4, forwarding_bandwidth=None, rob_size=None)
        )


# ---------------------------------------------------------------------------
# Presets and the legacy build_policy contract
# ---------------------------------------------------------------------------


class TestPresets:
    def test_policy_names_are_the_papers_five(self):
        assert policy_names() == ("dependence", "focused", "l", "s", "p")
        assert tuple(POLICY_NAMES) == policy_names()

    # What the pre-spec policy table built by hand, per preset:
    # (steering, scheduler, needs_predictors,
    #  (preference, stall_over_steer, proactive) for criticality steering).
    LEGACY_STACKS = {
        "affinity": ("AffinitySteering", "OldestFirstScheduler", False, None),
        "dependence": ("DependenceSteering", "OldestFirstScheduler", False, None),
        "focused": (
            "CriticalitySteering", "CriticalFirstScheduler", True, ("binary", False, False)
        ),
        "l": ("CriticalitySteering", "LocScheduler", True, ("loc", False, False)),
        "p": ("CriticalitySteering", "LocScheduler", True, ("loc", True, True)),
        "readiness": ("ReadinessAwareSteering", "LocScheduler", True, ("loc", True, True)),
        "s": ("CriticalitySteering", "LocScheduler", True, ("loc", True, False)),
    }

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_builds_what_build_policy_built(self, name):
        steering, scheduler, needs = resolve_policy(name).build()
        want_steering, want_scheduler, want_needs, want_config = self.LEGACY_STACKS[name]
        assert type(steering).__name__ == want_steering
        assert type(scheduler).__name__ == want_scheduler
        assert needs == want_needs
        if isinstance(steering, CriticalitySteering):
            config = steering.config
            assert (
                config.preference, config.stall_over_steer, config.proactive
            ) == want_config

    def test_canonical_policy_collapses_preset_equal_specs(self):
        spec = resolve_policy(
            {
                "name": "call it anything",
                "steering": {"kind": "criticality", "params": {"preference": "loc"}},
                "scheduler": "loc",
                "predictor": "chunked",
            }
        )
        assert canonical_policy(spec) == "l"

    def test_canonical_policy_keeps_novel_compositions(self):
        out = canonical_policy(
            {"steering": "dependence", "scheduler": "loc", "predictor": "chunked"}
        )
        assert isinstance(out, PolicySpec)
        assert out.label == "dependence+loc"
        assert policy_label(out) == "dependence+loc"

    def test_unknown_policy_lists_presets(self):
        with pytest.raises(SpecError) as err:
            resolve_policy("telepathic")
        message = str(err.value)
        assert "telepathic" in message
        for name in policy_names():
            assert name in message

    def test_spec_error_is_a_value_error(self):
        assert issubclass(SpecError, ValueError)


# ---------------------------------------------------------------------------
# Registries
# ---------------------------------------------------------------------------


class TestRegistries:
    def test_unknown_kind_lists_registered(self):
        with pytest.raises(SpecError) as err:
            SteeringSpec("gradient_descent")
        message = str(err.value)
        assert "gradient_descent" in message
        assert "dependence" in message and "criticality" in message

    def test_unknown_parameter_lists_accepted(self):
        with pytest.raises(SpecError) as err:
            SteeringSpec("criticality", (("learning_rate", 0.1),))
        message = str(err.value)
        assert "learning_rate" in message
        assert "preference" in message

    def test_non_scalar_parameter_rejected(self):
        with pytest.raises(SpecError, match="scalar"):
            SteeringSpec("criticality", (("preference", ["loc"]),))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SpecError, match="already registered"):
            register_steering("dependence")(lambda: None)

    def test_factory_signatures_validated_eagerly(self):
        with pytest.raises(SpecError, match="default"):
            register_steering("broken")(lambda window: None)
        with pytest.raises(SpecError, match="named"):
            register_steering("broken")(lambda **kwargs: None)
        assert "broken" not in STEERING

    def test_out_of_tree_component_plugs_in(self):
        @register_steering("round_robin_test")
        def build_round_robin(stride: int = 1):
            from repro.core.steering.simple import ModuloSteering

            return ModuloSteering()

        try:
            spec = resolve_policy(
                {"steering": "round_robin_test", "scheduler": "oldest"}
            )
            steering, scheduler, needs = spec.build()
            assert steering is not None and not needs
            assert dict(spec.steering.params) == {"stride": 1}
            # And it participates in cache keys like any in-tree kind.
            assert job_key(_job(spec)) != job_key(_job("dependence"))
        finally:
            STEERING.unregister("round_robin_test")
        with pytest.raises(SpecError):
            SteeringSpec("round_robin_test")


# ---------------------------------------------------------------------------
# Machine geometry (Section 2.1 resource rounding)
# ---------------------------------------------------------------------------


class TestMachineGeometry:
    def test_one_wide_clusters_keep_mem_port_and_fp_unit(self):
        cluster = MachineSpec(8).build().cluster
        # 4 mem ports and 4 FP units split 8 ways round *up* to 1 each
        # (Section 2.1, footnote 1), never to zero.
        assert cluster.issue_width == 1
        assert cluster.mem_ports == 1
        assert cluster.fp_ports == 1
        assert cluster.int_ports == 1
        assert cluster.window_size == 16

    def test_even_splits_divide_exactly(self):
        cluster = MachineSpec(2).build().cluster
        assert (
            cluster.issue_width,
            cluster.int_ports,
            cluster.fp_ports,
            cluster.mem_ports,
            cluster.window_size,
        ) == (4, 4, 2, 2, 64)

    def test_labels(self):
        assert MachineSpec(1).label == "1x8w"
        assert MachineSpec(4).label == "4x2w"
        assert MachineSpec(4).build().name == "4x2w"

    @pytest.mark.parametrize("clusters", [0, -1, 3, 5, 6, 7, 16])
    def test_invalid_cluster_counts_fail_at_spec_time(self, clusters):
        with pytest.raises(SpecError, match="divide"):
            MachineSpec(clusters)

    def test_negative_forwarding_latency_rejected(self):
        with pytest.raises(SpecError, match="negative"):
            MachineSpec(4, forwarding_latency=-1)

    def test_zero_forwarding_bandwidth_rejected(self):
        with pytest.raises(SpecError, match="bandwidth"):
            MachineSpec(4, forwarding_bandwidth=0)

    def test_rob_smaller_than_aggregate_window_rejected(self):
        with pytest.raises(SpecError, match="geometry"):
            MachineSpec(4, rob_size=64)

    def test_bool_is_not_a_cluster_count(self):
        with pytest.raises(SpecError):
            MachineSpec.from_dict(True)

    def test_from_config_inverts_build(self):
        for clusters in (1, 2, 4, 8):
            spec = MachineSpec(clusters, forwarding_latency=4)
            assert MachineSpec.from_config(spec.build()) == spec

    def test_hand_built_config_round_trips_per_cluster(self):
        # Pre-heterogeneity this geometry was "not expressible"; now any
        # config inverts through the per-cluster spelling.
        config = clustered_machine(4)
        odd_cluster = dataclasses.replace(config.cluster, int_ports=7)
        odd = dataclasses.replace(config, clusters=(odd_cluster,) * 4)
        spec = MachineSpec.from_config(odd)
        assert not isinstance(spec.clusters, int)
        assert spec.build() == odd


# ---------------------------------------------------------------------------
# Experiment specs against the shipped figure plans
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bench():
    return Workbench(
        instructions=1000,
        benchmarks=[get_kernel("vpr"), get_kernel("gzip")],
    )


class TestExperimentSpecs:
    def test_every_figure_spec_matches_its_plan(self, bench):
        for name, spec_fn in SPECS.items():
            spec = spec_fn()
            jobs = spec.jobs(bench)
            plan = PLANS[name](bench)
            assert set(jobs) == set(plan), name
            if name != "global_values":  # documented order change there
                assert jobs == plan, name

    def test_duplicate_workload_kernels_rejected(self):
        with pytest.raises(SpecError, match="more than once"):
            ExperimentSpec(
                name="dup",
                sweeps=(SweepSpec((MachineSpec(4),), ("l",)),),
                workloads=(
                    WorkloadSpec("vpr", instructions=1000),
                    WorkloadSpec("vpr", instructions=2000),
                ),
            )

    def test_workload_overrides_reach_the_jobs(self, bench):
        spec = ExperimentSpec(
            name="override",
            sweeps=(SweepSpec((MachineSpec(4),), ("l",)),),
            workloads=(WorkloadSpec("vpr", instructions=750, seed=2),),
            instructions=9999,
            seed=7,
        )
        (job,) = spec.jobs(bench)
        assert (job.kernel, job.instructions, job.seed) == ("vpr", 750, 2)

    def test_figure_link_mismatch_raises(self, bench):
        spec = ExperimentSpec(
            name="claims_figure2",
            figure="figure2",
            sweeps=(SweepSpec((MachineSpec(2),), ("dependence",)),),
        )
        with pytest.raises(SpecError, match="figure2"):
            run_spec(bench, spec)


# ---------------------------------------------------------------------------
# The checked-in specs/ directory
# ---------------------------------------------------------------------------


class TestCheckedInSpecs:
    def test_figure14_file_in_lockstep_with_code(self):
        path = ROOT / "specs" / "figure14.json"
        assert path.read_text() == SPECS["figure14"]().to_json(), (
            "specs/figure14.json drifted from spec_figure14(); regenerate "
            "with: python -m repro specs show figure14 > specs/figure14.json"
        )

    def test_hetero_sweep_file_in_lockstep_with_code(self):
        path = ROOT / "specs" / "hetero_sweep.json"
        assert path.read_text() == SPECS["hetero_sweep"]().to_json(), (
            "specs/hetero_sweep.json drifted from spec_hetero_sweep(); "
            "regenerate with: "
            "python -m repro specs show hetero_sweep > specs/hetero_sweep.json"
        )

    def test_custom_sweep_loads_and_plans(self, bench):
        spec = load_spec(ROOT / "specs" / "custom_sweep.json")
        assert spec.name == "dependence_loc_4x2w"
        jobs = spec.jobs(bench)
        # 3 kernels x 2 machines x 3 policies, no new Python anywhere.
        assert len(jobs) == 18
        labels = {policy_label(job.policy) for job in jobs}
        assert labels == {"dependence", "l", "dep+loc"}

    def test_custom_sweep_cli_end_to_end(self, tmp_path, capsys):
        from repro.experiments.runner import main

        argv = [
            "--spec",
            str(ROOT / "specs" / "custom_sweep.json"),
            "--instructions",
            "800",
            "--workers",
            "2",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--metrics",
            "--out",
            str(tmp_path / "out"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "dep+loc" in out
        assert "simulated=18" in out
        report_path = tmp_path / "out" / "dependence_loc_4x2w_report.json"
        report = json.loads(report_path.read_text())
        assert len(report["runs"]) == 18
        # A second invocation is served entirely from the cache.
        assert main(argv) == 0
        assert "simulated=0" in capsys.readouterr().out

    def test_specs_status_reports_recorded_jobs_and_failures(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        from repro.experiments.runner import main
        from repro.testing import chaos

        spec_path = tmp_path / "status.json"
        spec_path.write_text(
            ExperimentSpec.from_dict(
                {
                    "name": "status-sweep",
                    "instructions": 300,
                    "workloads": [{"kernel": "gcc"}, {"kernel": "mcf"}],
                    "sweeps": [{"machines": [{"clusters": 2}], "policies": ["l"]}],
                }
            ).to_json()
        )
        cache = str(tmp_path / "cache")
        chaos.install(lambda job, attempt: "error" if job.kernel == "mcf" else None)
        try:
            assert main(["--spec", str(spec_path), "--max-retries", "0", "--cache-dir", cache]) == 0
        finally:
            chaos.uninstall()
        capsys.readouterr()
        assert cli_main(["specs", "status", str(spec_path), "--cache-dir", cache]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == (
            f"ok   {spec_path}: 'status-sweep' recorded 2 job(s): 1 completed, 1 failed"
        )
        assert out[1].startswith("     failed mcf/2x4w: injected after 1 attempt(s) [")
        assert len(out) == 2

    def test_broken_spec_file_exits_2(self, tmp_path, capsys):
        from repro.experiments.runner import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x"}')
        assert main(["--spec", str(bad)]) == 2
        assert "bad spec" in capsys.readouterr().err

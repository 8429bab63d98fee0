"""Tests for the observability layer: telemetry, tracing, run reports.

The two invariants that matter most:

* **identity** -- telemetry-on and telemetry-off runs are bit-identical in
  simulation output (telemetry only observes), across the whole Figure 14
  policy matrix;
* **reconciliation** -- every counter the recorder derives equals the
  ground truth recomputed from the records (and, for the Figure 6 event
  classification, equals :func:`repro.analysis.events.
  classify_lost_cycle_events` exactly).
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.api import (
    REPORT_SCHEMA,
    NullTelemetry,
    Recorder,
    RunJob,
    RunReport,
    Tracer,
    classify_lost_cycle_events,
    clustered_machine,
    execute_job,
    monolithic_machine,
    results_identical,
    telemetry_from_dict,
    telemetry_to_dict,
    validate_report,
)
from repro.criticality.critical_path import critical_flags
from repro.experiments.fig14 import BARS_BY_CLUSTER

INSTRUCTIONS = 1200


def _job(policy: str, clusters: int, metrics: bool, instructions: int = INSTRUCTIONS):
    config = monolithic_machine() if clusters == 1 else clustered_machine(clusters)
    return RunJob(
        kernel="gcc",
        instructions=instructions,
        seed=0,
        loc_mode="probabilistic",
        config=config,
        policy=policy,
        metrics=metrics,
    )


@pytest.fixture(scope="module")
def metrics_run():
    """One metrics-on run shared by the payload tests."""
    job = _job("l", 4, metrics=True)
    return execute_job(job)


# ---------------------------------------------------------------------------
# Identity: telemetry never changes simulation output
# ---------------------------------------------------------------------------


class TestTelemetryIdentity:
    @pytest.mark.parametrize(
        "clusters,policy",
        [(c, p) for c, policies in BARS_BY_CLUSTER.items() for p in policies],
    )
    def test_figure14_matrix_bit_identical(self, clusters, policy):
        on = execute_job(_job(policy, clusters, metrics=True, instructions=900))
        off = execute_job(_job(policy, clusters, metrics=False, instructions=900))
        assert on.telemetry is not None
        assert off.telemetry is None
        assert on.cycles == off.cycles
        assert results_identical(on, off)

    def test_null_telemetry_is_inert(self):
        null = NullTelemetry()
        assert null.interval == 0
        assert null.finalize(None) is None


# ---------------------------------------------------------------------------
# Reconciliation: recorded counters equal ground truth from the records
# ---------------------------------------------------------------------------


class TestTelemetryReconciliation:
    def test_steer_and_dispatch_counters_match_records(self, metrics_run):
        data = metrics_run.telemetry
        records = metrics_run.records
        assert data.steer_causes == dict(
            Counter(r.steer_cause.value for r in records)
        )
        assert data.dispatch_reasons == dict(
            Counter(r.dispatch_reason.value for r in records)
        )
        assert data.commit_reasons == dict(
            Counter(r.commit_reason.value for r in records)
        )
        assert data.instructions == len(records)
        assert data.cycles == metrics_run.cycles

    def test_event_classification_matches_analysis(self, metrics_run):
        """The payload's Figure 6 events equal analysis/events.py exactly."""
        data = metrics_run.telemetry
        flags = critical_flags(metrics_run.records)
        contention, forwarding = classify_lost_cycle_events(
            metrics_run.records, flags
        )
        assert data.contention_events == {
            "predicted_critical": contention.predicted_critical,
            "other": contention.other,
        }
        assert data.forwarding_events == {
            "load_balance": forwarding.load_balance,
            "dyadic": forwarding.dyadic,
            "other": forwarding.other,
        }

    def test_predictor_confusion_matches_flags(self, metrics_run):
        data = metrics_run.telemetry
        flags = critical_flags(metrics_run.records)
        confusion = data.predictor
        assert (
            confusion["true_positive"]
            + confusion["false_positive"]
            + confusion["false_negative"]
            + confusion["true_negative"]
            == len(metrics_run.records)
        )
        assert confusion["true_positive"] + confusion["false_negative"] == sum(flags)

    def test_interval_series_sums_to_instructions(self, metrics_run):
        data = metrics_run.telemetry
        series = data.interval_series
        n = len(metrics_run.records)
        assert sum(series["dispatched"]) == n
        assert sum(series["issued"]) == n
        assert sum(series["committed"]) == n
        assert sum(series["stall_steer"]) == data.dispatch_reasons.get(
            "steer_stall", 0
        )
        assert sum(series["stall_window"]) == data.dispatch_reasons.get(
            "cluster_full", 0
        )

    def test_samples_cover_the_run(self, metrics_run):
        data = metrics_run.telemetry
        assert data.samples, "a >1000-cycle run must produce live samples"
        clusters = metrics_run.config.num_clusters
        last = 0
        for sample in data.samples:
            assert len(sample["occupancy"]) == clusters
            assert len(sample["ready"]) == clusters
            assert len(sample["wakeup_depth"]) == clusters
            assert sample["cycle"] >= last
            last = sample["cycle"]
        assert last <= metrics_run.cycles


# ---------------------------------------------------------------------------
# Serialization and cache transparency
# ---------------------------------------------------------------------------


class TestTelemetrySerialization:
    def test_payload_round_trips_losslessly(self, metrics_run):
        data = telemetry_to_dict(metrics_run.telemetry)
        revived = telemetry_from_dict(json.loads(json.dumps(data)))
        assert telemetry_to_dict(revived) == data

    def test_result_dict_omits_key_when_off(self):
        from repro.api import result_to_dict

        off = execute_job(_job("dependence", 2, metrics=False, instructions=400))
        assert "telemetry" not in result_to_dict(off)

    def test_job_key_unchanged_for_metrics_off(self):
        """A telemetry-off job hashes exactly as before the field existed."""
        from repro.api import job_key

        on = _job("l", 4, metrics=True, instructions=400)
        off = _job("l", 4, metrics=False, instructions=400)
        assert job_key(on) != job_key(off)
        legacy = RunJob(
            kernel=off.kernel,
            instructions=off.instructions,
            seed=off.seed,
            loc_mode=off.loc_mode,
            config=off.config,
            policy=off.policy,
        )
        assert job_key(off) == job_key(legacy)

    def test_cache_round_trips_telemetry(self, tmp_path):
        from repro.api import RunCache

        cache = RunCache(tmp_path)
        job = _job("focused", 2, metrics=True, instructions=400)
        result = execute_job(job)
        cache.store(job, result)
        loaded = cache.load(job)
        assert loaded is not None and loaded.telemetry is not None
        assert telemetry_to_dict(loaded.telemetry) == telemetry_to_dict(
            result.telemetry
        )
        assert results_identical(loaded, result)


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class TestTracer:
    def test_spans_and_summary(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: next(ticks))
        with tracer.span("work", kernel="gcc"):
            pass
        tracer.add("cache.load", 0.5, hit=True)
        summary = tracer.summary()
        assert summary["work"]["count"] == 1
        assert summary["cache.load"]["seconds"] == 0.5
        assert "work" in tracer.format_summary()

    def test_export_merge_round_trip(self):
        worker = Tracer()
        with worker.span("measure"):
            pass
        parent = Tracer()
        parent.merge(worker.export(), worker=True)
        assert parent.spans[0].name == "measure"
        assert parent.spans[0].meta["worker"] is True

    def test_execute_job_records_stages(self):
        tracer = Tracer()
        execute_job(_job("l", 2, metrics=False, instructions=300), tracer=tracer)
        names = {span.name for span in tracer.spans}
        assert {"trace-prep", "warmup", "measure"} <= names


# ---------------------------------------------------------------------------
# Run reports
# ---------------------------------------------------------------------------


class TestRunReport:
    def test_from_runs_validates_and_renders(self, metrics_run):
        job = _job("l", 4, metrics=True)
        report = RunReport.from_runs(
            "unit", [(job, metrics_run)], workbench={"instructions": INSTRUCTIONS}
        )
        payload = json.loads(report.to_json())
        assert payload["schema"] == REPORT_SCHEMA
        assert payload["totals"]["runs"] == 1
        assert payload["runs"][0]["kernel"] == "gcc"
        assert payload["runs"][0]["telemetry"]["steer_causes"]
        rendered = report.render()
        assert "gcc" in rendered and "run report" in rendered

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_report({"schema": "bogus"})
        with pytest.raises(ValueError):
            validate_report(
                {
                    "schema": REPORT_SCHEMA,
                    "name": "x",
                    "workbench": {},
                    "runs": [{}],
                    "totals": {},
                }
            )

    def test_cli_metrics_emits_valid_report(self, tmp_path, capsys):
        from repro.experiments.runner import main

        code = main(
            [
                "figure14",
                "--instructions",
                "900",
                "--benchmarks",
                "gcc",
                "--no-cache",
                "--metrics",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        report_path = tmp_path / "figure14_report.json"
        payload = json.loads(report_path.read_text())
        validate_report(payload)
        assert payload["name"] == "figure14"
        assert payload["totals"]["runs"] > 0
        assert all(run["telemetry"] for run in payload["runs"])
        assert "run report" in capsys.readouterr().out

    def test_cli_reports_list_only_their_own_failures(self, tmp_path):
        from repro.experiments.runner import main
        from repro.specs import policy_label
        from repro.testing import chaos

        # Policy "p" is planned by Figure 14 only: its failures belong in
        # figure14's report and never in figure4's.
        chaos.install(lambda job, attempt: "error" if policy_label(job.policy) == "p" else None)
        try:
            code = main(
                [
                    "figure14",
                    "figure4",
                    "--instructions",
                    "300",
                    "--benchmarks",
                    "gcc",
                    "--no-cache",
                    "--max-retries",
                    "0",
                    "--metrics",
                    "--out",
                    str(tmp_path),
                ]
            )
        finally:
            chaos.uninstall()
        assert code == 0
        figure14 = json.loads((tmp_path / "figure14_report.json").read_text())
        figure4 = json.loads((tmp_path / "figure4_report.json").read_text())
        assert figure14["failures"]
        assert {row["policy"] for row in figure14["failures"]} == {"p"}
        assert "failures" not in figure4  # the report omits an empty list

    def test_cli_trace_out_writes_spans(self, tmp_path):
        from repro.experiments.runner import main

        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "figure8",
                "--instructions",
                "600",
                "--benchmarks",
                "gcc",
                "--no-cache",
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        trace = json.loads(trace_path.read_text())
        assert {"spans", "summary"} <= set(trace)
        assert any(span["name"] == "measure" for span in trace["spans"])


# ---------------------------------------------------------------------------
# Facade and deprecation
# ---------------------------------------------------------------------------


class TestFacade:
    def test_api_exposes_every_symbol(self):
        import repro.api as api

        missing = [name for name in api.__all__ if not hasattr(api, name)]
        assert not missing

    def test_api_run_and_figure_helpers(self):
        import repro.api as api

        result = api.run("gcc", instructions=400, policy="dependence")
        assert result.cycles > 0
        assert set(api.list_figures()) == set(api.EXPERIMENTS)
        with pytest.raises(ValueError):
            api.figure("not_a_figure")

    def test_unknown_attribute_still_raises(self):
        import repro.experiments as experiments

        with pytest.raises(AttributeError):
            experiments.does_not_exist  # noqa: B018

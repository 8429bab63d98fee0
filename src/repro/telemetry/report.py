"""Machine-readable run reports: what a figure driver actually executed.

A :class:`RunReport` bundles, for one experiment invocation: the
workbench parameters, one row per simulation (with its telemetry summary
when the run collected metrics), cross-run telemetry totals, the span
trace, persistent-cache counters and the figure's own table.  The JSON
form is versioned (:data:`REPORT_SCHEMA`) and checked by
:func:`validate_report` -- the CLI validates every report it writes, so a
report artifact that loads is a report that parses.

Reports are reproduction evidence: the stall/steer totals are the same
counters the paper's Figure 6 event classification reasons about, so a
report of the Figure 14 sweep shows *where* each policy's cycles went,
not just the end-of-run CPI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.specs.policy import policy_label
from repro.telemetry.tracing import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.results import RunSummary
    from repro.experiments.parallel import RunJob

__all__ = ["REPORT_SCHEMA", "RunReport", "validate_report"]

REPORT_SCHEMA = "repro.run_report/1"

# Top-level keys every report must carry, with their required types.
_REQUIRED_TOP = {
    "schema": str,
    "name": str,
    "workbench": dict,
    "runs": list,
    "totals": dict,
}
_REQUIRED_RUN = {
    "kernel": str,
    "config": str,
    "clusters": int,
    "policy": str,
    "sim": str,
    "warm": bool,
    "cycles": int,
    "instructions": int,
    "cpi": float,
    "ipc": float,
    "global_values": int,
}
_REQUIRED_TOTALS = {
    "runs": int,
    "cycles": int,
    "instructions": int,
    "dispatch_stalls": int,
    "stall_steer": int,
    "stall_window": int,
    "steer_causes": dict,
}


@dataclass
class RunReport:
    """One experiment invocation's execution evidence."""

    name: str
    workbench: dict[str, Any]
    runs: list[dict[str, Any]] = field(default_factory=list)
    totals: dict[str, Any] = field(default_factory=dict)
    spans: dict[str, Any] | None = None
    cache: dict[str, int] | None = None
    figure: dict[str, Any] | None = None
    elapsed_seconds: float | None = None
    failures: list[dict[str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------
    @classmethod
    def from_runs(
        cls,
        name: str,
        runs: Sequence[tuple["RunJob", "RunSummary"]],
        workbench: dict[str, Any] | None = None,
        figure: dict[str, Any] | None = None,
        tracer: Tracer | None = None,
        cache_stats: dict[str, int] | None = None,
        elapsed_seconds: float | None = None,
        failures: Sequence[dict[str, Any]] | None = None,
    ) -> "RunReport":
        """Build a report from executed (job, result) pairs.

        ``failures`` carries one record per job that failed past its
        retry budget (kernel/config/policy plus the
        :class:`~repro.experiments.outcomes.RunFailure` payload), so a
        report of a degraded sweep states what is *missing* from its
        totals, not just what ran.
        """
        report = cls(
            name=name,
            workbench=dict(workbench or {}),
            spans=tracer.to_dict() if tracer is not None else None,
            cache=dict(cache_stats) if cache_stats is not None else None,
            figure=figure,
            elapsed_seconds=elapsed_seconds,
            failures=[dict(f) for f in failures] if failures else [],
        )
        totals = {
            "runs": 0,
            "cycles": 0,
            "instructions": 0,
            "dispatch_stalls": 0,
            "stall_steer": 0,
            "stall_window": 0,
            "steer_causes": {},
        }
        for job, result in runs:
            row: dict[str, Any] = {
                "kernel": job.kernel,
                "config": result.config.name,
                "clusters": result.config.num_clusters,
                "policy": policy_label(job.policy),
                "sim": job.sim,
                "warm": job.warm,
                "cycles": result.cycles,
                "instructions": result.instructions,
                "cpi": result.cpi,
                "ipc": result.ipc,
                "global_values": result.global_values,
                "l1_hits": result.l1_hits,
                "l1_misses": result.l1_misses,
            }
            telemetry = result.telemetry
            if telemetry is not None:
                summary = telemetry.summary()
                row["telemetry"] = summary
                totals["dispatch_stalls"] += summary["dispatch_stalls"]
                totals["stall_steer"] += summary["stall_steer"]
                totals["stall_window"] += summary["stall_window"]
                for cause, count in summary["steer_causes"].items():
                    totals["steer_causes"][cause] = (
                        totals["steer_causes"].get(cause, 0) + count
                    )
            totals["runs"] += 1
            totals["cycles"] += result.cycles
            totals["instructions"] += result.instructions
            report.runs.append(row)
        if report.failures:
            totals["failed"] = len(report.failures)
        report.totals = totals
        return report

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Versioned JSON form (the artifact the CLI writes)."""
        data = {
            "schema": REPORT_SCHEMA,
            "name": self.name,
            "workbench": self.workbench,
            "runs": self.runs,
            "totals": self.totals,
            "spans": self.spans,
            "cache": self.cache,
            "figure": self.figure,
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.failures:
            # Only present when something failed: fault-free reports are
            # byte-identical to pre-fault-tolerance ones.
            data["failures"] = self.failures
        return data

    def to_json(self, indent: int = 2) -> str:
        data = self.to_dict()
        validate_report(data)
        return json.dumps(data, indent=indent) + "\n"

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Terminal-friendly summary (tables via :mod:`repro.util.tables`)."""
        from repro.util.tables import format_table

        parts = [f"== run report: {self.name} =="]
        if self.runs:
            headers = [
                "kernel", "config", "policy", "cycles", "cpi",
                "stall_steer", "stall_window", "fwd_events", "max_wakeup",
            ]
            rows = []
            for run in self.runs:
                telemetry = run.get("telemetry") or {}
                fwd = telemetry.get("forwarding_events") or {}
                rows.append([
                    run["kernel"],
                    run["config"],
                    run["policy"],
                    run["cycles"],
                    run["cpi"],
                    telemetry.get("stall_steer", 0),
                    telemetry.get("stall_window", 0),
                    sum(fwd.values()),
                    telemetry.get("max_wakeup_depth", 0),
                ])
            parts.append(format_table(headers, rows))
        totals = self.totals
        parts.append(
            f"totals: {totals.get('runs', 0)} runs, "
            f"{totals.get('cycles', 0):,} cycles, "
            f"{totals.get('instructions', 0):,} instructions, "
            f"stalls steer={totals.get('stall_steer', 0)} "
            f"window={totals.get('stall_window', 0)}"
        )
        if self.failures:
            parts.append(f"failed runs: {len(self.failures)}")
            for failure in self.failures:
                parts.append(
                    f"  {failure.get('kernel')}/{failure.get('config')}/"
                    f"{failure.get('policy')}: {failure.get('kind')} "
                    f"({failure.get('error_type')}) after "
                    f"{failure.get('attempts')} attempt(s)"
                )
        if self.cache is not None:
            parts.append(
                f"cache: hits={self.cache.get('hits', 0)} "
                f"misses={self.cache.get('misses', 0)} "
                f"stores={self.cache.get('stores', 0)}"
            )
        if self.spans and self.spans.get("summary"):
            summary = self.spans["summary"]
            rows = [
                [name, int(entry["count"]), entry["seconds"]]
                for name, entry in sorted(
                    summary.items(), key=lambda item: -item[1]["seconds"]
                )
            ]
            parts.append(format_table(["span", "count", "seconds"], rows))
        return "\n".join(parts)


def validate_report(data: dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``data`` is a well-formed report."""
    if not isinstance(data, dict):
        raise ValueError("report must be a JSON object")
    if data.get("schema") != REPORT_SCHEMA:
        raise ValueError(
            f"unknown report schema {data.get('schema')!r}; want {REPORT_SCHEMA!r}"
        )
    for key, kind in _REQUIRED_TOP.items():
        if not isinstance(data.get(key), kind):
            raise ValueError(f"report[{key!r}] must be {kind.__name__}")
    for index, run in enumerate(data["runs"]):
        if not isinstance(run, dict):
            raise ValueError(f"runs[{index}] must be an object")
        for key, kind in _REQUIRED_RUN.items():
            value = run.get(key)
            if kind is float:
                ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            elif kind is int:
                ok = isinstance(value, int) and not isinstance(value, bool)
            else:
                ok = isinstance(value, kind)
            if not ok:
                raise ValueError(f"runs[{index}][{key!r}] must be {kind.__name__}")
        telemetry = run.get("telemetry")
        if telemetry is not None and not isinstance(telemetry, dict):
            raise ValueError(f"runs[{index}]['telemetry'] must be an object")
    totals = data["totals"]
    for key, kind in _REQUIRED_TOTALS.items():
        value = totals.get(key)
        if kind is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = isinstance(value, kind)
        if not ok:
            raise ValueError(f"totals[{key!r}] must be {kind.__name__}")
    if "failed" in totals:
        value = totals["failed"]
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError("totals['failed'] must be int")
    failures = data.get("failures")
    if failures is not None:
        if not isinstance(failures, list):
            raise ValueError("report['failures'] must be a list")
        for index, failure in enumerate(failures):
            if not isinstance(failure, dict):
                raise ValueError(f"failures[{index}] must be an object")
            for key in ("kind", "error_type", "attempts"):
                if key not in failure:
                    raise ValueError(f"failures[{index}] missing {key!r}")
    for optional in ("spans", "cache", "figure"):
        value = data.get(optional)
        if value is not None and not isinstance(value, dict):
            raise ValueError(f"report[{optional!r}] must be an object or null")

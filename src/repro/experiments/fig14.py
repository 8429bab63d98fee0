"""Figure 14: the proposed policies, stacked.

For each benchmark and each cluster count, four bars (three for the wide
clusters): Fields' focused policy, + LoC scheduling (l), + stall-over-steer
(s), and + proactive load-balancing (p, 8-cluster machine only, as in the
paper -- "our implementation does not benefit the wider clusters").  All
normalized to a monolithic machine using LoC-based scheduling, with the
critical-path forwarding-delay and contention components reported alongside
(Figure 14 overlays them on each bar).

Headline claim: the policies reduce the clustering penalty by 42%, 57% and
66% for the 2-, 4- and 8-cluster machines.
"""

from __future__ import annotations

import math

from repro.core.config import monolithic_machine
from repro.experiments.figure import FigureData, annotate_failures
from repro.experiments.harness import Workbench
from repro.specs import ExperimentSpec, MachineSpec, SweepSpec

# Registry name: the key this figure goes by in EXPERIMENTS / PLANS
# and on the CLI.
NAME = "figure14"

__all__ = ["NAME", "plan_figure14", "run_figure14", "spec_figure14"]

BARS_BY_CLUSTER = {2: ("focused", "l", "s"), 4: ("focused", "l", "s"), 8: ("focused", "l", "s", "p")}


def spec_figure14(forwarding_latency: int = 2) -> ExperimentSpec:
    """Figure 14's sweep as a declarative spec.

    The checked-in ``specs/figure14.json`` is this spec serialized; a
    test keeps the two in lock-step.
    """
    return ExperimentSpec(
        name=NAME,
        figure=NAME,
        description="Proposed policies, stacked, vs 1x8w with LoC scheduling",
        sweeps=(
            SweepSpec(machines=(MachineSpec(1),), policies=("l",)),
            *(
                SweepSpec(
                    machines=(
                        MachineSpec(count, forwarding_latency=forwarding_latency),
                    ),
                    policies=policies,
                )
                for count, policies in BARS_BY_CLUSTER.items()
            ),
        ),
    )


def plan_figure14(bench: Workbench, forwarding_latency: int = 2):
    """The runs Figure 14 needs, for parallel prefetch."""
    return spec_figure14(forwarding_latency).jobs(bench)


def run_figure14(bench: Workbench, forwarding_latency: int = 2) -> FigureData:
    """Reproduce Figure 14: one row per (benchmark, clusters, policy)."""
    bench.prefetch(plan_figure14(bench, forwarding_latency))
    figure = FigureData(
        figure_id="Figure 14",
        title="Proposed policies (normalized CPI vs 1x8w with LoC scheduling)",
        headers=[
            "benchmark",
            "clusters",
            "policy",
            "norm_cpi",
            "fwd_delay",
            "contention",
        ],
        notes=[
            "paper: penalties reduced 42%/57%/66% for 2/4/8 clusters; "
            "proactive load-balancing applied to the 8-cluster machine only",
        ],
    )
    sums: dict[tuple[int, str], float] = {}
    counts: dict[tuple[int, str], int] = {}
    failed = []
    for spec in bench.benchmarks:
        base_out = bench.outcome(spec, monolithic_machine(), "l")
        if not base_out.ok:
            # Everything is normalized to this run; fail the benchmark's
            # whole row block.
            failed.append(base_out)
            cell = base_out.failure.label()
            for cluster_count, policies in BARS_BY_CLUSTER.items():
                for policy in policies:
                    figure.add_row(
                        spec.name, cluster_count, policy, cell, cell, cell
                    )
            continue
        base_cpi = base_out.result.cpi
        for cluster_count, policies in BARS_BY_CLUSTER.items():
            config = bench.clustered(cluster_count, forwarding_latency)
            for policy in policies:
                out = bench.outcome(spec, config, policy)
                if not out.ok:
                    failed.append(out)
                    cell = out.failure.label()
                    figure.add_row(
                        spec.name, cluster_count, policy, cell, cell, cell
                    )
                    continue
                result = out.result
                segments = result.breakdown.normalized(base_cpi)
                norm = result.cpi / base_cpi
                figure.add_row(
                    spec.name,
                    cluster_count,
                    policy,
                    norm,
                    segments["fwd_delay"],
                    segments["contention"],
                )
                key = (cluster_count, policy)
                sums[key] = sums.get(key, 0.0) + norm
                counts[key] = counts.get(key, 0) + 1
    for cluster_count, policies in BARS_BY_CLUSTER.items():
        for policy in policies:
            key = (cluster_count, policy)
            n = counts.get(key, 0)
            figure.add_row(
                "AVE",
                cluster_count,
                policy,
                sums.get(key, 0.0) / n if n else float("nan"),
                float("nan"),
                float("nan"),
            )
    _append_penalty_reductions(figure)
    annotate_failures(figure, failed)
    return figure


def _append_penalty_reductions(figure: FigureData) -> None:
    """Summarize the headline 42/57/66% penalty-reduction claim."""
    for cluster_count, policies in BARS_BY_CLUSTER.items():
        ave_rows = [
            row for row in figure.rows if row[0] == "AVE" and row[1] == cluster_count
        ]
        focused = next((r[3] for r in ave_rows if r[2] == "focused"), None)
        best = next((r[3] for r in ave_rows if r[2] == policies[-1]), None)
        if (
            not isinstance(focused, float)
            or not isinstance(best, float)
            or math.isnan(focused)
            or math.isnan(best)
        ):
            # A partial (failure-degraded) table: no average to summarize
            # for this cluster count.
            continue
        focused_penalty = focused - 1.0
        best_penalty = best - 1.0
        if focused_penalty > 0:
            reduction = 100.0 * (focused_penalty - best_penalty) / focused_penalty
            figure.notes.append(
                f"{cluster_count} clusters: penalty {focused_penalty:.3f} -> "
                f"{best_penalty:.3f} ({reduction:.0f}% reduction; paper: "
                f"{ {2: 42, 4: 57, 8: 66}[cluster_count] }%)"
            )

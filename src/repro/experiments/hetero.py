"""Heterogeneous-cluster sweep: asymmetric machines x policy stacks.

The paper studies N *equal* clusters; this sweep asks how its steering
policies fare when the clusters are not equal.  Three asymmetric
8-wide machines:

* ``4w+2w+2w`` -- one fat cluster with a big window next to two thin
  ones (:func:`~repro.core.config.fat_thin_machine`);
* FP-less thin clusters -- only the fat cluster can execute FP ops, so
  steering mistakes cost a dispatch-level capability redirect
  (:func:`~repro.core.config.fp_less_thin_machine`);
* slow divider -- uniform geometry, but the last cluster executes
  ``INT_MUL`` at double latency
  (:func:`~repro.core.config.slow_divider_machine`).

Each machine runs the paper's five policy stacks plus ``affinity``
(:class:`~repro.core.steering.affinity.AffinitySteering`), which is the
only policy that *sees* the asymmetry.  Everything is normalized to the
monolithic 1x8w machine with LoC scheduling, Figure 14's baseline, so
the heterogeneous penalties read on the same scale as the paper's
uniform ones.

The workload subset keeps kernels that actually exercise the asymmetric
resources: ``eon`` carries the suite's FP traffic, ``gap``/``vortex``/
``twolf`` carry integer multiplies, and ``gcc``/``mcf`` are pure-integer
controls where the FP-less and slow-divider machines should behave like
their uniform counterparts.
"""

from __future__ import annotations

from repro.core.config import (
    MachineConfig,
    fat_thin_machine,
    fp_less_thin_machine,
    monolithic_machine,
    slow_divider_machine,
)
from repro.experiments.figure import FigureData, annotate_failures
from repro.experiments.harness import Workbench
from repro.specs import ExperimentSpec, MachineSpec, SweepSpec

# Registry name: the key this sweep goes by in EXPERIMENTS / PLANS
# and on the CLI.
NAME = "hetero_sweep"

__all__ = ["NAME", "plan_hetero_sweep", "run_hetero_sweep", "spec_hetero_sweep"]

# The five paper stacks, then the heterogeneity-aware one.
POLICIES = ("dependence", "focused", "l", "s", "p", "affinity")

# Kernels chosen for FP / INT_MUL coverage (see module docstring).
WORKLOADS = ("gcc", "mcf", "eon", "gap", "vortex", "twolf")


def hetero_machines() -> tuple[tuple[str, MachineConfig], ...]:
    """The three asymmetric machines this sweep studies, in table order.

    Labels disambiguate machines that share a width signature: the
    FP-less machine is also ``4w+2w+2w``, differing only in port mix.
    """
    return (
        ("4w+2w+2w", fat_thin_machine()),
        ("4w+2w+2w-nofp", fp_less_thin_machine()),
        ("4w+4w-slowmul", slow_divider_machine()),
    )


def spec_hetero_sweep() -> ExperimentSpec:
    """The heterogeneous sweep as a declarative spec.

    The checked-in ``specs/hetero_sweep.json`` is this spec serialized; a
    test keeps the two in lock-step.
    """
    return ExperimentSpec(
        name=NAME,
        figure=NAME,
        description=(
            "Paper policy stacks plus affinity steering on asymmetric "
            "machines, vs 1x8w with LoC scheduling"
        ),
        workloads=WORKLOADS,
        sweeps=(
            SweepSpec(machines=(MachineSpec(1),), policies=("l",)),
            SweepSpec(
                machines=tuple(
                    MachineSpec.from_config(config)
                    for _, config in hetero_machines()
                ),
                policies=POLICIES,
            ),
        ),
    )


def plan_hetero_sweep(bench: Workbench):
    """The runs the heterogeneous sweep needs, for parallel prefetch."""
    return spec_hetero_sweep().jobs(bench)


def run_hetero_sweep(bench: Workbench) -> FigureData:
    """One row per (benchmark, machine, policy), Figure 14-style."""
    bench.prefetch(plan_hetero_sweep(bench))
    machines = hetero_machines()
    figure = FigureData(
        figure_id="Hetero sweep",
        title=(
            "Heterogeneous clusters (normalized CPI vs 1x8w with LoC "
            "scheduling)"
        ),
        headers=[
            "benchmark",
            "machine",
            "policy",
            "norm_cpi",
            "fwd_delay",
            "contention",
        ],
        notes=[
            "machines: fat+thin (4w+2w+2w), FP-less thin clusters, "
            "slow-divider last cluster; affinity is the only "
            "capability/latency-aware policy",
        ],
    )
    sums: dict[tuple[str, str], float] = {}
    counts: dict[tuple[str, str], int] = {}
    failed = []
    kernels = [spec for spec in bench.benchmarks if spec.name in WORKLOADS]
    for spec in kernels:
        base_out = bench.outcome(spec, monolithic_machine(), "l")
        if not base_out.ok:
            failed.append(base_out)
            cell = base_out.failure.label()
            for label, _ in machines:
                for policy in POLICIES:
                    figure.add_row(spec.name, label, policy, cell, cell, cell)
            continue
        base_cpi = base_out.result.cpi
        for label, config in machines:
            for policy in POLICIES:
                out = bench.outcome(spec, config, policy)
                if not out.ok:
                    failed.append(out)
                    cell = out.failure.label()
                    figure.add_row(spec.name, label, policy, cell, cell, cell)
                    continue
                result = out.result
                segments = result.breakdown.normalized(base_cpi)
                norm = result.cpi / base_cpi
                figure.add_row(
                    spec.name,
                    label,
                    policy,
                    norm,
                    segments["fwd_delay"],
                    segments["contention"],
                )
                key = (label, policy)
                sums[key] = sums.get(key, 0.0) + norm
                counts[key] = counts.get(key, 0) + 1
    for label, _ in machines:
        for policy in POLICIES:
            key = (label, policy)
            n = counts.get(key, 0)
            figure.add_row(
                "AVE",
                label,
                policy,
                sums.get(key, 0.0) / n if n else float("nan"),
                float("nan"),
                float("nan"),
            )
    _append_affinity_gains(figure, machines)
    annotate_failures(figure, failed)
    return figure


def _append_affinity_gains(
    figure: FigureData, machines: tuple[tuple[str, MachineConfig], ...]
) -> None:
    """Note affinity's average gain over the best unaware stack."""
    for label, _ in machines:
        ave = {
            row[2]: row[3]
            for row in figure.rows
            if row[0] == "AVE" and row[1] == label and isinstance(row[3], float)
        }
        affinity = ave.get("affinity")
        unaware = [v for k, v in ave.items() if k != "affinity" and v == v]
        if affinity is None or affinity != affinity or not unaware:
            continue
        best = min(unaware)
        figure.notes.append(
            f"{label}: affinity {affinity:.3f} vs best unaware "
            f"{best:.3f} ({'-' if affinity <= best else '+'}"
            f"{abs(affinity - best):.3f})"
        )

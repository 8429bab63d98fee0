"""Ablation: instruction replication in the idealized study (footnote 4).

The paper: "Instruction replication, which has been advocated for
statically-scheduled clustered machines, therefore does not appear to be
necessary for dynamic machines."  We extend the idealized list scheduler
with one-level producer replication and measure how much schedule potential
it actually adds.  Expected: near-zero on average -- except in the
convergent-dataflow outlier (bzip2), where re-executing a producer on both
converging clusters sidesteps the forwarding the paper calls a fundamental
limit of 1-wide clusters.
"""

from repro.core.config import clustered_machine, monolithic_machine
from repro.experiments.figure import FigureData
from repro.idealized.list_scheduler import list_schedule


def sweep(workbench) -> FigureData:
    figure = FigureData(
        figure_id="Ablation replication",
        title="Idealized 8x1w normalized CPI without/with replication",
        headers=["benchmark", "plain", "replication", "replicas"],
        notes=[
            "paper footnote 4: replication unnecessary for dynamic "
            "machines; only convergent dataflow (bzip2) stands to gain",
        ],
    )
    for spec in workbench.benchmarks:
        prepared = workbench.prepare(spec)
        latencies = workbench.run(spec, monolithic_machine(), "dependence").latencies
        base = list_schedule(
            prepared.trace,
            prepared.dependences,
            prepared.mispredicted,
            monolithic_machine(),
            latencies,
        ).cpi
        config = clustered_machine(8)
        plain = list_schedule(
            prepared.trace,
            prepared.dependences,
            prepared.mispredicted,
            config,
            latencies,
        )
        replicated = list_schedule(
            prepared.trace,
            prepared.dependences,
            prepared.mispredicted,
            config,
            latencies,
            allow_replication=True,
        )
        figure.add_row(
            spec.name,
            plain.cpi / base,
            replicated.cpi / base,
            replicated.replications,
        )
    return figure


def test_replication_rarely_needed(benchmark, workbench, save_figure):
    figure = benchmark.pedantic(sweep, args=(workbench,), rounds=1, iterations=1)
    save_figure(figure)
    gains = []
    for row in figure.rows:
        __, plain, replicated, __count = row
        # Replication never hurts an idealized schedule materially.
        assert replicated <= plain + 0.01, row
        gains.append(plain - replicated)
    # Footnote 4: the average gain is small...
    assert sum(gains) / len(gains) < 0.02, gains
    # ...and whatever gain exists concentrates in convergent dataflow.
    by_name = {row[0]: row[1] - row[2] for row in figure.rows}
    if max(gains) > 0.01:
        best = max(by_name, key=by_name.get)
        assert best in ("bzip2", "crafty", "twolf"), by_name
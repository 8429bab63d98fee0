"""Multi-seed aggregation (the paper's three-sample methodology).

Section 2.1: "For each benchmark, we average results from three 100 million
instruction runs ... starting at 3, 5 and 8 billion instructions into the
run."  Our analogue: run the same experiment with several workload data
seeds and average the numeric cells of the resulting figures, reporting the
spread so the stability of each shape is visible.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from repro.experiments.cache import RunCache
from repro.experiments.figure import FigureData
from repro.experiments.harness import Workbench


def run_seeded(
    experiment: Callable[[Workbench], FigureData],
    seeds: Sequence[int] = (0, 1, 2),
    instructions: int = 8000,
    benchmarks=None,
    workers: int = 0,
    cache: RunCache | None = None,
    **workbench_kwargs,
) -> FigureData:
    """Run ``experiment`` once per seed and average the numeric cells.

    Rows are matched positionally (every seed produces the same row
    structure since only workload data changes).  Non-numeric cells must
    agree across seeds.  The returned figure carries a per-column
    max-spread note.

    Each seed's workbench runs the experiment's prefetch plan through
    its executor: with ``workers`` > 1 the event-engine runs fan out over
    a process pool, while batched runs stay in-process on the trace memo
    (:class:`~repro.experiments.executor.LocalPoolExecutor`).  A shared
    ``cache`` persists every seed's runs across invocations.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    figures = []
    for seed in seeds:
        bench = Workbench(
            instructions=instructions,
            seed=seed,
            benchmarks=benchmarks,
            workers=workers,
            cache=cache,
            **workbench_kwargs,
        )
        figures.append(experiment(bench))
    return average_figures(figures, seeds)


def average_figures(
    figures: Sequence[FigureData], seeds: Sequence[int]
) -> FigureData:
    """Cell-wise average of structurally compatible figures.

    Rows are matched positionally when every seed produced the same row
    count.  Figures whose row *sets* legitimately differ across seeds
    (e.g. Figure 15's available-ILP bins, which depend on the workload
    data) are aligned by row label instead; a row missing from some seeds
    is averaged over the seeds that have it.
    """
    first = figures[0]
    for other in figures[1:]:
        if list(other.headers) != list(first.headers):
            raise ValueError("figures have different headers across seeds")

    if all(len(fig.rows) == len(first.rows) for fig in figures):
        row_groups = [
            [fig.rows[row_index] for fig in figures]
            for row_index in range(len(first.rows))
        ]
    else:
        row_groups = _align_rows_by_label(figures)

    merged = FigureData(
        figure_id=first.figure_id,
        title=f"{first.title} (mean of {len(figures)} seeds)",
        headers=first.headers,
        notes=list(first.notes),
    )
    worst_spread = 0.0
    for rows in row_groups:
        cells = []
        for col_index in range(len(first.headers)):
            values = [row[col_index] for row in rows]
            if all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in values):
                finite = [v for v in values if not math.isnan(v)]
                if not finite:
                    cells.append(float("nan"))
                    continue
                mean = sum(finite) / len(finite)
                cells.append(mean)
                worst_spread = max(worst_spread, max(finite) - min(finite))
            else:
                if any(v != values[0] for v in values):
                    raise ValueError(
                        f"non-numeric cell differs across seeds: {values}"
                    )
                cells.append(values[0])
        merged.rows.append(tuple(cells))
    merged.notes.append(
        f"seeds {list(seeds)}; worst per-cell spread {worst_spread:.4f}"
    )
    return merged


def _align_rows_by_label(
    figures: Sequence[FigureData],
) -> list[list[Sequence[object]]]:
    """Group rows by first-cell label, in first-seen order across seeds."""
    for fig in figures:
        labels = [row[0] for row in fig.rows]
        if len(set(labels)) != len(labels):
            raise ValueError(
                "figures have different structure across seeds and "
                "row labels are not unique enough to align them"
            )
    order: list[object] = []
    groups: dict[object, list[Sequence[object]]] = {}
    for fig in figures:
        for row in fig.rows:
            if row[0] not in groups:
                order.append(row[0])
                groups[row[0]] = []
            groups[row[0]].append(row)
    return [groups[label] for label in order]

"""Critical-path CPI breakdown (Figure 5).

Converts a run's critical-path attribution into normalized-CPI stack
segments: each category's cycles divided by (instructions x baseline CPI),
so the stacked bars sum to the run's normalized CPI exactly.
"""

from __future__ import annotations

from repro.core.results import CpiBreakdown, SimulationResult
from repro.criticality.critical_path import analyze_critical_path

__all__ = ["FIGURE5_SEGMENTS", "CpiBreakdown", "cpi_breakdown"]

# Display order of Figure 5's stack segments (bottom to top).
FIGURE5_SEGMENTS = (
    "br_mispredict",
    "mem_latency",
    "fetch",
    "window",
    "execute",
    "contention",
    "fwd_delay",
)


def cpi_breakdown(result: SimulationResult) -> CpiBreakdown:
    """Attribute a run's cycles per instruction to Figure 5 categories."""
    analysis = analyze_critical_path(result.records)
    merged = analysis.merged_for_figure5()
    instructions = len(result.records)
    segments = {name: merged.get(name, 0) / instructions for name in FIGURE5_SEGMENTS}
    # The walk attributes commit_time(last) cycles; spread the one-cycle
    # difference from result.cycles into 'execute' so stacks sum to CPI.
    residual = result.cycles - analysis.attributed_cycles
    segments["execute"] += residual / instructions
    return CpiBreakdown(
        segments=segments, cpi=result.cpi, attributed_cycles=analysis.attributed_cycles
    )

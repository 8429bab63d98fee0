"""Run analyses: CPI breakdowns, event classification, ILP and consumer stats."""

from repro.analysis.breakdown import FIGURE5_SEGMENTS, CpiBreakdown, cpi_breakdown
from repro.analysis.consumers import (
    ConsumerCriticalityStats,
    consumer_criticality_stats,
    exact_loc_by_pc,
)
from repro.analysis.events import (
    ContentionEvents,
    ForwardingEvents,
    classify_lost_cycle_events,
)
from repro.analysis.ilp import efficiency_at, merge_profiles
from repro.analysis.near_critical import NearCriticalProfile, near_critical_profile
from repro.analysis.pipeview import contention_hotspots, render_pipeline
from repro.analysis.summary import summarize

__all__ = [
    "ConsumerCriticalityStats",
    "ContentionEvents",
    "CpiBreakdown",
    "FIGURE5_SEGMENTS",
    "ForwardingEvents",
    "NearCriticalProfile",
    "classify_lost_cycle_events",
    "contention_hotspots",
    "consumer_criticality_stats",
    "cpi_breakdown",
    "efficiency_at",
    "exact_loc_by_pc",
    "merge_profiles",
    "near_critical_profile",
    "render_pipeline",
    "summarize",
]

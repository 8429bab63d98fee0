#!/usr/bin/env python3
"""Criticality explorer: dissect one workload's critical path.

Reproduces, for a single benchmark, the paper's analysis pipeline:

1. simulate the monolithic machine and extract the critical path;
2. print the CPI breakdown (Figure 5 style) and the hottest critical PCs;
3. print the per-PC likelihood-of-criticality table and its distribution
   (Figure 8 style);
4. print the slack distribution, illustrating why slack is impractical as
   a static metric (Section 4's slack discussion).

Usage::

    python examples/criticality_explorer.py [kernel] [instructions]
"""

import sys
from collections import defaultdict

from repro.api import (
    Workbench,
    analyze_critical_path,
    compute_global_slack,
    contention_hotspots,
    critical_flags,
    exact_loc_by_pc,
    format_histogram,
    format_table,
    get_kernel,
    monolithic_machine,
    render_pipeline,
    simulate,
    slack_histogram,
)


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "vpr"
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 8000
    kernel = get_kernel(name)
    bench = Workbench(instructions=instructions)
    # The full records, in this process (a workbench keeps summaries only).
    result = simulate(bench.job(kernel, monolithic_machine(), "focused"))

    print(f"== {name}: {instructions} instructions, "
          f"{result.cycles} cycles, CPI {result.cpi:.3f} ==\n")

    analysis = analyze_critical_path(result.records)
    print("critical-path cycle attribution:")
    rows = [
        [category, cycles, 100.0 * cycles / analysis.total_cycles]
        for category, cycles in sorted(
            analysis.breakdown.items(), key=lambda kv: -kv[1]
        )
        if cycles
    ]
    print(format_table(["category", "cycles", "percent"], rows))

    flags = critical_flags(result.records)
    loc = exact_loc_by_pc(result.records, flags)
    by_pc = defaultdict(int)
    for record in result.records:
        by_pc[record.instr.pc] += 1
    hottest = sorted(loc, key=lambda pc: -(loc[pc] * by_pc[pc]))[:8]
    print("\nmost critical static instructions (by LoC x frequency):")
    rows = [
        [pc, result.records[_first_at(result.records, pc)].instr.opcode,
         by_pc[pc], loc[pc]]
        for pc in hottest
    ]
    print(format_table(["pc", "opcode", "dynamic_count", "loc"], rows))

    print("\nLoC distribution over dynamic instructions (Figure 8 style):")
    bins = [0] * 11
    for record in result.records:
        bins[min(10, int(loc[record.instr.pc] * 10))] += 1
    labels = [f"{10 * i}-{10 * i + 9}%" for i in range(10)] + ["100%"]
    print(format_histogram(labels, [100.0 * b / len(result.records) for b in bins]))

    print("\nslack distribution (cycles of global slack per instruction):")
    slacks = compute_global_slack(result.records, result.config)
    histogram = slack_histogram(slacks, bin_width=10, max_bins=8)
    print(format_histogram([label for label, __ in histogram],
                           [count for __, count in histogram]))
    print(
        "\nNote the contrast the paper draws in Section 4: slack varies "
        "hugely across instances, while LoC is a stable per-PC property."
    )

    print("\npipeline view around the worst contention stall:")
    hotspots = contention_hotspots(result.records, top=1)
    anchor = hotspots[0][0] if hotspots else len(result.records) // 2
    print(render_pipeline(result.records, start=max(0, anchor - 6), count=14))


def _first_at(records, pc):
    for i, record in enumerate(records):
        if record.instr.pc == pc:
            return i
    raise KeyError(pc)


if __name__ == "__main__":
    main()

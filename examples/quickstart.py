#!/usr/bin/env python3
"""Quickstart: simulate one workload on monolithic and clustered machines.

Runs the paper's vpr-style heap-walk kernel through the 1x8w baseline and
its 2/4/8-cluster splits under the full policy stack, and prints the CPI,
the clustering penalty, and where the lost cycles went.

Usage::

    python examples/quickstart.py [instructions]
"""

import sys

from repro.api import (
    Workbench,
    clustered_machine,
    format_table,
    get_kernel,
    monolithic_machine,
)


def main() -> None:
    instructions = int(sys.argv[1]) if len(sys.argv) > 1 else 8000
    bench = Workbench(instructions=instructions)
    kernel = get_kernel("vpr")
    print(f"kernel: {kernel.name} -- {kernel.description}")
    print(f"paper feature: {kernel.paper_feature}")
    print(f"trace length: {instructions} dynamic instructions\n")

    baseline = bench.run(kernel, monolithic_machine(), "l")
    rows = []
    for clusters in (1, 2, 4, 8):
        config = (
            monolithic_machine() if clusters == 1 else clustered_machine(clusters)
        )
        # 'l'+'s'(+'p' on 8x1w): the paper's best stack per configuration.
        policy = "p" if clusters == 8 else ("s" if clusters > 1 else "l")
        result = bench.run(kernel, config, policy)
        breakdown = result.breakdown.normalized(baseline.cpi)
        rows.append(
            [
                config.name,
                policy,
                result.cpi,
                result.cpi / baseline.cpi,
                breakdown["fwd_delay"],
                breakdown["contention"],
                result.global_values_per_instruction,
            ]
        )
    print(
        format_table(
            ["config", "policy", "cpi", "norm_cpi", "fwd_delay", "contention",
             "gvals/instr"],
            rows,
        )
    )
    print(
        "\nnorm_cpi is relative to the monolithic machine; fwd_delay and "
        "contention are the clustering penalties on the critical path."
    )


if __name__ == "__main__":
    main()

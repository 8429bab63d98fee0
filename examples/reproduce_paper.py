#!/usr/bin/env python3
"""Reproduce every figure and in-text claim of the paper in one command.

A thin convenience wrapper over the experiment registry -- equivalent to::

    repro all --instructions N --out results/

but with a compact progress line per experiment and a closing summary of
the headline numbers (Figures 2, 4 and 14).

Usage::

    python examples/reproduce_paper.py [instructions]
"""

import sys
import time

from repro.api import EXPERIMENTS, Workbench


def main() -> None:
    instructions = int(sys.argv[1]) if len(sys.argv) > 1 else 8000
    bench = Workbench(instructions=instructions)
    figures = {}
    for name, experiment in EXPERIMENTS.items():
        start = time.time()
        figures[name] = experiment(bench)
        print(f"[{name}: {time.time() - start:5.1f}s]")
        print(figures[name])
        print()

    ideal = figures["figure2"].row_for("AVE")
    focused = figures["figure4"].row_for("AVE")
    print("=" * 68)
    print("Headline (suite averages, normalized CPI at 2/4/8 clusters):")
    print(f"  idealized potential (Fig 2):  "
          f"{ideal[1]:.3f} / {ideal[2]:.3f} / {ideal[3]:.3f}")
    print(f"  focused steering    (Fig 4):  "
          f"{focused[1]:.3f} / {focused[2]:.3f} / {focused[3]:.3f}")
    stacked = {
        (row[1], row[2]): row[3]
        for row in figures["figure14"].rows
        if row[0] == "AVE"
    }
    print(f"  full policy stack  (Fig 14):  "
          f"{stacked[(2, 's')]:.3f} / {stacked[(4, 's')]:.3f} / "
          f"{stacked[(8, 'p')]:.3f}")
    print("Paper: idealized < 1.02 everywhere; focused ~1.05/1.1+/1.2; "
          "policies recover half to two-thirds of the penalty.")


if __name__ == "__main__":
    main()

"""repro: a reproduction of "A Criticality Analysis of Clustering in
Superscalar Processors" (Salverda & Zilles, MICRO 2005).

The package builds, from scratch, everything the paper's evaluation needs:

* :mod:`repro.vm` -- a mini ISA, assembler and interpreter producing
  dynamic instruction traces;
* :mod:`repro.workloads` -- twelve SPECint-like kernels, one per benchmark
  the paper evaluates;
* :mod:`repro.frontend` / :mod:`repro.memory` -- gshare branch prediction,
  the fetch pipeline and the cache hierarchy of Table 1;
* :mod:`repro.core` -- the cycle-driven clustered-superscalar timing model
  with all steering and scheduling policies;
* :mod:`repro.criticality` -- the Fields critical-path model, slack, the
  binary and likelihood-of-criticality (LoC) predictors, online training;
* :mod:`repro.idealized` -- the Section 2.2 idealized list scheduler;
* :mod:`repro.analysis` / :mod:`repro.experiments` -- the analyses and the
  per-figure reproduction harness.

Quickstart (``repro.api`` is the stable, semver-governed entry point)::

    from repro.api import Workbench, figure
    print(figure("figure4", Workbench(instructions=8000)))
"""

from repro.core import (
    ClusteredSimulator,
    MachineConfig,
    SimulationResult,
    clustered_machine,
    monolithic_machine,
)
from repro.experiments import EXPERIMENTS
from repro.experiments.harness import Workbench
from repro.workloads import SUITE, get_kernel

__version__ = "3.0.0"

__all__ = [
    "ClusteredSimulator",
    "EXPERIMENTS",
    "MachineConfig",
    "SUITE",
    "SimulationResult",
    "Workbench",
    "clustered_machine",
    "get_kernel",
    "monolithic_machine",
    "__version__",
]

"""Experiment harness: one module per reproduced figure or in-text claim.

Two registries drive the CLI and the stable facade:

* :data:`EXPERIMENTS` -- name -> ``run_*`` function producing a
  :class:`~repro.experiments.figure.FigureData`;
* :data:`PLANS` -- name -> ``plan_*`` function enumerating the
  :class:`~repro.experiments.parallel.RunJob`\\ s the figure needs (what
  ``prefetch`` fans out, and what the ``--metrics`` run report walks).

The harness, cache and execution machinery lives in its defining
modules (:mod:`repro.experiments.harness`, :mod:`repro.experiments.cache`,
:mod:`repro.experiments.parallel`, :mod:`repro.experiments.aggregate`);
:mod:`repro.api` is the stable facade over them.
"""

from repro.experiments.fig02 import plan_figure2, run_figure2, spec_figure2
from repro.experiments.fig04 import plan_figure4, run_figure4, spec_figure4
from repro.experiments.fig05 import plan_figure5, run_figure5, spec_figure5
from repro.experiments.fig06 import plan_figure6, run_figure6, spec_figure6
from repro.experiments.fig08 import plan_figure8, run_figure8, spec_figure8
from repro.experiments.fig14 import plan_figure14, run_figure14, spec_figure14
from repro.experiments.fig15 import plan_figure15, run_figure15, spec_figure15
from repro.experiments.figure import FigureData
from repro.experiments.hetero import (
    plan_hetero_sweep,
    run_hetero_sweep,
    spec_hetero_sweep,
)
from repro.experiments.intext import (
    plan_consumer_stats,
    plan_global_values,
    plan_loc_priority_study,
    run_consumer_stats,
    run_global_values,
    run_loc_priority_study,
    spec_consumer_stats,
    spec_global_values,
    spec_loc_priority_study,
)

# Registry used by examples, the CLI and the benchmark harness.
EXPERIMENTS = {
    "figure2": run_figure2,
    "figure4": run_figure4,
    "figure5": run_figure5,
    "figure6": run_figure6,
    "figure8": run_figure8,
    "figure14": run_figure14,
    "figure15": run_figure15,
    "hetero_sweep": run_hetero_sweep,
    "global_values": run_global_values,
    "loc_priority": run_loc_priority_study,
    "consumer_stats": run_consumer_stats,
}

# The declarative form of each experiment: name -> ``spec_*`` builder
# returning the :class:`~repro.specs.ExperimentSpec` whose jobs the
# figure's plan enumerates.  ``repro specs show <name>`` renders these,
# and the checked-in ``specs/*.json`` files serialize them.
SPECS = {
    "figure2": spec_figure2,
    "figure4": spec_figure4,
    "figure5": spec_figure5,
    "figure6": spec_figure6,
    "figure8": spec_figure8,
    "figure14": spec_figure14,
    "figure15": spec_figure15,
    "hetero_sweep": spec_hetero_sweep,
    "global_values": spec_global_values,
    "loc_priority": spec_loc_priority_study,
    "consumer_stats": spec_consumer_stats,
}

# The matching run plans: every entry takes a Workbench and returns the
# RunJobs the experiment will consume (figure2's list scheduling and some
# in-text analyses also do in-process work the plan does not cover).
PLANS = {
    "figure2": plan_figure2,
    "figure4": plan_figure4,
    "figure5": plan_figure5,
    "figure6": plan_figure6,
    "figure8": plan_figure8,
    "figure14": plan_figure14,
    "figure15": plan_figure15,
    "hetero_sweep": plan_hetero_sweep,
    "global_values": plan_global_values,
    "loc_priority": plan_loc_priority_study,
    "consumer_stats": plan_consumer_stats,
}

__all__ = [
    "EXPERIMENTS",
    "FigureData",
    "PLANS",
    "SPECS",
    "plan_consumer_stats",
    "plan_figure14",
    "plan_figure15",
    "plan_figure2",
    "plan_figure4",
    "plan_figure5",
    "plan_figure6",
    "plan_figure8",
    "plan_global_values",
    "plan_hetero_sweep",
    "plan_loc_priority_study",
    "run_consumer_stats",
    "run_figure14",
    "run_figure15",
    "run_figure2",
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_figure8",
    "run_global_values",
    "run_hetero_sweep",
    "run_loc_priority_study",
]

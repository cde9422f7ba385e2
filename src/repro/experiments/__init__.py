"""The paper's evaluation (Section 4): all four experiments.

Each module regenerates the corresponding figures:

* :mod:`repro.experiments.experiment1` — Figures 6 and 7 (arrival rate vs
  mean response time / throughput, Pattern1, the blocking case);
* :mod:`repro.experiments.experiment2` — Figure 8 (NumHots vs throughput
  at RT = 70 s, Pattern2, the hot-set case);
* :mod:`repro.experiments.experiment3` — Figure 9 (arrival rate vs mean
  response time, Pattern3, longer blocking);
* :mod:`repro.experiments.experiment4` — Figure 10 (declared-cost error
  ratio vs throughput at RT = 70 s, Pattern1, incl. the CHAIN-C2PL and
  K2-C2PL lower bounds).

:mod:`repro.experiments.paper` records the values the paper reports.
"""

from repro.experiments.base import (ExperimentConfig, SchedulerCurve,
                                    run_scheduler_grid)
from repro.experiments.experiment1 import Experiment1Result, run_experiment1
from repro.experiments.experiment2 import Experiment2Result, run_experiment2
from repro.experiments.experiment3 import Experiment3Result, run_experiment3
from repro.experiments.experiment4 import Experiment4Result, run_experiment4
from repro.experiments.runner import PointSpec, run_points, sweep_specs
from repro.experiments.verify import verify_paper_claims

__all__ = [
    "Experiment1Result",
    "Experiment2Result",
    "Experiment3Result",
    "Experiment4Result",
    "ExperimentConfig",
    "PointSpec",
    "SchedulerCurve",
    "run_experiment1",
    "run_experiment2",
    "run_experiment3",
    "run_experiment4",
    "run_points",
    "run_scheduler_grid",
    "sweep_specs",
    "verify_paper_claims",
]

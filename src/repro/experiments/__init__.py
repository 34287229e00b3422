"""Experiment harness: one module per table/figure of the paper.

Every experiment builds on :mod:`repro.experiments.runner`, which runs
one (workload, policy) pair under the standard measurement protocol:

* each application is executed twice back-to-back in a single
  simulation — a training pass and a measurement pass — because the
  paper evaluates the controllers in their trained steady state (its
  training time at the chosen decision epoch exceeds one application
  execution, see Figure 7c);
* all metrics are computed from the measurement pass only, on the
  common 1 s evaluation sensor trace, for every policy alike.

Experiment index (see DESIGN.md for the full mapping):

========  =====================================  =========================
Artefact  Module                                 What it reproduces
========  =====================================  =========================
Fig. 1    repro.experiments.fig1_motivation     thread-affinity motivation
Table 2   repro.experiments.table2_intra        intra-application results
Fig. 3    repro.experiments.fig3_inter          inter-application results
Fig. 4/5  repro.experiments.fig45_phases        exploration vs exploitation
Fig. 6    repro.experiments.fig6_sampling       sampling-interval study
Fig. 7    repro.experiments.fig7_epoch          decision-epoch study
Fig. 8    repro.experiments.fig8_convergence    states/actions convergence
Table 3   repro.experiments.table3_exec_time    execution-time comparison
Fig. 9    repro.experiments.fig9_power          power/energy comparison
(extra)   repro.experiments.fault_tolerance     faults + supervision study
========  =====================================  =========================

The ``fault_tolerance`` artefact goes beyond the paper: it re-runs the
headline controllers on a faulty substrate (see :mod:`repro.faults`)
with the graceful-degradation layer off and on.

Every experiment module provides ``cells(iteration_scale, seed)``, its
grid as an ordered mapping from each cell's label (its row/column
coordinates) to a hashable job spec, and ``render(summaries)``, its
result from the same labels mapped to the cells' summaries.  An
artefact is ``render(engine.run_grid(cells(...)))`` on an
:class:`repro.experiments.engine.ExperimentEngine`: ``repro <artefact>``
builds one that way, and ``repro all`` submits every artefact's cells
as one batch, which is how it parallelises, deduplicates and memoises
the evaluation.
"""

from repro.experiments.runner import (
    POLICIES,
    RunSummary,
    run_scenario,
    run_workload,
)

__all__ = ["POLICIES", "RunSummary", "run_scenario", "run_workload"]

# The per-artefact modules are intentionally not imported here:
# each pulls in a full experiment, and the CLI (repro.cli) already
# aggregates them for interactive use.

"""Post-processing helpers shared by the experiments, plus `repro lint`.

* :mod:`repro.analysis.metrics` — normalisation and MTTF summaries;
* :mod:`repro.analysis.autocorrelation` — the Figure 6 autocorrelation;
* :mod:`repro.analysis.tables` — plain-text table rendering so every
  benchmark prints rows directly comparable to the paper's artefacts;
* :mod:`repro.analysis.lint` — the static analysis behind the
  ``repro lint`` CLI subcommand (module and project rules over one
  AST project model) and the behavior-closure digest that keys the
  result cache (imported lazily: linting a tree never drags the
  simulator in, and vice versa).
"""

from repro.analysis.autocorrelation import autocorrelation, decimate
from repro.analysis.metrics import geometric_mean, normalise_to
from repro.analysis.tables import format_table
from repro.analysis.traces import render_profile, render_series

__all__ = [
    "autocorrelation",
    "decimate",
    "format_table",
    "geometric_mean",
    "normalise_to",
    "render_profile",
    "render_series",
]

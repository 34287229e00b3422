"""Post-processing helpers shared by the experiments, plus `repro lint`.

* :mod:`repro.analysis.autocorrelation` — the Figure 6 autocorrelation;
* :mod:`repro.analysis.tables` — plain-text table rendering so every
  artefact prints rows directly comparable to the paper's;
* :mod:`repro.analysis.lint` — the static analysis behind the
  ``repro lint`` CLI subcommand (module and project rules over one
  AST project model) and the behavior-closure digest that keys the
  result cache (imported lazily: linting a tree never drags the
  simulator in, and vice versa).
"""

from repro.analysis.autocorrelation import autocorrelation, decimate
from repro.analysis.tables import format_table

__all__ = ["autocorrelation", "decimate", "format_table"]

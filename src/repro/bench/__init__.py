"""Experiment drivers shared by the benchmark suite and the examples.

One module per paper artefact: Fig. 10 (deployment/execution/cost by
instance type), Fig. 11 (transfer rate by method and file size), the
Sec. V-A use case, and the design-choice ablations DESIGN.md calls out.

On top of the drivers sit the fan-out layers: ``harness`` (the parallel
orchestrator), ``suites`` (the spec registry mapping artefacts onto
harness columns), and ``cli`` (``gp-bench`` / ``python -m repro.bench``).
What a run costs the host is measured outside this package, by
``perfbench/run.py`` under ``BENCHMARK.json``.
"""

from . import ablations, figure10, figure11, pricing_sweep, scale, usecase  # noqa: I001
from . import harness, suites

__all__ = [
    "ablations",
    "figure10",
    "figure11",
    "harness",
    "pricing_sweep",
    "scale",
    "suites",
    "usecase",
]

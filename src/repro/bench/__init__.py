"""Experiment drivers shared by the benchmark suite and the examples.

One module per paper artefact: Fig. 10 (deployment/execution/cost by
instance type), Fig. 11 (transfer rate by method and file size), the
Sec. V-A use case, and the design-choice ablations DESIGN.md calls out.

On top of the drivers sit the fan-out layers: ``harness`` (the parallel
orchestrator), ``suites`` (the spec registry mapping artefacts onto
harness columns), and ``cli`` (``gp-bench`` / ``python -m repro.bench``).
What a run costs the host is measured outside this package, by
``perfbench/run.py`` under ``BENCHMARK.json``.

Importing the package loads none of these modules: a caller imports the
one it uses by name (``from repro.bench import figure10``), so
``gp-replay``, which needs only the harness, does not load the
numerical libraries the experiment modules use.
"""

"""Provenance-complete replay: bundles, verification, counterfactuals.

The observability subsystem records what a run *did*; this package closes
the loop by recording everything needed to *do it again* and prove the
two runs match.  A :class:`ProvenanceBundle` is a single self-describing
JSON document with six content-digested sections:

* ``calibration`` — the named constants in :mod:`repro.calibration` plus
  their digest, so replays on drifted calibration fail loudly;
* ``scenario`` — the benchmark suite spec (task names and params): the
  deterministic reconstruction recipe;
* ``seeds`` — the RNG seeds, lifted out as their own section so seed
  tampering is a first-class detectable corruption;
* ``topology`` — the deployed topology/update specs, captured via
  ``obs.annotate`` hooks in the deployer;
* ``spans`` — the obs docs (spans, instants, metrics, gauge series) the
  run recorded, one per simulation context;
* ``sim`` — the host-independent simulation output the replay must
  reproduce byte-identically.

``gp-replay`` (:mod:`repro.provenance.cli`) verifies a bundle, or a
``gp-bench --run-out`` directory of one bundle and the views derived
from its spans (:mod:`repro.provenance.rundir`), re-executes the
scenario, and either proves byte-identity (exit 0), reports the first
structured divergence (exit 1), or — with ``--override
instance_type=... / seed=...`` — runs the same trace under altered
inputs and emits a makespan/cost/events comparison report.
"""

from .bundle import (
    BUNDLE_FORMAT,
    BUNDLE_VERSION,
    BundleError,
    ProvenanceBundle,
    build_bundle,
    read_bundle,
    write_bundle,
)
from .replay import (
    OVERRIDE_KEYS,
    ReplayReport,
    parse_overrides,
    rebuild_suite,
    replay,
    verify_bundle,
)
from .rundir import read_run_dir, run_views, write_run_dir

__all__ = [
    "BUNDLE_FORMAT",
    "BUNDLE_VERSION",
    "BundleError",
    "OVERRIDE_KEYS",
    "ProvenanceBundle",
    "ReplayReport",
    "build_bundle",
    "parse_overrides",
    "read_bundle",
    "read_run_dir",
    "rebuild_suite",
    "replay",
    "run_views",
    "verify_bundle",
    "write_bundle",
    "write_run_dir",
]

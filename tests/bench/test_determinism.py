"""Determinism regression: the perf fast paths must not move a single byte.

Every optimisation in the kernel, the transfer model, and the Condor
matchmaker is required to preserve event order exactly.  The strongest
check we have is the committed paper artefacts: regenerating Fig. 10,
Fig. 11, and the use-case table with the same seed must reproduce the
files under ``benchmarks/results/`` byte for byte.
"""

import pathlib

import pytest

from repro.bench import figure10, figure11, harness, suites, usecase

pytestmark = pytest.mark.bench

RESULTS_DIR = (
    pathlib.Path(__file__).parent.parent.parent / "benchmarks" / "results"
)


@pytest.mark.parametrize(
    "name, module",
    [("figure10", figure10), ("figure11", figure11), ("usecase", usecase)],
)
def test_artefact_regenerates_byte_identically(name, module):
    committed = RESULTS_DIR / f"{name}.txt"
    if not committed.exists():
        pytest.skip(f"no committed baseline {committed}")
    regenerated = module.run().render() + "\n"
    assert regenerated == committed.read_text(), (
        f"{name} drifted: a perf change altered simulation behaviour"
    )


#: the 1k-tenant queue-depth run of ``waas.FULL_GRID``
WAAS_1K = "waas/queue_depth/t1000-w2000-s0"


def waas_1k_sim_json() -> str:
    """Sim JSON of :data:`WAAS_1K` alone, as ``gp-bench --sim-json-out``
    writes it; regenerate the pin by writing this string to
    ``benchmarks/results/waas_1k_queue_depth_sim.json``."""
    spec = next(s for s in suites.get("waas").specs if s.name == WAAS_1K)
    result = harness.run_suite(harness.BenchSuite("waas-1k", WAAS_1K, (spec,)))
    return result.sim_json() + "\n"


def test_waas_1k_queue_depth_sim_json_is_pinned():
    """Up to 320 owners (174 per negotiation cycle on average) have idle
    Condor jobs at once here; the smoke baseline's WaaS runs admit at most
    16 workflows at a time, so never more than 16.  This pin is what
    checks the fair-share negotiator's owner heap at scale."""
    committed = RESULTS_DIR / "waas_1k_queue_depth_sim.json"
    assert waas_1k_sim_json() == committed.read_text(), (
        "the 1k-tenant WaaS run drifted: a perf change altered simulation behaviour"
    )

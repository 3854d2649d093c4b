"""Determinism regression: the perf fast paths must not move a single byte.

Every optimisation in the kernel, the transfer model, and the Condor
matchmaker is required to preserve event order exactly.  The strongest
check we have is the committed paper artefacts: regenerating Fig. 10,
Fig. 11, the use-case table and the five ablation tables with the same
seed must reproduce the files under ``benchmarks/results/`` byte for
byte.
"""

import pathlib

import pytest

from repro.bench import figure10, figure11, harness, suites, usecase
from repro.obs import critpath_doc
from repro.provenance.bundle import content_digest
from repro.reporting import render_critpath

pytestmark = pytest.mark.bench

RESULTS_DIR = (
    pathlib.Path(__file__).parent.parent.parent / "benchmarks" / "results"
)


#: ``benchmarks/bench_ablations.py`` writes ``ablation_<name>.txt`` from
#: the full-size specs, which no other tier-1 test runs
ABLATION_ARTEFACTS = [
    pytest.param(f"ablation_{spec.name.split('/')[-1]}", spec, id=spec.name)
    for spec in suites.ablations_suite().specs
]


@pytest.mark.parametrize(
    "name, source",
    [("figure10", figure10), ("figure11", figure11), ("usecase", usecase)]
    + ABLATION_ARTEFACTS,
)
def test_artefact_regenerates_byte_identically(name, source):
    committed = RESULTS_DIR / f"{name}.txt"
    if not committed.exists():
        pytest.skip(f"no committed baseline {committed}")
    if isinstance(source, harness.BenchSpec):
        result = harness.run_spec(source)
        assert result.ok, result.error
        regenerated = result.payload["rendered"] + "\n"
    else:
        regenerated = source.run().render() + "\n"
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


#: the scale-smoke grid's critical path: per-layer seconds summed over
#: its three contexts, and the longest context's makespan
SCALE_SMOKE_CRITPATH_LAYERS = {
    "boot": 270.0,
    "converge": 1338.0,
    "execute": 195.59405940594058,
    "queue": 797.0792079207919,
}
SCALE_SMOKE_CRITPATH_MAKESPAN_S = 881.5198019801979
#: content digest of the scale-smoke grid's obs docs: every span, instant,
#: annotation and series sample of its three contexts, in recorded order
SCALE_SMOKE_OBS_DOCS_DIGEST = (
    "7e65369bca3c8a9c7c2e4d4d55ebccede7d173182fa35d52f2be4ff81dd56f34"
)


@pytest.fixture(scope="module")
def scale_smoke_result():
    return harness.run_suite(suites.scale_suite(smoke=True), obs=True)


@pytest.fixture(scope="module")
def scale_smoke_critpath(scale_smoke_result):
    return critpath_doc(scale_smoke_result.obs_docs(), suite="scale")


def test_scale_smoke_obs_docs_are_pinned(scale_smoke_result):
    """The critical-path totals below survive a reordering of spans; this
    digest does not, so it pins span order and every recorded field."""
    assert content_digest(scale_smoke_result.obs_docs()) == SCALE_SMOKE_OBS_DOCS_DIGEST


def test_scale_smoke_critical_path_is_pinned(scale_smoke_critpath):
    """Layer seconds are simulated time, not host time, so the tolerance
    is tight: any drift is a behaviour change, not jitter."""
    doc = scale_smoke_critpath
    assert set(doc["layers"]) == set(SCALE_SMOKE_CRITPATH_LAYERS)
    for layer, seconds in SCALE_SMOKE_CRITPATH_LAYERS.items():
        assert doc["layers"][layer] == pytest.approx(seconds, rel=0, abs=1e-6), layer
    assert doc["makespan_s"] == pytest.approx(
        SCALE_SMOKE_CRITPATH_MAKESPAN_S, rel=0, abs=1e-6
    )


def test_scale_smoke_critical_path_renders_one_row_per_context(scale_smoke_critpath):
    """The summary table never adds contexts up into one makespan: each
    context gets its own row, and the total is labelled as a sum."""
    table = render_critpath(scale_smoke_critpath)
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in table.splitlines()
        if line.startswith("| ")
    ]
    header, *contexts, total = rows
    assert header == [
        "context", "makespan (s)", "converge (s)", "queue (s)", "boot (s)", "execute (s)"
    ]
    assert [row[1] for row in contexts] == ["881.52", "881.52", "837.63"]
    assert all(row[0].startswith("scale/") for row in contexts)
    assert total[:2] == ["sum of 3", "2600.67"]
    assert total[2:] == ["1338.00", "797.08", "270.00", "195.59"]

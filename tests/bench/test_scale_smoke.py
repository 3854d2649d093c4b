"""Tier-1 smoke coverage of the scale benchmark harness.

The full 128-node run is ``gp-bench scale``; here a tiny topology
exercises the same code path — deploy, concurrent transfers, Condor
load, metric collection — in well under a second, and pins that the
simulation metrics are seed-deterministic.
"""

import pytest

from repro.bench import scale

pytestmark = pytest.mark.bench


def test_smoke_config_completes_and_checks_shape():
    result = scale.run(scale.SMOKE_CONFIG)
    result.check_shape()
    assert result.nodes == scale.SMOKE_CONFIG.nodes
    assert result.transfers_succeeded == scale.SMOKE_CONFIG.transfers
    assert result.jobs_completed == scale.SMOKE_CONFIG.jobs


def test_smoke_metrics_are_seed_deterministic():
    a = scale.run(scale.SMOKE_CONFIG)
    b = scale.run(scale.SMOKE_CONFIG)
    assert a.events_processed == b.events_processed
    assert a.peak_queue_depth == b.peak_queue_depth
    assert a.sim_seconds == b.sim_seconds
    assert a.bytes_transferred == b.bytes_transferred


def test_result_json_round_trips():
    import json

    result = scale.run(scale.SMOKE_CONFIG)
    doc = json.loads(result.to_json())
    assert doc["config"]["workers"] == scale.SMOKE_CONFIG.workers
    assert doc["events_processed"] == result.events_processed
    assert doc["peak_queue_depth"] == result.peak_queue_depth

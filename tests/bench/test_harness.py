"""Harness contract: deterministic merge, crash isolation, timeouts.

Everything here must hold on a 1-core host — no test asserts CPU-bound
speedup; concurrency is pinned with sleep-bound (I/O-shaped) tasks that
overlap regardless of core count.
"""

import time

import pytest

from repro.bench import harness, suites
from repro.bench.harness import BenchSpec, BenchSuite, run_spec, run_suite

pytestmark = pytest.mark.bench


def _suite(*specs: BenchSpec) -> BenchSuite:
    return BenchSuite("test", "ad-hoc", tuple(specs))


# ---------------------------------------------------------------------------
# Specs and single-task execution
# ---------------------------------------------------------------------------


def test_spec_round_trips_through_dict():
    spec = BenchSpec("a", "selftest.sleep", {"seconds": 0.01}, timeout_s=5.0)
    assert BenchSpec.from_dict(spec.to_dict()) == spec


def test_run_spec_ok_payload():
    result = run_spec(BenchSpec("s", "selftest.sleep", {"seconds": 0.001}))
    assert result.ok
    assert result.payload == {"slept": 0.001}
    assert result.wall_seconds > 0


def test_run_spec_failure_carries_traceback():
    result = run_spec(BenchSpec("b", "selftest.boom", {"message": "xyzzy"}))
    assert result.status == "failed"
    assert result.payload is None
    assert "RuntimeError: xyzzy" in result.error


def test_run_spec_unknown_task_is_a_failed_record():
    result = run_spec(BenchSpec("nope", "no.such.task"))
    assert result.status == "failed"
    assert "unknown benchmark task" in result.error


# ---------------------------------------------------------------------------
# Merge determinism
# ---------------------------------------------------------------------------


def test_parallel_merge_byte_identical_to_sequential_for_smoke_grid():
    suite = suites.scale_suite(smoke=True)
    seq = run_suite(suite, workers=1)
    par = run_suite(suite, workers=3)
    assert seq.ok and par.ok
    assert seq.sim_json() == par.sim_json()


def test_merge_preserves_spec_order_not_completion_order():
    # the slow task is first; with 2 workers the fast ones finish earlier
    suite = _suite(
        BenchSpec("slow", "selftest.sleep", {"seconds": 0.3}),
        BenchSpec("fast1", "selftest.sleep", {"seconds": 0.01}),
        BenchSpec("fast2", "selftest.sleep", {"seconds": 0.01}),
    )
    result = run_suite(suite, workers=2)
    assert [t.spec.name for t in result.tasks] == ["slow", "fast1", "fast2"]


def _keys(obj) -> set[str]:
    """Every dict key in a JSON document, at any depth."""
    if isinstance(obj, dict):
        return set(obj).union(*(_keys(v) for v in obj.values()))
    if isinstance(obj, list):
        return set().union(*(_keys(v) for v in obj))
    return set()


def test_payloads_carry_no_host_timings():
    """Drivers return simulated results only, so ``sim_dict()`` takes
    every payload as the task returned it."""
    suite = suites.combined(["scale", "pricing_sweep"], smoke=True)
    result = run_suite(suite, workers=1)
    keys = _keys([t.payload for t in result.tasks])
    assert "events_processed" in keys  # the deterministic counters stay
    assert not keys & {"wall_seconds", "events_per_sec", "jobs_per_sec", "speedup_vs_scalar"}
    doc = result.sim_dict()
    assert [t["payload"] for t in doc["tasks"]] == [t.payload for t in result.tasks]
    assert doc["config_digest"] == result.config_digest()


def test_config_digest_tracks_spec_changes():
    a = _suite(BenchSpec("x", "selftest.sleep", {"seconds": 0.1}))
    b = _suite(BenchSpec("x", "selftest.sleep", {"seconds": 0.2}))
    assert a.config_digest() != b.config_digest()
    assert a.config_digest() == _suite(*a.specs).config_digest()


# ---------------------------------------------------------------------------
# Crash isolation and timeouts
# ---------------------------------------------------------------------------


def test_exception_in_worker_does_not_poison_the_pool():
    suite = _suite(
        BenchSpec("boom1", "selftest.boom"),
        BenchSpec("ok1", "selftest.sleep", {"seconds": 0.01}),
        BenchSpec("boom2", "selftest.boom"),
        BenchSpec("ok2", "selftest.sleep", {"seconds": 0.01}),
    )
    result = run_suite(suite, workers=2)
    assert [t.status for t in result.tasks] == ["failed", "ok", "failed", "ok"]
    assert "RuntimeError" in result.tasks[0].error
    assert not result.ok
    assert result.counts() == {"ok": 2, "failed": 2, "timeout": 0}


def test_hard_worker_death_is_isolated_and_reported():
    suite = _suite(
        BenchSpec("dies", "selftest.exit", {"code": 17}),
        BenchSpec("ok1", "selftest.sleep", {"seconds": 0.01}),
        BenchSpec("ok2", "selftest.sleep", {"seconds": 0.01}),
    )
    result = run_suite(suite, workers=2)
    dies, ok1, ok2 = result.tasks
    assert dies.status == "failed"
    assert "worker process died" in dies.error
    assert "17" in dies.error
    assert ok1.ok and ok2.ok


def test_timeout_terminates_the_task_but_not_the_suite():
    suite = _suite(
        BenchSpec("hang", "selftest.sleep", {"seconds": 60}, timeout_s=0.3),
        BenchSpec("ok", "selftest.sleep", {"seconds": 0.01}),
    )
    t0 = time.perf_counter()
    result = run_suite(suite, workers=2)
    wall = time.perf_counter() - t0
    assert wall < 10  # nobody waited for the 60s sleep
    hang, ok = result.tasks
    assert hang.status == "timeout"
    assert "timed out" in hang.error
    assert ok.ok


def test_pool_overlaps_sleep_bound_tasks():
    """Fan-out pins >2x overlap even on a single-core host."""
    naptime = 0.25
    suite = _suite(
        *(BenchSpec(f"s{i}", "selftest.sleep", {"seconds": naptime}) for i in range(4))
    )
    t0 = time.perf_counter()
    result = run_suite(suite, workers=4)
    wall = time.perf_counter() - t0
    assert result.ok
    assert wall < 2 * naptime  # sequential would be >= 4 * naptime


def test_worker_cap_does_not_exceed_spec_count():
    suite = _suite(BenchSpec("only", "selftest.sleep", {"seconds": 0.01}))
    result = run_suite(suite, workers=8)
    assert result.ok and len(result.tasks) == 1


# ---------------------------------------------------------------------------
# Suite registry
# ---------------------------------------------------------------------------


def test_every_registered_suite_builds_in_both_shapes():
    for name in suites.names():
        full = suites.get(name)
        smoke = suites.get(name, smoke=True)
        assert full.specs and smoke.specs
        for spec in full.specs + smoke.specs:
            harness.resolve_task(spec.task)  # raises if unknown


def test_combined_suite_concatenates_in_registry_order():
    combined = suites.combined(smoke=True)
    names = [s.name for s in combined.specs]
    assert names[0].startswith("fig10/")
    assert names[-1].startswith("storage/")
    assert combined.name == "smoke"
    assert suites.combined(["scale"], smoke=True).name == "scale-smoke"


def test_unknown_suite_name_raises():
    with pytest.raises(KeyError):
        suites.get("nope")

"""Kernel semantics: clock, event ordering, processes, run modes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import NULL_RECORDER
from repro.simcore import SimContext, SimEvent, SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(initial_time=100.0)
    assert sim.now == 100.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


@pytest.mark.parametrize("bad", [-0.001, float("nan")])
def test_negative_or_nan_times_rejected(bad):
    """Every way of naming a fire time refuses a past or NaN one.

    NaN compares false against everything, so an unguarded NaN timer
    would fire at an arbitrary heap position and ``run(until=nan)``
    would drain the whole queue and leave the clock at NaN.
    """
    sim = Simulator()
    sim.timeout(2.0)
    with pytest.raises(ValueError):
        sim.timeout(bad)
    with pytest.raises(ValueError):
        sim.call_in(bad, lambda: None)
    with pytest.raises(ValueError):
        # the valid first member must not stay queued either
        sim.schedule_cohort([1.0, bad], lambda cohort, k: None)
    with pytest.raises(ValueError):
        sim.run(until=bad)
    assert sim.queue_depth == 1
    sim.run()
    assert sim.events_processed == 1
    assert sim.now == 2.0


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run()
    assert sim.now == 10.0


def test_run_until_past_raises():
    sim = Simulator(initial_time=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_call_in():
    sim = Simulator(initial_time=10.0)
    seen = []
    sim.call_in(3.0, lambda: seen.append(("a", sim.now)))
    sim.call_in(7.0, lambda: seen.append(("b", sim.now)))
    sim.run()
    assert seen == [("a", 13.0), ("b", 17.0)]


def test_cancelled_timer_defuses_without_firing():
    """The kernel's cancel idiom (defuse a failed event) drains cleanly."""
    sim = Simulator()
    fired = []
    ok = sim.timeout(1.0)
    ok.callbacks.append(lambda ev: fired.append("ok"))
    doomed = sim.event()
    doomed.fail(RuntimeError("cancelled"))
    doomed.defused = True  # nobody will wait on it: swallow the failure
    sim.run()
    assert fired == ["ok"]


def test_events_fire_in_time_order_with_fifo_ties():
    sim = Simulator()
    order = []
    for tag, delay in [("a", 2.0), ("b", 1.0), ("c", 1.0), ("d", 0.5)]:
        sim.call_in(delay, lambda t=tag: order.append(t))
    sim.run()
    assert order == ["d", "b", "c", "a"]


def test_simple_process_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(2.0)
        yield sim.timeout(3.0)
        return "finished"

    p = sim.process(proc())
    result = sim.run(until=p)
    assert result == "finished"
    assert sim.now == 5.0


def test_process_receives_timeout_value():
    sim = Simulator()

    def proc():
        got = yield sim.timeout(1.0, value="payload")
        return got

    assert sim.run(until=sim.process(proc())) == "payload"


def test_process_waits_on_event_succeeded_by_other_process():
    sim = Simulator()
    gate = sim.event()
    trace = []

    def waiter():
        value = yield gate
        trace.append(("woke", sim.now, value))

    def opener():
        yield sim.timeout(4.0)
        gate.succeed("open!")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert trace == [("woke", 4.0, "open!")]


def test_event_failure_propagates_into_process():
    sim = Simulator()
    gate = sim.event()

    def failer():
        yield sim.timeout(1.0)
        gate.fail(RuntimeError("boom"))

    def waiter():
        with pytest.raises(RuntimeError, match="boom"):
            yield gate
        return "handled"

    sim.process(failer())
    p = sim.process(waiter())
    assert sim.run(until=p) == "handled"


def test_unhandled_event_failure_raises_at_kernel():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("nobody caught me"))
    with pytest.raises(ValueError, match="nobody caught me"):
        sim.run()


def test_run_until_failed_process_reraises():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise KeyError("inside process")

    p = sim.process(bad())
    with pytest.raises(KeyError):
        sim.run(until=p)


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_run_until_event_runs_callbacks_added_after_run_began():
    """A process that starts waiting on ``ev`` mid-run resumes when it
    fires, before ``run(until=ev)`` returns, not never."""
    sim = Simulator()
    ev = sim.timeout(5.0, value="x")
    seen = []

    def late_waiter():
        yield sim.timeout(1.0)
        value = yield ev  # registers behind run()'s stop hook
        seen.append((value, sim.now))

    sim.process(late_waiter())
    assert sim.run(until=ev) == "x"
    assert seen == [("x", 5.0)]
    sim.run()
    assert seen == [("x", 5.0)]


def test_run_until_event_that_never_fired_leaves_no_stale_hook():
    """A run that drains before ``ev`` fires unhooks, so a later
    ``run(until=ev)`` returns ``ev``'s value instead of ``None``."""
    sim = Simulator()
    ev = sim.event()
    sim.timeout(2.0)
    with pytest.raises(SimulationError, match="drained"):
        sim.run(until=ev)

    def opener():
        yield sim.timeout(1.0)
        ev.succeed("late")

    sim.process(opener())
    assert sim.run(until=ev) == "late"
    assert sim.now == 3.0


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42  # type: ignore[misc]

    p = sim.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        sim.run(until=p)


def test_process_exception_fails_process_event():
    """A raising process fails its event; waiters receive the exception."""
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("process exploded")

    def waiter():
        try:
            yield sim.process(bad())
        except ValueError as exc:
            return f"caught: {exc}"

    assert sim.run(until=sim.process(waiter())) == "caught: process exploded"


def test_unwaited_process_exception_surfaces_at_kernel():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("nobody is watching")

    sim.process(bad())
    with pytest.raises(ValueError, match="nobody is watching"):
        sim.run()


def test_condition_defuses_simultaneous_failures():
    """Two processes failing at the same instant: AllOf handles both."""
    sim = Simulator()

    def bad(tag):
        yield sim.timeout(5.0)
        raise RuntimeError(tag)

    def waiter():
        try:
            yield sim.all_of([sim.process(bad("a")), sim.process(bad("b"))])
        except RuntimeError as exc:
            return str(exc)

    result = sim.run(until=sim.process(waiter()))
    assert result in ("a", "b")
    sim.run()  # the second failure must not crash the drained kernel


def test_all_of_waits_for_every_event():
    sim = Simulator()

    def proc():
        t1 = sim.timeout(2.0, "a")
        t2 = sim.timeout(5.0, "b")
        results = yield sim.all_of([t1, t2])
        return sorted(results.values())

    p = sim.process(proc())
    assert sim.run(until=p) == ["a", "b"]
    assert sim.now == 5.0


def test_any_of_fires_on_first():
    sim = Simulator()

    def proc():
        t1 = sim.timeout(2.0, "fast")
        t2 = sim.timeout(9.0, "slow")
        results = yield sim.any_of([t1, t2])
        return list(results.values())

    p = sim.process(proc())
    assert sim.run(until=p) == ["fast"]
    assert sim.now == 2.0


def test_all_of_empty_triggers_immediately():
    sim = Simulator()

    def proc():
        res = yield sim.all_of([])
        return res

    assert sim.run(until=sim.process(proc())) == {}


def test_nested_processes_compose():
    sim = Simulator()

    def child(d):
        yield sim.timeout(d)
        return d * 2

    def parent():
        a = yield sim.process(child(3.0))
        b = yield sim.process(child(4.0))
        return a + b

    assert sim.run(until=sim.process(parent())) == 14.0
    assert sim.now == 7.0


def test_context_instant_records_time_and_attrs():
    ctx = SimContext(seed=1, obs=True)
    ctx.sim.call_in(2.5, lambda: ctx.obs.instant("unit.tick", track="unit", n=1))
    ctx.sim.run()
    ticks = [i for i in ctx.obs.instants if i["name"] == "unit.tick"]
    assert ticks == [{"name": "unit.tick", "track": "unit", "time": 2.5, "attrs": {"n": 1}}]
    # obs off: the shared null recorder keeps nothing
    off = SimContext(seed=1)
    assert off.obs is NULL_RECORDER
    off.sim.call_in(2.5, lambda: off.obs.instant("unit.tick", track="unit", n=1))
    off.sim.run()
    assert NULL_RECORDER.instants == [] and NULL_RECORDER.to_dict()["instants"] == []


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_property_events_processed_in_nondecreasing_time(delays):
    """Regardless of insertion order, observed firing times are sorted."""
    sim = Simulator()
    seen = []
    for d in delays:
        sim.call_in(d, lambda: seen.append(sim.now))
    sim.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)
    assert sim.now == max(delays)


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=100), st.integers(0, 4)),
        min_size=1,
        max_size=30,
    )
)
def test_property_equal_time_events_fifo(pairs):
    """Events at identical times run in insertion order."""
    sim = Simulator()
    seen = []
    for idx, (t, _) in enumerate(pairs):
        sim.call_in(float(t), lambda i=idx, tt=t: seen.append((tt, i)))
    sim.run()
    # Within each timestamp, insertion indices must be increasing.
    by_time: dict[int, list[int]] = {}
    for t, i in seen:
        by_time.setdefault(t, []).append(i)
    for indices in by_time.values():
        assert indices == sorted(indices)


def test_counters_persist_across_run_calls():
    """events_processed / peak_queue_depth accumulate over staged runs."""
    sim = Simulator()
    for t in (1.0, 2.0, 3.0, 4.0):
        sim.call_in(t, lambda: None)
    sim.run(until=2.0)
    mid = sim.events_processed
    assert mid >= 2
    peak_mid = sim.peak_queue_depth
    sim.run()
    assert sim.events_processed > mid  # accumulated, not reset
    assert sim.peak_queue_depth >= peak_mid

    # a staged scenario reports the same totals as one uninterrupted drain
    whole = Simulator()
    for t in (1.0, 2.0, 3.0, 4.0):
        whole.call_in(t, lambda: None)
    whole.run()
    assert sim.events_processed == whole.events_processed
    assert sim.peak_queue_depth == whole.peak_queue_depth


def test_queue_depth_counts_staged_flushed_and_immediate_events():
    """Depths across the staged -> flushed -> drained lifecycle.

    Zero-delay FIFO events and staged timers not yet sifted into the
    heap both count, and forcing the flush changes nothing.
    """
    sim = Simulator()
    for _ in range(3):
        sim.timeout(0.0)  # zero-delay FIFO (immediate deque)
    for i in range(4):
        sim.timeout(1.0 + i)  # staged timers, not yet flushed
    sim.timeout(1e9)
    staged = sim.queue_depth
    sim._flush_pending()  # sift the staged timers into the heap
    flushed = sim.queue_depth
    sim.run()
    assert (staged, flushed) == (8, 8)
    assert (sim.events_processed, sim.queue_depth, sim.peak_queue_depth) == (8, 0, 8)


def test_peak_queue_depth_counts_every_pending_timer():
    sim = Simulator()
    for i in range(50):
        sim.timeout((i * 7919) % 100 * 0.5)
    sim.timeout(1e12)
    sim.run()
    assert (sim.peak_queue_depth, sim.events_processed) == (51, 51)


def test_obs_records_one_kernel_run_span_per_call():
    from repro.obs import ObsRecorder

    sim = Simulator()
    rec = ObsRecorder(label="k", clock=lambda: sim.now)
    sim.obs = rec
    sim.call_in(1.0, lambda: None)
    sim.call_in(2.0, lambda: None)
    sim.run(until=1.5)
    sim.run()
    spans = [s for s in rec.spans if s.name == "kernel.run"]
    assert len(spans) == 2
    assert [s.attrs["events"] for s in spans] == [1, 1]
    assert sum(s.attrs["events"] for s in spans) == sim.events_processed

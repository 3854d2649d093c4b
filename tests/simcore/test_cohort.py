"""Cohort event execution: unit contracts plus differential fuzzing.

The contract under test is the one ``repro.simcore.cohort`` documents: a
cohort behaves exactly like one plain ``sim.timeout`` per member,
registered in index order, whose callback applies that member.  The
fuzz suite drives randomly interleaved cohorts and plain timers through
both forms and demands identical member application traces,
``events_processed``, and ``peak_queue_depth``, whether a cohort's
``done`` is read before the run, first read from inside one of its
applies, or never read.
"""

from __future__ import annotations

import gc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import ObsRecorder
from repro.simcore import LAZY, Simulator
from repro.simcore.cohort import EventCohort, _CohortMember

#: collision-rich delay grid: repeated values force same-timestamp runs
DELAY_GRID = (0.0, 0.25, 0.25, 0.25, 0.5, 1.0, 1.0, 2.0)

#: when a program reads a cohort's ``done``: right after registering it,
#: from inside the first of its applies to run, or never
READS = ("before", "apply", "never")

PROGRAM = st.lists(
    st.tuples(
        st.sampled_from(["cohort", "timers"]),
        st.lists(st.sampled_from(DELAY_GRID), min_size=0, max_size=10),
        st.sampled_from(READS),
    ),
    min_size=1,
    max_size=8,
)


def _timer_cohort(sim, times, apply):
    """The oracle: one plain timer per member plus a ``done`` event,
    mirroring the cohort's registration order and completion.  ``apply``
    gets a stand-in whose ``done`` is that event in place of the cohort."""
    done = sim.event()
    if not times:
        done.succeed()
        return done
    remaining = [len(times)]
    stand_in = SimpleNamespace(done=done)

    def fire(k):
        apply(stand_in, k)
        remaining[0] -= 1
        if remaining[0] == 0:
            done.succeed()

    for k, t in enumerate(times):
        sim.timeout(t - sim.now).callbacks.append(lambda _e, k=k: fire(k))
    return done


def _run_program(program, use_cohorts: bool, chained: bool = False):
    """Execute a mixed cohort/timer program; return its observable state.

    ``use_cohorts=False`` swaps every cohort for :func:`_timer_cohort`.
    ``chained=True`` makes every member's apply schedule a follow-up
    timer, exercising depth accounting while members fan out new work.
    """
    sim = Simulator()
    trace: list[tuple] = []
    dones = []

    def watch(done, idx):
        dones.append(done)
        done.callbacks.append(lambda _e: trace.append((sim.now, "done", idx)))

    for idx, (kind, delays, read) in enumerate(program):
        if kind == "cohort":
            unread = [read == "apply"]

            def apply(cohort, k, idx=idx, unread=unread):
                trace.append((sim.now, "member", idx, k))
                if unread[0]:
                    unread[0] = False
                    watch(cohort.done, idx)
                if chained:
                    ev = sim.timeout(0.25)
                    ev.callbacks.append(
                        lambda e, idx=idx, k=k: trace.append(
                            (sim.now, "chained", idx, k)
                        )
                    )

            if use_cohorts:
                cohort = sim.schedule_cohort(list(delays), apply)
                done = cohort.done if read == "before" else None
            else:
                oracle = _timer_cohort(sim, list(delays), apply)
                done = oracle if read == "before" else None
            if done is not None:
                if delays:
                    watch(done, idx)
                else:  # an empty cohort's ``done`` has already happened
                    dones.append(done)
        else:
            for j, delay in enumerate(delays):
                ev = sim.timeout(delay)
                ev.callbacks.append(
                    lambda e, idx=idx, j=j: trace.append((sim.now, "timer", idx, j))
                )
    sim.run()
    assert all(done.triggered for done in dones)
    return trace, sim.events_processed, sim.peak_queue_depth


@given(program=PROGRAM)
@settings(max_examples=60, deadline=None)
def test_differential_fuzz_against_plain_timers(program):
    """Trace/counters/depth identical to one plain timer per member."""
    assert _run_program(program, True) == _run_program(program, False)


@given(program=PROGRAM)
@settings(max_examples=30, deadline=None)
def test_differential_fuzz_with_scheduling_applies(program):
    """Same equivalence when every member's apply schedules new work."""
    assert _run_program(program, True, chained=True) == _run_program(
        program, False, chained=True
    )


# ---------------------------------------------------------------------------
# The drain's two insert paths
# ---------------------------------------------------------------------------

#: far-future timers that keep at least this many entries on the heap
#: while the program runs, so a batch of one or two staged entries is
#: always under an eighth of it and sifts in one entry at a time
BALLAST = 24

#: one item a batch schedules, each staging exactly one timed entry (the
#: zero-delay timer, which takes the FIFO instead, rides along with one)
ONE_ENTRY_ITEM = st.one_of(
    st.tuples(st.just("timer"), st.sampled_from((0.25, 0.5, 1.0, 2.0))),
    st.tuples(st.just("lazy"), st.just(0.0)),
    st.tuples(st.just("cohort"), st.lists(st.sampled_from(DELAY_GRID), min_size=1, max_size=1)),
    st.tuples(st.just("timer+fifo"), st.sampled_from((0.25, 1.0))),
)
BULK_ITEM = st.one_of(
    ONE_ENTRY_ITEM,
    st.tuples(st.just("cohort"), st.lists(st.sampled_from(DELAY_GRID), min_size=2, max_size=4)),
)
#: a trickle batch (one or two staged entries) and a bulk one (at least
#: eight, more than an eighth of the heap the first bulk batch finds)
TRICKLE_BATCH = st.lists(ONE_ENTRY_ITEM, min_size=1, max_size=2)
BULK_BATCH = st.lists(BULK_ITEM, min_size=8, max_size=14)
INSERT_PROGRAM = st.tuples(
    BULK_BATCH,
    TRICKLE_BATCH,
    st.lists(
        st.tuples(
            st.sampled_from((0.5, 1.0, 1.0, 2.0, 3.0)),
            st.one_of(TRICKLE_BATCH, BULK_BATCH),
        ),
        max_size=5,
    ),
)


def _run_batches(program, use_cohorts: bool):
    """Run a program of batches, each scheduled by one driver timer's
    callback; returns the labels in fire order, the labels in reference
    order (sorted by time, priority, scheduling order),
    ``events_processed`` and ``peak_queue_depth``.

    ``use_cohorts=False`` swaps every cohort for :func:`_timer_cohort`.
    Only NORMAL timers schedule, so nothing is scheduled to sort before
    an event that already fired and the reference sort is the fire order.
    """
    sim = Simulator()
    fired: list[tuple] = []
    expected: list[tuple] = []  # (time, priority, seq, label)

    def note(time, priority, label):
        expected.append((time, priority, len(expected), label))

    def schedule(b, batch):
        now = sim.now
        for i, (kind, arg) in enumerate(batch):
            label = (b, i)
            if kind == "lazy":
                note(now, 1, label)
                sim.event().succeed(priority=LAZY).callbacks.append(
                    lambda _e, label=label: fired.append(label)
                )
            elif kind == "cohort":
                times = [now + d for d in arg]
                for k, t in enumerate(times):
                    note(t, 0, label + (k,))

                def apply(_c, k, label=label):
                    fired.append(label + (k,))

                if use_cohorts:
                    sim.schedule_cohort(times, apply)
                else:
                    _timer_cohort(sim, times, apply)
            else:
                extra = [0.0] if kind == "timer+fifo" else []
                for j, delay in enumerate([arg] + extra):
                    note(now + delay, 0, label + (j,))
                    sim.timeout(delay).callbacks.append(
                        lambda _e, lab=label + (j,): fired.append(lab)
                    )

    first_bulk, first_trickle, rest = program
    drivers = [(0.25, first_bulk), (0.5, first_trickle)] + list(rest)
    for b, (at, batch) in enumerate(drivers):
        sim.call_in(at, lambda b=b, batch=batch: schedule(b, batch))
    for i in range(BALLAST):
        sim.timeout(100.0 + i)
    sim.run()
    reference = [e[3] for e in sorted(expected)]
    return fired, reference, sim.events_processed, sim.peak_queue_depth


@given(program=INSERT_PROGRAM)
@settings(max_examples=60, deadline=None)
def test_trickle_and_bulk_inserts_fire_in_key_order(program):
    """Batches under an eighth of the heap sift in one by one in the
    drain loop, larger ones heapify in ``_flush_pending``: both paths
    run, the fire order is the reference sort by (time, priority,
    insertion order), and the counts match the same program built from
    plain timers."""
    from repro.simcore import kernel

    trickle = [0]
    bulk = [0]
    push = kernel.heappush
    flush = Simulator._flush_pending

    def counting_push(queue, entry):
        trickle[0] += 1
        push(queue, entry)

    def counting_flush(self):
        if self._queue:  # a merge into a live heap, not the first load
            bulk[0] += 1
        flush(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "heappush", counting_push)
        mp.setattr(Simulator, "_flush_pending", counting_flush)
        fired, reference, events, peak = _run_batches(program, True)
    assert trickle[0] > 0 and bulk[0] > 0
    assert fired == reference
    plain_fired, _, plain_events, plain_peak = _run_batches(program, False)
    assert plain_fired == fired
    assert (events, peak) == (plain_events, plain_peak)


# ---------------------------------------------------------------------------
# Unit contracts
# ---------------------------------------------------------------------------


def test_members_apply_in_index_order():
    sim = Simulator()
    seen = []
    cohort = sim.schedule_cohort([1.0, 1.0, 1.0, 2.0], lambda c, k: seen.append(k))
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert cohort.done.triggered
    assert cohort.done.value is None
    assert sim.events_processed == 5  # 4 members + the done event


def test_empty_cohort_done_fires_without_running():
    sim = Simulator()
    cohort = sim.schedule_cohort([], lambda c, k: pytest.fail("no members"))
    assert cohort.done.triggered
    assert cohort.size == 0
    sim.run()
    assert sim.events_processed == 1  # only the done event itself


def test_past_fire_time_rejected():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(ValueError, match="in the past"):
        sim.schedule_cohort([4.0], lambda c, k: None)


def test_registration_depth_counts_members():
    sim = Simulator()
    sim.schedule_cohort([1.0] * 8, lambda c, k: None)
    assert sim.queue_depth == 8


def test_done_first_read_after_the_cohort_finished_is_processed():
    """A ``done`` nobody read while the cohort ran is built on first read,
    already processed, with value ``None``; the completion it stands for
    was counted when the last member fired."""
    sim = Simulator()
    cohort = sim.schedule_cohort([1.0, 2.0], lambda c, k: None)
    sim.run()
    assert sim.events_processed == 3
    done = cohort.done
    assert done is cohort.done
    assert done.processed and done.ok and done.value is None
    assert sim.run(until=done) is None
    assert sim.events_processed == 3


def test_done_awaitable_from_process():
    sim = Simulator()
    got = []

    def waiter():
        cohort = sim.schedule_cohort([1.0, 2.0], lambda c, k: None)
        value = yield cohort.done
        got.append((value, sim.now))

    sim.process(waiter())
    sim.run()
    assert len(got) == 1
    assert got[0][1] == 2.0


def test_finished_cohorts_die_by_refcount():
    """The kernel pauses the cyclic collector while it drains, so every
    object a drain leaves in a reference cycle waits for one deferred
    collection that walks everything the drain allocated.  A finished
    cohort and its members must die by refcount, not by that walk."""
    enabled, flags, before = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.collect()
    gc.disable()
    try:
        sim = Simulator()

        def waiter():
            yield sim.schedule_cohort([1.0, 2.0], lambda c, k: None).done

        sim.process(waiter())
        for times in ([0.5, 1.0, 1.0], [], [3.0]):
            sim.schedule_cohort(times, lambda c, k: None)
        sim.run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = [
            type(o).__name__
            for o in gc.garbage[before:]
            if isinstance(o, (EventCohort, _CohortMember))
        ]
    finally:
        gc.set_debug(flags)
        del gc.garbage[before:]
        if enabled:
            gc.enable()
    assert left == []


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def _metered_sim():
    sim = Simulator()
    rec = ObsRecorder(label="cohort-test", clock=lambda: sim.now)
    sim.obs = rec
    return sim, rec


def test_obs_does_not_change_simulation_results():
    def scenario(sim):
        seen = []
        sim.schedule_cohort([1.0, 1.0, 2.0], lambda c, k: seen.append(k))
        sim.run()
        return seen, sim.events_processed, sim.peak_queue_depth, sim.now

    plain = Simulator()
    metered, _rec = _metered_sim()
    assert scenario(plain) == scenario(metered)

"""Cohort event execution: unit contracts plus differential fuzzing.

The contract under test is the one ``repro.simcore.cohort`` documents: a
cohort behaves exactly like one plain ``sim.timeout`` per member,
registered in index order, whose callback applies that member.  The
fuzz suite drives randomly interleaved cohorts and plain timers through
both forms and demands identical member application traces,
``events_processed``, and ``peak_queue_depth``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import ObsRecorder
from repro.simcore import Simulator

#: collision-rich delay grid: repeated values force same-timestamp runs
DELAY_GRID = (0.0, 0.25, 0.25, 0.25, 0.5, 1.0, 1.0, 2.0)

PROGRAM = st.lists(
    st.tuples(
        st.sampled_from(["cohort", "timers"]),
        st.lists(st.sampled_from(DELAY_GRID), min_size=0, max_size=10),
    ),
    min_size=1,
    max_size=8,
)


def _timer_cohort(sim, times, apply):
    """The oracle: one plain timer per member plus a ``done`` event,
    mirroring the cohort's registration order and completion."""
    done = sim.event()
    if not times:
        done.succeed()
        return done
    remaining = [len(times)]

    def fire(k):
        apply(None, k)
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
    for idx, (kind, delays) in enumerate(program):
        if kind == "cohort":

            def apply(_cohort, k, idx=idx):
                trace.append((sim.now, "member", idx, k))
                if chained:
                    ev = sim.timeout(0.25)
                    ev.callbacks.append(
                        lambda e, idx=idx, k=k: trace.append(
                            (sim.now, "chained", idx, k)
                        )
                    )

            if use_cohorts:
                cohort = sim.schedule_cohort(list(delays), apply)
                dones.append(cohort.done)
            else:
                dones.append(_timer_cohort(sim, list(delays), apply))
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
# Unit contracts
# ---------------------------------------------------------------------------


def test_members_apply_in_index_order():
    sim = Simulator()
    seen = []
    cohort = sim.schedule_cohort([1.0, 1.0, 1.0, 2.0], lambda c, k: seen.append(k))
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert cohort.done.triggered
    assert cohort.done.value is cohort
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

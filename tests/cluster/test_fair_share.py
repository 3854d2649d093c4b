"""Condor user fair-share scheduling."""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CondorPool, JobState, MachineAd
from repro.simcore import SimContext


def make_pool():
    ctx = SimContext(seed=50)
    pool = CondorPool(ctx, negotiation_interval_s=5.0)
    pool.add_machine(MachineAd(name="m", cores=1, memory_gb=8.0, cpu_factor=1.0))
    return ctx, pool


def completion_owners(ctx, pool, jobs):
    ctx.sim.run(until=ctx.sim.all_of([pool.when_done(j) for j in jobs]))
    done = sorted(jobs, key=lambda j: j.end_time)
    return [j.owner for j in done]


def test_fair_share_alternates_users():
    ctx, pool = make_pool()
    jobs = [pool.submit(cpu_work=10.0, owner="alice") for _ in range(3)]
    jobs += [pool.submit(cpu_work=10.0, owner="bob") for _ in range(3)]
    order = completion_owners(ctx, pool, jobs)
    # after the first job, users alternate rather than draining alice first
    assert order != ["alice"] * 3 + ["bob"] * 3
    assert order[:4].count("bob") >= 2


def test_usage_accounting():
    ctx, pool = make_pool()
    j1 = pool.submit(cpu_work=25.0, owner="alice", io_work=5.0)
    ctx.sim.run(until=pool.when_done(j1))
    assert pool.usage_by_owner["alice"] == pytest.approx(30.0)


def test_heavy_user_yields_to_new_user():
    ctx, pool = make_pool()
    heavy = [pool.submit(cpu_work=50.0, owner="hog") for _ in range(4)]
    ctx.sim.run(until=pool.when_done(heavy[0]))
    newcomer = pool.submit(cpu_work=10.0, owner="newbie")
    ctx.sim.run(until=pool.when_done(newcomer))
    # the newcomer did not wait for all of hog's queue
    still_idle = [j for j in heavy if j.state == JobState.IDLE]
    assert len(still_idle) >= 1


# -- differential: the owner heap vs the stable sort it implements ------------
#
# The negotiator's _match_order walks a persistent lazy heap of idle
# owners, expanding one owner's bucket at a time, so a traversal costs
# O((jobs yielded + stale entries) log owners).  Its specification is a
# stable sort of the (submit_time, id)-ordered idle queue on accumulated
# usage.  These tests keep both in lockstep.


def idle_reference(pool):
    """Idle jobs in (submit_time, id) order, scanned from every job ever
    submitted, so the reference shares no index with the code under test."""
    return sorted(
        (j for j in pool.schedd.jobs.values() if j.state == JobState.IDLE),
        key=lambda j: (j.submit_time, j.id),
    )


def fair_share_reference(pool):
    """The O(jobs log jobs) specification of fair-share match order."""
    usage = pool.usage_by_owner
    return sorted(idle_reference(pool), key=lambda j: usage.get(j.owner, 0.0))


def assert_idle_counters_match_reference(pool):
    """The schedd's O(1) idle views agree with a full scan."""
    idle = idle_reference(pool)
    schedd = pool.schedd
    assert schedd.idle_count() == len(idle)
    assert schedd.has_idle() == bool(idle)
    # a running float sum, so compare approximately
    assert schedd.idle_work == pytest.approx(
        sum(j.cpu_work + j.io_work for j in idle)
    )


def assert_matches_reference(pool):
    got = [j.id for j in pool._match_order()]
    want = [j.id for j in fair_share_reference(pool)]
    assert got == want
    assert_owner_heap_exact(pool)


def assert_owner_heap_exact(pool):
    """After a full traversal the owner heap holds one current entry per
    idle owner and nothing else, so orphaned entries cannot pile up."""
    usage = pool.usage_by_owner
    heads = {}
    for job in idle_reference(pool):
        heads.setdefault(job.owner, job)
    want = sorted(
        (usage.get(owner, 0.0), head.submit_time, head.id, owner)
        for owner, head in heads.items()
    )
    assert sorted(pool._owner_heap) == want


def test_match_order_matches_stable_usage_sort_reference():
    ctx, pool = make_pool()
    pool.add_machine(MachineAd(name="m2", cores=2, memory_gb=8.0, cpu_factor=1.0))
    for i, owner in enumerate("abacbaccb"):
        pool.submit(cpu_work=5.0 + i, owner=owner)
    assert_matches_reference(pool)  # nobody has usage yet
    for until in (7.0, 13.0, 22.0):  # usage diverges as jobs complete
        ctx.sim.run(until=until)
        assert_matches_reference(pool)


def test_equal_usage_owners_merge_by_submission_order():
    """Owners in one usage group interleave exactly as a stable sort would."""
    ctx, pool = make_pool()
    jobs = [
        pool.submit(cpu_work=1.0, owner=o)
        for o in ("u1", "u2", "u3", "u1", "u2", "u3", "u2", "u1")
    ]
    assert [j.id for j in pool._match_order()] == [j.id for j in jobs]


def test_match_order_consistent_after_eviction_requeue():
    """``drain=False`` eviction requeues through the dirty-owner path."""
    ctx, pool = make_pool()
    jobs = [
        pool.submit(cpu_work=20.0, owner=o)
        for o in ("alice", "bob", "alice", "bob")
    ]
    ctx.sim.run(until=3.0)  # alice's first job is mid-run on "m"
    running = [j for j in jobs if j.state == JobState.RUNNING]
    assert running
    pool.remove_machine("m", drain=False)  # evict: back to idle, dirty owner
    ctx.sim.run(until=ctx.sim.timeout(0.0))  # settle this instant's events
    assert all(j.state == JobState.IDLE for j in jobs)
    assert_matches_reference(pool)
    pool.add_machine(MachineAd(name="m2", cores=1, memory_gb=8.0, cpu_factor=1.0))
    ctx.sim.run(until=ctx.sim.all_of([pool.when_done(j) for j in jobs]))
    assert all(j.state == JobState.COMPLETED for j in jobs)
    assert not pool.schedd._idle_by_owner  # every owner bucket retired
    assert_idle_counters_match_reference(pool)


OWNERS = [f"u{i:02d}" for i in range(40)]

step_st = st.one_of(
    st.tuples(st.just("run"), st.floats(min_value=0.5, max_value=12.0)),
    st.tuples(st.just("evict")),
    st.tuples(st.just("rm"), st.integers(min_value=0, max_value=10_000)),
    st.tuples(
        st.just("submit"),
        st.lists(st.sampled_from(OWNERS), min_size=1, max_size=8),
    ),
)


@given(
    pattern=st.lists(st.sampled_from(OWNERS), min_size=1, max_size=60),
    steps=st.lists(
        st.tuples(step_st, st.integers(min_value=0, max_value=6)), max_size=10
    ),
)
@settings(max_examples=60, deadline=None)
def test_property_match_order_tracks_reference_through_time(pattern, steps):
    """Up to 40 owners, so singleton and large equal-usage groups both
    occur, through completions, eviction requeues, ``condor_rm`` of idle
    jobs and new submits.  Before each full traversal a partial one takes
    ``k`` jobs and abandons the generator, as the negotiation cycle does
    when it runs out of free slots.  After every step the schedd's idle
    count, ``has_idle`` and idle work match a scan of all jobs."""
    ctx, pool = make_pool()
    pool.add_machine(MachineAd(name="m2", cores=3, memory_gb=8.0, cpu_factor=1.0))
    n = 0

    def submit(owners):
        nonlocal n
        for owner in owners:
            pool.submit(cpu_work=2.0 + (n % 5), owner=owner)
            n += 1

    submit(pattern)
    assert_matches_reference(pool)
    assert_idle_counters_match_reference(pool)
    for (kind, *args), k in steps:
        if kind == "run":
            ctx.sim.run(until=ctx.now + args[0])
        elif kind == "evict":
            # running jobs requeue ahead of their owners' idle ones
            pool.remove_machine("m2", drain=False)
            pool.add_machine(
                MachineAd(name="m2", cores=3, memory_gb=8.0, cpu_factor=1.0)
            )
        elif kind == "rm":
            idle = idle_reference(pool)
            if idle:
                pool.remove_job(idle[args[0] % len(idle)])
        else:
            submit(args[0])
        assert_idle_counters_match_reference(pool)
        want = [j.id for j in fair_share_reference(pool)]
        assert [j.id for j in islice(pool._match_order(), k)] == want[:k]
        assert_matches_reference(pool)

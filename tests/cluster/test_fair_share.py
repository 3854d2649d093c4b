"""Condor user fair-share scheduling."""

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
# The negotiation cycle walks a persistent lazy heap of idle owners, one
# owner's next idle job at a time, so a cycle costs O((jobs considered +
# stale entries) log owners), plus one pass over the heap when it steps
# over a job.  Its specification is a stable sort of the (submit_time,
# id)-ordered idle queue on accumulated usage.  These tests read the
# order off real claims and keep both in lockstep.

#: no machine in these pools has this much memory: never claimed
UNMATCHABLE_GB = 64.0


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


def claimable_reference(pool):
    """Ids of the jobs a machine can claim, in fair-share order."""
    return [
        j.id for j in fair_share_reference(pool) if j.req_memory_gb < UNMATCHABLE_GB
    ]


def probe_claims(ctx, pool, k):
    """Ids of the jobs the next cycle claims first, up to ``k``.

    A ``k``-core probe machine that outranks every other machine joins,
    and the cycle at this instant gives it each job it reaches until the
    probe is full.  Slots are claimed lowest first, so ``busy[i]`` is the
    i-th claim.  The caller removes the probe with ``drain=False``, which
    sends its jobs back to IDLE through the eviction requeue path."""
    probe = pool.add_machine(
        MachineAd(name="probe", cores=k, memory_gb=8.0, cpu_factor=100.0)
    )
    ctx.sim.run(until=ctx.now)  # every event of this instant, the cycle last
    return [probe.busy[slot].id for slot in range(len(probe.busy))]


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


def assert_matches_reference(ctx, pool):
    """One cycle with a probe that has room for every claimable job (and
    a slot to spare, so the cycle considers every idle job) claims them
    all in fair-share order."""
    want = claimable_reference(pool)
    assert probe_claims(ctx, pool, len(want) + 1) == want
    assert_owner_heap_exact(pool)
    pool.remove_machine("probe", drain=False)


def assert_owner_heap_exact(pool):
    """After a cycle that considered every idle job, the owner heap holds
    one current entry per idle owner and nothing else, so orphaned
    entries cannot pile up."""
    usage = pool.usage_by_owner
    heads = {}
    for job in idle_reference(pool):
        heads.setdefault(job.owner, job)
    want = sorted(
        (usage.get(owner, 0.0), head.submit_time, head.id, owner)
        for owner, head in heads.items()
    )
    assert sorted(pool._owner_heap) == want


def test_claims_match_stable_usage_sort_reference():
    ctx, pool = make_pool()
    pool.add_machine(MachineAd(name="m2", cores=2, memory_gb=8.0, cpu_factor=1.0))
    for i, owner in enumerate("abacbaccb"):
        pool.submit(
            cpu_work=5.0 + i,
            owner=owner,
            req_memory_gb=UNMATCHABLE_GB if i in (2, 7) else 0.0,
        )
    assert_matches_reference(ctx, pool)  # nobody has usage yet
    for until in (7.0, 13.0, 22.0):  # usage diverges as jobs complete
        ctx.sim.run(until=until)
        assert_matches_reference(ctx, pool)


def test_equal_usage_owners_merge_by_submission_order():
    """Owners in one usage group interleave exactly as a stable sort would."""
    ctx, pool = make_pool()
    jobs = [
        pool.submit(cpu_work=1.0, owner=o)
        for o in ("u1", "u2", "u3", "u1", "u2", "u3", "u2", "u1")
    ]
    assert probe_claims(ctx, pool, len(jobs)) == [j.id for j in jobs]


def test_claims_consistent_after_eviction_requeue():
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
    assert_matches_reference(ctx, pool)
    pool.add_machine(MachineAd(name="m2", cores=1, memory_gb=8.0, cpu_factor=1.0))
    ctx.sim.run(until=ctx.sim.all_of([pool.when_done(j) for j in jobs]))
    assert all(j.state == JobState.COMPLETED for j in jobs)
    assert not pool.schedd._idle_by_owner  # every owner bucket retired
    assert_idle_counters_match_reference(pool)


def test_stepped_over_owner_keeps_one_heap_entry():
    """A cycle that steps over an owner's head and then runs out of free
    slots re-enters the owner at its head without leaving its later entry
    behind, so the heap does not grow by one entry per such cycle."""
    ctx, pool = make_pool()  # one single-core machine
    stuck = pool.submit(cpu_work=1.0, owner="x", req_memory_gb=UNMATCHABLE_GB)
    jobs = [pool.submit(cpu_work=1.0, owner="x") for _ in range(20)]
    ctx.sim.run(until=pool.when_done(jobs[-1]))
    assert stuck.state == JobState.IDLE
    # one entry, keyed on the stuck head (its usage may lag: keys are lazy)
    assert [entry[2:] for entry in pool._owner_heap] == [(stuck.id, "x")]


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
        st.tuples(step_st, st.integers(min_value=1, max_value=6)), max_size=10
    ),
)
@settings(max_examples=60, deadline=None)
def test_property_claims_track_reference_through_time(pattern, steps):
    """Up to 40 owners, so singleton and large equal-usage groups both
    occur, through completions, eviction requeues, ``condor_rm`` of idle
    jobs and new submits; every seventh job fits no machine, so cycles
    step over jobs.  After each step a ``k``-slot probe takes the first
    ``k`` claims, as a cycle does when it runs out of free slots, then
    a probe with room for every job checks the whole order.  After every
    step the schedd's idle count, ``has_idle`` and idle work match a scan
    of all jobs."""
    ctx, pool = make_pool()
    pool.add_machine(MachineAd(name="m2", cores=3, memory_gb=8.0, cpu_factor=1.0))
    n = 0

    def submit(owners):
        nonlocal n
        for owner in owners:
            pool.submit(
                cpu_work=2.0 + (n % 5),
                owner=owner,
                req_memory_gb=UNMATCHABLE_GB if n % 7 == 3 else 0.0,
            )
            n += 1

    submit(pattern)
    assert_matches_reference(ctx, pool)
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
        want = claimable_reference(pool)
        assert probe_claims(ctx, pool, k) == want[:k]
        pool.remove_machine("probe", drain=False)
        assert_matches_reference(ctx, pool)

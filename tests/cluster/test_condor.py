"""Condor pool: matchmaking, dynamic membership, drain/evict."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CondorError, CondorPool, JobState, MachineAd
from repro.simcore import SimContext, SimEvent


def make_pool(machines=(), interval=20.0, obs=None):
    ctx = SimContext(seed=3, obs=obs)
    pool = CondorPool(ctx, negotiation_interval_s=interval)
    for name, cores, mem, speed in machines:
        pool.add_machine(MachineAd(name=name, cores=cores, memory_gb=mem, cpu_factor=speed))
    return ctx, pool


def leave_instants(ctx, name):
    """The attrs of each ``condor.startd-leave`` instant for ``name``."""
    return [
        i["attrs"]
        for i in ctx.obs.instants
        if i["name"] == "condor.startd-leave" and i["attrs"]["machine"] == name
    ]


def test_single_job_runs_and_completes():
    ctx, pool = make_pool([("w1", 1, 1.7, 1.0)])
    job = pool.submit(cpu_work=100.0, owner="boliu")
    ctx.sim.run(until=pool.when_done(job))
    assert job.state == JobState.COMPLETED
    assert job.machine_name == "w1"
    assert job.end_time == pytest.approx(100.0, abs=1.0)


def test_job_duration_scales_with_machine_speed():
    ctx, pool = make_pool([("fast", 1, 4.0, 2.0)])
    job = pool.submit(cpu_work=100.0)
    ctx.sim.run(until=pool.when_done(job))
    assert job.end_time - job.start_time == pytest.approx(50.0)


def test_rank_prefers_fastest_machine_by_default():
    ctx, pool = make_pool([("slow", 4, 8.0, 1.0), ("fast", 4, 8.0, 3.0)])
    jobs = [pool.submit(cpu_work=10.0) for _ in range(3)]
    ctx.sim.run(until=ctx.sim.all_of([pool.when_done(j) for j in jobs]))
    assert all(j.machine_name == "fast" for j in jobs)


def test_jobs_queue_when_slots_busy():
    ctx, pool = make_pool([("w1", 1, 1.7, 1.0)])
    j1 = pool.submit(cpu_work=100.0)
    j2 = pool.submit(cpu_work=100.0)
    ctx.sim.run(until=pool.when_done(j2))
    assert j1.end_time == pytest.approx(100.0, abs=1.0)
    # second job starts only after the first releases the slot
    assert j2.start_time >= j1.end_time
    assert j2.queue_wait_s > 50.0


def test_multi_core_machine_runs_jobs_in_parallel():
    ctx, pool = make_pool([("w1", 2, 4.0, 1.0)])
    j1 = pool.submit(cpu_work=100.0)
    j2 = pool.submit(cpu_work=100.0)
    ctx.sim.run(until=ctx.sim.all_of([pool.when_done(j1), pool.when_done(j2)]))
    assert j1.end_time == pytest.approx(j2.end_time, abs=1.0)
    assert ctx.now < 150.0


def test_memory_requirements_filter_machines():
    ctx, pool = make_pool([("tiny", 1, 0.6, 1.0), ("big", 1, 15.0, 1.0)])
    job = pool.submit(cpu_work=10.0, req_memory_gb=4.0)
    ctx.sim.run(until=pool.when_done(job))
    assert job.machine_name == "big"


def test_unmatchable_job_stays_idle():
    ctx, pool = make_pool([("tiny", 1, 0.6, 1.0)])
    job = pool.submit(cpu_work=10.0, req_memory_gb=64.0)
    ctx.sim.run(until=200.0)
    assert job.state == JobState.IDLE
    assert pool.queue_depth == 1


def test_custom_requirements_expression():
    ctx, pool = make_pool([("gpu", 1, 8.0, 1.0), ("cpu", 1, 8.0, 5.0)])
    pool.startds["gpu"].machine.attrs["has_gpu"] = True
    job = pool.submit(cpu_work=10.0, requirements=lambda m: m.attrs.get("has_gpu", False))
    ctx.sim.run(until=pool.when_done(job))
    assert job.machine_name == "gpu"


def test_adding_machine_at_runtime_drains_queue_faster():
    """The use-case mechanism: add a faster worker mid-run and jobs move."""
    ctx, pool = make_pool([("small", 1, 1.7, 1.0)])
    j1 = pool.submit(cpu_work=300.0)
    j2 = pool.submit(cpu_work=300.0)
    # after 50s, a c1.medium-like machine joins
    ctx.sim.call_in(
        50.0,
        lambda: pool.add_machine(MachineAd(name="medium", cores=2, memory_gb=1.7, cpu_factor=1.86)),
    )
    ctx.sim.run(until=ctx.sim.all_of([pool.when_done(j1), pool.when_done(j2)]))
    assert j2.machine_name == "medium"
    # j2 runs at 1.86x: done near 50 + 300/1.86 ~ 211 rather than 600
    assert j2.end_time < 300.0


def test_drain_removal_waits_for_running_job():
    ctx, pool = make_pool([("w1", 1, 1.7, 1.0), ("w2", 1, 1.7, 1.0)], obs=True)
    j = pool.submit(cpu_work=100.0, rank=lambda m: 1.0 if m.name == "w1" else 0.0)
    ctx.sim.run(until=10.0)
    assert j.state == JobState.RUNNING
    removal = pool.remove_machine("w1", drain=True)
    ctx.sim.run(until=removal)
    assert ctx.now == pytest.approx(100.0, abs=1.0)
    assert j.state == JobState.COMPLETED
    assert "w1" not in pool.startds
    assert leave_instants(ctx, "w1") == [{"machine": "w1"}]


def test_evict_removal_rematches_job():
    ctx, pool = make_pool([("w1", 1, 1.7, 1.0)])
    j = pool.submit(cpu_work=100.0)
    ctx.sim.run(until=10.0)
    assert j.state == JobState.RUNNING
    pool.remove_machine("w1", drain=False)
    pool.add_machine(MachineAd(name="w2", cores=1, memory_gb=1.7, cpu_factor=1.0))
    ctx.sim.run(until=pool.when_done(j))
    assert j.evictions == 1
    assert j.machine_name == "w2"
    # work restarts from scratch on the new machine
    assert j.end_time == pytest.approx(110.0, abs=21.0)


def test_machine_rejoining_after_drain_then_evict_stays_in_the_pool():
    """The drain's removal used to fire after the eviction and take the
    machine that had rejoined under the same name out of the pool, and
    to record a second leave for the one machine that left."""
    ctx, pool = make_pool([("w1", 1, 1.7, 1.0)], obs=True)
    j = pool.submit(cpu_work=100.0)
    ctx.sim.run(until=10.0)
    pool.remove_machine("w1", drain=True)
    pool.remove_machine("w1", drain=False)
    pool.add_machine(MachineAd(name="w1", cores=1, memory_gb=1.7, cpu_factor=1.0))
    ctx.sim.run(until=300.0)
    assert "w1" in pool.startds and pool.total_slots == 1
    assert j.state == JobState.COMPLETED and j.evictions == 1
    assert leave_instants(ctx, "w1") == [{"machine": "w1", "evicted": True}]


def test_remove_unknown_machine_and_duplicate_add():
    ctx, pool = make_pool([("w1", 1, 1.7, 1.0)])
    with pytest.raises(CondorError):
        pool.remove_machine("ghost")
    with pytest.raises(CondorError):
        pool.add_machine(MachineAd(name="w1", cores=1, memory_gb=1.0, cpu_factor=1.0))


def test_negative_work_rejected():
    ctx, pool = make_pool([("w1", 1, 1.7, 1.0)])
    with pytest.raises(CondorError):
        pool.submit(cpu_work=-1.0)


def test_negative_memory_requirement_rejected():
    ctx, pool = make_pool([("w1", 1, 1.7, 1.0)])
    with pytest.raises(CondorError, match=r"req_memory_gb .*-1\.0"):
        pool.submit(cpu_work=10.0, req_memory_gb=-1.0)
    assert not pool.schedd.jobs


@pytest.mark.parametrize("interval", [-1.0, float("nan")])
def test_negative_or_nan_negotiation_interval_rejected(interval):
    """An interval tick is armed ``interval`` after its cycle, so a
    negative or NaN interval would fire it in the past."""
    with pytest.raises(ValueError, match="negotiation_interval_s"):
        make_pool(interval=interval)


def test_schedd_submit_says_when_the_owner_had_no_idle_job():
    """``Schedd.submit`` is True exactly when the job is now its owner's
    only idle job: first in, and first in again once the owner's idle
    queue emptied."""
    from repro.cluster.condor import CondorJob, Schedd

    schedd = Schedd()
    jobs = [CondorJob(i, "ann" if i < 4 else "bob", 10.0) for i in range(1, 6)]
    assert [schedd.submit(j) for j in jobs[:2]] == [True, False]
    schedd._job_left_queue(jobs[0])
    schedd._job_left_queue(jobs[1])
    assert schedd.idle_count_of("ann") == 0
    assert [schedd.submit(j) for j in jobs[2:]] == [True, True, False]


@pytest.mark.parametrize("field", ["cpu_work", "io_work", "req_memory_gb"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_work_rejected_before_a_job_exists(field, value):
    """NaN work used to pass the ``< 0`` check and crash the next cycle's
    completion cohort; inf work held its slot forever.  A NaN memory
    requirement passed every ``matches`` check."""
    ctx, pool = make_pool([("w1", 1, 1.7, 1.0)])
    work = {"cpu_work": 10.0, field: value}
    with pytest.raises(CondorError, match=rf"{field} .*{value!r}"):
        pool.submit(**work)
    assert not pool.schedd.jobs and pool.queue_depth == 0
    ok = pool.submit(cpu_work=10.0)
    assert ok.id == 1  # the rejected submit drew no job id
    ctx.sim.run(until=pool.when_done(ok))
    assert ok.state == JobState.COMPLETED


def test_on_complete_callback_runs():
    ctx, pool = make_pool([("w1", 1, 1.7, 1.0)])
    seen = []
    job = pool.submit(cpu_work=10.0, on_complete=lambda j: seen.append(j.id))
    ctx.sim.run(until=pool.when_done(job))
    assert seen == [job.id]
    assert job.on_complete is None  # run once, then dropped with its closure


def test_pool_stats():
    ctx, pool = make_pool([("w1", 2, 4.0, 1.0)])
    pool.submit(cpu_work=100.0)
    pool.submit(cpu_work=100.0)
    pool.submit(cpu_work=100.0)
    ctx.sim.run(until=10.0)
    assert pool.running_count == 2
    assert pool.queue_depth == 1
    assert pool.total_slots == 2
    assert pool.machine_names() == ["w1"]


@settings(deadline=None, max_examples=25)
@given(
    st.lists(st.floats(min_value=1.0, max_value=500.0), min_size=1, max_size=12),
    st.integers(min_value=1, max_value=4),
)
def test_property_all_jobs_complete_and_slots_never_oversubscribed(works, cores):
    ctx = SimContext(seed=11)
    pool = CondorPool(ctx, negotiation_interval_s=5.0)
    pool.add_machine(MachineAd(name="m", cores=cores, memory_gb=8.0, cpu_factor=1.0))
    jobs = [pool.submit(cpu_work=w) for w in works]
    max_running = 0

    def watch():
        nonlocal max_running
        while any(j.state != JobState.COMPLETED for j in jobs):
            max_running = max(max_running, pool.running_count)
            yield ctx.sim.timeout(1.0)

    ctx.sim.process(watch())
    ctx.sim.run(until=ctx.sim.all_of([pool.when_done(j) for j in jobs]))
    assert all(j.state == JobState.COMPLETED for j in jobs)
    assert max_running <= cores
    # makespan sanity: at least total/“cores”, at most serial + negotiation slack
    total = sum(works)
    assert ctx.now >= total / cores - 1.0
    assert ctx.now <= total + 5.0 * len(works) + 1.0


# ---------------------------------------------------------------------------
# Completion events nobody waits on
# ---------------------------------------------------------------------------


def _busy_pool(n_jobs, read_when_done):
    """A pool running ``n_jobs`` jobs of mixed work, with same-time
    completions, interval ticks (more jobs than slots) and a machine
    joining mid-run.  Returns the pool's observable outcome."""
    ctx, pool = make_pool([("w1", 4, 8.0, 1.0), ("w2", 2, 8.0, 2.0)], interval=20.0)
    order = []
    jobs = []
    for i in range(n_jobs):
        job = pool.submit(
            cpu_work=10.0 + i % 7,
            owner=f"user{i % 3}",
            on_complete=lambda j: order.append(j.id),
        )
        if read_when_done:
            pool.when_done(job)
        jobs.append(job)
    ctx.sim.call_in(
        150.0,
        lambda: pool.add_machine(MachineAd(name="w3", cores=2, memory_gb=8.0, cpu_factor=1.5)),
    )
    ctx.sim.run()
    assert all(j.state == JobState.COMPLETED for j in jobs)
    return (
        ctx.sim.events_processed,
        ctx.sim.peak_queue_depth,
        [(j.id, j.start_time, j.end_time, j.machine_name) for j in jobs],
        order,
    )


def test_jobs_nobody_waits_on_allocate_no_event_per_job(monkeypatch):
    """A job whose completion nobody asked for, its claim's completion
    cohort and the negotiator's wakes build no ``SimEvent`` per job: the
    count over a 200-job pool is a constant, not ~3 per job."""
    calls = [0]
    init = SimEvent.__init__

    def counting_init(self, sim):
        calls[0] += 1
        init(self, sim)

    monkeypatch.setattr(SimEvent, "__init__", counting_init)
    events = _busy_pool(200, read_when_done=False)[0]
    assert events > 1000  # the completions still count as kernel events
    assert calls[0] <= 4


def test_when_done_read_or_not_gives_the_same_run():
    """Reading ``when_done`` for every job or for none changes nothing the
    kernel counts or the pool does: the same events processed, the same
    peak queue depth, completion times and completion order."""
    assert _busy_pool(60, read_when_done=True) == _busy_pool(60, read_when_done=False)


#: ``_busy_pool(200, read_when_done=False)``'s completion order (job ids)
BUSY_POOL_200_ORDER = [
    1, 2, 8, 9, 3, 4, 5, 6, 12, 7, 10, 19, 11, 16, 14, 13, 17, 15, 23, 21, 24, 20,
    26, 18, 29, 32, 25, 30, 27, 22, 28, 33, 36, 39, 43, 31, 37, 46, 34, 35, 40, 44,
    50, 38, 41, 45, 42, 47, 53, 57, 54, 48, 51, 66, 49, 60, 58, 63, 61, 52, 56, 55,
    64, 62, 59, 68, 65, 71, 77, 74, 67, 80, 76, 69, 73, 70, 72, 78, 81, 93, 75, 96,
    79, 87, 84, 90, 85, 83, 92, 82, 86, 88, 89, 95, 91, 101, 97, 98, 94, 100, 103,
    106, 99, 112, 109, 102, 111, 120, 108, 117, 105, 114, 104, 107, 126, 123, 113,
    122, 125, 128, 110, 134, 116, 137, 115, 119, 131, 130, 118, 124, 121, 133, 127,
    142, 136, 135, 145, 129, 141, 139, 144, 156, 132, 138, 150, 162, 153, 147, 140,
    149, 155, 152, 159, 143, 158, 148, 146, 164, 167, 157, 160, 161, 151, 166, 169,
    163, 172, 154, 175, 171, 165, 178, 168, 180, 183, 181, 177, 174, 176, 186, 170,
    173, 197, 188, 191, 189, 179, 185, 194, 182, 184, 200, 187, 190, 192, 198, 199,
    193, 196, 195,
]


def test_busy_pool_counts_and_completion_order_are_pinned():
    """The kernel's counts and the pool's completion order for a busy
    pool, as literals: interval ticks, wakes and completions each keep
    their queue entry, insertion id and fire order."""
    events, peak, _rows, order = _busy_pool(200, read_when_done=False)
    assert (events, peak) == (1093, 28)
    assert order == BUSY_POOL_200_ORDER


def test_only_claiming_cycles_build_a_cohort(monkeypatch):
    """Each negotiation cycle that claims a job registers its completions
    as one ``EventCohort``; an interval tick builds none, although ticks
    are armed here (more jobs than slots) and still count as events."""
    from repro.cluster.condor import Startd
    from repro.simcore.cohort import EventCohort

    cohorts = [0]
    claims = [0]
    claiming_cycles = [0]
    cohort_init = EventCohort.__init__
    claim = Startd.claim
    cycle = CondorPool._negotiation_cycle

    def counting_cohort_init(self, *args, **kwargs):
        cohorts[0] += 1
        cohort_init(self, *args, **kwargs)

    def counting_claim(self, *args):
        claims[0] += 1
        return claim(self, *args)

    def counting_cycle(self):
        before = claims[0]
        cycle(self)
        if claims[0] > before:
            claiming_cycles[0] += 1

    monkeypatch.setattr(EventCohort, "__init__", counting_cohort_init)
    monkeypatch.setattr(Startd, "claim", counting_claim)
    monkeypatch.setattr(CondorPool, "_negotiation_cycle", counting_cycle)
    _busy_pool(200, read_when_done=False)
    assert claims[0] == 200
    assert claiming_cycles[0] > 100  # same-time completions batch some claims
    assert cohorts[0] == claiming_cycles[0]


def test_when_done_on_a_completed_job_is_processed_with_the_job():
    ctx, pool = make_pool([("w1", 1, 1.7, 1.0)])
    job = pool.submit(cpu_work=10.0)
    ctx.sim.run()
    done = pool.when_done(job)
    assert done.processed and done.ok and done.value is job
    assert ctx.sim.run(until=done) is job


def test_a_waiter_on_a_removed_job_gets_a_condor_error():
    """``condor_rm`` fails a job's completion event, running or idle: a
    waiter resumes with a ``CondorError`` naming the job instead of
    hanging (the drain used to end with the awaited event untriggered)."""
    ctx, pool = make_pool([("w1", 1, 8.0, 1.0)], interval=5.0)
    running = pool.submit(cpu_work=1000.0)
    queued = pool.submit(cpu_work=10.0)

    def waiter(job):
        try:
            yield pool.when_done(job)
        except CondorError as exc:
            return f"{ctx.now}: {exc}"
        return "completed"

    procs = [ctx.sim.process(waiter(j)) for j in (running, queued)]
    ctx.sim.run(until=10.0)
    assert running.state == JobState.RUNNING and queued.state == JobState.IDLE
    pool.remove_job(running)
    pool.remove_job(queued)
    assert ctx.sim.run(until=procs[0]) == f"10.0: job {running.id} was removed"
    assert ctx.sim.run(until=procs[1]) == f"10.0: job {queued.id} was removed"
    late = pool.when_done(queued)
    with pytest.raises(CondorError, match=f"job {queued.id} was removed"):
        ctx.sim.run(until=late)


def test_removing_a_job_nobody_waits_on_schedules_nothing():
    """An idle job's ``condor_rm`` schedules no event unless its
    completion event was asked for; one that was asked for and then
    dropped fails defused, so it cannot crash the drain."""
    ctx, pool = make_pool([("w1", 1, 8.0, 1.0)], interval=5.0)
    pool.submit(cpu_work=1000.0)
    unwatched = pool.submit(cpu_work=10.0)
    dropped = pool.submit(cpu_work=10.0)
    pool.when_done(dropped)
    ctx.sim.run(until=10.0)
    depth = ctx.sim.queue_depth
    pool.remove_job(unwatched)
    assert ctx.sim.queue_depth == depth
    pool.remove_job(dropped)
    assert ctx.sim.queue_depth == depth + 1
    ctx.sim.run()
    assert pool.when_done(dropped).processed

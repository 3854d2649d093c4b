"""Whole negotiation cycles checked against a reference negotiator.

The reference is the matchmaking rule written as plainly as possible: walk
the idle jobs in the stable sort of their (submit_time, id) order on the
owner's accumulated usage, give each job the free matching machine with
the largest ``(rank_of, -len(busy), name)``, step over a job no free
machine matches, and stop once no slot is free.  Every cycle's sequence
of ``Startd.claim`` calls must equal the reference's, through
completions, submits, ``remove_machine`` drains and evictions, and
``remove_job``; and the pool's running and total slot counts must equal
their sums over its machines.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CondorPool, JobState, MachineAd
from repro.cluster.condor import Startd
from repro.simcore import SimContext

#: name -> (cores, memory_gb, cpu_factor): each machine differs in all three
MACHINES = {
    "small": (1, 1.7, 1.0),
    "wide": (3, 7.5, 0.8),
    "fast": (2, 4.0, 2.5),
}
OWNERS = ("ann", "bob", "cy", "dee")


def add(pool, name):
    cores, memory_gb, cpu_factor = MACHINES[name]
    pool.add_machine(
        MachineAd(name=name, cores=cores, memory_gb=memory_gb, cpu_factor=cpu_factor)
    )


def reference_claims(pool):
    """(job id, machine) claims one cycle should make, from a full scan."""
    usage = pool.usage_by_owner
    idle = sorted(
        (j for j in pool.schedd.jobs.values() if j.state is JobState.IDLE),
        key=lambda j: (j.submit_time, j.id),
    )
    idle.sort(key=lambda j: usage.get(j.owner, 0.0))  # stable
    startds = [s for s in pool.startds.values() if not s.draining]
    free = {s.machine.name: s.machine.cores - len(s.busy) for s in startds}
    busy = {s.machine.name: len(s.busy) for s in startds}
    claims = []
    for job in idle:
        if not any(free.values()):
            break
        candidates = [
            s.machine for s in startds
            if free[s.machine.name] > 0 and job.matches(s.machine)
        ]
        if not candidates:
            continue
        best = max(
            candidates, key=lambda m: (job.rank_of(m), -busy[m.name], m.name)
        )
        free[best.name] -= 1
        busy[best.name] += 1
        claims.append((job.id, best.name))
    return claims


job_st = st.tuples(
    st.sampled_from(OWNERS),
    st.sampled_from([3.0, 8.0, 15.0, 40.0]),  # cpu_work
    st.sampled_from([0.0, 0.0, 2.0, 5.0, 16.0]),  # req_memory_gb; 16 fits none
    # machines the job's requirements admit: None is no requirements,
    # an empty set a job no machine can run
    st.one_of(
        st.none(),
        st.frozensets(st.sampled_from(sorted(MACHINES)), max_size=2),
    ),
    st.booleans(),  # rank machines by memory instead of speed
)

step_st = st.one_of(
    st.tuples(st.just("run"), st.sampled_from([0.5, 3.0, 7.0, 20.0])),
    st.tuples(st.just("submit"), st.lists(job_st, min_size=1, max_size=6)),
    st.tuples(st.just("evict"), st.sampled_from(sorted(MACHINES))),
    st.tuples(st.just("drain"), st.sampled_from(sorted(MACHINES))),
    st.tuples(st.just("add"), st.sampled_from(sorted(MACHINES))),
    st.tuples(st.just("rm"), st.integers(1, 30)),  # a job id
)


@given(
    machines=st.sets(st.sampled_from(sorted(MACHINES)), min_size=2),
    jobs=st.lists(job_st, min_size=1, max_size=12),
    steps=st.lists(step_st, max_size=12),
)
@settings(max_examples=300, deadline=None)
def test_property_cycles_claim_as_the_reference_negotiator(machines, jobs, steps):
    ctx = SimContext(seed=5)
    pool = CondorPool(ctx, negotiation_interval_s=5.0)
    log = []
    cycles = []
    run_cycle = pool._negotiation_cycle

    def checked_cycle():
        want = reference_claims(pool)
        log.clear()
        run_cycle()
        cycles.append(want)
        assert log == want
        startds = pool.startds.values()
        assert pool.running_count == sum(len(s.busy) for s in startds)
        assert pool.total_slots == sum(
            s.machine.cores for s in startds if not s.draining
        )

    real_claim = Startd.claim

    def claim(startd, job, pool):
        log.append((job.id, startd.machine.name))
        return real_claim(startd, job, pool)

    def submit(specs):
        for owner, work, memory, admits, by_memory in specs:
            pool.submit(
                cpu_work=work,
                owner=owner,
                req_memory_gb=memory,
                requirements=None if admits is None else (
                    lambda m, admits=admits: m.name in admits
                ),
                rank=(lambda m: m.memory_gb) if by_memory else None,
            )

    pool._negotiation_cycle = checked_cycle
    with mock.patch.object(Startd, "claim", claim):
        for name in sorted(machines):
            add(pool, name)
        submit(jobs)
        for kind, arg in steps:
            if kind == "run":
                ctx.sim.run(until=ctx.now + arg)
            elif kind == "submit":
                submit(arg)
            elif kind == "evict" and arg in pool.startds:
                pool.remove_machine(arg, drain=False)
            elif kind == "drain" and arg in pool.startds:
                pool.remove_machine(arg, drain=True)
            elif kind == "add" and arg not in pool.startds:
                add(pool, arg)
            elif kind == "rm" and arg in pool.schedd.jobs:
                job = pool.schedd.jobs[arg]
                if job.state in (JobState.IDLE, JobState.RUNNING):
                    pool.remove_job(job)
        ctx.sim.run(until=ctx.now + 120.0)
    assert cycles  # the checked cycle really ran

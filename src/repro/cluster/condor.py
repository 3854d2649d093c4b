"""A Condor-like high-throughput scheduler: matchmaking over a dynamic pool.

The paper deploys Galaxy with a Condor head node managing "a set of Condor
worker nodes in a dynamic Condor pool.  In this model Galaxy jobs are
transparently assigned to Condor worker nodes for parallel execution"
(Sec. III-B), and the use case's speed-up comes from adding a faster
worker at runtime.  The pieces implemented here mirror Condor's daemons:

* **MachineAd / Startd** — a machine advertises slots (one per core);
* **Schedd** — the per-cluster job queue;
* **Negotiator** — a periodic matchmaking cycle assigning idle jobs to
  free slots: job *requirements* filter machines, job *rank* (default:
  fastest machine) orders them;
* **CondorPool** — the collector/facade wiring it together, with dynamic
  add/remove (drain or evict) of workers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from heapq import heappop, heappush, heapreplace
from typing import Any, Callable, Iterator, Optional

from .. import calibration
from ..simcore import LAZY, SimContext, SimEvent
from .node import ClusterNode

Requirements = Callable[["MachineAd"], bool]
Rank = Callable[["MachineAd"], float]


class JobState(str, enum.Enum):
    IDLE = "idle"
    RUNNING = "running"
    COMPLETED = "completed"
    REMOVED = "removed"
    HELD = "held"


class CondorError(Exception):
    pass


@dataclass
class MachineAd:
    """What a startd advertises to the collector."""

    name: str
    cores: int
    memory_gb: float
    cpu_factor: float
    io_factor: float = 1.0
    node: Optional[ClusterNode] = None
    attrs: dict[str, Any] = field(default_factory=dict)


@dataclass
class CondorJob:
    """One queued unit of work.

    ``cpu_work`` is in m1.small-seconds; actual runtime is
    ``cpu_work / machine.cpu_factor``.  ``on_complete`` lets the submitter
    (Galaxy's Condor runner) attach real computation to the simulated job.
    """

    id: int
    owner: str
    cpu_work: float
    io_work: float = 0.0
    req_memory_gb: float = 0.0
    requirements: Optional[Requirements] = None
    rank: Optional[Rank] = None
    on_complete: Optional[Callable[["CondorJob"], None]] = None
    state: JobState = JobState.IDLE
    submit_time: float = 0.0
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    machine_name: Optional[str] = None
    evictions: int = 0
    completed: Optional[SimEvent] = None  # fires when COMPLETED
    # obs causal carriers: ids of the job's current condor.wait /
    # condor.run spans, so each phase span can cite its predecessor
    # (wait <- submitter's span, run <- wait, requeued wait <- run) even
    # though matching and completion happen in batched cohorts.  None
    # whenever observability is disabled.
    wait_span_id: Optional[int] = None
    run_span_id: Optional[int] = None

    def matches(self, machine: MachineAd) -> bool:
        if self.req_memory_gb > machine.memory_gb:
            return False
        if self.requirements is not None and not self.requirements(machine):
            return False
        return True

    def rank_of(self, machine: MachineAd) -> float:
        return self.rank(machine) if self.rank is not None else machine.cpu_factor

    @property
    def queue_wait_s(self) -> Optional[float]:
        return None if self.start_time is None else self.start_time - self.submit_time


class Startd:
    """Machine daemon executing claimed jobs, one per slot.

    Completions are *not* per-job processes: the negotiation cycle that
    claimed a batch of jobs registers their finish times as one event
    cohort, and :meth:`_finish_job` runs as that cohort's apply.  Each
    claim draws a sequence token; eviction / ``condor_rm`` bumps the
    slot's token so a stale completion timer no-ops instead of being
    interrupted.
    """

    def __init__(self, ctx: SimContext, machine: MachineAd) -> None:
        self.ctx = ctx
        self.machine = machine
        self.busy: dict[int, CondorJob] = {}  # slot id -> job
        self.draining = False
        self._claims: dict[int, int] = {}  # slot id -> claim sequence token
        self._claim_seq = 0
        self._drained_event: Optional[SimEvent] = None
        #: owning pool; keeps the pool's free-slot index current
        self.pool: Optional["CondorPool"] = None

    @property
    def free_slots(self) -> int:
        if self.draining:
            return 0
        return self.machine.cores - len(self.busy)

    def claim(self, job: CondorJob, pool: "CondorPool") -> tuple[int, int, float]:
        """Assign ``job`` to a free slot; returns (slot, token, finish time).

        The caller (the negotiation cycle) is responsible for scheduling
        the completion — normally as one member of the cycle's cohort —
        and for removing the job from the schedd's idle queue
        (``_job_left_queue``) once its scan is over, which lets the scan
        iterate the queue without copying it.
        """
        if self.free_slots < 1:
            raise CondorError(f"{self.machine.name} has no free slot")
        busy = self.busy
        slot = 0
        while slot in busy:  # lowest free slot; free_slots >= 1 bounds it
            slot += 1
        busy[slot] = job
        job.state = JobState.RUNNING
        job.start_time = self.ctx.now
        job.machine_name = self.machine.name
        self.ctx.log(
            "condor", "match", job=job.id, machine=self.machine.name, slot=slot
        )
        obs = self.ctx.obs
        if obs.enabled:
            track = f"condor/job-{job.id}"
            obs.finish_open(track)  # the condor.wait span
            job.run_span_id = obs.start(
                "condor.run",
                track=track,
                cause=job.wait_span_id,
                job=job.id,
                machine=self.machine.name,
            ).id
            obs.histogram("condor.queue_wait_s").observe(
                self.ctx.now - job.submit_time
            )
        self._claim_seq += 1
        self._claims[slot] = self._claim_seq
        pool._update_free(self)
        duration = (
            job.cpu_work / self.machine.cpu_factor
            + job.io_work / self.machine.io_factor
        )
        return slot, self._claim_seq, self.ctx.now + duration

    def _finish_job(
        self, slot: int, token: int, job: CondorJob, pool: "CondorPool"
    ) -> None:
        """Completion-cohort apply for one claim (skips superseded claims)."""
        if self._claims.get(slot) != token:
            return  # evicted or condor_rm'd; the slot moved on
        del self.busy[slot]
        del self._claims[slot]
        pool._update_free(self)
        job.state = JobState.COMPLETED
        job.end_time = self.ctx.now
        if job.on_complete is not None:
            job.on_complete(job)
        if job.completed is not None and not job.completed.triggered:
            job.completed.succeed(job)
        self.ctx.log("condor", "complete", job=job.id, machine=self.machine.name)
        obs = self.ctx.obs
        if obs.enabled:
            obs.finish_open(f"condor/job-{job.id}")  # the condor.run span
            obs.counter("condor.completions").inc()
        pool._job_finished(job)
        self._check_drained()

    def _abort(self, slot: int, job: CondorJob, pool: "CondorPool") -> None:
        """Free a claimed slot before completion (evict or ``condor_rm``).

        Bumping the claim token is what cancels the pending completion:
        its cohort member fires on schedule and no-ops on the mismatch.
        """
        del self.busy[slot]
        self._claims.pop(slot, None)
        pool._update_free(self)
        obs = self.ctx.obs
        if job.state == JobState.REMOVED:
            # condor_rm while running: free the slot, nothing to rematch
            self.ctx.log("condor", "removed", job=job.id, machine=self.machine.name)
            if obs.enabled:
                obs.finish_open(
                    f"condor/job-{job.id}", status="cancelled", error="condor_rm"
                )
        else:
            # Evicted: job goes back to idle for rematching.
            job.state = JobState.IDLE
            pool._job_requeued(job)
            job.machine_name = None
            job.start_time = None
            job.evictions += 1
            self.ctx.log("condor", "evict", job=job.id, machine=self.machine.name)
            if obs.enabled:
                track = f"condor/job-{job.id}"
                obs.finish_open(track, status="error", error="evicted")
                job.wait_span_id = obs.start(
                    "condor.wait",
                    track=track,
                    cause=job.run_span_id,
                    job=job.id,
                    requeued=True,
                ).id
                obs.counter("condor.evictions").inc()
        pool._wake_negotiator()
        self._check_drained()

    def evict_all(self) -> None:
        pool = self.pool
        for slot, job in sorted(self.busy.items()):
            self._abort(slot, job, pool)

    def drain(self) -> SimEvent:
        """Stop matching new jobs; event fires when the last job finishes."""
        self.draining = True
        if self.pool is not None:
            self.pool._update_free(self)
        if self._drained_event is None:
            self._drained_event = self.ctx.sim.event()
        self._check_drained()
        return self._drained_event

    def _check_drained(self) -> None:
        if self.draining and not self.busy and self._drained_event is not None:
            if not self._drained_event.triggered:
                self._drained_event.succeed(self.machine.name)


class Schedd:
    """The job queue.

    Besides every job ever submitted, it indexes the idle ones twice, each
    index in (submit_time, id) order: globally, for the FIFO negotiator
    and the queue-depth views, and per owner, for the fair-share
    negotiator, which reads one owner's bucket at a time (its head, or
    its jobs in order) and keys its owner heap on the heads.
    """

    def __init__(self) -> None:
        self.jobs: dict[int, CondorJob] = {}
        self._next_id = 1
        # Idle jobs indexed separately so a negotiation cycle never scans
        # (or sorts) the full queue history.  Submission order is already
        # (submit_time, id) order — ids are monotonic and sim time never
        # goes backwards — so the dict stays sorted until an eviction
        # re-queues an old job out of order, which marks it dirty.
        self._idle: dict[int, CondorJob] = {}
        self._idle_dirty = False
        # The same idle jobs bucketed per owner, each bucket in
        # (submit_time, id) order.  Buckets share the global index's
        # laziness: an eviction only dirties its own owner.
        self._idle_by_owner: dict[str, dict[int, CondorJob]] = {}
        self._dirty_owners: set[str] = set()
        #: total cpu+io work of the idle queue, maintained incrementally
        #: so backlog-driven autoscaling policies get an O(1) snapshot
        #: instead of an O(idle jobs) scan per control interval
        self._idle_work = 0.0

    def submit(self, job_kwargs: dict, ctx: SimContext) -> CondorJob:
        job = CondorJob(id=self._next_id, submit_time=ctx.now, **job_kwargs)
        job.completed = ctx.sim.event()
        self._next_id += 1
        self.jobs[job.id] = job
        self._idle[job.id] = job
        bucket = self._idle_by_owner.get(job.owner)
        if bucket is None:
            bucket = self._idle_by_owner[job.owner] = {}
        bucket[job.id] = job
        self._idle_work += job.cpu_work + job.io_work
        return job

    def _job_requeued(self, job: CondorJob) -> None:
        """An eviction put ``job`` back to IDLE (possibly out of order)."""
        self._idle[job.id] = job
        self._idle_work += job.cpu_work + job.io_work
        self._idle_dirty = True
        bucket = self._idle_by_owner.get(job.owner)
        if bucket is None:
            bucket = self._idle_by_owner[job.owner] = {}
        bucket[job.id] = job
        self._dirty_owners.add(job.owner)

    def _job_left_queue(self, job: CondorJob) -> None:
        """``job`` stopped being IDLE (claimed or removed)."""
        if self._idle.pop(job.id, None) is not None:
            self._idle_work -= job.cpu_work + job.io_work
        bucket = self._idle_by_owner.get(job.owner)
        if bucket is not None:
            bucket.pop(job.id, None)
            if not bucket:
                del self._idle_by_owner[job.owner]
                self._dirty_owners.discard(job.owner)

    def has_idle(self) -> bool:
        return bool(self._idle)

    def idle_count(self) -> int:
        """Number of idle jobs, without the sort :meth:`idle_jobs` may do."""
        return len(self._idle)

    def idle_count_of(self, owner: str) -> int:
        """One owner's idle-job count (0 when the owner has none queued)."""
        bucket = self._idle_by_owner.get(owner)
        return len(bucket) if bucket else 0

    @property
    def idle_work(self) -> float:
        """Total cpu+io work currently idle (m1.small-seconds), O(1)."""
        return self._idle_work

    def idle_jobs(self) -> list[CondorJob]:
        """A copy of the idle queue in (submit_time, id) order."""
        return list(self.iter_idle())

    def idle_owners(self) -> list[str]:
        """Owners with at least one idle job (order is not significant)."""
        return list(self._idle_by_owner)

    def iter_idle(self):
        """Live (submit_time, id)-ordered view of the idle queue.

        No copy is made: callers must not submit, requeue, or remove
        idle jobs while iterating (the negotiation cycle defers its
        queue removals to the end of the scan for exactly this reason).
        """
        if self._idle_dirty:
            ordered = sorted(
                self._idle.values(), key=lambda j: (j.submit_time, j.id)
            )
            self._idle = {j.id: j for j in ordered}
            self._idle_dirty = False
        return self._idle.values()

    def iter_idle_of(self, owner: str):
        """Live ordered view of one owner's idle jobs (see :meth:`iter_idle`)."""
        bucket = self._idle_by_owner.get(owner)
        if not bucket:
            return ()
        if owner in self._dirty_owners:
            ordered = sorted(
                bucket.values(), key=lambda j: (j.submit_time, j.id)
            )
            bucket = self._idle_by_owner[owner] = {j.id: j for j in ordered}
            self._dirty_owners.discard(owner)
        return bucket.values()

    def idle_head(self, owner: str) -> Optional[CondorJob]:
        """``owner``'s earliest idle job in (submit_time, id) order, if any."""
        return next(iter(self.iter_idle_of(owner)), None)

    def remove(self, job_id: int) -> None:
        job = self.jobs.get(job_id)
        if job is None:
            raise CondorError(f"no such job {job_id}")
        if job.state == JobState.RUNNING:
            raise CondorError("evict via the pool before removing a running job")
        job.state = JobState.REMOVED
        self._job_left_queue(job)


class CondorPool:
    """Collector + negotiator + schedd: the pool facade Galaxy talks to."""

    def __init__(
        self,
        ctx: SimContext,
        negotiation_interval_s: float = calibration.CONDOR_NEGOTIATION_INTERVAL_S,
        fair_share: bool = True,
    ) -> None:
        self.ctx = ctx
        self.interval = negotiation_interval_s
        #: when True, idle jobs of lighter users match first (Condor's
        #: user-priority fair share, simplified to accumulated usage)
        self.fair_share = fair_share
        self.usage_by_owner: dict[str, float] = {}
        #: fair-share index: a lazy min-heap of idle owners keyed (usage,
        #: head submit_time, head id, owner); see :meth:`_match_order`.
        #: Only fair-share pools keep it, so ``fair_share`` is fixed at
        #: construction.
        self._owner_heap: list[tuple[float, float, int, str]] = []
        self.schedd = Schedd()
        self.startds: dict[str, Startd] = {}
        #: index of machines with at least one free slot, so negotiation
        #: never scans fully-loaded startds (name -> Startd)
        self._free: dict[str, Startd] = {}
        self._stopped = False
        #: a LAZY wake event is armed (coalesces same-timestamp kicks)
        self._wake_armed = False
        #: cycle generation; an interval tick armed by an older cycle
        #: finds the counter moved on and no-ops (a kick beat it)
        self._gen = 0
        # Boot cycle: coalesces with same-timestamp add/submit kicks.
        self._wake_negotiator()

    # -- pool membership -----------------------------------------------------
    def add_node(self, node: ClusterNode, cores: Optional[int] = None) -> Startd:
        """Register a ClusterNode as an execute machine."""
        ad = MachineAd(
            name=node.name,
            cores=cores if cores is not None else node.cores,
            memory_gb=node.memory_gb,
            cpu_factor=node.cpu_factor,
            io_factor=node.io_factor,
            node=node,
        )
        return self.add_machine(ad)

    def add_machine(self, machine: MachineAd) -> Startd:
        if machine.name in self.startds:
            raise CondorError(f"machine {machine.name!r} already in pool")
        startd = Startd(self.ctx, machine)
        startd.pool = self
        self.startds[machine.name] = startd
        self._update_free(startd)
        self.ctx.log("condor", "startd-join", machine=machine.name, cores=machine.cores)
        self._wake_negotiator()
        return startd

    def remove_machine(self, name: str, drain: bool = True) -> SimEvent:
        """Remove a machine; returns an event firing once it is gone.

        ``drain=True`` lets running jobs finish; ``drain=False`` evicts them
        (they go back to idle and are rematched elsewhere).
        """
        startd = self.startds.get(name)
        if startd is None:
            raise CondorError(f"machine {name!r} not in pool")
        done = self.ctx.sim.event()
        if drain:
            drained = startd.drain()

            def _finish(_ev: SimEvent) -> None:
                self.startds.pop(name, None)
                self._free.pop(name, None)
                self.ctx.log("condor", "startd-leave", machine=name)
                done.succeed(name)

            if drained.processed:
                _finish(drained)
            else:
                drained.callbacks.append(_finish)
        else:
            startd.draining = True
            startd.evict_all()
            self.startds.pop(name, None)
            self._free.pop(name, None)
            self.ctx.log("condor", "startd-leave", machine=name, evicted=True)
            done.succeed(name)
        return done

    # -- submission ------------------------------------------------------------
    def submit(
        self,
        cpu_work: float,
        owner: str = "nobody",
        io_work: float = 0.0,
        req_memory_gb: float = 0.0,
        requirements: Optional[Requirements] = None,
        rank: Optional[Rank] = None,
        on_complete: Optional[Callable[[CondorJob], None]] = None,
        cause: Optional[int] = None,
    ) -> CondorJob:
        if cpu_work < 0 or io_work < 0:
            raise CondorError("cpu_work/io_work must be >= 0")
        job = self.schedd.submit(
            dict(
                owner=owner,
                cpu_work=cpu_work,
                io_work=io_work,
                req_memory_gb=req_memory_gb,
                requirements=requirements,
                rank=rank,
                on_complete=on_complete,
            ),
            self.ctx,
        )
        if self.fair_share and self.schedd.idle_count_of(owner) == 1:
            self._enter_owner(job)  # the owner had no idle job until now
        self.ctx.log("condor", "submit", job=job.id, owner=owner, work=cpu_work)
        obs = self.ctx.obs
        if obs.enabled:
            # ``cause`` names the submitter's span (a Galaxy job, a WaaS
            # workflow) so the queue-wait interval is causally reachable
            # from the operation that provoked it
            job.wait_span_id = obs.start(
                "condor.wait",
                track=f"condor/job-{job.id}",
                cause=cause,
                job=job.id,
                owner=owner,
            ).id
            obs.counter("condor.submits").inc()
        self._wake_negotiator()
        return job

    def when_done(self, job: CondorJob) -> SimEvent:
        assert job.completed is not None
        return job.completed

    def remove_job(self, job: CondorJob) -> None:
        """``condor_rm``: drop a queued job, or kill a running one."""
        if job.state in (JobState.COMPLETED, JobState.REMOVED):
            raise CondorError(f"job {job.id} is already {job.state.value}")
        was_running = job.state == JobState.RUNNING
        job.state = JobState.REMOVED
        self.schedd._job_left_queue(job)
        job.end_time = self.ctx.now
        if was_running:
            for startd in self.startds.values():
                for slot, running in list(startd.busy.items()):
                    if running is job:
                        startd._abort(slot, job, self)
        else:
            # idle: the running case closes its spans on interrupt delivery
            self.ctx.obs.finish_open(
                f"condor/job-{job.id}", status="cancelled", error="condor_rm"
            )
        self.ctx.log("condor", "rm", job=job.id)

    # -- stats -------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return self.schedd.idle_count()

    def queue_depth_of(self, owner: str) -> int:
        """Idle jobs queued by one owner (per-tenant backlog view)."""
        return self.schedd.idle_count_of(owner)

    @property
    def idle_work(self) -> float:
        """Backlogged cpu+io work (m1.small-seconds) awaiting a match."""
        return self.schedd.idle_work

    @property
    def running_count(self) -> int:
        return sum(len(s.busy) for s in self.startds.values())

    @property
    def total_slots(self) -> int:
        return sum(s.machine.cores for s in self.startds.values() if not s.draining)

    @property
    def total_cpu_capacity(self) -> float:
        """m1.small-seconds of work the pool retires per simulated second."""
        return sum(
            s.machine.cores * s.machine.cpu_factor
            for s in self.startds.values()
            if not s.draining
        )

    def machine_names(self) -> list[str]:
        return sorted(self.startds)

    def _job_requeued(self, job: CondorJob) -> None:
        """An eviction put ``job`` back to IDLE, maybe ahead of its owner's
        other idle jobs; if it is now their head, the owner's heap entry
        may key a later job, so the owner enters again at ``job``."""
        self.schedd._job_requeued(job)
        if self.fair_share and self.schedd.idle_head(job.owner) is job:
            self._enter_owner(job)

    def _enter_owner(self, head: CondorJob) -> None:
        """Push ``head``'s owner onto the fair-share heap, keyed on ``head``."""
        owner = head.owner
        heappush(
            self._owner_heap,
            (self.usage_by_owner.get(owner, 0.0), head.submit_time, head.id, owner),
        )

    def _job_finished(self, job: CondorJob) -> None:
        self.usage_by_owner[job.owner] = (
            self.usage_by_owner.get(job.owner, 0.0) + job.cpu_work + job.io_work
        )
        # A slot freed up: try to match the next idle job right away.
        self._wake_negotiator()

    # -- negotiation --------------------------------------------------------------
    def _update_free(self, startd: Startd) -> None:
        """Re-index one machine after its slot occupancy changed."""
        name = startd.machine.name
        if startd.free_slots > 0 and name in self.startds:
            self._free[name] = startd
        else:
            self._free.pop(name, None)

    def shutdown(self) -> None:
        self._stopped = True
        self._wake_negotiator()

    def _wake_negotiator(self) -> None:
        # The negotiator is callback-driven (no resident process): a wake
        # arms one LAZY event, which defers the cycle until every
        # ordinary event at this timestamp has drained, so a burst of
        # same-time completions and submissions coalesces into a single
        # negotiation cycle (the armed flag makes the extra kicks free).
        if self._wake_armed or self._stopped:
            return
        self._wake_armed = True
        ev = SimEvent(self.ctx.sim)
        ev.callbacks.append(self._on_wake)
        ev.succeed(priority=LAZY)

    def _on_wake(self, _ev: SimEvent) -> None:
        self._wake_armed = False
        if not self._stopped:
            self._run_cycle()

    def _run_cycle(self) -> None:
        self._gen += 1
        self._negotiation_cycle()
        if self.schedd.has_idle() and not self._stopped:
            # Unmatched work pending: retry next cycle, or earlier on a
            # submission/join/slot-free kick.  When nothing is idle no
            # timer is armed, so an idle simulation can drain to
            # completion.  The tick is a one-member cohort; its apply
            # re-arms the LAZY wake so the cycle still runs after every
            # ordinary event of its timestamp.
            self.ctx.sim.schedule_cohort(
                (self.ctx.now + self.interval,),
                self._tick_apply,
                payload=self._gen,
                layer="condor.tick",
            )

    def _tick_apply(self, cohort, start: int, stop: int) -> None:
        if cohort.payload == self._gen:
            self._wake_negotiator()
        # else: a kick already ran a newer cycle (which armed its own
        # tick if needed); the stale timer dies here.

    def _complete_apply(self, cohort, start: int, stop: int) -> None:
        payload = cohort.payload
        for k in range(start, stop):
            startd, slot, token, job = payload[k]
            startd._finish_job(slot, token, job, self)

    def _match_order(self) -> Iterator[CondorJob]:
        """Idle jobs in fair-share order, lazily, from the owner heap.

        The order is a stable sort of the (submit_time, id)-ordered idle
        queue on accumulated usage: jobs ascend on (their owner's usage,
        submit_time, id).  For every owner with idle jobs, ``_owner_heap``
        holds at least one (usage, head submit_time, head id, owner) entry
        no larger than the owner's current key: usage only grows, claims
        and removals only move a bucket's head forward, and an owner is
        pushed whenever a job becomes its head (its bucket was empty, or
        an eviction requeues a job ahead of the rest).  So the top entry,
        once re-keyed until current, names the owner whose head job comes
        next.  Entries of owners with nothing idle, or already expanded by
        this traversal, are dropped when they reach the top.

        Expanding an owner hands its bucket to a local heap that merges
        the remaining jobs of every owner expanded so far, so skipped
        jobs and multi-slot cycles keep the stable-sort order.  A
        traversal costs O((jobs yielded + stale entries) log owners)
        instead of O(idle owners).

        However the traversal ends (exhausted, closed, or abandoned by
        the cycle's early ``break`` and freed when the cycle returns),
        ``finally`` re-enters each expanded owner at its current head.
        Jobs the cycle claimed are RUNNING but stay in their buckets until
        the scan is over, so that head is the first job still IDLE.
        """
        owners = self._owner_heap
        usage = self.usage_by_owner
        schedd = self.schedd
        expanded: dict[str, Iterator[CondorJob]] = {}
        merge: list[tuple[float, float, int, str, CondorJob]] = []
        try:
            while True:
                while owners:  # make the top entry current
                    top = owners[0]
                    owner = top[3]
                    head = None if owner in expanded else schedd.idle_head(owner)
                    if head is None:
                        heappop(owners)
                        continue
                    key = (usage.get(owner, 0.0), head.submit_time, head.id, owner)
                    if key == top:
                        break
                    heapreplace(owners, key)
                if owners and (not merge or owners[0] < merge[0]):
                    used, submitted, job_id, owner = heappop(owners)
                    # A live view, no copy: the cycle defers its queue
                    # removals until the scan is over, so the bucket does
                    # not change under the iterator.
                    jobs = expanded[owner] = iter(schedd.iter_idle_of(owner))
                    heappush(merge, (used, submitted, job_id, owner, next(jobs)))
                    continue
                if not merge:
                    return
                used, _, _, owner, job = merge[0]
                after = next(expanded[owner], None)
                if after is None:
                    heappop(merge)
                else:
                    heapreplace(
                        merge, (used, after.submit_time, after.id, owner, after)
                    )
                yield job
        finally:
            for owner in expanded:
                for job in schedd.iter_idle_of(owner):
                    if job.state is JobState.IDLE:
                        self._enter_owner(job)
                        break

    def _negotiation_cycle(self) -> None:
        obs = self.ctx.obs
        if obs.enabled:
            obs.counter("condor.negotiation_cycles").inc()
        if not self._free:
            return  # every slot is claimed; nothing can match
        idle = self._match_order() if self.fair_share else self.schedd.iter_idle()
        matched = 0
        finish_times: list[float] = []
        claims: list[tuple[Startd, int, int, CondorJob]] = []
        for job in idle:
            if not self._free:
                break  # the cycle itself consumed the last free slot
            # the free-slot check tolerates entries staled by a drain;
            # one fused pass picks the best-ranked candidate (first wins
            # ties, matching max() over the old materialized list)
            best = None
            best_key = None
            for s in self._free.values():
                if s.free_slots > 0 and job.matches(s.machine):
                    key = (job.rank_of(s.machine), -len(s.busy), s.machine.name)
                    if best is None or key > best_key:
                        best = s
                        best_key = key
            if best is None:
                continue
            slot, token, finish = best.claim(job, self)
            finish_times.append(finish)
            claims.append((best, slot, token, job))
            matched += 1
        if matched:
            # The scan iterated live queue views; now that it is over,
            # retire the claimed jobs from the idle queue in one pass.
            schedd = self.schedd
            for _startd, _slot, _token, job in claims:
                schedd._job_left_queue(job)
            # One struct-of-arrays cohort per cycle: every claim's
            # completion timer in match order.  With obs on, the cohort
            # carries each member's condor.run span id so the causal
            # chain survives the batch dispatch (spans opened from the
            # apply can cite cohort.cause[k]); obs off, it stays None.
            self.ctx.sim.schedule_cohort(
                finish_times,
                self._complete_apply,
                payload=claims,
                layer="condor.complete",
                cause=tuple(c[3].run_span_id for c in claims) if obs.enabled else None,
            )
        if obs.enabled:
            if matched:
                obs.instant("condor.negotiate", track="condor", matched=matched)
                obs.counter("condor.matches").inc(matched)
            # gauge samples at every negotiation cycle: the Fig. 11
            # utilization/backlog curves straight from the trace
            slots = self.total_slots
            running = self.running_count
            obs.series("condor.pool_utilization").record(
                running / slots if slots else 0.0
            )
            obs.series("condor.idle_jobs").record(self.schedd.idle_count())
            obs.series("condor.running_jobs").record(running)

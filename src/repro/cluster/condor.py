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
from heapq import heapify, heappop, heappush, heapreplace
from itertools import islice
from math import inf
from typing import Any, Callable, Optional

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


@dataclass(slots=True)
class CondorJob:
    """One queued unit of work.

    ``cpu_work`` is in m1.small-seconds; actual runtime is
    ``cpu_work / machine.cpu_factor``.  ``on_complete`` lets the submitter
    (the WaaS service) attach real computation to the simulated job; it
    runs once, when the job completes, and is then dropped, so the
    submitter's closure does not live as long as the job record.
    :meth:`CondorPool.submit` passes the fields up to ``submit_time``
    positionally; ``completed`` is built by :meth:`CondorPool.when_done`.
    """

    id: int
    owner: str
    cpu_work: float
    io_work: float = 0.0
    req_memory_gb: float = 0.0
    requirements: Optional[Requirements] = None
    rank: Optional[Rank] = None
    on_complete: Optional[Callable[["CondorJob"], None]] = None
    submit_time: float = 0.0
    completed: Optional[SimEvent] = None  # see CondorPool.when_done
    state: JobState = JobState.IDLE
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    machine_name: Optional[str] = None
    evictions: int = 0
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
    slot's token so a stale completion timer no-ops.
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
        and for retiring the job from the schedd's idle queue
        (``_job_left_queue``) right after the claim.
        """
        if self.free_slots < 1:
            raise CondorError(f"{self.machine.name} has no free slot")
        machine = self.machine
        busy = self.busy
        slot = 0
        while slot in busy:  # lowest free slot; free_slots >= 1 bounds it
            slot += 1
        busy[slot] = job
        pool._running += 1
        now = self.ctx.sim._now
        job.state = JobState.RUNNING
        job.start_time = now
        job.machine_name = machine.name
        obs = self.ctx.obs
        if obs.enabled:
            track = f"condor/job-{job.id}"
            obs.finish_open(track)  # the condor.wait span
            job.run_span_id = obs.start(
                "condor.run",
                track=track,
                cause=job.wait_span_id,
                job=job.id,
                machine=machine.name,
            ).id
        token = self._claim_seq = self._claim_seq + 1
        self._claims[slot] = token
        pool._update_free(self)
        duration = job.cpu_work / machine.cpu_factor + job.io_work / machine.io_factor
        return slot, token, now + duration

    def _finish_job(
        self, slot: int, token: int, job: CondorJob, pool: "CondorPool"
    ) -> None:
        """Completion-cohort apply for one claim (skips superseded claims).

        It also books the owner's usage and kicks the negotiator.
        """
        claims = self._claims
        if claims.get(slot) != token:
            return  # evicted or condor_rm'd; the slot moved on
        del self.busy[slot]
        del claims[slot]
        pool._running -= 1
        pool._update_free(self)
        job.state = JobState.COMPLETED
        ctx = self.ctx
        sim = ctx.sim
        job.end_time = sim._now
        if job.on_complete is not None:
            job.on_complete(job)
            job.on_complete = None  # frees the submitter's closure by refcount
        if job.completed is None:
            sim.trigger_unwatched()  # nobody asked: no event object
        else:
            job.completed.succeed(job)
        obs = ctx.obs
        if obs.enabled:
            obs.finish_open(f"condor/job-{job.id}")  # the condor.run span
        owner = job.owner
        usage = pool.usage_by_owner
        usage[owner] = usage.get(owner, 0.0) + job.cpu_work + job.io_work
        # A slot freed up: try to match the next idle job right away.
        pool._wake_negotiator()
        self._check_drained()

    def _abort(self, slot: int, job: CondorJob, pool: "CondorPool") -> None:
        """Free a claimed slot before completion (evict or ``condor_rm``).

        Bumping the claim token is what cancels the pending completion:
        its cohort member fires on schedule and no-ops on the mismatch.
        """
        del self.busy[slot]
        self._claims.pop(slot, None)
        pool._running -= 1
        pool._update_free(self)
        obs = self.ctx.obs
        if job.state == JobState.REMOVED:
            # condor_rm while running: free the slot, nothing to rematch
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
        pool._wake_negotiator()
        self._check_drained()

    def evict_all(self) -> None:
        pool = self.pool
        for slot, job in sorted(self.busy.items()):
            self._abort(slot, job, pool)

    def drain(self) -> SimEvent:
        """Stop matching new jobs; event fires when the last job finishes."""
        self._stop_matching()
        if self._drained_event is None:
            self._drained_event = self.ctx.sim.event()
        self._check_drained()
        return self._drained_event

    def _stop_matching(self) -> None:
        """Mark the machine draining; its cores leave the pool's slot total."""
        if self.draining:
            return
        self.draining = True
        if self.pool is not None:
            self.pool._total_slots -= self.machine.cores
            self.pool._update_free(self)

    def _check_drained(self) -> None:
        if self.draining and not self.busy and self._drained_event is not None:
            if not self._drained_event.triggered:
                self._drained_event.succeed(self.machine.name)


class Schedd:
    """The job queue.

    Besides every job ever submitted, it indexes the idle ones per owner,
    each bucket in (submit_time, id) order and holding only IDLE jobs:
    a claim or ``condor_rm`` retires its job at once.  The fair-share
    negotiator looks up one owner's n-th idle job at a time and keys its
    owner heap on it.
    """

    def __init__(self) -> None:
        self.jobs: dict[int, CondorJob] = {}
        # Idle jobs bucketed per owner so a negotiation cycle never scans
        # (or sorts) the full queue history.  Submission order is already
        # (submit_time, id) order — the pool numbers jobs in submission
        # order and sim time never goes backwards — so a bucket stays
        # sorted until an eviction re-queues an old job out of order,
        # which dirties its owner.
        self._idle_by_owner: dict[str, dict[int, CondorJob]] = {}
        self._dirty_owners: set[str] = set()
        #: idle-job count and total cpu+io work of the idle queue,
        #: maintained incrementally so queue-depth views and
        #: backlog-driven autoscaling policies get an O(1) snapshot
        #: instead of an O(idle jobs) scan per control interval
        self._idle_count = 0
        self._idle_work = 0.0

    def submit(self, job: CondorJob) -> bool:
        """Queue the newly built ``job`` as idle under its id; True when
        it is now its owner's only idle job (an emptied bucket is
        deleted, so that is when the owner had none)."""
        job_id = job.id
        self.jobs[job_id] = job
        self._idle_count += 1
        self._idle_work += job.cpu_work + job.io_work
        idle = self._idle_by_owner
        bucket = idle.get(job.owner)
        if bucket is None:
            idle[job.owner] = {job_id: job}
            return True
        bucket[job_id] = job
        return False

    def _job_requeued(self, job: CondorJob) -> None:
        """An eviction put ``job`` back to IDLE (possibly out of order)."""
        self._idle_count += 1
        self._idle_work += job.cpu_work + job.io_work
        bucket = self._idle_by_owner.get(job.owner)
        if bucket is None:
            bucket = self._idle_by_owner[job.owner] = {}
        bucket[job.id] = job
        self._dirty_owners.add(job.owner)

    def _job_left_queue(self, job: CondorJob) -> None:
        """``job`` stopped being IDLE (claimed or removed)."""
        bucket = self._idle_by_owner.get(job.owner)
        if bucket is not None and bucket.pop(job.id, None) is not None:
            self._idle_count -= 1
            self._idle_work -= job.cpu_work + job.io_work
            if not bucket:
                del self._idle_by_owner[job.owner]
                self._dirty_owners.discard(job.owner)

    def has_idle(self) -> bool:
        return self._idle_count > 0

    def idle_count(self) -> int:
        """Number of idle jobs, O(1)."""
        return self._idle_count

    def idle_count_of(self, owner: str) -> int:
        """One owner's idle-job count (0 when the owner has none queued)."""
        bucket = self._idle_by_owner.get(owner)
        return len(bucket) if bucket else 0

    @property
    def idle_work(self) -> float:
        """Total cpu+io work currently idle (m1.small-seconds), O(1)."""
        return self._idle_work

    def idle_job(self, owner: str, n: int = 0) -> Optional[CondorJob]:
        """``owner``'s idle job at index ``n`` of its (submit_time, id)
        order, or None when it has no more; ``n = 0`` is its head."""
        bucket = self._idle_by_owner.get(owner)
        if bucket is None:
            return None
        if owner in self._dirty_owners:
            ordered = sorted(
                bucket.values(), key=lambda j: (j.submit_time, j.id)
            )
            bucket = self._idle_by_owner[owner] = {j.id: j for j in ordered}
            self._dirty_owners.discard(owner)
        if n:
            return next(islice(bucket.values(), n, None), None)
        return next(iter(bucket.values()))  # a bucket is never empty


def _fail_removed(job: CondorJob, completed: SimEvent) -> None:
    """Fail ``job``'s completion event for ``condor_rm``, defused so a
    caller that asked for the event and dropped it cannot crash the
    drain."""
    completed.fail(CondorError(f"job {job.id} was removed"))
    completed.defused = True


def _negotiator_wake(ev: "_NegotiatorEvent") -> None:
    """Kernel callback of every wake: run the pool's negotiation cycle."""
    pool = ev.pool
    pool._wake_armed = False
    if not pool._stopped:
        pool._run_cycle()


def _negotiator_tick(ev: "_NegotiatorEvent") -> None:
    """Kernel callback of every interval tick.

    A tick whose cycle is still the pool's latest re-arms the wake; a
    stale one (a kick already ran a newer cycle, which armed its own tick
    if needed) does nothing.  Either way the tick then triggers its
    unwatched completion, so every tick counts as two events, and the
    wake draws its insertion id before the completion does.
    """
    pool = ev.pool
    if ev.gen == pool._gen:
        pool._wake_negotiator()
    pool.ctx.sim.trigger_unwatched()


_WAKE_CALLBACKS = [_negotiator_wake]
_TICK_CALLBACKS = [_negotiator_tick]


class _NegotiatorEvent(SimEvent):
    """A negotiator wake (LAZY, at the current time) or interval tick.

    Built flat by :meth:`~repro.simcore.Simulator.schedule_slotted`, with
    no callback list and no bound method of its own: it carries its pool
    (and a tick its cycle generation ``gen``), and its ``callbacks`` is
    :data:`_WAKE_CALLBACKS` or :data:`_TICK_CALLBACKS`, lists shared by
    every event of the kind, which nothing appends to.
    """

    __slots__ = ("pool", "gen")


class CondorPool:
    """Collector + negotiator + schedd: the pool facade Galaxy talks to.

    The negotiator matches idle jobs of lighter users first: Condor's
    user-priority fair share, simplified to accumulated usage.
    """

    def __init__(
        self,
        ctx: SimContext,
        negotiation_interval_s: float = calibration.CONDOR_NEGOTIATION_INTERVAL_S,
    ) -> None:
        if not negotiation_interval_s >= 0:  # also rejects NaN
            raise ValueError(
                f"negotiation_interval_s must be >= 0, got {negotiation_interval_s!r}"
            )
        self.ctx = ctx
        self.interval = negotiation_interval_s
        #: cpu+io work each owner's completed jobs used (fair-share key)
        self.usage_by_owner: dict[str, float] = {}
        #: fair-share index: a lazy min-heap of idle owners keyed (usage,
        #: head submit_time, head id, owner); see :meth:`_negotiation_cycle`.
        self._owner_heap: list[tuple[float, float, int, str]] = []
        self.schedd = Schedd()
        #: id of the next job :meth:`submit` builds
        self._next_job_id = 1
        self.startds: dict[str, Startd] = {}
        #: busy slots, and cores of non-draining machines, over
        #: ``startds``: kept current on every claim, release, join and
        #: drain, so the per-cycle gauges read them without a scan
        self._running = 0
        self._total_slots = 0
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
        self._total_slots += machine.cores
        self._update_free(startd)
        self.ctx.obs.instant(
            "condor.startd-join", track="condor",
            machine=machine.name, cores=machine.cores,
        )
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
                # an eviction may have removed it already, recording its
                # leave, and a new machine may have joined under its name
                if self.startds.get(name) is startd:
                    del self.startds[name]
                    self._free.pop(name, None)
                    self.ctx.obs.instant(
                        "condor.startd-leave", track="condor", machine=name
                    )
                done.succeed(name)

            if drained.processed:
                _finish(drained)
            else:
                drained.callbacks.append(_finish)
        else:
            startd._stop_matching()
            startd.evict_all()
            self.startds.pop(name, None)
            self._free.pop(name, None)
            self.ctx.obs.instant(
                "condor.startd-leave", track="condor", machine=name, evicted=True
            )
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
        # NaN fails every comparison
        if not 0.0 <= cpu_work < inf:
            raise CondorError(f"cpu_work must be finite and >= 0, got {cpu_work!r}")
        if not 0.0 <= io_work < inf:
            raise CondorError(f"io_work must be finite and >= 0, got {io_work!r}")
        if not 0.0 <= req_memory_gb < inf:  # NaN would pass every ``matches``
            raise CondorError(
                f"req_memory_gb must be finite and >= 0, got {req_memory_gb!r}"
            )
        job_id = self._next_job_id
        self._next_job_id = job_id + 1
        ctx = self.ctx
        # positional: a class called with keywords first packs them into
        # a dict, which costs more than the rest of the construction
        job = CondorJob(
            job_id, owner, cpu_work, io_work, req_memory_gb,
            requirements, rank, on_complete, ctx.sim._now,
        )
        if self.schedd.submit(job):
            self._enter_owner(job)  # the owner had no idle job until now
        obs = ctx.obs
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
        self._wake_negotiator()
        return job

    def when_done(self, job: CondorJob) -> SimEvent:
        """The event that fires with ``job`` once it completes.

        Built on the first call, so a job nobody waits on builds no event:
        its completion is the kernel's shared unwatched event instead
        (:meth:`~repro.simcore.Simulator.trigger_unwatched`), counted the
        same.  On a job that has already completed it comes back processed,
        with the job as its value; ``condor_rm`` fails it with a
        :class:`CondorError`.
        """
        ev = job.completed
        if ev is None:
            sim = self.ctx.sim
            if job.state == JobState.COMPLETED:
                ev = sim.processed_event(job)
            else:
                ev = SimEvent(sim)
                if job.state == JobState.REMOVED:
                    _fail_removed(job, ev)
            job.completed = ev
        return ev

    def remove_job(self, job: CondorJob) -> None:
        """``condor_rm``: drop a queued job, or kill a running one.

        A waiter on the job's :meth:`when_done` event gets a
        :class:`CondorError`; a job nobody waits on schedules nothing.
        """
        if job.state in (JobState.COMPLETED, JobState.REMOVED):
            raise CondorError(f"job {job.id} is already {job.state.value}")
        was_running = job.state == JobState.RUNNING
        job.state = JobState.REMOVED
        self.schedd._job_left_queue(job)
        job.end_time = self.ctx.now
        if job.completed is not None:
            _fail_removed(job, job.completed)
        if was_running:
            for startd in self.startds.values():
                for slot, running in list(startd.busy.items()):
                    if running is job:
                        startd._abort(slot, job, self)
        else:
            # idle: the running case closes its spans in Startd._abort
            self.ctx.obs.finish_open(
                f"condor/job-{job.id}", status="cancelled", error="condor_rm"
            )

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
        return self._running

    @property
    def total_slots(self) -> int:
        return self._total_slots

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
        if self.schedd.idle_job(job.owner) is job:
            self._enter_owner(job)

    def _enter_owner(self, head: CondorJob) -> None:
        """Push ``head``'s owner onto the fair-share heap, keyed on ``head``."""
        owner = head.owner
        heappush(
            self._owner_heap,
            (self.usage_by_owner.get(owner, 0.0), head.submit_time, head.id, owner),
        )

    # -- negotiation --------------------------------------------------------------
    def _update_free(self, startd: Startd) -> None:
        """Re-index one machine after its slot occupancy changed."""
        machine = startd.machine
        name = machine.name
        if (
            not startd.draining
            and machine.cores > len(startd.busy)
            and name in self.startds
        ):
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
        wake = self.ctx.sim.schedule_slotted(
            _NegotiatorEvent, _WAKE_CALLBACKS, priority=LAZY
        )
        wake.pool = self

    def _run_cycle(self) -> None:
        self._gen = gen = self._gen + 1
        self._negotiation_cycle()
        if self.schedd._idle_count and not self._stopped:
            # Unmatched work pending: retry next cycle, or earlier on a
            # submission/join/slot-free kick.  When nothing is idle no
            # timer is armed, so an idle simulation can drain to
            # completion.  The tick is a slotted event stamped with this
            # cycle's generation; its callback re-arms the LAZY wake, so
            # the cycle still runs after every ordinary event of its
            # timestamp, and then triggers the tick's unwatched
            # completion.
            tick = self.ctx.sim.schedule_slotted(
                _NegotiatorEvent, _TICK_CALLBACKS, self.interval
            )
            tick.pool = self
            tick.gen = gen

    def _complete_apply(self, cohort, k: int) -> None:
        startd, slot, token, job = cohort.payload[k]
        startd._finish_job(slot, token, job, self)

    def _negotiation_cycle(self) -> None:
        """Claim free slots for idle jobs in fair-share order.

        That order is a stable sort of the (submit_time, id)-ordered idle
        queue on accumulated usage.  For every owner with idle jobs,
        ``_owner_heap`` holds at least one (usage, head submit_time, head
        id, owner) entry no larger than the owner's current key: usage
        only grows, claims and removals only move a bucket's head forward,
        and an owner is pushed whenever a job becomes its head (its bucket
        was empty, or an eviction requeues a job ahead of the rest).  So
        the top entry, re-keyed until current, names the next job.  The
        cycle claims it on the best free machine, re-keys its owner on the
        next idle job (or pops it), and stops once no slot is free.  A job
        no free machine matches stays IDLE and is stepped over; its owner
        re-enters the heap at that head when the cycle ends.
        """
        free = self._free
        if not free:
            return  # every slot is claimed; nothing can match
        owners = self._owner_heap
        usage = self.usage_by_owner
        schedd = self.schedd
        skipped: dict[str, int] = {}  # owner -> its jobs stepped over
        finish_times: list[float] = []
        claims: list[tuple[Startd, int, int, CondorJob]] = []
        while owners:
            top = owners[0]
            owner = top[3]
            n = skipped.get(owner, 0)
            job = schedd.idle_job(owner, n)
            if job is None:
                heappop(owners)  # nothing left to consider for this owner
                continue
            used = usage.get(owner, 0.0)
            key = (used, job.submit_time, job.id, owner)
            if key != top:
                heapreplace(owners, key)  # make the top entry current
                continue
            # one fused pass picks the best-ranked candidate, inlining
            # ``job.matches`` and ``job.rank_of``; ``free`` is exact,
            # since ``_update_free`` runs on every slot change
            memory_gb = job.req_memory_gb
            requirements = job.requirements
            rank = job.rank
            best = None
            best_key = None
            for s in free.values():
                m = s.machine
                if memory_gb > m.memory_gb or (
                    requirements is not None and not requirements(m)
                ):
                    continue
                key = (m.cpu_factor if rank is None else rank(m), -len(s.busy), m.name)
                if best is None or key > best_key:
                    best = s
                    best_key = key
            if best is None:
                n = skipped[owner] = n + 1
            else:
                slot, token, finish = best.claim(job, self)
                schedd._job_left_queue(job)
                finish_times.append(finish)
                claims.append((best, slot, token, job))
            job = schedd.idle_job(owner, n)
            if job is None:
                heappop(owners)
            else:
                heapreplace(owners, (used, job.submit_time, job.id, owner))
            if not free:
                break  # the cycle itself consumed the last free slot
        if skipped:
            # Stepped-over jobs are still their owners' heads: drop the
            # entries keyed past them and re-enter each owner at its head.
            owners[:] = [e for e in owners if e[3] not in skipped]
            heapify(owners)
            for owner in skipped:
                self._enter_owner(schedd.idle_job(owner))
        obs = self.ctx.obs
        if claims:
            # One struct-of-arrays cohort per cycle: every claim's
            # completion timer in match order.  With obs on, the cohort
            # carries each member's condor.run span id so the causal
            # chain survives the batched completion (spans opened from
            # the apply can cite cohort.cause[k]); obs off, it stays None.
            self.ctx.sim.schedule_cohort(
                finish_times,
                self._complete_apply,
                payload=claims,
                cause=tuple(c[3].run_span_id for c in claims) if obs.enabled else None,
            )
        if obs.enabled:
            if claims:
                obs.instant("condor.negotiate", track="condor", matched=len(claims))
            # gauge samples at every negotiation cycle: the Fig. 11
            # utilization/backlog curves straight from the trace
            slots = self.total_slots
            running = self.running_count
            obs.series("condor.pool_utilization").record(
                running / slots if slots else 0.0
            )
            obs.series("condor.idle_jobs").record(self.schedd.idle_count())
            obs.series("condor.running_jobs").record(running)

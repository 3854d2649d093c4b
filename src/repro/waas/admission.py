"""Admission control: per-tenant quotas and fair-share dispatch.

The Condor layer already fair-shares *jobs* between owners (PR 3's
per-owner idle buckets); this controller fair-shares *workflows*
between tenants one level up, before any job reaches the schedd.  Two
limits gate admission:

* each tenant runs at most ``TenantSpec.quota`` workflows at once;
* the service as a whole runs at most ``max_in_flight`` workflows,
  bounding the job queue the negotiator has to scan.

Deferred workflows wait in per-tenant FIFOs, however long they grow: an
arrival is admitted or queued, never turned away.  When capacity frees up,
the tenant with the least accumulated usage (total DAG work completed,
ties broken by earliest waiting head then tenant id) admits next — the
same accumulated-usage discipline Condor's user priorities simplify to,
applied at workflow granularity.

The dispatch order lives in a lazy heap: entries are (usage, head
arrival, tenant id) snapshots, re-validated on pop and re-pushed with
current keys when stale.  Each offer/complete pushes at most one entry,
so the heap stays O(operations) at 100k tenants instead of re-sorting
the tenant population per admission.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Callable, Optional

from ..simcore import SimContext
from .tenants import WorkflowRequest

StartCallback = Callable[[WorkflowRequest], None]


class AdmissionController:
    """Quota + fair-share gate between arrivals and the executor."""

    def __init__(self, ctx: SimContext, max_in_flight: int = 200) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.ctx = ctx
        self.max_in_flight = max_in_flight
        self._start: Optional[StartCallback] = None
        # -- live state ----------------------------------------------------
        self.in_flight = 0
        self._tenant_in_flight: dict[int, int] = {}
        self._backlog: dict[int, deque[WorkflowRequest]] = {}
        #: completed DAG work per tenant id — the fair-share key
        self.usage: dict[int, float] = {}
        self._heap: list[tuple[float, float, int]] = []
        # -- counters ------------------------------------------------------
        self.admitted = 0
        self.deferred = 0
        self.backlog_workflows = 0
        self.backlog_work = 0.0

    def bind(self, start: StartCallback) -> None:
        """Wire the executor callback (the service calls this once)."""
        self._start = start

    # -- the gate ----------------------------------------------------------
    def offer(self, req: WorkflowRequest) -> None:
        """An arrival: admit now or queue behind the quota; none is turned
        away."""
        tid = req.tenant.id
        backlog = self._backlog.get(tid)
        if (
            backlog is None
            and self.in_flight < self.max_in_flight
            and self._tenant_in_flight.get(tid, 0) < req.tenant.quota
        ):
            self._admit(req)
            return
        if backlog is None:
            backlog = self._backlog[tid] = deque()
        backlog.append(req)
        self.deferred += 1
        self.backlog_workflows += 1
        self.backlog_work += req.dag.total_work
        heappush(self._heap, (self.usage.get(tid, 0.0), backlog[0].arrival_s, tid))

    def complete(self, req: WorkflowRequest) -> None:
        """A workflow finished: charge usage, release its slot, refill."""
        tid = req.tenant.id
        self.usage[tid] = self.usage.get(tid, 0.0) + req.dag.total_work
        self.in_flight -= 1
        left = self._tenant_in_flight.get(tid, 0) - 1
        if left > 0:
            self._tenant_in_flight[tid] = left
        else:
            self._tenant_in_flight.pop(tid, None)
        backlog = self._backlog.get(tid)
        if backlog:
            # the quota slot this completion freed may be what its own
            # backlog was waiting for; re-enter the dispatch order
            heappush(
                self._heap, (self.usage[tid], backlog[0].arrival_s, tid)
            )
        self._drain()

    def _admit(self, req: WorkflowRequest) -> None:
        tid = req.tenant.id
        self.in_flight += 1
        self._tenant_in_flight[tid] = self._tenant_in_flight.get(tid, 0) + 1
        self.admitted += 1
        req.admitted_s = self.ctx.now
        assert self._start is not None, "AdmissionController is not bound"
        self._start(req)

    def _drain(self) -> None:
        """Admit backlogged workflows while capacity lasts, fairest first."""
        heap = self._heap
        while heap and self.in_flight < self.max_in_flight:
            usage, head_arrival, tid = heap[0]
            backlog = self._backlog.get(tid)
            if not backlog:
                heappop(heap)  # everything it referred to already admitted
                continue
            current = (self.usage.get(tid, 0.0), backlog[0].arrival_s, tid)
            if current != (usage, head_arrival, tid):
                # stale snapshot: re-key and let the heap re-rank it
                heappop(heap)
                heappush(heap, current)
                continue
            if self._tenant_in_flight.get(tid, 0) >= backlog[0].tenant.quota:
                # at quota: drop the entry; this tenant's next completion
                # re-pushes it, so nothing is lost
                heappop(heap)
                continue
            heappop(heap)
            req = backlog.popleft()
            self.backlog_workflows -= 1
            self.backlog_work -= req.dag.total_work
            if backlog:
                heappush(
                    heap, (self.usage.get(tid, 0.0), backlog[0].arrival_s, tid)
                )
            else:
                del self._backlog[tid]
            self._admit(req)

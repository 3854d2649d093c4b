"""The WaaS front door: arrivals -> admission -> DAG execution -> SLA.

``WaasService`` runs a multi-tenant workflow service on top of one GP
deployment, the ``waas`` domain :func:`waas_topology` builds: tenants
submit workflow DAGs with deadlines (the open-loop Poisson plan of
:mod:`~repro.waas.tenants`), the admission controller queues them behind
quotas and fair share and rejects none, and admitted DAGs execute on the
deployment's Condor pool — each task a Condor job owned by its tenant,
so the negotiator's per-owner fair share applies *within* the pool just
as admission applies above it.  The run is done when every planned
workflow has completed.

Two scale-critical choices:

* the entire arrival schedule registers as **one struct-of-arrays
  cohort** — 100k arrivals cost one kernel registration, not 100k
  timers;
* DAG execution is **callback-driven**: task completions chain through
  Condor's ``on_complete`` into readiness updates, so a workflow in
  flight holds no resident simulation process.  The only processes in
  a WaaS run are the provisioner loop and whatever the kernel already
  runs.

The service never draws randomness: arrivals are precomputed and
execution is reactive, so obs-on and obs-off runs stay byte-identical.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

from ..provision.instance import GlobusProvision
from ..provision.topology import DomainSpec, EC2Spec, GlobusOnlineSpec, Topology
from .admission import AdmissionController
from .policies import PoolSnapshot
from .tenants import ArrivalPlan, WorkflowRequest


def waas_topology(base_workers: int, instance_type: str = "m1.small") -> Topology:
    """A lean WaaS pool, domain ``waas``: NFS/NIS head + Condor workers,
    no Galaxy tier.

    The front door submits to Condor directly, so the topology skips the
    Galaxy/GridFTP nodes the interactive deployments carry — at 100k
    tenants the head-node tax would be pure noise.  The pool shares data
    over NFS, ``DomainSpec``'s default backend.
    """
    return Topology(
        domains=(
            DomainSpec(
                name="waas",
                users=("waas-admin",),
                nfs=True,
                condor=True,
                cluster_nodes=base_workers,
            ),
        ),
        ec2=EC2Spec(instance_type=instance_type),
        globusonline=GlobusOnlineSpec(),
    )


class WaasService:
    """Multi-tenant workflow execution bound to one GP instance.

    Build it once the instance's deployment is up: the constructor
    resolves the deployment's Condor pool.
    """

    def __init__(
        self,
        gp: GlobusProvision,
        instance_id: str,
        plan: ArrivalPlan,
        admission: AdmissionController,
    ) -> None:
        self.gp = gp
        self.ctx = gp.bed.ctx
        self.instance_id = instance_id
        self.plan = plan
        self.admission = admission
        #: the deployment's Condor pool: ``gp.update`` resizes it but
        #: never replaces it, so it is resolved once, here
        self.pool = gp.get(instance_id).deployment.pool
        admission.bind(self._start_workflow)
        # -- per-DAG execution plans, shared across requests ----------------
        # keyed by object identity: the arrival plan hands the same DAG
        # object to many requests, so a 100k-workflow run builds only
        # ``unique_dags`` plans (values keep the DAG alive, making ids safe)
        self._plans: dict[int, tuple] = {}
        # -- per-request runtime state --------------------------------------
        self._indegree: dict[int, list[int]] = {}
        self._remaining: dict[int, int] = {}
        # obs causal carriers: request id -> current span id on its
        # track (waas.workflow at arrival, waas.admit once admitted), so
        # the Condor submissions a workflow fans out cite the service
        # span that released them.  Stays empty when obs is disabled —
        # every consumer gates on the dict's truthiness.
        self._wf_span_ids: dict[int, int] = {}
        # -- deadline index for the provisioner's snapshot ------------------
        self._deadline_heap: list[tuple[float, int]] = []
        self._live: set[int] = set()
        # -- outcomes -------------------------------------------------------
        self.completed: list[WorkflowRequest] = []
        #: admission queues every arrival and turns none away; kept empty
        #: for perfbench's ``waas`` scenario, which still reads it
        self.rejected: tuple[WorkflowRequest, ...] = ()
        self.sla_met = 0
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self._all_done = self.ctx.sim.event()

    # -- lifecycle ---------------------------------------------------------
    @property
    def all_done(self):
        """Fires once every planned request has completed."""
        return self._all_done

    def open(self) -> float:
        """Register the full arrival schedule; returns the open instant.

        Arrival offsets become absolute times relative to *now* (call
        this once the deployment is up) and enter the kernel as a single
        cohort — the service's demand side costs O(1) registrations.
        """
        t0 = self.ctx.now
        requests = self.plan.requests
        times = [t0 + r.arrival_s for r in requests]
        self.ctx.sim.schedule_cohort(times, self._arrival_apply, payload=requests)
        self.ctx.obs.instant("waas.open", track="waas", requests=len(requests), t0=t0)
        return t0

    # -- arrivals ----------------------------------------------------------
    def _arrival_apply(self, cohort, k: int) -> None:
        req = cohort.payload[k]
        now = self.ctx.now
        req.arrived_s = now
        req.deadline_s = now + req.allowance_s
        self._live.add(req.id)
        heappush(self._deadline_heap, (req.deadline_s, req.id))
        obs = self.ctx.obs
        if obs.enabled:
            self._wf_span_ids[req.id] = obs.start(
                "waas.workflow",
                track=self._track(req),
                tenant=req.tenant.name,
                workflow=req.id,
                shape=req.dag.shape,
            ).id
        self.admission.offer(req)

    @staticmethod
    def _track(req: WorkflowRequest) -> str:
        """Per-tenant span tracks: every workflow files under its tenant."""
        return f"waas/{req.tenant.name}/wf-{req.id}"

    # -- execution ---------------------------------------------------------
    def _dag_plan(self, dag) -> tuple:
        plan = self._plans.get(id(dag))
        if plan is None:
            children: list[list[int]] = [[] for _ in dag.tasks]
            indegree = [len(t.parents) for t in dag.tasks]
            for t in dag.tasks:
                for p in t.parents:
                    children[p].append(t.id)
            plan = self._plans[id(dag)] = (
                dag,  # keep alive so id() stays unambiguous
                tuple(tuple(c) for c in children),
                tuple(indegree),
            )
        return plan

    def _start_workflow(self, req: WorkflowRequest) -> None:
        """Admission callback: release the DAG's root tasks to Condor."""
        obs = self.ctx.obs
        if obs.enabled:
            # zero-width admission marker: arrival -> admit -> dispatch
            # becomes an explicit causal chain (admission may fire long
            # after arrival when the request sat in the backlog)
            span = obs.start(
                "waas.admit",
                track=self._track(req),
                cause=self._wf_span_ids.get(req.id),
                workflow=req.id,
            )
            obs.finish(span)
            self._wf_span_ids[req.id] = span.id
            obs.series("waas.in_flight").record(self.admission.in_flight)
        _dag, children, indegree0 = self._dag_plan(req.dag)
        self._indegree[req.id] = list(indegree0)
        self._remaining[req.id] = len(req.dag.tasks)
        for task in req.dag.tasks:
            if not task.parents:
                self._submit_task(req, task.id)

    def _submit_task(self, req: WorkflowRequest, task_id: int) -> None:
        task = req.dag.tasks[task_id]
        self.jobs_submitted += 1

        def _done(job, req=req, task_id=task_id):
            self._task_done(req, task_id)

        self.pool.submit(
            cpu_work=task.cpu_work,
            owner=req.tenant.name,
            on_complete=_done,
            cause=self._wf_span_ids.get(req.id) if self._wf_span_ids else None,
        )

    def _task_done(self, req: WorkflowRequest, task_id: int) -> None:
        self.jobs_completed += 1
        _dag, children, _indegree0 = self._plans[id(req.dag)]
        indegree = self._indegree[req.id]
        for child in children[task_id]:
            indegree[child] -= 1
            if indegree[child] == 0:
                self._submit_task(req, child)
        self._remaining[req.id] -= 1
        if self._remaining[req.id] == 0:
            self._finish_workflow(req)

    def _finish_workflow(self, req: WorkflowRequest) -> None:
        now = self.ctx.now
        req.completed_s = now
        del self._indegree[req.id]
        del self._remaining[req.id]
        self._live.discard(req.id)
        self.completed.append(req)
        met = req.sla_met
        if met:
            self.sla_met += 1
        obs = self.ctx.obs
        if obs.enabled:
            obs.finish_open(self._track(req), status="ok" if met else "error",
                            error=None if met else "deadline-missed")
            self._wf_span_ids.pop(req.id, None)
        self.admission.complete(req)
        if obs.enabled:
            obs.series("waas.in_flight").record(self.admission.in_flight)
        self._check_all_done()

    def _check_all_done(self) -> None:
        if (
            len(self.completed) == len(self.plan.requests)
            and not self._all_done.triggered
        ):
            self._all_done.succeed(self)

    # -- observability for the provisioner ---------------------------------
    def min_deadline_slack(self) -> Optional[float]:
        """Slack of the most urgent live workflow (negative when late)."""
        heap = self._deadline_heap
        while heap and heap[0][1] not in self._live:
            heappop(heap)
        if not heap:
            return None
        return heap[0][0] - self.ctx.now

    def snapshot(self) -> PoolSnapshot:
        """The provisioner's policy input, assembled in O(log live)."""
        adm = self.admission
        gpi = self.gp.get(self.instance_id)
        return PoolSnapshot.of_pool(
            self.pool,
            self.ctx.now,
            gpi.topology.domain("waas").cluster_nodes,
            backlog_workflows=adm.backlog_workflows,
            backlog_work=adm.backlog_work,
            in_flight=adm.in_flight,
            min_deadline_slack_s=self.min_deadline_slack(),
        )

    # -- results -----------------------------------------------------------
    @property
    def sla_attainment(self) -> float:
        done = len(self.completed)
        return self.sla_met / done if done else 0.0

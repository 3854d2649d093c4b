"""Tenant population and open-loop arrival processes for the WaaS front door.

The paper's deployments serve one lab at a time; a Workflow-as-a-Service
front door serves *populations* — thousands of tenants submitting
workflow DAGs against deadlines.  This module builds that demand side:
a roster of :class:`TenantSpec` and a list of :class:`WorkflowRequest`
whose arrival times come from either a Poisson process (the open-loop
default) or an explicit trace.

Arrivals are *open-loop*: the request list is fully determined by the
config seed before the simulation starts, so the demand never reacts to
how the service is doing — the property that makes policy runs
comparable and lets the whole arrival schedule register as one
struct-of-arrays cohort.  All randomness comes from a private
``numpy`` generator derived from the seed; the simulation's own RNG
streams are never touched, so adding WaaS load to a testbed cannot
perturb any other seeded behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from ..workloads.generators import DAG_SHAPES, WorkflowDAG, make_workflow_dag


@dataclass(frozen=True)
class TenantSpec:
    """One customer of the service."""

    id: int
    name: str
    #: max workflows this tenant may have admitted concurrently
    quota: int = 2

    def __post_init__(self) -> None:
        if self.quota < 1:
            raise ValueError("tenant quota must be >= 1")


@dataclass
class WorkflowRequest:
    """One submitted workflow: a DAG, an arrival offset, a deadline.

    ``arrival_s`` is an offset from the instant the service opens;
    ``allowance_s`` is the deadline budget measured from arrival.  The
    absolute times (and the admission/completion stamps) are filled in
    by the service at runtime.
    """

    id: int
    tenant: TenantSpec
    dag: WorkflowDAG
    arrival_s: float
    allowance_s: float
    # -- runtime state, stamped by the service ---------------------------
    deadline_s: float = 0.0
    arrived_s: Optional[float] = None
    admitted_s: Optional[float] = None
    completed_s: Optional[float] = None
    rejected: bool = False

    @property
    def admission_wait_s(self) -> Optional[float]:
        if self.admitted_s is None or self.arrived_s is None:
            return None
        return self.admitted_s - self.arrived_s

    @property
    def makespan_s(self) -> Optional[float]:
        if self.completed_s is None or self.arrived_s is None:
            return None
        return self.completed_s - self.arrived_s

    @property
    def sla_met(self) -> bool:
        return self.completed_s is not None and self.completed_s <= self.deadline_s


def make_tenants(n: int, quota: int = 2) -> tuple[TenantSpec, ...]:
    """A roster of ``n`` identically-quota'd tenants."""
    if n < 1:
        raise ValueError("need at least one tenant")
    width = max(4, len(str(n - 1)))
    return tuple(
        TenantSpec(id=i, name=f"tenant-{i:0{width}d}", quota=quota)
        for i in range(n)
    )


@dataclass(frozen=True)
class ArrivalPlan:
    """The demand side of one WaaS run: tenants plus their requests."""

    tenants: tuple[TenantSpec, ...]
    requests: tuple[WorkflowRequest, ...] = field(repr=False)

    @property
    def total_work(self) -> float:
        return sum(r.dag.total_work for r in self.requests)

    @property
    def span_s(self) -> float:
        return self.requests[-1].arrival_s if self.requests else 0.0


def _dag_catalog(
    unique_dags: int,
    shapes: Sequence[str],
    dag_tasks: int,
    mean_task_work_s: float,
    seed: int,
) -> list[WorkflowDAG]:
    """``unique_dags`` distinct DAGs cycling through ``shapes``.

    Requests share these objects (a 100k-tenant run must not build 100k
    DAGs); the executor keys its per-DAG plan cache on object identity,
    which sharing makes effective.
    """
    if unique_dags < 1:
        raise ValueError("unique_dags must be >= 1")
    for shape in shapes:
        if shape not in DAG_SHAPES:
            raise ValueError(f"unknown DAG shape {shape!r}; known: {DAG_SHAPES}")
    return [
        make_workflow_dag(
            shape=shapes[v % len(shapes)],
            n_tasks=dag_tasks,
            seed=seed + v,
            mean_work_s=mean_task_work_s,
        )
        for v in range(unique_dags)
    ]


def poisson_plan(
    n_tenants: int,
    workflows: int,
    arrival_rate_per_s: float,
    *,
    tenant_quota: int = 2,
    dag_tasks: int = 6,
    unique_dags: int = 50,
    shapes: Sequence[str] = DAG_SHAPES,
    mean_task_work_s: float = 90.0,
    deadline_base_s: float = 600.0,
    deadline_slack: float = 3.0,
    seed: int = 0,
) -> ArrivalPlan:
    """Poisson arrivals: i.i.d. exponential gaps at ``arrival_rate_per_s``.

    Each workflow lands on a uniformly random tenant and draws one of
    ``unique_dags`` shared DAG variants.  The deadline budget is
    ``deadline_base_s + deadline_slack * critical_path_work`` — a
    workflow with no queueing on reference (m1.small) hardware finishes
    well inside it, so attainment measures the *service*, not the
    generator.
    """
    if arrival_rate_per_s <= 0:
        raise ValueError("arrival_rate_per_s must be > 0")
    if workflows < 1:
        raise ValueError("need at least one workflow")
    tenants = make_tenants(n_tenants, quota=tenant_quota)
    rng = np.random.default_rng(seed)
    # Rounded to ms so arrival timestamps survive JSON round-trips
    # bit-exactly; ties are fine (the arrival cohort preserves order).
    times = np.round(
        np.cumsum(rng.exponential(1.0 / arrival_rate_per_s, size=workflows)), 3
    )
    tenant_ix = rng.integers(0, n_tenants, size=workflows)
    catalog = _dag_catalog(unique_dags, tuple(shapes), dag_tasks, mean_task_work_s, seed)
    requests = tuple(
        WorkflowRequest(
            id=i,
            tenant=tenants[int(tenant_ix[i])],
            dag=(dag := catalog[i % unique_dags]),
            arrival_s=float(times[i]),
            allowance_s=deadline_base_s + deadline_slack * dag.critical_path_work,
        )
        for i in range(workflows)
    )
    return ArrivalPlan(tenants=tenants, requests=requests)


def trace_plan(
    trace: Iterable[dict],
    *,
    n_tenants: int,
    tenant_quota: int = 2,
    dag_tasks: int = 6,
    unique_dags: int = 50,
    shapes: Sequence[str] = DAG_SHAPES,
    mean_task_work_s: float = 90.0,
    deadline_base_s: float = 600.0,
    deadline_slack: float = 3.0,
    seed: int = 0,
) -> ArrivalPlan:
    """Trace-driven arrivals: replay explicit ``{"t", "tenant"}`` records.

    Optional per-record keys override the catalog defaults: ``variant``
    picks a specific DAG from the shared catalog, ``allowance_s`` pins
    the deadline budget.  Records must be in non-decreasing ``t`` order
    (the schedule registers as one cohort).
    """
    tenants = make_tenants(n_tenants, quota=tenant_quota)
    catalog = _dag_catalog(unique_dags, tuple(shapes), dag_tasks, mean_task_work_s, seed)
    requests: list[WorkflowRequest] = []
    last_t = 0.0
    for i, rec in enumerate(trace):
        t = float(rec["t"])
        if t < last_t:
            raise ValueError(f"trace record {i} goes back in time ({t} < {last_t})")
        last_t = t
        tenant_id = int(rec["tenant"])
        if not 0 <= tenant_id < n_tenants:
            raise ValueError(f"trace record {i} names unknown tenant {tenant_id}")
        dag = catalog[int(rec.get("variant", i)) % unique_dags]
        allowance = rec.get("allowance_s")
        if allowance is None:
            allowance = deadline_base_s + deadline_slack * dag.critical_path_work
        requests.append(
            WorkflowRequest(
                id=i,
                tenant=tenants[tenant_id],
                dag=dag,
                arrival_s=t,
                allowance_s=float(allowance),
            )
        )
    if not requests:
        raise ValueError("empty trace")
    return ArrivalPlan(tenants=tenants, requests=tuple(requests))

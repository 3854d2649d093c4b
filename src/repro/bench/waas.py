"""WaaS benchmark: racing elasticity policies on SLA vs dollar cost.

The paper's Sec. V-A shows one manual scale-up (adding a c1.medium)
cutting a workflow from 10.7 to 6.9 minutes.  This driver generalises
that anecdote into a policy benchmark: a multi-tenant front door
(:mod:`repro.waas`) pushes an open-loop stream of deadline-bearing
workflow DAGs at one GP deployment, an elastic provisioner reshapes the
Condor pool under a pluggable policy, and the result is the trade-off
the paper only gestures at — what fraction of deadlines each policy
meets, and what the fleet costs under proportional and hourly billing.

Shapes:

* ``SMOKE_GRID`` — tens of tenants, CI-sized (the static baseline is
  deliberately overloaded so autoscaling visibly moves attainment);
* ``FULL_GRID`` — the 1k-tenant and 100k-tenant grids.

Everything is derived from the config seed; two runs with the same
config are byte-identical in every field regardless of worker count or
whether observability is recording.  What a run costs the host is
measured by ``perfbench/run.py``'s ``waas`` workload, not here.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

from ..core.testbed import CloudTestbed
from ..obs.export import _percentile
from ..provision.instance import GlobusProvision
from ..waas import (
    AdmissionController,
    ElasticProvisioner,
    WaasService,
    make_policy,
    poisson_plan,
    waas_topology,
)
from ..workloads.generators import DAG_SHAPES


@dataclass(frozen=True)
class WaasConfig:
    """One policy-run shape.  ``policy_params`` is a tuple of (name,
    value) pairs so the config stays hashable and JSON-stable."""

    tenants: int = 1000
    workflows: int = 2000
    arrival_rate_per_s: float = 0.5
    tenant_quota: int = 2
    max_in_flight: int = 400
    dag_tasks: int = 6
    unique_dags: int = 50
    shapes: tuple[str, ...] = DAG_SHAPES
    mean_task_work_s: float = 90.0
    deadline_base_s: float = 600.0
    deadline_slack: float = 3.0
    policy: str = "static"
    policy_params: tuple[tuple[str, float], ...] = ()
    base_workers: int = 4
    min_workers: int = 1
    max_workers: int = 128
    worker_instance_type: str = "c1.medium"
    instance_type: str = "m1.small"
    check_interval_s: float = 60.0
    seed: int = 0

    def __post_init__(self) -> None:
        # JSON round-trips hand lists back; normalise so replace()/asdict()
        # of a round-tripped config equals the original
        object.__setattr__(self, "shapes", tuple(self.shapes))
        object.__setattr__(
            self, "policy_params", tuple(tuple(p) for p in self.policy_params)
        )


#: the 1k-tenant headline and the 100k-tenant stressor
FULL_GRID = (
    WaasConfig(policy="static"),
    WaasConfig(policy="queue_depth", policy_params=(("step", 4),)),
    WaasConfig(policy="deadline_slack", policy_params=(("step", 4),)),
    WaasConfig(
        tenants=100_000, workflows=100_000, arrival_rate_per_s=50.0,
        dag_tasks=4, unique_dags=200, max_in_flight=2000,
        base_workers=8, max_workers=128,
        policy="queue_depth", policy_params=(("step", 8),),
    ),
)

#: CI shape: one undersized m1.small against ~16k s of demand, so the
#: static baseline drowns and the autoscalers get to show their policies
SMOKE_CONFIG = WaasConfig(
    tenants=24,
    workflows=48,
    arrival_rate_per_s=0.04,
    tenant_quota=2,
    max_in_flight=16,
    dag_tasks=4,
    unique_dags=8,
    mean_task_work_s=60.0,
    deadline_base_s=300.0,
    deadline_slack=2.0,
    base_workers=1,
    max_workers=5,
    check_interval_s=60.0,
)

SMOKE_GRID = (
    SMOKE_CONFIG,
    replace(SMOKE_CONFIG, policy="queue_depth"),
    replace(SMOKE_CONFIG, policy="deadline_slack"),
)


@dataclass
class WaasResult:
    """One policy run; every field is seed-deterministic."""

    config: WaasConfig
    policy: dict
    nodes: int
    plan_work_s: float
    arrival_span_s: float
    deploy_sim_seconds: float
    sim_seconds: float
    events_processed: int
    workflows_completed: int
    workflows_rejected: int
    sla_met: int
    sla_attainment: float
    tasks_submitted: int
    tasks_completed: int
    tasks_failed: int
    scale_ups: int
    scale_downs: int
    peak_workers: int
    final_workers: int
    makespan_p50_s: float
    makespan_p95_s: float
    admission_wait_p95_s: float
    cost_proportional_usd: float
    cost_hourly_usd: float
    cost_by_type_usd: dict[str, float] = field(default_factory=dict)
    scaling_events: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["config"] = asdict(self.config)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def check_shape(self) -> None:
        """Sanity assertions shared by the smoke test and the full run."""
        c = self.config
        assert self.workflows_completed == c.workflows
        assert self.tasks_failed == 0, f"{self.tasks_failed} tasks never completed"
        assert self.tasks_submitted == self.tasks_completed
        assert 0.0 <= self.sla_attainment <= 1.0
        assert self.events_processed > 0
        assert self.peak_workers <= max(c.max_workers, c.base_workers)
        assert self.final_workers >= min(c.min_workers, c.base_workers)
        if c.policy == "static":
            assert self.scale_ups == 0 and self.scale_downs == 0
        assert self.cost_proportional_usd <= self.cost_hourly_usd + 1e-9
        total_by_type = sum(self.cost_by_type_usd.values())
        assert abs(total_by_type - self.cost_proportional_usd) < 1e-4


def run(config: WaasConfig = SMOKE_CONFIG) -> WaasResult:
    """Deploy, open the front door, drain the demand; return the metrics."""
    bed = CloudTestbed(seed=config.seed)
    gp = GlobusProvision(bed)
    topology = waas_topology(
        config.base_workers, instance_type=config.instance_type
    )
    plan = poisson_plan(
        config.tenants,
        config.workflows,
        config.arrival_rate_per_s,
        tenant_quota=config.tenant_quota,
        dag_tasks=config.dag_tasks,
        unique_dags=config.unique_dags,
        shapes=config.shapes,
        mean_task_work_s=config.mean_task_work_s,
        deadline_base_s=config.deadline_base_s,
        deadline_slack=config.deadline_slack,
        seed=config.seed,
    )

    gpi = gp.create(topology)
    start_proc = bed.ctx.sim.process(gp.start(gpi.id), name="gp-start")
    bed.run(until=start_proc)
    deploy_sim_seconds = bed.now

    admission = AdmissionController(bed.ctx, max_in_flight=config.max_in_flight)
    service = WaasService(gp, gpi.id, plan, admission)
    provisioner = ElasticProvisioner(
        gp,
        gpi.id,
        make_policy(config.policy, **dict(config.policy_params)),
        service.snapshot,
        check_interval_s=config.check_interval_s,
        min_workers=config.min_workers,
        max_workers=config.max_workers,
        worker_instance_type=config.worker_instance_type,
    )

    def drive(ctx):
        service.open()
        provisioner.start()
        yield service.all_done
        provisioner.stop()

    proc = bed.ctx.sim.process(drive(bed.ctx), name="waas-drive")
    bed.run(until=proc)

    sim = bed.ctx.sim
    meter = bed.ec2.meter
    now = bed.now
    makespans = sorted(r.makespan_s for r in service.completed)
    waits = sorted(r.admission_wait_s for r in service.completed)
    return WaasResult(
        config=config,
        policy=provisioner.policy.describe(),
        nodes=len(gpi.deployment.nodes),
        plan_work_s=round(plan.total_work, 3),
        arrival_span_s=round(plan.span_s, 3),
        deploy_sim_seconds=deploy_sim_seconds,
        sim_seconds=now,
        events_processed=sim.events_processed,
        workflows_completed=len(service.completed),
        workflows_rejected=0,
        sla_met=service.sla_met,
        sla_attainment=round(service.sla_attainment, 4),
        tasks_submitted=service.jobs_submitted,
        tasks_completed=service.jobs_completed,
        tasks_failed=service.jobs_submitted - service.jobs_completed,
        scale_ups=provisioner.scale_ups,
        scale_downs=provisioner.scale_downs,
        peak_workers=provisioner.peak_workers,
        final_workers=provisioner.worker_count(),
        makespan_p50_s=round(_percentile(makespans, 0.50), 3),
        makespan_p95_s=round(_percentile(makespans, 0.95), 3),
        admission_wait_p95_s=round(_percentile(waits, 0.95), 3),
        cost_proportional_usd=round(meter.cost(now, mode="proportional"), 6),
        cost_hourly_usd=round(meter.cost(now, mode="hourly"), 6),
        cost_by_type_usd={
            t: round(usd, 6)
            for t, usd in meter.cost_by_type(now, mode="proportional").items()
        },
        scaling_events=[asdict(e) for e in provisioner.events],
    )

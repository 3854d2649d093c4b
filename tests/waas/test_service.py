"""End-to-end: deploy a pool, open the front door, drain the demand."""

import gc

from repro.cluster import JobState
from repro.core.testbed import CloudTestbed
from repro.provision.instance import GlobusProvision
from repro.simcore.cohort import EventCohort, _CohortMember
from repro.waas import (
    AdmissionController,
    ElasticProvisioner,
    WaasService,
    make_policy,
    poisson_plan,
    waas_topology,
)


def _deploy(seed=0, base_workers=1, instance_type="m1.small"):
    bed = CloudTestbed(seed=seed)
    gp = GlobusProvision(bed)
    gpi = gp.create(waas_topology(base_workers, instance_type=instance_type))
    start = bed.ctx.sim.process(gp.start(gpi.id), name="gp-start")
    bed.run(until=start)
    return bed, gp, gpi


def _drain(bed, service, provisioner=None):
    def drive(ctx):
        service.open()
        if provisioner is not None:
            provisioner.start()
        yield service.all_done
        if provisioner is not None:
            provisioner.stop()

    proc = bed.ctx.sim.process(drive(bed.ctx), name="waas-drive")
    bed.run(until=proc)


def test_static_run_completes_every_workflow():
    bed, gp, gpi = _deploy(base_workers=2)
    plan = poisson_plan(4, 10, 0.1, dag_tasks=3, unique_dags=3,
                        mean_task_work_s=30.0, seed=0)
    adm = AdmissionController(bed.ctx, max_in_flight=8)
    service = WaasService(gp, gpi.id, plan, adm)
    _drain(bed, service)
    assert len(service.completed) == 10
    assert not service.rejected
    assert service.jobs_submitted == sum(len(r.dag.tasks) for r in plan.requests)
    assert service.jobs_completed == service.jobs_submitted
    for r in service.completed:
        assert r.completed_s is not None
        assert r.admitted_s is not None
        assert r.admitted_s >= r.arrived_s
        assert r.makespan_s > 0
    assert 0.0 <= service.sla_attainment <= 1.0
    # all state drained
    assert adm.in_flight == 0 and adm.backlog_workflows == 0
    assert service.min_deadline_slack() is None


def test_autoscaler_grows_overloaded_pool():
    bed, gp, gpi = _deploy(base_workers=1)
    # heavy demand against a single m1.small -> queue_depth must scale up
    plan = poisson_plan(8, 24, 0.2, dag_tasks=4, unique_dags=4,
                        mean_task_work_s=90.0, seed=1)
    adm = AdmissionController(bed.ctx, max_in_flight=16)
    service = WaasService(gp, gpi.id, plan, adm)
    prov = ElasticProvisioner(
        gp, gpi.id, make_policy("queue_depth"), service.snapshot,
        min_workers=1, max_workers=4, check_interval_s=60.0,
    )
    _drain(bed, service, prov)
    assert len(service.completed) == 24
    assert prov.scale_ups > 0
    assert prov.peak_workers <= 4
    assert 1 <= prov.worker_count() <= 4
    assert all(e.workers_after != e.workers_before for e in prov.events)
    assert all(e.update_seconds >= 0 for e in prov.events)
    # Condor ends clean after the pool grew and shrank under load
    pool = service.pool
    assert pool.schedd.jobs
    assert all(j.state is JobState.COMPLETED for j in pool.schedd.jobs.values())
    assert not any(s.busy for s in pool.startds.values())
    assert pool.schedd.idle_count() == 0
    assert not pool.schedd._idle_by_owner
    assert pool._free == {
        name: s for name, s in pool.startds.items()
        if not s.draining and s.machine.cores > len(s.busy)
    }


def test_drained_run_leaves_no_cohort_for_the_collector():
    """Condor completions, EC2 boots and Chef converges all run as event
    cohorts.  With the collector paused, as the kernel pauses it for
    every drain, none of them may be left in a reference cycle once the
    run has drained."""
    enabled, flags, before = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.collect()
    gc.disable()
    try:
        bed, gp, gpi = _deploy(base_workers=1)
        plan = poisson_plan(4, 12, 0.2, dag_tasks=3, unique_dags=3,
                            mean_task_work_s=60.0, seed=3)
        adm = AdmissionController(bed.ctx, max_in_flight=8)
        service = WaasService(gp, gpi.id, plan, adm)
        prov = ElasticProvisioner(
            gp, gpi.id, make_policy("queue_depth"), service.snapshot,
            min_workers=1, max_workers=3, check_interval_s=60.0,
        )
        _drain(bed, service, prov)
        assert len(service.completed) == 12
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = [
            type(o).__name__
            for o in gc.garbage[before:]
            if isinstance(o, (EventCohort, _CohortMember))
        ]
    finally:
        gc.set_debug(flags)
        del gc.garbage[before:]
        if enabled:
            gc.enable()
    assert left == []


def test_snapshot_reflects_pool_and_admission():
    bed, gp, gpi = _deploy(base_workers=2)
    plan = poisson_plan(2, 4, 0.5, dag_tasks=2, seed=0)
    adm = AdmissionController(bed.ctx, max_in_flight=4)
    service = WaasService(gp, gpi.id, plan, adm)
    snap = service.snapshot()
    assert snap.workers == 2
    assert snap.total_slots > 0
    assert snap.cpu_capacity > 0
    assert snap.queue_depth == 0 and snap.in_flight == 0
    assert snap.min_deadline_slack_s is None
    _drain(bed, service)
    done = service.snapshot()
    assert done.in_flight == 0
    assert done.idle_work == 0.0


def test_run_is_seed_deterministic():
    def once():
        bed, gp, gpi = _deploy(base_workers=1)
        plan = poisson_plan(4, 8, 0.2, dag_tasks=3, seed=2)
        adm = AdmissionController(bed.ctx, max_in_flight=8)
        service = WaasService(gp, gpi.id, plan, adm)
        prov = ElasticProvisioner(
            gp, gpi.id, make_policy("deadline_slack"), service.snapshot,
            max_workers=3,
        )
        _drain(bed, service, prov)
        return (
            bed.now,
            bed.ctx.sim.events_processed,
            [(r.id, r.admitted_s, r.completed_s) for r in service.completed],
            [(e.time, e.action, e.workers_after) for e in prov.events],
        )

    assert once() == once()

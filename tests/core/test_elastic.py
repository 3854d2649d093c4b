"""Elastic scaling of a use-case deployment (the paper's future-work
feature): the WaaS provisioner with the queue-depth policy, watching a
bare Condor pool with no WaaS admission in front of it."""

import pytest

from repro.core import CloudTestbed, usecase_topology
from repro.galaxy import JobState
from repro.provision import GlobusProvision
from repro.waas import ElasticProvisioner, QueueDepthPolicy
from repro.workloads import make_expression_matrix_bytes


@pytest.fixture
def world():
    bed = CloudTestbed(seed=8)
    gp = GlobusProvision(bed)
    gpi = gp.create(usecase_topology("m1.small", cluster_nodes=1))

    def scenario():
        yield from gp.start(gpi.id)

    bed.ctx.sim.run(until=bed.ctx.sim.process(scenario()))
    return bed, gp, gpi


def provisioner(gp, gpi, **kwargs):
    return ElasticProvisioner(
        gp, gpi.id, QueueDepthPolicy(), domain="simple", check_interval_s=30.0,
        **kwargs,
    )


def submit_burst(bed, app, history, n, work_tool="crdata_matrixTTest"):
    """Heavy backlog: each job ~200 s of small-instance compute."""
    jobs = []
    data = make_expression_matrix_bytes(n_probes=2000)
    for i in range(n):
        ds = app.upload_data(history, f"m{i}.tsv", data=data,
                             size=500 * 1024 * 1024, ext="tabular")
        jobs.append(app.run_tool("boliu", history, work_tool, inputs=[ds]))
    return jobs


def test_scaler_adds_workers_under_backlog(world):
    bed, gp, gpi = world
    app = gpi.deployment.galaxy
    history = app.create_history("boliu")
    scaler = provisioner(gp, gpi, max_workers=3)
    scaler.start()
    jobs = submit_burst(bed, app, history, n=8)
    bed.ctx.sim.run(until=bed.ctx.sim.all_of([app.jobs.when_done(j) for j in jobs]))
    scaler.stop()
    assert any(e.action == "scale-up" for e in scaler.events)
    # the policy may shrink the pool again before the last job ends, so
    # the peak, not the final count, shows the growth
    assert scaler.peak_workers >= 2
    assert all(j.state == JobState.OK for j in jobs)
    # some jobs really ran on the added capacity
    machines = {j.machine for j in jobs}
    assert any(m != "simple-condor-wn1" for m in machines)


def test_scaler_shrinks_when_idle(world):
    bed, gp, gpi = world
    # grow manually to two workers first
    from repro.provision import with_extra_worker

    def grow():
        yield from gp.update(gpi.id, with_extra_worker(gpi.topology, "simple", "c1.medium"))

    bed.ctx.sim.run(until=bed.ctx.sim.process(grow()))
    assert len(gpi.deployment.worker_nodes("simple")) == 2

    scaler = provisioner(gp, gpi, min_workers=1)
    scaler.start()
    bed.ctx.sim.run(until=bed.ctx.now + 600.0)
    scaler.stop()
    assert any(e.action == "scale-down" for e in scaler.events)
    assert len(gpi.deployment.worker_nodes("simple")) == 1


def test_scaler_respects_max_workers(world):
    bed, gp, gpi = world
    app = gpi.deployment.galaxy
    history = app.create_history("boliu")
    scaler = provisioner(gp, gpi, max_workers=2)
    scaler.start()
    jobs = submit_burst(bed, app, history, n=10)
    bed.ctx.sim.run(until=bed.ctx.sim.all_of([app.jobs.when_done(j) for j in jobs]))
    scaler.stop()
    assert scaler.peak_workers <= 2
    assert len(gpi.deployment.worker_nodes("simple")) <= 2


def test_scaler_stop_halts_loop(world):
    bed, gp, gpi = world
    scaler = provisioner(gp, gpi)
    scaler.start()
    scaler.stop()
    before = len(scaler.events)
    bed.ctx.sim.run(until=bed.ctx.now + 600.0)
    assert len(scaler.events) == before


def test_pool_only_snapshot_reads_condor_and_zeroes_admission(world):
    bed, gp, gpi = world
    snap = provisioner(gp, gpi).snapshot()
    pool = gpi.deployment.pool
    assert snap.now == bed.ctx.now
    assert snap.workers == 1
    assert (snap.queue_depth, snap.running) == (pool.queue_depth, pool.running_count)
    assert snap.total_slots == pool.total_slots > 0
    assert (snap.backlog_workflows, snap.backlog_work, snap.in_flight) == (0, 0.0, 0)
    assert snap.min_deadline_slack_s is None

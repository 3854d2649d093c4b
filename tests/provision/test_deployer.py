"""Deployment engine: full deploys, updates, lifecycle."""

import pytest

from repro.cloud import InstanceState
from repro.core import CloudTestbed, run_usecase, usecase_topology
from repro.obs import capture
from repro.provision import (
    Deployer,
    DeploymentError,
    GlobusProvision,
    GPError,
    GPInstanceState,
    Topology,
    TopologyError,
    with_extra_worker,
)


def deploy(bed, topology):
    gp = GlobusProvision(bed)
    gpi = gp.create(topology)

    def scenario():
        yield from gp.start(gpi.id)

    bed.ctx.sim.run(until=bed.ctx.sim.process(scenario()))
    return gp, gpi


@pytest.fixture
def bed():
    return CloudTestbed(seed=2)


@pytest.fixture
def running(bed):
    gp, gpi = deploy(bed, usecase_topology("m1.small", cluster_nodes=1))
    return bed, gp, gpi


def test_deploy_creates_planned_nodes(running):
    bed, gp, gpi = running
    dep = gpi.deployment
    assert set(dep.nodes) == {
        "simple-server", "simple-galaxy-condor", "simple-gridftp",
        "simple-condor-wn1",
    }
    assert all(
        n.instance.state == InstanceState.RUNNING for n in dep.nodes.values()
    )
    assert gpi.state == GPInstanceState.RUNNING
    assert gpi.start_seconds and gpi.start_seconds > 300


def test_deploy_converges_software(running):
    _, _, gpi = running
    head = gpi.deployment.node("simple-galaxy-condor")
    assert "galaxy" in head.chef.installed_software
    assert "R" in head.chef.installed_software
    worker = gpi.deployment.node("simple-condor-wn1")
    assert "R" in worker.chef.installed_software
    assert worker.chef.services.get("condor") == "running"


def test_deploy_wires_nfs_shared_namespace(running):
    _, _, gpi = running
    dep = gpi.deployment
    head = dep.node("simple-galaxy-condor")
    worker = dep.node("simple-condor-wn1")
    head.vfs.write("/home/galaxy/database/files/shared.dat", data=b"x")
    assert worker.vfs.read("/home/galaxy/database/files/shared.dat") == b"x"


def test_deploy_wires_users_and_nis(running):
    _, _, gpi = running
    dep = gpi.deployment
    runtime = dep.domains["simple"]
    assert "boliu" in runtime.nis
    assert "user2" in runtime.nis
    worker = dep.node("simple-condor-wn1")
    assert "boliu" in worker.nis


def test_deploy_creates_go_endpoint_and_galaxy_users(running):
    bed, _, gpi = running
    dep = gpi.deployment
    assert dep.endpoint_name == "cvrg#galaxy"
    assert "cvrg#galaxy" in bed.go.endpoints
    app = dep.galaxy
    assert "boliu" in app.users
    assert app.users["boliu"].globus_username == "boliu"
    assert len(app.toolbox) >= 38  # 3 globus tools + 35 crdata tools


def test_galaxy_condor_runner_uses_workers(running):
    bed, _, gpi = running
    dep = gpi.deployment
    app = dep.galaxy
    h = app.create_history("boliu")
    ds = app.upload_data(h, "m.tsv", data=__import__(
        "repro.workloads", fromlist=["x"]).make_expression_matrix_bytes(),
        ext="tabular")
    job = app.run_tool("boliu", h, "crdata_matrixTTest", inputs=[ds])
    bed.ctx.sim.run(until=app.jobs.when_done(job))
    assert job.state.value == "ok"
    assert job.machine == "simple-condor-wn1"


def test_update_adds_worker_quickly(running):
    bed, gp, gpi = running
    new_topo = with_extra_worker(gpi.topology, "simple", "c1.medium")
    holder = {}

    def scenario():
        holder["report"] = yield from gp.update(gpi.id, new_topo)

    bed.ctx.sim.run(until=bed.ctx.sim.process(scenario()))
    report = holder["report"]
    assert report.added == ["simple-condor-wn2"]
    # "within minutes" (Sec. III-C)
    assert report.seconds < 10 * 60
    node = gpi.deployment.node("simple-condor-wn2")
    assert node.instance_type == "c1.medium"
    assert "simple-condor-wn2" in gpi.deployment.pool.startds


def test_update_removes_worker_and_terminates_instance(running):
    bed, gp, gpi = running
    from dataclasses import replace

    topo = gpi.topology
    new_topo = replace(
        topo,
        domains=tuple(replace(d, cluster_nodes=0) for d in topo.domains),
    )
    old_instance = gpi.deployment.node("simple-condor-wn1").instance

    def scenario():
        yield from gp.update(gpi.id, new_topo)

    bed.ctx.sim.run(until=bed.ctx.sim.process(scenario()))
    assert "simple-condor-wn1" not in gpi.deployment.nodes
    assert old_instance.state in (
        InstanceState.SHUTTING_DOWN, InstanceState.TERMINATED
    )
    assert gpi.deployment.pool.total_slots == 0


def test_update_retypes_worker(running):
    bed, gp, gpi = running
    from dataclasses import replace

    topo = gpi.topology
    new_topo = replace(
        topo,
        domains=tuple(
            replace(d, worker_instance_types=("m1.large",)) for d in topo.domains
        ),
    )

    def scenario():
        yield from gp.update(gpi.id, new_topo)

    bed.ctx.sim.run(until=bed.ctx.sim.process(scenario()))
    node = gpi.deployment.node("simple-condor-wn1")
    assert node.instance_type == "m1.large"
    assert gpi.deployment.pool.startds["simple-condor-wn1"].machine.cpu_factor == pytest.approx(2.83)


def test_update_rejects_head_node_changes(running):
    bed, gp, gpi = running
    from dataclasses import replace

    # shrinking to no galaxy would remove the head: unsupported at runtime
    new_topo = replace(
        gpi.topology,
        domains=tuple(
            replace(d, galaxy=False, crdata=False) for d in gpi.topology.domains
        ),
    )

    def scenario():
        yield from gp.update(gpi.id, new_topo)

    with pytest.raises(TopologyError, match="not supported"):
        bed.ctx.sim.run(until=bed.ctx.sim.process(scenario()))


def test_added_user_gets_accounts_everywhere(running):
    bed, gp, gpi = running
    from dataclasses import replace

    new_topo = replace(
        gpi.topology,
        domains=tuple(
            replace(d, users=d.users + ("newbie",)) for d in gpi.topology.domains
        ),
    )

    def scenario():
        yield from gp.update(gpi.id, new_topo)

    bed.ctx.sim.run(until=bed.ctx.sim.process(scenario()))
    assert "newbie" in gpi.deployment.domains["simple"].nis
    assert "newbie" in gpi.deployment.galaxy.users
    assert "newbie" in bed.go.users
    assert "newbie" in bed.myproxy


def test_stop_pauses_billing_and_resume_restores(running):
    bed, gp, gpi = running
    gp.stop(gpi.id)
    assert gpi.state == GPInstanceState.STOPPED
    cost_at_stop = bed.total_cost()
    # a day passes while stopped
    bed.ctx.sim.run(until=bed.ctx.now + 86400.0)
    assert bed.total_cost() == pytest.approx(cost_at_stop, rel=1e-9)

    def scenario():
        yield from gp.start(gpi.id)

    bed.ctx.sim.run(until=bed.ctx.sim.process(scenario()))
    assert gpi.state == GPInstanceState.RUNNING
    assert all(
        n.instance.state == InstanceState.RUNNING
        for n in gpi.deployment.nodes.values()
    )


def test_terminate_is_final(running):
    bed, gp, gpi = running
    gp.terminate(gpi.id)
    assert gpi.state == GPInstanceState.TERMINATED
    bed.ctx.sim.run()
    assert all(
        n.instance.state == InstanceState.TERMINATED
        for n in gpi.deployment.nodes.values()
    )
    with pytest.raises(GPError):
        gp.stop(gpi.id)


def test_update_requires_running(running):
    bed, gp, gpi = running
    gp.stop(gpi.id)

    def scenario():
        yield from gp.update(gpi.id, gpi.topology)

    with pytest.raises(GPError, match="cannot update"):
        bed.ctx.sim.run(until=bed.ctx.sim.process(scenario()))


def test_deployment_time_decreases_with_instance_size():
    times = {}
    for itype in ("m1.small", "c1.medium", "m1.xlarge"):
        bed = CloudTestbed(seed=3)
        _, gpi = deploy(bed, usecase_topology(itype, cluster_nodes=1))
        times[itype] = gpi.start_seconds
    assert times["m1.xlarge"] < times["c1.medium"] < times["m1.small"]


def test_preloaded_custom_ami_deploys_much_faster():
    """Fig. 1 step 8: snapshotting a converged head cuts redeploy time."""
    bed = CloudTestbed(seed=4)
    topo = usecase_topology("m1.small", cluster_nodes=1)
    gp, gpi = deploy(bed, topo)
    baseline = gpi.start_seconds
    ami = gp.deployer.create_custom_ami(
        gpi.deployment, "simple-galaxy-condor", "galaxy-preloaded"
    )

    from dataclasses import replace

    topo2 = replace(topo, ec2=replace(topo.ec2, ami=ami.id))
    _, gpi2 = deploy(bed, topo2)
    assert gpi2.start_seconds < baseline * 0.5


def test_topology_docs_are_built_only_for_a_live_recorder(monkeypatch):
    """The ``topology`` and ``topology-update`` annotations feed the
    provenance bundle alone, so with obs off neither a deploy nor a
    ``gp.update`` builds the doc."""
    with capture() as cap:
        run_usecase(scale_up_with="c1.medium", run_large=False, seed=3)
    (recorder,) = cap.recorders
    deployed, updated = recorder.annotations
    assert (deployed["kind"], updated["kind"]) == ("topology", "topology-update")
    first = usecase_topology()
    assert deployed["attrs"]["topology"] == first.to_doc()
    assert updated["attrs"]["topology"] == with_extra_worker(
        first, "simple", "c1.medium"
    ).to_doc()

    def refuse(self):
        raise AssertionError("Topology.to_doc called with obs off")

    monkeypatch.setattr(Topology, "to_doc", refuse)
    result = run_usecase(scale_up_with="c1.medium", run_large=False, seed=3)
    assert result.update_seconds is not None
    assert result.instance.deployment.galaxy.ctx.obs.enabled is False

"""The storage= axis through topology, deployer, and Galaxy wiring."""

import pytest

from repro.core import CloudTestbed, usecase_topology
from repro.provision import GlobusProvision, Topology, TopologyError, with_extra_worker
from repro.provision.topology import DomainSpec


def deploy(bed, topology):
    gp = GlobusProvision(bed)
    gpi = gp.create(topology)

    def scenario():
        yield from gp.start(gpi.id)

    bed.ctx.sim.run(until=bed.ctx.sim.process(scenario()))
    return gp, gpi


def deploy_storage(storage):
    bed = CloudTestbed(seed=2)
    gp, gpi = deploy(bed, usecase_topology("m1.small", 1, storage=storage))
    return bed, gp, gpi


# -- spec validation -------------------------------------------------------
def test_domainspec_rejects_unknown_backend():
    with pytest.raises(TopologyError, match="unknown storage backend"):
        DomainSpec(name="d", users=("u",), storage="ceph")


def test_domainspec_rejects_negative_storage_nodes():
    with pytest.raises(TopologyError, match="storage-nodes"):
        DomainSpec(name="d", users=("u",), storage="striped_fs", storage_nodes=-1)


def test_storage_nodes_require_striped_fs():
    with pytest.raises(TopologyError, match="striped_fs"):
        DomainSpec(name="d", users=("u",), storage="nfs", storage_nodes=2)


def test_stripe_data_nodes_defaults():
    assert DomainSpec(name="d", users=("u",)).stripe_data_nodes() == 0
    striped = DomainSpec(name="d", users=("u",), storage="striped_fs")
    assert striped.stripe_data_nodes() == 2
    sized = DomainSpec(
        name="d", users=("u",), storage="striped_fs", storage_nodes=3
    )
    assert sized.stripe_data_nodes() == 3


# -- serialisation ---------------------------------------------------------
def test_to_doc_records_the_storage_axis():
    doc = usecase_topology(storage="striped_fs", storage_nodes=3).to_doc()
    assert doc["domains"][0]["storage"] == "striped_fs"
    assert doc["domains"][0]["storage_nodes"] == 3


def test_from_json_roundtrips_storage():
    topology = usecase_topology(storage="object_store")
    again = Topology.from_json(topology.to_json())
    assert again.domain("simple").storage == "object_store"
    assert again.domain("simple").storage_nodes == 0


def test_from_conf_parses_storage_keys():
    topology = Topology.from_conf(
        "[general]\ndomains: simple\n\n"
        "[domain-simple]\nusers: boliu\nstorage: striped_fs\nstorage-nodes: 3\n"
    )
    dom = topology.domain("simple")
    assert dom.storage == "striped_fs" and dom.storage_nodes == 3


def test_from_conf_defaults_to_nfs():
    topology = Topology.from_conf(
        "[general]\ndomains: simple\n\n[domain-simple]\nusers: boliu\n"
    )
    assert topology.domain("simple").storage == "nfs"


# -- deployment wiring -----------------------------------------------------
def test_nfs_workers_share_the_namespace():
    _, _, gpi = deploy_storage("nfs")
    dep = gpi.deployment
    dep.node("simple-galaxy-condor").vfs.write("/home/boliu/x.dat", data=b"x")
    assert dep.node("simple-condor-wn1").vfs.read("/home/boliu/x.dat") == b"x"
    assert gpi.deployment.domains["simple"].storage.name == "nfs"


@pytest.mark.parametrize("storage", ["object_store", "local_staging"])
def test_non_posix_backends_leave_workers_unmounted(storage):
    _, _, gpi = deploy_storage(storage)
    dep = gpi.deployment
    assert dep.node("simple-condor-wn1").vfs.mounts == []
    # the Galaxy head and GridFTP gateway still see the shared tree
    assert dep.node("simple-galaxy-condor").vfs.mounts
    assert dep.node("simple-gridftp").vfs.mounts


def test_striped_fs_adds_converged_data_nodes():
    _, _, gpi = deploy_storage("striped_fs")
    dep = gpi.deployment
    d1 = dep.node("simple-stripe-d1")
    d2 = dep.node("simple-stripe-d2")
    for node in (d1, d2):
        assert node.has_role("stripe-data")
        assert "parallel-fs-server" in node.chef.installed_software
        # stripe servers hold stripes, not the namespace, and run no jobs
        assert node.vfs.mounts == []
    runtime = dep.domains["simple"]
    assert "simple-stripe-d1" not in runtime.pool.startds
    # workers still mount the parallel namespace
    assert dep.node("simple-condor-wn1").vfs.mounts


def test_galaxy_jobs_get_the_backend():
    _, _, gpi = deploy_storage("object_store")
    app = gpi.deployment.galaxy
    assert app.jobs.storage is gpi.deployment.domains["simple"].storage
    assert app.jobs.storage.name == "object_store"


def test_elastic_update_preserves_the_storage_axis():
    bed, gp, gpi = deploy_storage("object_store")
    new_topology = with_extra_worker(gpi.topology, "simple", "c1.medium")
    assert new_topology.domain("simple").storage == "object_store"

    def scenario():
        yield from gp.update(gpi.id, new_topology)

    bed.ctx.sim.run(until=bed.ctx.sim.process(scenario()))
    added = gpi.deployment.node("simple-condor-wn2")
    # the new worker honours the backend's wiring policy: no shared mount
    assert added.vfs.mounts == []
    assert "simple-condor-wn2" in gpi.deployment.domains["simple"].pool.startds

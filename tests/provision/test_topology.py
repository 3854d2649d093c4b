"""Topology model: parsing, node planning, diffing."""

import json
from dataclasses import asdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.provision import (
    PAPER_GALAXY_CONF,
    DomainSpec,
    EC2Spec,
    GlobusOnlineSpec,
    Topology,
    TopologyError,
    diff_topologies,
    with_extra_worker,
)


def paper_topology():
    return Topology.from_conf(PAPER_GALAXY_CONF)


def test_parse_paper_conf():
    topo = paper_topology()
    assert len(topo.domains) == 1
    dom = topo.domain("simple")
    assert dom.users == ("user1", "user2")
    assert dom.gridftp and dom.condor and dom.galaxy
    assert dom.cluster_nodes == 2
    assert dom.go_endpoint == "cvrg#galaxy"
    assert topo.ec2.keypair == "gp-key"
    assert topo.ec2.ami == "ami-b12ee0d8"
    assert topo.ec2.instance_type == "t1.micro"
    assert topo.globusonline is not None


def test_json_roundtrip():
    topo = paper_topology()
    again = Topology.from_json(topo.to_json())
    assert again == topo


def test_node_plan_matches_fig2_architecture():
    topo = paper_topology()
    plan = {n.name: n for n in topo.node_plan()}
    # NFS/NIS server, galaxy+condor head, gridftp node, 2 workers
    assert set(plan) == {
        "simple-server",
        "simple-galaxy-condor",
        "simple-gridftp",
        "simple-condor-wn1",
        "simple-condor-wn2",
    }
    head = plan["simple-galaxy-condor"]
    assert "galaxy" in head.roles and "condor-head" in head.roles
    assert "galaxy::galaxy-globus" in head.run_list
    # with NFS present, galaxy-globus-common runs on the server (paper III-B)
    assert "galaxy::galaxy-globus-common" in plan["simple-server"].run_list
    assert "galaxy::galaxy-globus-common" not in head.run_list
    assert all(
        n.instance_type == "t1.micro" for n in plan.values()
    )


def test_node_plan_without_nfs_moves_common_to_head():
    topo = Topology(
        domains=(
            DomainSpec(name="d", galaxy=True, nfs=False),
        )
    )
    plan = {n.name: n for n in topo.node_plan()}
    assert "d-server" not in plan
    assert "galaxy::galaxy-globus-common" in plan["d-galaxy-condor"].run_list


def test_crdata_adds_recipe_to_head_and_workers():
    topo = Topology(
        domains=(
            DomainSpec(
                name="d", galaxy=True, condor=True, crdata=True, cluster_nodes=2
            ),
        )
    )
    plan = {n.name: n for n in topo.node_plan()}
    assert "galaxy::galaxy-globus-crdata" in plan["d-galaxy-condor"].run_list
    assert "galaxy::galaxy-globus-crdata" in plan["d-condor-wn1"].run_list


def test_domain_validation():
    with pytest.raises(TopologyError, match="condor"):
        DomainSpec(name="d", cluster_nodes=2)
    with pytest.raises(TopologyError, match="galaxy"):
        DomainSpec(name="d", crdata=True)
    with pytest.raises(TopologyError, match="owner#name"):
        DomainSpec(name="d", go_endpoint="unqualified")
    with pytest.raises(TopologyError, match=">= 0"):
        DomainSpec(name="d", condor=True, cluster_nodes=-1)


def test_unknown_instance_type_rejected():
    with pytest.raises(KeyError):
        EC2Spec(instance_type="m5.enormous")


def test_topology_validation():
    with pytest.raises(TopologyError, match="at least one domain"):
        Topology(domains=())
    with pytest.raises(TopologyError, match="duplicate"):
        Topology(domains=(DomainSpec(name="a"), DomainSpec(name="a")))


def test_conf_missing_sections():
    with pytest.raises(TopologyError, match="domains"):
        Topology.from_conf("[general]\nx: y\n")
    with pytest.raises(TopologyError, match="domain-missing"):
        Topology.from_conf("[general]\ndomains: missing\n")


def test_worker_instance_types_padding():
    dom = DomainSpec(
        name="d", condor=True, cluster_nodes=3,
        worker_instance_types=("c1.medium",),
    )
    assert dom.worker_types("m1.small") == ("c1.medium", "m1.small", "m1.small")
    with pytest.raises(TopologyError, match="more worker-instance-types"):
        DomainSpec(
            name="d", condor=True, cluster_nodes=1,
            worker_instance_types=("a", "b"),
        ).worker_types("m1.small")


def test_with_extra_worker_adds_typed_worker():
    topo = paper_topology()
    bigger = with_extra_worker(topo, "simple", "c1.medium")
    dom = bigger.domain("simple")
    assert dom.cluster_nodes == 3
    plan = {n.name: n for n in bigger.node_plan()}
    assert plan["simple-condor-wn3"].instance_type == "c1.medium"
    # original untouched (frozen dataclasses)
    assert topo.domain("simple").cluster_nodes == 2


def test_diff_added_worker_and_users():
    old = paper_topology()
    new = with_extra_worker(old, "simple", "c1.medium")
    from dataclasses import replace

    new = replace(
        new,
        domains=tuple(
            replace(d, users=d.users + ("boliu",)) for d in new.domains
        ),
    )
    diff = diff_topologies(old, new)
    assert [n.name for n in diff.added_nodes] == ["simple-condor-wn3"]
    assert diff.added_users == ["boliu"]
    assert not diff.removed_nodes
    assert not diff.empty


def test_diff_type_change():
    old = paper_topology()
    from dataclasses import replace

    new = replace(
        old,
        domains=tuple(
            replace(d, worker_instance_types=("m1.large",)) for d in old.domains
        ),
    )
    diff = diff_topologies(old, new)
    assert diff.type_changes == {"simple-condor-wn1": ("t1.micro", "m1.large")}


def test_diff_identical_is_empty():
    topo = paper_topology()
    assert diff_topologies(topo, topo).empty


def test_diff_rejects_runlist_changes():
    old = paper_topology()
    from dataclasses import replace

    new = replace(
        old,
        domains=tuple(replace(d, crdata=True) for d in old.domains),
    )
    with pytest.raises(TopologyError, match="not supported"):
        diff_topologies(old, new)


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_property_diff_worker_counts(old_n, new_n):
    def topo(n):
        return Topology(
            domains=(DomainSpec(name="d", condor=True, galaxy=True, cluster_nodes=n),)
        )

    diff = diff_topologies(topo(old_n), topo(new_n))
    assert len(diff.added_nodes) == max(0, new_n - old_n)
    assert len(diff.removed_nodes) == max(0, old_n - new_n)


_words = st.text(alphabet="abcxyz-", min_size=1, max_size=6)
_types = st.sampled_from(["t1.micro", "m1.small", "c1.medium", "m1.xlarge"])


@st.composite
def topologies(draw):
    """Valid topologies: any services, explicit worker types or none,
    striped storage with its data nodes, a Globus Online section or
    none, and a GO endpoint or none."""
    domains = []
    for name in draw(st.lists(_words, min_size=1, max_size=3, unique=True)):
        condor = draw(st.booleans())
        galaxy = draw(st.booleans())
        workers = draw(st.integers(0, 4)) if condor else 0
        storage = draw(st.sampled_from(["nfs", "object_store", "striped_fs", "local_staging"]))
        domains.append(
            DomainSpec(
                name=name,
                users=tuple(draw(st.lists(_words, max_size=3))),
                nfs=draw(st.booleans()),
                gridftp=draw(st.booleans()),
                condor=condor,
                galaxy=galaxy,
                crdata=galaxy and draw(st.booleans()),
                cluster_nodes=workers,
                go_endpoint=draw(st.none() | _words.map(lambda w: f"{w}#{w}")),
                worker_instance_types=tuple(draw(st.lists(_types, max_size=workers))),
                storage=storage,
                storage_nodes=draw(st.integers(0, 3)) if storage == "striped_fs" else 0,
            )
        )
    return Topology(
        domains=tuple(domains),
        ec2=EC2Spec(keypair=draw(_words), instance_type=draw(_types)),
        globusonline=draw(st.none() | st.builds(GlobusOnlineSpec, ssh_key=_words)),
    )


@given(topologies())
def test_to_doc_is_the_json_form_of_every_spec_field(topology):
    """The reference: each spec's ``asdict`` through a JSON round trip."""
    reference = {
        "domains": [asdict(d) for d in topology.domains],
        "ec2": asdict(topology.ec2),
        "globusonline": asdict(topology.globusonline) if topology.globusonline else None,
    }
    doc = topology.to_doc()
    assert json.dumps(doc) == json.dumps(reference)
    assert doc == json.loads(json.dumps(reference))
    assert Topology.from_json(topology.to_json()) == topology

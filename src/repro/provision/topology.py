"""GP topologies: the declarative deployment specification (Fig. 3).

A topology names one or more *domains*, each with users, services
(GridFTP, Condor, Galaxy, the CRData add-on), a worker count, and a
Globus Online endpoint name, plus EC2 credentials/AMI/instance-type and
Globus Online settings.  Both the paper's INI format (``galaxy.conf``)
and a JSON form (``gp-instance-update -t newtopology.json``) parse to the
same model; topologies diff structurally to drive runtime updates
(Sec. III-C).
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from ..cloud.instance_types import resolve


class TopologyError(Exception):
    pass


@dataclass(frozen=True)
class DomainSpec:
    """One domain of hosts and users."""

    name: str
    users: tuple[str, ...] = ()
    nfs: bool = True
    gridftp: bool = False
    condor: bool = False
    galaxy: bool = False
    crdata: bool = False
    cluster_nodes: int = 0
    go_endpoint: Optional[str] = None
    #: explicit per-worker instance types; pads with the EC2 default
    worker_instance_types: tuple[str, ...] = ()
    #: data-sharing backend: nfs | object_store | striped_fs | local_staging
    storage: str = "nfs"
    #: dedicated data nodes for striped_fs (0 = backend default)
    storage_nodes: int = 0

    def __post_init__(self) -> None:
        from ..storage import STORAGE_BACKENDS

        if self.cluster_nodes < 0:
            raise TopologyError("cluster-nodes must be >= 0")
        if self.cluster_nodes and not self.condor:
            raise TopologyError("cluster-nodes requires condor: yes")
        if self.crdata and not self.galaxy:
            raise TopologyError("crdata tools require galaxy: yes")
        if self.go_endpoint is not None and "#" not in self.go_endpoint:
            raise TopologyError(
                f"go-endpoint {self.go_endpoint!r} must be 'owner#name'"
            )
        if self.storage not in STORAGE_BACKENDS:
            raise TopologyError(
                f"unknown storage backend {self.storage!r}; "
                f"known: {list(STORAGE_BACKENDS)}"
            )
        if self.storage_nodes < 0:
            raise TopologyError("storage-nodes must be >= 0")
        if self.storage_nodes and self.storage != "striped_fs":
            raise TopologyError("storage-nodes requires storage: striped_fs")

    def stripe_data_nodes(self) -> int:
        """Concrete data-node count for striped_fs (0 for other backends)."""
        if self.storage != "striped_fs":
            return 0
        from .. import calibration

        return self.storage_nodes or calibration.STORAGE_STRIPE_DEFAULT_NODES

    def worker_types(self, default_type: str) -> tuple[str, ...]:
        explicit = tuple(self.worker_instance_types)
        if len(explicit) > self.cluster_nodes:
            raise TopologyError(
                "more worker-instance-types than cluster-nodes"
            )
        return explicit + (default_type,) * (self.cluster_nodes - len(explicit))


@dataclass(frozen=True)
class EC2Spec:
    keypair: str = "gp-key"
    keyfile: str = "~/.ec2/gp-key.pem"
    ami: str = "ami-b12ee0d8"
    instance_type: str = "t1.micro"

    def __post_init__(self) -> None:
        resolve(self.instance_type)  # raises KeyError for unknown types


@dataclass(frozen=True)
class GlobusOnlineSpec:
    ssh_key: str = "~/.ssh/id_rsa"


@dataclass(frozen=True)
class NodeSpec:
    """One host GP will create: name, roles, run-list, instance type."""

    name: str
    domain: str
    roles: frozenset[str]
    run_list: tuple[str, ...]
    instance_type: str


@dataclass(frozen=True)
class Topology:
    domains: tuple[DomainSpec, ...]
    ec2: EC2Spec = field(default_factory=EC2Spec)
    globusonline: Optional[GlobusOnlineSpec] = field(default_factory=GlobusOnlineSpec)

    def __post_init__(self) -> None:
        if not self.domains:
            raise TopologyError("a topology needs at least one domain")
        names = [d.name for d in self.domains]
        if len(names) != len(set(names)):
            raise TopologyError("duplicate domain names")

    def domain(self, name: str) -> DomainSpec:
        for d in self.domains:
            if d.name == name:
                return d
        raise TopologyError(f"no domain {name!r}")

    # -- node planning ----------------------------------------------------------
    def node_plan(self) -> list[NodeSpec]:
        """Derive the concrete hosts (paper Fig. 2's architecture)."""
        plan: list[NodeSpec] = []
        default_type = self.ec2.instance_type
        for dom in self.domains:
            if dom.nfs:
                run_list = ["globus::common", "globus::nfs-server", "globus::nis-server"]
                if dom.galaxy:
                    # the paper: galaxy-globus-common runs on the NFS/NIS
                    # server when the domain has one
                    run_list.append("galaxy::galaxy-globus-common")
                plan.append(
                    NodeSpec(
                        name=f"{dom.name}-server",
                        domain=dom.name,
                        roles=frozenset({"nfs", "nis"}),
                        run_list=tuple(run_list),
                        instance_type=default_type,
                    )
                )
            for i in range(1, dom.stripe_data_nodes() + 1):
                plan.append(
                    NodeSpec(
                        name=f"{dom.name}-stripe-d{i}",
                        domain=dom.name,
                        roles=frozenset({"stripe-data"}),
                        run_list=("globus::common", "globus::parallel-fs-data"),
                        instance_type=default_type,
                    )
                )
            if dom.gridftp:
                plan.append(
                    NodeSpec(
                        name=f"{dom.name}-gridftp",
                        domain=dom.name,
                        roles=frozenset({"gridftp"}),
                        run_list=("globus::common", "globus::gridftp", "globus::myproxy"),
                        instance_type=default_type,
                    )
                )
            if dom.galaxy:
                run_list = ["globus::common"]
                if not dom.nfs:
                    run_list.append("galaxy::galaxy-globus-common")
                if dom.condor:
                    run_list.append("globus::condor-head")
                run_list.append("galaxy::galaxy-globus")
                if dom.crdata:
                    run_list.append("galaxy::galaxy-globus-crdata")
                roles = {"galaxy"}
                if dom.condor:
                    roles.add("condor-head")
                plan.append(
                    NodeSpec(
                        name=f"{dom.name}-galaxy-condor",
                        domain=dom.name,
                        roles=frozenset(roles),
                        run_list=tuple(run_list),
                        instance_type=default_type,
                    )
                )
            for i, itype in enumerate(dom.worker_types(default_type), start=1):
                run_list = ["globus::common", "globus::condor-worker"]
                if dom.crdata:
                    run_list.append("galaxy::galaxy-globus-crdata")
                plan.append(
                    NodeSpec(
                        name=f"{dom.name}-condor-wn{i}",
                        domain=dom.name,
                        roles=frozenset({"condor-worker"}),
                        run_list=tuple(run_list),
                        instance_type=itype,
                    )
                )
        return plan

    def all_users(self) -> set[str]:
        return {u for d in self.domains for u in d.users}

    # -- serialisation --------------------------------------------------------------
    def to_doc(self) -> dict:
        """JSON-safe dict form (tuples become lists); feeds both
        :meth:`to_json` and the provenance bundle's topology section."""
        return {
            "domains": [_spec_doc(d) for d in self.domains],
            "ec2": _spec_doc(self.ec2),
            "globusonline": _spec_doc(self.globusonline) if self.globusonline else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Topology":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TopologyError(f"bad JSON topology: {exc}") from exc
        try:
            domains = tuple(_domain_from_doc(d) for d in doc["domains"])
            # every EC2 and Globus Online setting is a string; a section that
            # is not an object is left to the spec constructor to refuse
            for section in ("ec2", "globusonline"):
                settings = doc.get(section)
                if not isinstance(settings, dict):
                    continue
                for key, value in settings.items():
                    if not isinstance(value, str):
                        raise TopologyError(f"{section}: {key}: {value!r} is not a string")
            ec2 = EC2Spec(**doc.get("ec2", {}))
            go_doc = doc.get("globusonline")
            go = GlobusOnlineSpec(**go_doc) if go_doc is not None else None
        except (KeyError, TypeError) as exc:
            raise TopologyError(f"bad JSON topology: {exc}") from exc
        return cls(domains=domains, ec2=ec2, globusonline=go)

    @classmethod
    def from_conf(cls, text: str) -> "Topology":
        """Parse the paper's INI format (Fig. 3)."""
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise TopologyError(f"bad topology file: {exc}") from exc
        if "general" not in parser or "domains" not in parser["general"]:
            raise TopologyError("topology needs [general] with a 'domains' entry")
        domain_names = parser["general"]["domains"].split()
        domains = []
        for name in domain_names:
            section = f"domain-{name}"
            if section not in parser:
                raise TopologyError(f"missing section [{section}]")
            sec = parser[section]
            raw = sec.get("worker-instance-types", "")
            worker_types = raw.split()
            _check_instance_types(f"[{section}] worker-instance-types: {raw!r}", worker_types)
            domains.append(
                DomainSpec(
                    name=name,
                    users=tuple(sec.get("users", "").split()),
                    nfs=_conf_get(sec, "nfs", True),
                    gridftp=_conf_get(sec, "gridftp", False),
                    condor=_conf_get(sec, "condor", False),
                    galaxy=_conf_get(sec, "galaxy", False),
                    crdata=_conf_get(sec, "crdata", False),
                    cluster_nodes=_conf_get(sec, "cluster-nodes", 0),
                    go_endpoint=sec.get("go-endpoint", fallback=None),
                    worker_instance_types=tuple(worker_types),
                    storage=sec.get("storage", fallback="nfs"),
                    storage_nodes=_conf_get(sec, "storage-nodes", 0),
                )
            )
        ec2_kwargs = {}
        if "ec2" in parser:
            sec = parser["ec2"]
            for key, attr in [
                ("keypair", "keypair"), ("keyfile", "keyfile"),
                ("ami", "ami"), ("instance-type", "instance_type"),
            ]:
                if key in sec:
                    ec2_kwargs[attr] = sec[key]
        go = None
        if "globusonline" in parser:
            go = GlobusOnlineSpec(
                ssh_key=parser["globusonline"].get("ssh-key", "~/.ssh/id_rsa")
            )
        return cls(domains=tuple(domains), ec2=EC2Spec(**ec2_kwargs), globusonline=go)


def _spec_doc(spec) -> dict:
    """A spec's fields in order, each a str, bool, int or None, or a
    tuple of str, which becomes a list."""
    return {
        f.name: list(value) if isinstance(value := getattr(spec, f.name), tuple) else value
        for f in fields(spec)
    }


#: JSON domain keys whose values must have exactly this type
_JSON_DOMAIN_TYPES = {
    "name": str, "storage": str,
    "nfs": bool, "gridftp": bool, "condor": bool, "galaxy": bool, "crdata": bool,
    "cluster_nodes": int, "storage_nodes": int,
}

_EXPECTED = {str: "a string", bool: "true or false", int: "an integer"}

#: JSON domain keys whose values must be lists of strings
_JSON_DOMAIN_LISTS = ("users", "worker_instance_types")


def _domain_from_doc(d: dict) -> DomainSpec:
    """One domain of a JSON topology; a value of the wrong type, or a worker
    type the catalog does not know, is a TopologyError naming the domain,
    the key and the value."""
    if not isinstance(d, dict):
        raise TopologyError(f"domain {d!r} is not an object")
    where = f"domain {d.get('name')!r}"
    for key, kind in _JSON_DOMAIN_TYPES.items():
        if key in d and type(d[key]) is not kind:
            raise TopologyError(f"{where}: {key}: {d[key]!r} is not {_EXPECTED[kind]}")
    for key in _JSON_DOMAIN_LISTS:
        value = d.get(key, [])
        if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
            raise TopologyError(f"{where}: {key}: {value!r} is not a list of strings")
    types = d.get("worker_instance_types", [])
    _check_instance_types(f"{where}: worker_instance_types: {types!r}", types)
    return DomainSpec(**{**d, **{key: tuple(d.get(key, ())) for key in _JSON_DOMAIN_LISTS}})


def _check_instance_types(where: str, names) -> None:
    """A worker type the catalog does not know is a TopologyError here, at
    parse, not a KeyError when the deployer launches the worker."""
    for name in names:
        try:
            resolve(name)
        except KeyError as exc:
            raise TopologyError(f"{where} names an {exc.args[0]}") from None


def _conf_get(sec: configparser.SectionProxy, key: str, fallback: bool | int) -> bool | int:
    """``getboolean`` or ``getint`` (by the fallback's type); a bad value is
    a TopologyError naming the section, the key and the value."""
    flag = isinstance(fallback, bool)
    try:
        return (sec.getboolean if flag else sec.getint)(key, fallback=fallback)
    except ValueError:
        expected = "yes or no" if flag else "an integer"
        raise TopologyError(
            f"[{sec.name}] {key}: {sec[key]!r} is not {expected}"
        ) from None


# ---------------------------------------------------------------------------
# Topology diffing (Sec. III-C: dynamic reconfiguration)
# ---------------------------------------------------------------------------


@dataclass
class TopologyDiff:
    """What must change to take a running instance to the new topology."""

    added_nodes: list[NodeSpec] = field(default_factory=list)
    removed_nodes: list[str] = field(default_factory=list)
    #: node name -> (old type, new type); realised as stop + relaunch
    type_changes: dict[str, tuple[str, str]] = field(default_factory=dict)
    added_users: list[str] = field(default_factory=list)
    removed_users: list[str] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not (
            self.added_nodes or self.removed_nodes or self.type_changes
            or self.added_users or self.removed_users
        )


def diff_topologies(old: Topology, new: Topology) -> TopologyDiff:
    """Structural diff; raises for unsupported reshaping (service toggles)."""
    old_plan = {n.name: n for n in old.node_plan()}
    new_plan = {n.name: n for n in new.node_plan()}
    diff = TopologyDiff()
    for name, spec in new_plan.items():
        if name not in old_plan:
            diff.added_nodes.append(spec)
        else:
            old_spec = old_plan[name]
            if old_spec.roles != spec.roles or old_spec.run_list != spec.run_list:
                raise TopologyError(
                    f"changing roles/run-list of existing node {name!r} is not "
                    "supported at runtime; terminate and redeploy"
                )
            if old_spec.instance_type != spec.instance_type:
                diff.type_changes[name] = (old_spec.instance_type, spec.instance_type)
    for name in old_plan:
        if name not in new_plan:
            diff.removed_nodes.append(name)
    diff.added_users = sorted(new.all_users() - old.all_users())
    diff.removed_users = sorted(old.all_users() - new.all_users())
    return diff


def with_extra_worker(topology: Topology, domain: str, instance_type: str) -> Topology:
    """Convenience used by the use case: add one worker of a given type."""
    doms = []
    for d in topology.domains:
        if d.name == domain:
            types = d.worker_types(topology.ec2.instance_type)
            doms.append(
                replace(
                    d,
                    cluster_nodes=d.cluster_nodes + 1,
                    worker_instance_types=types + (instance_type,),
                )
            )
        else:
            doms.append(d)
    return replace(topology, domains=tuple(doms))


def with_worker_count(
    topology: Topology, domain: str, count: int, extra_type: str
) -> Topology:
    """Resize a domain's worker pool to ``count`` nodes.

    Growing appends workers of ``extra_type`` (the elastic-provisioner
    path: the paper's scale-up adds a c1.medium); shrinking drops the
    most recently added workers first, so the base pool survives.
    """
    if count < 0:
        raise TopologyError("worker count must be >= 0")
    doms = []
    for d in topology.domains:
        if d.name != domain:
            doms.append(d)
            continue
        types = d.worker_types(topology.ec2.instance_type)
        if count >= len(types):
            types = types + (extra_type,) * (count - len(types))
        else:
            types = types[:count]
        doms.append(
            replace(d, cluster_nodes=count, worker_instance_types=types)
        )
    return replace(topology, domains=tuple(doms))


#: the paper's Fig. 3 example, verbatim
PAPER_GALAXY_CONF = """\
[general]
domains: simple

[domain-simple]
users: user1 user2
gridftp: yes
condor: yes
cluster-nodes: 2
galaxy: yes
go-endpoint: cvrg#galaxy

[ec2]
keypair: gp-key
keyfile: ~/.ec2/gp-key.pem
ami: ami-b12ee0d8
instance-type: t1.micro

[globusonline]
ssh-key: ~/.ssh/id_rsa
"""

"""GP topologies: the declarative deployment specification (Fig. 3).

A topology names one or more *domains*, each with users, services
(GridFTP, Condor, Galaxy, the CRData add-on), a worker count, and a
Globus Online endpoint name, plus EC2 credentials/AMI/instance-type and
Globus Online settings.  It comes in two forms: the paper's INI format
(``galaxy.conf``) and a JSON form (``gp-instance-update -t
newtopology.json``).  The INI form is lowered to the JSON one, and one
validator reads both: it refuses a value of the wrong type, an unknown
key or an instance type the catalog does not know, naming the section
and key as the input spelled them.  Topologies diff structurally to
drive runtime updates (Sec. III-C).
"""

from __future__ import annotations

import configparser
import contextlib
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
        if len(self.worker_instance_types) > self.cluster_nodes:
            raise TopologyError(
                f"domain {self.name!r}: more worker-instance-types than cluster-nodes"
            )
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
        except (json.JSONDecodeError, RecursionError) as exc:
            raise TopologyError(f"bad JSON topology: {exc}") from exc
        return _topology_from_doc(doc)

    @classmethod
    def from_conf(cls, text: str) -> "Topology":
        """Parse the paper's INI format (Fig. 3) by lowering it to the JSON
        form: each ``[domain-<name>]``, ``[ec2]`` and ``[globusonline]``
        section becomes its object (see :func:`_lowered`)."""
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise TopologyError(f"bad topology file: {exc}") from exc
        if "general" not in parser or "domains" not in parser["general"]:
            raise TopologyError("topology needs [general] with a 'domains' entry")
        doc = {"domains": []}
        for name in parser["general"]["domains"].split():
            section = f"domain-{name}"
            if section not in parser:
                raise TopologyError(f"missing section [{section}]")
            if "name" in parser[section]:  # the section header names the domain
                raise TopologyError(f"[{section}] name: unknown key")
            doc["domains"].append({"name": name, **_lowered(parser[section], DomainSpec)})
        for section, spec in (("ec2", EC2Spec), ("globusonline", GlobusOnlineSpec)):
            if section in parser:
                doc[section] = _lowered(parser[section], spec)
        return _topology_from_doc(doc, ini=True)


def _spec_doc(spec) -> dict:
    """A spec's fields in order, each a str, bool, int or None, or a
    tuple of str, which becomes a list."""
    return {
        f.name: list(value) if isinstance(value := getattr(spec, f.name), tuple) else value
        for f in fields(spec)
    }


#: a spec field's annotation -> (test of its JSON value, what it must be)
_TYPES = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "Optional[str]": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "bool": (lambda v: type(v) is bool, "true or false"),
    "int": (lambda v: type(v) is int, "an integer"),
    "tuple[str, ...]": (
        lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
        "a list of strings",
    ),
}

#: INI spells a key's underscores as hyphens.  Swapping the two both ways
#: lowers ``cluster-nodes`` to ``cluster_nodes`` and spells it back, and
#: keeps a key that is no INI spelling, such as ``cluster_nodes``, off
#: every field name, so the validator refuses it under the name it had.
_INI_KEY = str.maketrans("-_", "_-")


def _lowered(sec: configparser.SectionProxy, spec: type) -> dict:
    """One INI section as its spec's JSON object.  By the field's type, a
    yes/no flag becomes a bool, an integer string an int, and a list is
    split on whitespace; a value that does not convert stays the string,
    for the validator to refuse."""
    kinds = {f.name: f.type for f in fields(spec)}
    doc = {}
    for key, value in sec.items():
        key = key.translate(_INI_KEY)
        if kinds.get(key) == "bool":
            value = configparser.ConfigParser.BOOLEAN_STATES.get(value.lower(), value)
        elif kinds.get(key) == "int":
            with contextlib.suppress(ValueError):
                value = int(value)
        elif kinds.get(key) == "tuple[str, ...]":
            value = value.split()
        doc[key] = value
    return doc


def _topology_from_doc(doc, ini: bool = False) -> Topology:
    """The one validator, for the JSON form and the INI form lowered to it.
    ``ini`` only changes how its errors spell sections, keys and values."""
    if not isinstance(doc, dict):
        raise TopologyError(f"topology {doc!r} is not an object")
    domains = doc.get("domains")
    if not isinstance(domains, list):
        raise TopologyError(f"domains: {domains!r} is not a list")
    go = doc.get("globusonline")
    if go is not None:
        go = _spec_from_doc(GlobusOnlineSpec, "globusonline", go, ini)
    return Topology(
        domains=tuple(_spec_from_doc(DomainSpec, "domain", d, ini) for d in domains),
        ec2=_spec_from_doc(EC2Spec, "ec2", doc.get("ec2", {}), ini),
        globusonline=go,
    )


def _spec_from_doc(spec: type, section: str, obj, ini: bool):
    """``spec`` built from one section's object.  An unknown key, a value of
    the wrong type, an instance type the catalog does not know (here, at
    parse, not when the deployer launches the host) or a constructor's
    complaint is a TopologyError naming the section, the key and the
    value; the spec's own ``__post_init__`` checks rules across fields."""
    if not isinstance(obj, dict):
        raise TopologyError(f"{section} {obj!r} is not an object")
    if spec is DomainSpec:
        where = f"[domain-{obj.get('name')}]" if ini else f"domain {obj.get('name')!r}:"
    else:
        where = f"[{section}]" if ini else f"{section}:"
    kinds = {f.name: f.type for f in fields(spec)}
    for key, value in obj.items():
        spelled = key.translate(_INI_KEY) if ini else key
        shown = repr(" ".join(value) if ini and isinstance(value, list) else value)
        if key not in kinds:
            raise TopologyError(f"{where} {spelled}: unknown key")
        valid, expected = _TYPES[kinds[key]]
        if not valid(value):
            expected = "yes or no" if ini and kinds[key] == "bool" else expected
            raise TopologyError(f"{where} {spelled}: {shown} is not {expected}")
        if key in ("instance_type", "worker_instance_types"):
            for name in [value] if isinstance(value, str) else value:
                try:
                    resolve(name)
                except KeyError as exc:
                    raise TopologyError(
                        f"{where} {spelled}: {shown} names an {exc.args[0]}"
                    ) from None
    try:
        return spec(**{k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()})
    except TypeError as exc:  # a domain with no name
        raise TopologyError(f"{where} {exc}") from None


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
    return with_worker_count(
        topology, domain, topology.domain(domain).cluster_nodes + 1, instance_type
    )


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

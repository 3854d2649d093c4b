"""The GP deployment engine: topology -> running cluster, plus updates.

``Deployer.deploy`` is a simulation process that launches EC2 instances
for every planned node, converges each node's Chef run-list in parallel,
then wires the services together: NFS mounts, NIS users + certificates,
the Condor pool, GridFTP servers with a Globus Online endpoint, and the
Galaxy application with the Globus Transfer and CRData tools installed.

``Deployer.update`` applies a topology diff to a *running* deployment —
adding/removing workers and users and changing worker instance types
within minutes, the capability Sec. III-C contrasts with CloudMan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..cluster import ClusterNode, CondorPool, NFSServer, NISDomain
from ..galaxy import CondorJobRunner, GalaxyApp, GalaxyConfig, GalaxyUser, LocalJobRunner
from ..galaxy.upload_tools import install_upload_tools
from ..storage import SharedStorageBackend, make_backend

if TYPE_CHECKING:  # pragma: no cover - avoids a package-level import cycle
    from ..core.testbed import CloudTestbed
from ..crdata import install_crdata_tools
from ..tools_globus import install_globus_tools
from ..transfer import GlobusOnline, GridFTPServer, TransferClient
from .topology import (
    DomainSpec,
    NodeSpec,
    Topology,
    TopologyDiff,
    TopologyError,
    diff_topologies,
)


class DeploymentError(Exception):
    pass


@dataclass
class DomainRuntime:
    """Live services of one deployed domain."""

    spec: DomainSpec
    nfs: Optional[NFSServer] = None
    storage: Optional[SharedStorageBackend] = None
    nis: Optional[NISDomain] = None
    pool: Optional[CondorPool] = None
    galaxy: Optional[GalaxyApp] = None
    endpoint_name: Optional[str] = None
    gridftp: Optional[GridFTPServer] = None


@dataclass
class Deployment:
    """Runtime state of one GP instance."""

    topology: Topology
    nodes: dict[str, ClusterNode] = field(default_factory=dict)
    domains: dict[str, DomainRuntime] = field(default_factory=dict)
    deploy_seconds: float = 0.0
    state: str = "running"          # running | stopped | terminated

    # -- single-domain conveniences (the paper's topologies have one) -------
    def _single(self) -> DomainRuntime:
        if len(self.domains) != 1:
            raise DeploymentError("deployment has multiple domains; address one")
        return next(iter(self.domains.values()))

    @property
    def galaxy(self) -> GalaxyApp:
        app = self._single().galaxy
        if app is None:
            raise DeploymentError("no Galaxy in this deployment")
        return app

    @property
    def pool(self) -> CondorPool:
        pool = self._single().pool
        if pool is None:
            raise DeploymentError("no Condor pool in this deployment")
        return pool

    @property
    def endpoint_name(self) -> str:
        name = self._single().endpoint_name
        if name is None:
            raise DeploymentError("no Globus endpoint in this deployment")
        return name

    def node(self, name: str) -> ClusterNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise DeploymentError(f"no node {name!r}") from None

    def worker_nodes(self, domain: Optional[str] = None) -> list[ClusterNode]:
        return [
            n for n in self.nodes.values()
            if n.has_role("condor-worker")
            and (domain is None or n.instance.tags.get("gp-domain") == domain)
        ]

    def instance_ids(self) -> list[str]:
        return [n.instance.id for n in self.nodes.values()]

    def ssh(self, node_name: str, username: str, keypair: Optional[str] = None):
        """Open a shell on a host (Fig. 1 step 5).

        ``keypair`` must match the keypair the instance was launched with
        (pass ``None`` to use it implicitly, as gp's wrapper does).
        """
        from ..cluster.shell import RemoteShell, SSHError

        node = self.node(node_name)
        if not node.instance.is_usable():
            raise SSHError(f"{node_name} is {node.instance.state.value}")
        if keypair is not None and keypair != node.instance.keypair:
            raise SSHError(f"Permission denied (publickey) for keypair {keypair!r}")
        domain = node.instance.tags.get("gp-domain")
        runtime = self.domains.get(domain)
        pool = runtime.pool if runtime is not None else None
        return RemoteShell(node, username, pool=pool)


@dataclass
class UpdateReport:
    diff: TopologyDiff
    seconds: float
    added: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    retyped: list[str] = field(default_factory=list)


def _client_factory(users: dict[str, GalaxyUser], go: GlobusOnline):
    """The Globus Transfer tools' ``transfer_client_factory``: a Galaxy
    user's client, under their linked GO username.  It holds the user
    table and the GO service, not the app or the testbed, so a dropped
    world dies by refcount."""

    def factory(galaxy_username: str) -> TransferClient:
        user = users.get(galaxy_username)
        go_name = (
            user.globus_username if user and user.globus_username else galaxy_username
        )
        return TransferClient(go, go_name)

    return factory


class Deployer:
    """Executes deployments against a :class:`CloudTestbed`."""

    def __init__(self, testbed: "CloudTestbed") -> None:
        self.bed = testbed
        self.ctx = testbed.ctx

    # ------------------------------------------------------------------ deploy
    def deploy(self, topology: Topology):
        """Simulation process; returns a :class:`Deployment`."""
        start = self.ctx.now
        if topology.ec2.keypair not in self.bed.ec2.keypairs:
            self.bed.ec2.create_keypair(topology.ec2.keypair)
        deployment = Deployment(topology=topology)
        plan = topology.node_plan()
        if not plan:
            raise DeploymentError("topology plans no nodes")
        # provenance: the full deployment spec rides in the span log so a
        # bundle can reconstruct what was deployed, not just when; only a
        # live recorder reads it
        obs = self.ctx.obs
        if obs.enabled:
            obs.annotate("topology", topology=topology.to_doc(), nodes=len(plan))
        procs = [
            self.ctx.sim.process(
                self._provision_node(deployment, spec), name=f"provision-{spec.name}"
            )
            for spec in plan
        ]
        yield self.ctx.sim.all_of(procs)
        self._wire(deployment)
        deployment.deploy_seconds = self.ctx.now - start
        self.ctx.obs.instant(
            "gp.deployed", track="gp",
            nodes=len(deployment.nodes), seconds=deployment.deploy_seconds,
        )
        return deployment

    #: launch retries on transient EC2 capacity errors
    LAUNCH_ATTEMPTS = 4
    LAUNCH_RETRY_BACKOFF_S = 15.0

    def _provision_node(self, deployment: Deployment, spec: NodeSpec):
        from ..cloud import InsufficientCapacity

        instance = None
        for attempt in range(1, self.LAUNCH_ATTEMPTS + 1):
            try:
                (instance,) = self.bed.ec2.run_instances(
                    deployment.topology.ec2.ami,
                    spec.instance_type,
                    keypair=deployment.topology.ec2.keypair,
                    tags={"gp-node": spec.name, "gp-domain": spec.domain},
                )
                break
            except InsufficientCapacity:
                if attempt == self.LAUNCH_ATTEMPTS:
                    raise DeploymentError(
                        f"could not launch {spec.name}: EC2 capacity errors "
                        f"persisted across {attempt} attempts"
                    )
                yield self.ctx.sim.timeout(self.LAUNCH_RETRY_BACKOFF_S * attempt)
        yield self.bed.ec2.when_running(instance.id)
        node = ClusterNode.create(spec.name, instance, roles=set(spec.roles))
        dom = deployment.topology.domain(spec.domain)
        node.chef.attributes.set(
            "normal", {"go_endpoint": dom.go_endpoint or ""}
        )
        yield from self.bed.chef.converge(
            node.chef,
            spec.run_list,
            cause=self.bed.ec2.boot_span_id(instance.id),
        )
        deployment.nodes[spec.name] = node
        return node

    # ------------------------------------------------------------------ wiring
    def _wire(self, deployment: Deployment) -> None:
        for dom in deployment.topology.domains:
            runtime = DomainRuntime(spec=dom)
            deployment.domains[dom.name] = runtime
            nodes = [
                n for n in deployment.nodes.values()
                if n.instance.tags.get("gp-domain") == dom.name
            ]
            self._wire_nfs_nis(dom, runtime, nodes)
            self._wire_condor(dom, runtime, nodes)
            self._wire_gridftp(dom, runtime, nodes)
            self._wire_galaxy(dom, runtime, nodes)

    def _wire_nfs_nis(self, dom: DomainSpec, runtime: DomainRuntime, nodes) -> None:
        server_node = next((n for n in nodes if n.has_role("nfs")), None)
        if dom.nfs and server_node is not None:
            backend = make_backend(dom.storage, data_nodes=dom.stripe_data_nodes())
            runtime.storage = backend
            runtime.nfs = backend.build_server(server_node)
            for node in nodes:
                if node is not server_node and backend.should_mount(node):
                    node.vfs.mount(runtime.nfs, at="/home")
        runtime.nis = NISDomain(dom.name)
        for username in dom.users:
            runtime.nis.add_user(username)
            self._provision_user_credentials(username)
        for node in nodes:
            node.nis.bind(runtime.nis)

    def _provision_user_credentials(self, username: str) -> None:
        """GP 'provisions the EC2 cluster with each user's GO credentials'."""
        self.bed.ensure_go_user(username)
        if username not in self.bed.myproxy:
            cert = self.bed.ca.issue_user_cert(username, now=self.ctx.now)
            self.bed.myproxy.store(
                username, cert, f"{username}-gp-pass", now=self.ctx.now
            )

    def _wire_condor(self, dom: DomainSpec, runtime: DomainRuntime, nodes) -> None:
        if not dom.condor:
            return
        runtime.pool = CondorPool(self.ctx)
        for node in nodes:
            if node.has_role("condor-worker"):
                startd = runtime.pool.add_node(node)
                node.services["condor-startd"] = startd

    def _wire_gridftp(self, dom: DomainSpec, runtime: DomainRuntime, nodes) -> None:
        if not dom.gridftp:
            return
        gridftp_node = next((n for n in nodes if n.has_role("gridftp")), None)
        if gridftp_node is None:
            raise DeploymentError(f"domain {dom.name}: gridftp requested but no node")
        host_cert = self.bed.ca.issue_host_cert(gridftp_node.hostname, self.ctx.now)
        server = GridFTPServer(
            ctx=self.ctx,
            hostname=gridftp_node.hostname,
            site="ec2",
            fs=gridftp_node.vfs,
            host_cert=host_cert,
        )
        runtime.gridftp = server
        gridftp_node.services["gridftp"] = server
        if dom.go_endpoint:
            owner = dom.go_endpoint.split("#", 1)[0]
            self.bed.ensure_go_user(owner)
            if dom.go_endpoint not in self.bed.go.endpoints:
                self.bed.go.create_endpoint(dom.go_endpoint, [server], public=True)
            else:
                self.bed.go.endpoints[dom.go_endpoint].servers.insert(0, server)
            runtime.endpoint_name = dom.go_endpoint

    def _wire_galaxy(self, dom: DomainSpec, runtime: DomainRuntime, nodes) -> None:
        if not dom.galaxy:
            return
        head = next((n for n in nodes if n.has_role("galaxy")), None)
        if head is None:
            raise DeploymentError(f"domain {dom.name}: galaxy requested but no node")
        if dom.condor and runtime.pool is not None and runtime.pool.total_slots:
            runner = CondorJobRunner(self.ctx, runtime.pool)
        else:
            runner = LocalJobRunner(
                self.ctx,
                cpu_factor=head.cpu_factor,
                io_factor=head.io_factor,
                cores=head.cores,
                name=head.name,
            )
        app = GalaxyApp(
            self.ctx,
            fs=head.vfs,
            config=GalaxyConfig(file_path="/home/galaxy/database/files"),
            runner=runner,
            services={"galaxy_endpoint": runtime.endpoint_name},
        )
        app.jobs.services["transfer_client_factory"] = _client_factory(
            app.users, self.bed.go
        )
        app.jobs.services["galaxy_fs"] = app.fs
        app.jobs.services["galaxy_config"] = app.config
        # non-NFS backends charge explicit stage-in/out around each job
        app.jobs.storage = runtime.storage
        app.jobs.services["storage"] = runtime.storage
        # the researcher's workstation, reachable by the stock upload tools
        app.jobs.services["user_workstation_fs"] = getattr(
            self.bed, "laptop_fs", None
        )
        head.services["galaxy"] = app
        runtime.galaxy = app
        install_upload_tools(app.toolbox)
        install_globus_tools(app.toolbox)
        if dom.crdata:
            install_crdata_tools(app.toolbox)
        # Galaxy accounts mirror the topology users; the paper requires the
        # Galaxy username to match the Globus Online username.
        for username in dom.users:
            user = app.create_user(username)
            user.globus_username = username

    # ------------------------------------------------------------------ update
    def update(self, deployment: Deployment, new_topology: Topology):
        """Simulation process applying a topology update (Sec. III-C)."""
        if deployment.state != "running":
            raise DeploymentError(f"cannot update a {deployment.state} deployment")
        start = self.ctx.now
        diff = diff_topologies(deployment.topology, new_topology)
        report = UpdateReport(diff=diff, seconds=0.0)
        obs = self.ctx.obs
        if obs.enabled:
            obs.annotate(
                "topology-update",
                topology=new_topology.to_doc(),
                added=[n.name for n in diff.added_nodes],
                removed=list(diff.removed_nodes),
                retyped=sorted(diff.type_changes),
            )
        for name in list(diff.type_changes) + list(diff.removed_nodes):
            node = deployment.nodes.get(name)
            if node is not None and (node.has_role("galaxy") or node.has_role("nfs")):
                raise TopologyError(
                    f"runtime changes to the {name!r} node are not supported; "
                    "stop the instance or redeploy"
                )
        procs = []
        for spec in diff.added_nodes:
            procs.append(
                self.ctx.sim.process(
                    self._add_node(deployment, spec), name=f"add-{spec.name}"
                )
            )
        for name in diff.removed_nodes:
            procs.append(
                self.ctx.sim.process(
                    self._remove_node(deployment, name), name=f"remove-{name}"
                )
            )
        for name, (_old, new_type) in diff.type_changes.items():
            procs.append(
                self.ctx.sim.process(
                    self._retype_node(deployment, name, new_type),
                    name=f"retype-{name}",
                )
            )
        if procs:
            yield self.ctx.sim.all_of(procs)
        self._apply_user_changes(deployment, diff)
        deployment.topology = new_topology
        report.added = [s.name for s in diff.added_nodes]
        report.removed = list(diff.removed_nodes)
        report.retyped = list(diff.type_changes)
        report.seconds = self.ctx.now - start
        self.ctx.obs.instant(
            "gp.updated", track="gp", seconds=report.seconds,
            added=report.added, removed=report.removed, retyped=report.retyped,
        )
        return report

    def _runtime_for(self, deployment: Deployment, domain: str) -> DomainRuntime:
        try:
            return deployment.domains[domain]
        except KeyError:
            raise DeploymentError(f"no such domain {domain!r}") from None

    def _join_domain(self, deployment: Deployment, node: ClusterNode, domain: str) -> None:
        runtime = self._runtime_for(deployment, domain)
        if (
            runtime.nfs is not None
            and not node.has_role("nfs")
            and (runtime.storage is None or runtime.storage.should_mount(node))
        ):
            node.vfs.mount(runtime.nfs, at="/home")
        if runtime.nis is not None:
            node.nis.bind(runtime.nis)
        if runtime.pool is not None and node.has_role("condor-worker"):
            node.services["condor-startd"] = runtime.pool.add_node(node)

    def _add_node(self, deployment: Deployment, spec: NodeSpec):
        node = yield from self._provision_node(deployment, spec)
        self._join_domain(deployment, node, spec.domain)
        return node

    def _remove_node(self, deployment: Deployment, name: str, drain: bool = True):
        node = deployment.node(name)
        domain = node.instance.tags.get("gp-domain", node.name.split("-")[0])
        runtime = self._runtime_for(deployment, domain)
        if runtime.pool is not None and name in runtime.pool.startds:
            yield runtime.pool.remove_machine(name, drain=drain)
        self.bed.ec2.terminate_instances([node.instance.id])
        del deployment.nodes[name]
        return name

    def _retype_node(self, deployment: Deployment, name: str, new_type: str):
        """Replace a node with one of a different instance type."""
        old = deployment.node(name)
        domain = old.instance.tags.get("gp-domain", old.name.split("-")[0])
        spec = NodeSpec(
            name=name,
            domain=domain,
            roles=frozenset(old.roles),
            run_list=tuple(old.chef.run_list),
            instance_type=new_type,
        )
        yield from self._remove_node(deployment, name)
        node = yield from self._provision_node(deployment, spec)
        self._join_domain(deployment, node, domain)
        return node

    def _apply_user_changes(self, deployment: Deployment, diff: TopologyDiff) -> None:
        for runtime in deployment.domains.values():
            for username in diff.added_users:
                if runtime.nis is not None and username not in runtime.nis:
                    runtime.nis.add_user(username)
                self._provision_user_credentials(username)
                if runtime.galaxy is not None and username not in runtime.galaxy.users:
                    user = runtime.galaxy.create_user(username)
                    user.globus_username = username
            for username in diff.removed_users:
                if runtime.nis is not None and username in runtime.nis:
                    runtime.nis.remove_user(username)

    def create_custom_ami(
        self, deployment: Deployment, node_name: str, name: str
    ):
        """Snapshot a converged node into a pre-loaded AMI (Fig. 1 step 8)."""
        node = deployment.node(node_name)
        node.instance.tags["software"] = ",".join(
            sorted(node.chef.installed_software)
        )
        return self.bed.ec2.create_image(
            node.instance.id,
            name,
            markers=node.chef.markers,
            checkouts=node.chef.checkouts,
        )

    # ------------------------------------------------------------------ lifecycle
    def stop(self, deployment: Deployment) -> None:
        """Suspend: stop all instances; billing pauses (Fig. 1 step 6)."""
        if deployment.state != "running":
            raise DeploymentError(f"cannot stop a {deployment.state} deployment")
        self.bed.ec2.stop_instances(deployment.instance_ids())
        deployment.state = "stopped"

    def resume(self, deployment: Deployment):
        """Simulation process restarting a stopped deployment."""
        if deployment.state != "stopped":
            raise DeploymentError(f"cannot resume a {deployment.state} deployment")
        ids = deployment.instance_ids()
        # instances may still be in 'stopping'; wait for them to settle
        from ..cloud import InstanceState

        while any(
            self.bed.ec2.instances[i].state == InstanceState.STOPPING for i in ids
        ):
            yield self.ctx.sim.timeout(5.0)
        self.bed.ec2.start_instances(ids)
        yield self.ctx.sim.all_of([self.bed.ec2.when_running(i) for i in ids])
        deployment.state = "running"
        return deployment

    def terminate(self, deployment: Deployment) -> None:
        if deployment.state == "terminated":
            return
        for runtime in deployment.domains.values():
            if runtime.pool is not None:
                runtime.pool.shutdown()
        self.bed.ec2.terminate_instances(deployment.instance_ids())
        deployment.state = "terminated"

"""A mock of the 2012 Amazon EC2 control plane.

Implements the slice of the EC2 API that Globus Provision drives:
AMIs, keypairs, run/stop/start/terminate/describe instances, and tags.
Instance state machines advance in simulated time (boot latency depends on
the instance type), and every running second is metered for billing.

The paper's public GP AMI ``ami-b12ee0d8`` (Fig. 3) is pre-registered,
with the Galaxy/Globus software marked pre-loaded so Chef converges fast.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..simcore import SimContext, SimEvent
from .instance_types import CATALOG, InstanceType, resolve
from .pricing import BillingMeter


class InstanceState(str, enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    STOPPING = "stopping"
    STOPPED = "stopped"
    SHUTTING_DOWN = "shutting-down"
    TERMINATED = "terminated"


#: Seconds for non-boot state transitions.
STOP_LATENCY_S = 25.0
TERMINATE_LATENCY_S = 8.0
#: Restarting a stopped instance skips image preparation.
RESTART_FRACTION_OF_BOOT = 0.6


@dataclass(frozen=True)
class AMI:
    """An Amazon Machine Image: a named root image with pre-loaded software.

    ``baked_markers`` and ``baked_checkouts`` capture Chef ``Execute``
    markers and source checkouts present on a snapshotted disk, so a
    custom AMI skips that converge work too (Fig. 1 step 8).
    """

    id: str
    name: str
    preloaded: frozenset[str] = frozenset()
    description: str = ""
    baked_markers: frozenset[str] = frozenset()
    baked_checkouts: tuple[tuple[str, tuple[str, str]], ...] = ()


@dataclass(frozen=True)
class KeyPair:
    name: str
    fingerprint: str


@dataclass
class EC2Instance:
    """One virtual machine.  Mutated only by :class:`MockEC2`."""

    id: str
    ami: AMI
    itype: InstanceType
    keypair: Optional[str]
    state: InstanceState = InstanceState.PENDING
    tags: dict[str, str] = field(default_factory=dict)
    launch_time: float = 0.0
    private_dns: str = ""
    public_dns: str = ""
    #: kernel event that fires each time the instance reaches RUNNING
    _running_event: Optional[SimEvent] = None

    @property
    def instance_type(self) -> str:
        return self.itype.name

    def is_usable(self) -> bool:
        return self.state == InstanceState.RUNNING


class EC2Error(Exception):
    """API-level error (bad id, invalid state transition, ...)."""


class InsufficientCapacity(EC2Error):
    """Transient launch failure; callers should retry (2012 EC2 reality)."""


#: GP's public AMI from the paper's topology file (Fig. 3).
GP_PUBLIC_AMI_SOFTWARE = frozenset(
    {"globus-toolkit", "condor", "nfs-utils", "nis", "python", "postgresql"}
)


class MockEC2:
    """The region-level control plane."""

    def __init__(
        self,
        ctx: SimContext,
        meter: Optional[BillingMeter] = None,
        boot_jitter: float = 0.05,
        capacity_error_rate: float = 0.0,
    ) -> None:
        if not (0.0 <= capacity_error_rate < 1.0):
            raise ValueError("capacity_error_rate must be in [0, 1)")
        self.ctx = ctx
        self.meter = meter if meter is not None else BillingMeter()
        self.boot_jitter = float(boot_jitter)
        self.capacity_error_rate = float(capacity_error_rate)
        self.instances: dict[str, EC2Instance] = {}
        self.images: dict[str, AMI] = {}
        self.keypairs: dict[str, KeyPair] = {}
        self._counter = 0
        #: open ``ec2.boot`` spans by instance id (only populated when the
        #: context's observability recorder is live)
        self._boot_spans: dict[str, object] = {}
        #: boot span *ids*, retained after the span closes so later
        #: phases (Chef converge via the deployer) can cite the boot
        #: that produced their node as a causal edge
        self._boot_span_ids: dict[str, int] = {}
        # Pre-register the paper's public GP AMI.
        self.images["ami-b12ee0d8"] = AMI(
            id="ami-b12ee0d8",
            name="globus-provision-public",
            preloaded=GP_PUBLIC_AMI_SOFTWARE,
            description="GP public AMI with most necessary software pre-installed",
        )

    # -- images / keypairs ---------------------------------------------------
    def register_image(
        self,
        name: str,
        preloaded: Iterable[str] = (),
        description: str = "",
        baked_markers: Iterable[str] = (),
        baked_checkouts: Iterable[tuple[str, tuple[str, str]]] = (),
    ) -> AMI:
        self._counter += 1
        ami = AMI(
            id=f"ami-{self._counter:08x}",
            name=name,
            preloaded=frozenset(preloaded),
            description=description,
            baked_markers=frozenset(baked_markers),
            baked_checkouts=tuple(baked_checkouts),
        )
        self.images[ami.id] = ami
        return ami

    def create_image(
        self,
        instance_id: str,
        name: str,
        markers: Iterable[str] = (),
        checkouts: Optional[dict[str, tuple[str, str]]] = None,
    ) -> AMI:
        """Snapshot an instance into a new AMI (Fig. 1 step 8).

        The new image is pre-loaded with everything the source AMI had plus
        whatever software tags were recorded on the instance; optional
        ``markers``/``checkouts`` bake the converged Chef state of the disk.
        """
        inst = self._get(instance_id)
        installed = set(inst.ami.preloaded)
        installed.update(
            s for s in inst.tags.get("software", "").split(",") if s
        )
        return self.register_image(
            name,
            preloaded=installed,
            description=f"snapshot of {instance_id}",
            baked_markers=markers,
            baked_checkouts=tuple((checkouts or {}).items()),
        )

    def create_keypair(self, name: str) -> KeyPair:
        if name in self.keypairs:
            raise EC2Error(f"keypair {name!r} already exists")
        kp = KeyPair(name=name, fingerprint=f"fp:{abs(hash(name)) % 10**12:012d}")
        self.keypairs[name] = kp
        return kp

    # -- instance lifecycle ----------------------------------------------------
    def run_instances(
        self,
        ami_id: str,
        instance_type: str,
        count: int = 1,
        keypair: Optional[str] = None,
        tags: Optional[dict[str, str]] = None,
    ) -> list[EC2Instance]:
        """Launch ``count`` instances; they boot asynchronously."""
        if ami_id not in self.images:
            raise EC2Error(f"unknown AMI {ami_id!r}")
        if keypair is not None and keypair not in self.keypairs:
            raise EC2Error(f"unknown keypair {keypair!r}")
        if count < 1:
            raise EC2Error("count must be >= 1")
        if (
            self.capacity_error_rate > 0.0
            and float(self.ctx.stream("ec2.capacity").random())
            < self.capacity_error_rate
        ):
            obs = self.ctx.obs
            obs.counter("ec2.capacity_errors").inc()
            obs.instant("ec2.capacity-error", track="ec2", type=instance_type)
            raise InsufficientCapacity(
                f"Insufficient capacity for {instance_type}; retry shortly"
            )
        itype = resolve(instance_type)
        out = []
        boot_times = []
        now = self.ctx.now
        for _ in range(count):
            self._counter += 1
            iid = f"i-{self._counter:08x}"
            inst = EC2Instance(
                id=iid,
                ami=self.images[ami_id],
                itype=itype,
                keypair=keypair,
                launch_time=now,
                tags=dict(tags or {}),
                private_dns=f"ip-10-0-{(self._counter >> 8) & 255}-{self._counter & 255}",
                public_dns=f"ec2-{self._counter}.compute-1.example.com",
            )
            self.instances[iid] = inst
            self.instances[iid]._running_event = self.ctx.sim.event()
            obs = self.ctx.obs
            if obs.enabled:
                span = obs.start(
                    "ec2.boot", track=f"ec2/{iid}", instance=iid, type=itype.name
                )
                self._boot_spans[iid] = span
                self._boot_span_ids[iid] = span.id
                obs.counter("ec2.launches").inc()
            # jitter draws stay in creation order (one RNG draw per instance)
            boot_times.append(now + self._boot_delay(itype))
            out.append(inst)
        # One boot cohort per API call.  With obs on, the cohort carries
        # each member's boot span id so the causal edge survives the
        # batched RUNNING transition.
        self.ctx.sim.schedule_cohort(
            boot_times,
            self._boot_apply,
            payload=list(out),
            layer="ec2.boot",
            cause=tuple(self._boot_span_ids.get(i.id) for i in out)
            if self.ctx.obs.enabled
            else None,
        )
        return out

    def _boot_apply(self, cohort, k: int) -> None:
        self._enter_running(cohort.payload[k])

    def _boot_delay(self, itype: InstanceType, fraction: float = 1.0) -> float:
        base = itype.boot_latency_s * fraction
        if self.boot_jitter <= 0:
            return base
        jitter = self.ctx.stream("ec2.boot").normal(0.0, self.boot_jitter)
        return max(1.0, base * (1.0 + float(jitter)))

    def _enter_running(self, inst: EC2Instance) -> None:
        if inst.state not in (InstanceState.PENDING,):
            return  # terminated while booting
        inst.state = InstanceState.RUNNING
        self.meter.start(inst.id, inst.instance_type, self.ctx.now)
        span = self._boot_spans.pop(inst.id, None)
        if span is not None:
            self.ctx.obs.finish(span)
        ev = inst._running_event
        inst._running_event = None
        if ev is not None and not ev.triggered:
            ev.succeed(inst)

    def boot_span_id(self, instance_id: str):
        """Obs span id of an instance's ec2.boot span (None when obs off).

        Resolvable for the instance's lifetime — downstream deployment
        phases cite it as the cause of their own spans.
        """
        return (
            self._boot_span_ids.get(instance_id) if self._boot_span_ids else None
        )

    def when_running(self, instance_id: str) -> SimEvent:
        """Event that fires when the instance reaches RUNNING."""
        inst = self._get(instance_id)
        if inst.state == InstanceState.RUNNING:
            ev = self.ctx.sim.event()
            ev.succeed(inst)
            return ev
        if inst.state in (InstanceState.PENDING, InstanceState.STOPPED,
                          InstanceState.STOPPING):
            if inst._running_event is None:
                inst._running_event = self.ctx.sim.event()
            return inst._running_event
        raise EC2Error(f"{inst.id} is {inst.state.value}; it will never run")

    def stop_instances(self, ids: Iterable[str]) -> None:
        for iid in ids:
            inst = self._get(iid)
            if inst.state == InstanceState.STOPPED:
                continue
            if inst.state != InstanceState.RUNNING:
                raise EC2Error(f"cannot stop {iid} in state {inst.state.value}")
            inst.state = InstanceState.STOPPING
            self.meter.stop(iid, self.ctx.now)
            self.ctx.obs.instant("ec2.stopping", track="ec2", instance=iid)

            def _finish(i=inst):
                if i.state == InstanceState.STOPPING:
                    i.state = InstanceState.STOPPED
                    self.ctx.obs.instant("ec2.stopped", track="ec2", instance=i.id)

            self.ctx.sim.call_in(STOP_LATENCY_S, _finish)

    def start_instances(self, ids: Iterable[str]) -> None:
        for iid in ids:
            inst = self._get(iid)
            if inst.state == InstanceState.RUNNING:
                continue
            if inst.state != InstanceState.STOPPED:
                raise EC2Error(f"cannot start {iid} in state {inst.state.value}")
            inst.state = InstanceState.PENDING
            if inst._running_event is None:
                inst._running_event = self.ctx.sim.event()
            obs = self.ctx.obs
            if obs.enabled:
                span = obs.start(
                    "ec2.boot",
                    track=f"ec2/{iid}",
                    instance=iid,
                    type=inst.itype.name,
                    restart=True,
                )
                self._boot_spans[iid] = span
                self._boot_span_ids[iid] = span.id
            delay = self._boot_delay(inst.itype, fraction=RESTART_FRACTION_OF_BOOT)
            self.ctx.sim.call_in(delay, lambda i=inst: self._enter_running(i))

    def terminate_instances(self, ids: Iterable[str]) -> None:
        for iid in ids:
            inst = self._get(iid)
            if inst.state in (InstanceState.TERMINATED, InstanceState.SHUTTING_DOWN):
                continue
            if self.meter.is_running(iid):
                self.meter.stop(iid, self.ctx.now)
            was_pending = inst.state == InstanceState.PENDING
            inst.state = InstanceState.SHUTTING_DOWN
            self.ctx.obs.instant("ec2.terminating", track="ec2", instance=iid)
            span = self._boot_spans.pop(iid, None)
            if span is not None:
                self.ctx.obs.finish(span, status="cancelled", error="terminated while booting")
            ev = inst._running_event
            inst._running_event = None
            if ev is not None and not ev.triggered:
                ev.fail(EC2Error(f"{iid} terminated before running"))
                ev.defused = True

            def _finish(i=inst):
                i.state = InstanceState.TERMINATED
                self.ctx.obs.instant("ec2.terminated", track="ec2", instance=i.id)

            self.ctx.sim.call_in(0.0 if was_pending else TERMINATE_LATENCY_S, _finish)

    # -- queries -------------------------------------------------------------
    def describe_instances(
        self,
        ids: Optional[Iterable[str]] = None,
        states: Optional[Iterable[InstanceState]] = None,
        tag_filters: Optional[dict[str, str]] = None,
    ) -> list[EC2Instance]:
        pool = (
            [self._get(i) for i in ids] if ids is not None else list(self.instances.values())
        )
        if states is not None:
            wanted = set(states)
            pool = [i for i in pool if i.state in wanted]
        if tag_filters:
            pool = [
                i
                for i in pool
                if all(i.tags.get(k) == v for k, v in tag_filters.items())
            ]
        return pool

    def _get(self, iid: str) -> EC2Instance:
        try:
            return self.instances[iid]
        except KeyError:
            raise EC2Error(f"unknown instance {iid!r}") from None


__all__ = [
    "AMI",
    "CATALOG",
    "EC2Error",
    "EC2Instance",
    "InstanceState",
    "KeyPair",
    "MockEC2",
]

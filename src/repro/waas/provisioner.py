"""The elastic provisioner: a policy-driven control loop over gp-update.

Every reshape goes through the same ``gp-instance-update`` topology
path a human operator would use (Sec. III-C): the loop snapshots the
pool, asks its policy for a delta, clamps to ``[min_workers,
max_workers]``, and applies one topology diff.  Growth appends workers
of ``worker_instance_type`` (the paper's scale-up adds a c1.medium);
shrinkage drops the most recently added worker and drains it — running
jobs finish, the machine then leaves the pool and its EC2 instance
stops billing.

Updates are serialized by construction: the loop does not sample again
until the in-flight update completes, so the topology never receives
concurrent diffs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..provision.instance import GlobusProvision
from ..provision.topology import with_worker_count
from .policies import PoolSnapshot, ScalingPolicy


@dataclass(frozen=True)
class ScalingEvent:
    """One applied reshape, for the benchmark's audit trail."""

    time: float
    action: str             # "scale-up" | "scale-down"
    workers_before: int
    workers_after: int
    queue_depth: int
    backlog_workflows: int
    update_seconds: float


class ElasticProvisioner:
    """Autoscaler bound to one running GP instance's domain."""

    def __init__(
        self,
        gp: GlobusProvision,
        instance_id: str,
        policy: ScalingPolicy,
        snapshot: Optional[Callable[[], PoolSnapshot]] = None,
        domain: str = "waas",
        check_interval_s: float = 60.0,
        min_workers: int = 1,
        max_workers: int = 8,
        worker_instance_type: str = "c1.medium",
    ) -> None:
        if min_workers < 0 or max_workers < min_workers:
            raise ValueError("need 0 <= min_workers <= max_workers")
        self.gp = gp
        self.instance_id = instance_id
        self.policy = policy
        #: policy input; by default the bare Condor pool's state (no
        #: WaaS admission in front of it: admission fields zero)
        self.snapshot = snapshot if snapshot is not None else self._pool_snapshot
        self.domain = domain
        self.check_interval_s = check_interval_s
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.worker_instance_type = worker_instance_type
        self.events: list[ScalingEvent] = []
        self.scale_ups = 0
        self.scale_downs = 0
        self.peak_workers = 0
        self._proc = None
        self._stopping = False
        self._stop_event = None

    # -- control -----------------------------------------------------------
    def start(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            return
        ctx = self.gp.bed.ctx
        self._stopping = False
        self.peak_workers = max(self.peak_workers, self.worker_count())
        self._proc = ctx.sim.process(self._loop(), name="waas-provisioner")

    def stop(self) -> None:
        """Ask the control loop to exit at its next wakeup."""
        self._stopping = True
        if self._stop_event is not None and not self._stop_event.triggered:
            self._stop_event.succeed()

    def worker_count(self) -> int:
        gpi = self.gp.get(self.instance_id)
        return gpi.topology.domain(self.domain).cluster_nodes

    def _pool_snapshot(self) -> PoolSnapshot:
        pool = self.gp.get(self.instance_id).deployment.pool
        return PoolSnapshot.of_pool(pool, self.gp.bed.ctx.now, self.worker_count())

    # -- the loop ----------------------------------------------------------
    def _loop(self):
        ctx = self.gp.bed.ctx
        while not self._stopping:
            self._stop_event = ctx.sim.event()
            yield ctx.sim.any_of(
                [ctx.sim.timeout(self.check_interval_s), self._stop_event]
            )
            if self._stopping:
                return
            gpi = self.gp.get(self.instance_id)
            if gpi.deployment is None or gpi.state.value != "Running":
                continue
            snap = self.snapshot()
            workers = self.worker_count()
            target = workers + self.policy.decide(snap)
            target = max(self.min_workers, min(self.max_workers, target))
            if target == workers:
                continue
            yield from self._apply(workers, target, snap)

    def _apply(self, workers: int, target: int, snap: PoolSnapshot):
        ctx = self.gp.bed.ctx
        gpi = self.gp.get(self.instance_id)
        new_topology = with_worker_count(
            gpi.topology, self.domain, target, self.worker_instance_type
        )
        t0 = ctx.now
        yield from self.gp.update(self.instance_id, new_topology)
        action = "scale-up" if target > workers else "scale-down"
        self.events.append(
            ScalingEvent(
                time=ctx.now,
                action=action,
                workers_before=workers,
                workers_after=target,
                queue_depth=snap.queue_depth,
                backlog_workflows=snap.backlog_workflows,
                update_seconds=ctx.now - t0,
            )
        )
        if target > workers:
            self.scale_ups += 1
        else:
            self.scale_downs += 1
        self.peak_workers = max(self.peak_workers, target)
        obs = ctx.obs
        if obs.enabled:
            obs.counter(
                "waas.scale_ups" if target > workers else "waas.scale_downs"
            ).inc()
            obs.gauge("waas.workers").set(target)
            obs.instant(
                "waas.scale", track="waas",
                action=action, workers=target, queue_depth=snap.queue_depth,
            )

"""Pluggable elasticity policies: pool snapshots in, worker deltas out.

The paper scales its cluster by hand (``gp-instance-update`` adding a
c1.medium mid-workflow, Sec. V-A); its conclusion names automating that
as future work.  These policies are that automation, factored so the
benchmark can race them: a policy is a pure function from a
:class:`PoolSnapshot` to a desired worker-count delta, and everything
stateful (intervals, clamping, applying topology updates) lives in the
provisioner.  Pure decisions keep policy runs deterministic and make a
policy trivially testable without a simulator.

Each autoscaler has one fixed threshold, 2 idle jobs per slot for
:class:`QueueDepthPolicy` and 1.5x the projected drain time for
:class:`DeadlineSlackPolicy`; its one parameter is ``step``, the
workers one decision adds (the shipped grids use 4 and 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class PoolSnapshot:
    """What a policy sees at one control interval."""

    now: float
    #: condor workers currently in the topology
    workers: int
    #: idle jobs in the schedd queue
    queue_depth: int
    #: jobs running right now
    running: int
    #: slots across non-draining machines
    total_slots: int
    #: m1.small-seconds of work the pool retires per simulated second
    cpu_capacity: float
    #: backlogged cpu+io work sitting idle in the schedd
    idle_work: float
    #: workflows the admission controller is holding back (the admission
    #: fields stay zero for a pool with no WaaS admission in front of it)
    backlog_workflows: int = 0
    #: their total DAG work
    backlog_work: float = 0.0
    #: workflows admitted and executing
    in_flight: int = 0
    #: tightest live deadline minus ``now`` (None when nothing is live)
    min_deadline_slack_s: Optional[float] = None

    @classmethod
    def of_pool(cls, pool, now: float, workers: int, **admission) -> "PoolSnapshot":
        """The Condor fields read off ``pool``; ``admission`` fills the rest."""
        return cls(
            now=now,
            workers=workers,
            queue_depth=pool.schedd.idle_count(),
            running=pool.running_count,
            total_slots=pool.total_slots,
            cpu_capacity=pool.total_cpu_capacity,
            idle_work=pool.idle_work,
            **admission,
        )

    @property
    def pending_work(self) -> float:
        """Everything not yet running: schedd backlog + held-back DAGs."""
        return self.idle_work + self.backlog_work


class ScalingPolicy:
    """Base: the static (paper-baseline) policy — never reshape."""

    name = "static"

    def decide(self, snap: PoolSnapshot) -> int:
        """Desired worker-count delta; the provisioner clamps and applies."""
        return 0

    def describe(self) -> dict:
        return {"name": self.name}


class StaticPolicy(ScalingPolicy):
    """Explicit alias so ``make_policy('static')`` reads naturally."""


class QueueDepthPolicy(ScalingPolicy):
    """Grow on queue pressure, shrink when the pool goes quiet.

    The classic threshold autoscaler: add ``step`` workers whenever the
    visible backlog (idle jobs plus admission-deferred workflows)
    exceeds ``up_per_slot`` per slot, drop one worker once the service
    is fully drained.
    """

    name = "queue_depth"
    #: backlog per slot that triggers growth
    up_per_slot = 2.0

    def __init__(self, step: int = 1) -> None:
        if step < 1:
            raise ValueError("step must be >= 1")
        self.step = step

    def decide(self, snap: PoolSnapshot) -> int:
        backlog = snap.queue_depth + snap.backlog_workflows
        if snap.total_slots == 0:
            return self.step if backlog else 0
        if backlog >= self.up_per_slot * snap.total_slots:
            return self.step
        if backlog == 0 and snap.running == 0:
            return -1
        return 0

    def describe(self) -> dict:
        return {"name": self.name, "up_per_slot": self.up_per_slot, "step": self.step}


class DeadlineSlackPolicy(ScalingPolicy):
    """Grow when projected drain time threatens the tightest deadline.

    Estimates how long the pending work takes at current capacity; if
    that projection (padded by ``headroom``) exceeds the slack of the
    most urgent live workflow, capacity is the binding constraint and
    the pool grows.  SLA-aware where :class:`QueueDepthPolicy` is
    load-aware: a deep queue of slack-rich work does not trigger it.
    """

    name = "deadline_slack"
    #: padding on the projected drain time
    headroom = 1.5

    def __init__(self, step: int = 1) -> None:
        if step < 1:
            raise ValueError("step must be >= 1")
        self.step = step

    def decide(self, snap: PoolSnapshot) -> int:
        pending = snap.pending_work
        if pending > 0 and snap.cpu_capacity <= 0:
            return self.step
        if pending == 0 and snap.running == 0:
            return -1
        slack = snap.min_deadline_slack_s
        if slack is None:
            return 0
        drain_s = pending / snap.cpu_capacity
        if drain_s * self.headroom > slack:
            return self.step
        return 0

    def describe(self) -> dict:
        return {"name": self.name, "headroom": self.headroom, "step": self.step}


POLICIES = {
    "static": StaticPolicy,
    "queue_depth": QueueDepthPolicy,
    "deadline_slack": DeadlineSlackPolicy,
}


def make_policy(name: str, **params) -> ScalingPolicy:
    try:
        cls = POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown scaling policy {name!r}; known: {sorted(POLICIES)}"
        ) from None
    return cls(**params)

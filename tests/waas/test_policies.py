"""Policy decisions are pure functions of the snapshot — test them dry."""

import pytest

from repro.waas import (
    POLICIES,
    DeadlineSlackPolicy,
    PoolSnapshot,
    QueueDepthPolicy,
    StaticPolicy,
    make_policy,
)


def snap(**kw) -> PoolSnapshot:
    base = dict(
        now=0.0, workers=2, queue_depth=0, running=0, total_slots=2,
        cpu_capacity=2.0, idle_work=0.0, backlog_workflows=0,
        backlog_work=0.0, in_flight=0, min_deadline_slack_s=None,
    )
    base.update(kw)
    return PoolSnapshot(**base)


def test_static_never_moves():
    p = StaticPolicy()
    assert p.decide(snap(queue_depth=1000, backlog_workflows=1000)) == 0
    assert p.decide(snap()) == 0


def test_queue_depth_scales_up_on_backlog():
    p = QueueDepthPolicy(step=3)
    assert p.decide(snap(queue_depth=4)) == 3       # 4 >= 2*2 slots
    assert p.decide(snap(queue_depth=3)) == 0
    assert p.decide(snap(queue_depth=1, backlog_workflows=3)) == 3


def test_queue_depth_scales_down_when_drained():
    p = QueueDepthPolicy()
    assert p.decide(snap(queue_depth=0, running=0)) == -1
    assert p.decide(snap(queue_depth=0, running=1)) == 0


def test_queue_depth_handles_empty_pool():
    p = QueueDepthPolicy(step=2)
    assert p.decide(snap(total_slots=0, queue_depth=1)) == 2
    assert p.decide(snap(total_slots=0, queue_depth=0)) == 0


def test_deadline_slack_scales_up_when_drain_threatens_deadline():
    p = DeadlineSlackPolicy(step=2)
    # 300s of work at 2 work/s = 150s projected; *1.5 = 225 > 200 slack
    assert p.decide(snap(idle_work=300.0, min_deadline_slack_s=200.0)) == 2
    # 500 slack is comfortable
    assert p.decide(snap(idle_work=300.0, min_deadline_slack_s=500.0)) == 0


def test_deadline_slack_counts_admission_backlog():
    p = DeadlineSlackPolicy(step=1)
    s = snap(idle_work=100.0, backlog_work=500.0, min_deadline_slack_s=200.0)
    assert p.decide(s) == 1  # 600/2 = 300s projected; *1.5 = 450 > 200


def test_deadline_slack_idles_down_and_ignores_quiet_pools():
    p = DeadlineSlackPolicy()
    assert p.decide(snap()) == -1  # nothing pending, nothing running
    assert p.decide(snap(running=1)) == 0
    assert p.decide(snap(idle_work=50.0, min_deadline_slack_s=None)) == 0


def test_deadline_slack_rescues_zero_capacity():
    p = DeadlineSlackPolicy(step=4)
    assert p.decide(snap(cpu_capacity=0.0, idle_work=10.0)) == 4


def test_policy_registry_and_params():
    assert set(POLICIES) == {"static", "queue_depth", "deadline_slack"}
    p = make_policy("queue_depth", step=4)
    assert p.describe() == {"name": "queue_depth", "up_per_slot": 2.0, "step": 4}
    p = make_policy("deadline_slack", step=8)
    assert p.describe() == {"name": "deadline_slack", "headroom": 1.5, "step": 8}
    assert make_policy("static").describe() == {"name": "static"}
    with pytest.raises(KeyError):
        make_policy("nope")


def test_policy_param_validation():
    with pytest.raises(ValueError):
        QueueDepthPolicy(step=0)
    with pytest.raises(ValueError):
        DeadlineSlackPolicy(step=0)


def test_pending_work_property():
    s = snap(idle_work=10.0, backlog_work=5.0)
    assert s.pending_work == 15.0

"""Admission contract: quotas, the global cap, fair-share drain order."""

import pytest

from repro.simcore import SimContext
from repro.waas import AdmissionController, make_tenants
from repro.waas.tenants import WorkflowRequest
from repro.workloads.generators import make_workflow_dag

DAG = make_workflow_dag("chain", n_tasks=2, seed=0)


def _controller(max_in_flight=100):
    ctx = SimContext(seed=0)
    adm = AdmissionController(ctx, max_in_flight=max_in_flight)
    started = []
    adm.bind(started.append)
    return adm, started


def _request(rid, tenant, arrival=0.0, dag=DAG):
    req = WorkflowRequest(
        id=rid, tenant=tenant, dag=dag, arrival_s=arrival, allowance_s=1e9
    )
    req.arrived_s = arrival
    return req


def test_tenant_quota_defers_and_fifo_refills():
    (tenant,) = make_tenants(1, quota=1)
    adm, started = _controller()
    reqs = [_request(i, tenant, arrival=float(i)) for i in range(3)]
    for r in reqs:
        adm.offer(r)
    assert [r.id for r in started] == [0]
    assert adm.backlog_workflows == 2
    adm.complete(reqs[0])
    assert [r.id for r in started] == [0, 1]
    adm.complete(reqs[1])
    assert [r.id for r in started] == [0, 1, 2]
    assert adm.backlog_workflows == 0
    assert adm.admitted == 3 and adm.deferred == 2


def test_global_cap_gates_even_under_quota():
    tenants = make_tenants(4, quota=10)
    adm, started = _controller(max_in_flight=2)
    reqs = [_request(i, tenants[i], arrival=float(i)) for i in range(4)]
    for r in reqs:
        adm.offer(r)
    assert len(started) == 2
    adm.complete(reqs[0])
    assert len(started) == 3


def test_fair_share_prefers_lightest_tenant():
    light, heavy = make_tenants(2, quota=1)
    adm, started = _controller(max_in_flight=1)
    first = _request(0, heavy, arrival=0.0)
    adm.offer(first)  # occupies the single slot; charges `heavy` on completion
    # both tenants now queue one workflow; heavy's arrived *earlier*
    q_heavy = _request(1, heavy, arrival=1.0)
    q_light = _request(2, light, arrival=2.0)
    adm.offer(q_heavy)
    adm.offer(q_light)
    adm.complete(first)
    # usage(heavy) > usage(light): the lighter tenant wins despite arriving later
    assert [r.id for r in started] == [0, 2]


def test_ties_break_by_arrival_then_tenant_id():
    a, b = make_tenants(2, quota=1)
    adm, started = _controller(max_in_flight=1)
    blocker = _request(0, a, arrival=0.0)
    adm.offer(blocker)
    adm.offer(_request(1, b, arrival=1.0))
    adm.offer(_request(2, a, arrival=2.0))
    adm.complete(blocker)
    # a has usage from the blocker; b is untouched -> b first
    assert started[1].id == 1


def test_unbound_controller_asserts_on_admit():
    ctx = SimContext(seed=0)
    adm = AdmissionController(ctx)
    (tenant,) = make_tenants(1)
    with pytest.raises(AssertionError):
        adm.offer(_request(0, tenant))


def test_backlog_work_accounting_balances():
    (tenant,) = make_tenants(1, quota=1)
    adm, started = _controller()
    for i in range(4):
        adm.offer(_request(i, tenant, arrival=float(i)))
    assert adm.backlog_work == pytest.approx(3 * DAG.total_work)
    k = 0
    while k < len(started):  # each completion admits the next in line
        adm.complete(started[k])
        k += 1
    assert adm.backlog_workflows == 0
    assert adm.backlog_work == pytest.approx(0.0)
    assert adm.in_flight == 0

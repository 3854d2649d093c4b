"""Demand-side contract: deterministic plans, sane deadlines, traces."""

import pytest

from repro.waas import make_tenants, poisson_plan, trace_plan


def test_make_tenants_names_and_quota():
    tenants = make_tenants(12, quota=3)
    assert len(tenants) == 12
    assert tenants[0].name == "tenant-0000"
    assert all(t.quota == 3 for t in tenants)
    assert [t.id for t in tenants] == list(range(12))


def test_tenant_quota_must_be_positive():
    with pytest.raises(ValueError):
        make_tenants(2, quota=0)


def test_poisson_plan_is_seed_deterministic():
    a = poisson_plan(10, 40, 0.5, seed=7)
    b = poisson_plan(10, 40, 0.5, seed=7)
    assert [r.arrival_s for r in a.requests] == [r.arrival_s for r in b.requests]
    assert [r.tenant.id for r in a.requests] == [r.tenant.id for r in b.requests]
    assert [r.dag for r in a.requests] == [r.dag for r in b.requests]
    assert [r.allowance_s for r in a.requests] == [r.allowance_s for r in b.requests]


def test_poisson_plan_seed_moves_the_schedule():
    a = poisson_plan(10, 40, 0.5, seed=0)
    b = poisson_plan(10, 40, 0.5, seed=1)
    assert [r.arrival_s for r in a.requests] != [r.arrival_s for r in b.requests]


def test_poisson_arrivals_sorted_and_positive():
    plan = poisson_plan(5, 100, 2.0, seed=3)
    times = [r.arrival_s for r in plan.requests]
    assert times == sorted(times)
    assert times[0] > 0


def test_poisson_plan_shares_dag_objects():
    plan = poisson_plan(50, 200, 1.0, unique_dags=8, seed=0)
    distinct = {id(r.dag) for r in plan.requests}
    assert len(distinct) <= 8


def test_deadline_allowance_covers_critical_path():
    plan = poisson_plan(4, 20, 1.0, deadline_base_s=100.0, deadline_slack=2.0, seed=0)
    for r in plan.requests:
        assert r.allowance_s == 100.0 + 2.0 * r.dag.critical_path_work


def test_poisson_plan_rejects_bad_args():
    with pytest.raises(ValueError):
        poisson_plan(4, 10, 0.0)
    with pytest.raises(ValueError):
        poisson_plan(4, 0, 1.0)
    with pytest.raises(ValueError):
        poisson_plan(4, 10, 1.0, shapes=("nope",))


def test_trace_plan_replays_records():
    trace = [
        {"t": 0.0, "tenant": 0},
        {"t": 1.5, "tenant": 1, "allowance_s": 99.0},
        {"t": 1.5, "tenant": 0, "variant": 2},
    ]
    plan = trace_plan(trace, n_tenants=2, unique_dags=4, seed=0)
    assert [r.arrival_s for r in plan.requests] == [0.0, 1.5, 1.5]
    assert plan.requests[1].allowance_s == 99.0
    assert plan.requests[1].tenant.id == 1


def test_trace_plan_validates():
    with pytest.raises(ValueError):
        trace_plan([{"t": 2.0, "tenant": 0}, {"t": 1.0, "tenant": 0}], n_tenants=1)
    with pytest.raises(ValueError):
        trace_plan([{"t": 0.0, "tenant": 5}], n_tenants=2)
    with pytest.raises(ValueError):
        trace_plan([], n_tenants=2)

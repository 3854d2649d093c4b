"""Demand-side contract: deterministic plans, sane deadlines."""

import pytest

from repro.waas import make_tenants, poisson_plan


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

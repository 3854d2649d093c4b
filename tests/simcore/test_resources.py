"""FIFO Resource semantics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simcore import Resource, Simulator


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_grants_up_to_capacity_then_queues():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    log = []

    def user(name, hold):
        req = res.request()
        yield req
        log.append((name, "acquired", sim.now))
        yield sim.timeout(hold)
        req.release()
        log.append((name, "released", sim.now))

    sim.process(user("a", 5.0))
    sim.process(user("b", 5.0))
    sim.process(user("c", 1.0))
    sim.run()
    acq = {(n, t) for n, what, t in log if what == "acquired"}
    assert ("a", 0.0) in acq and ("b", 0.0) in acq
    assert ("c", 5.0) in acq  # waited for a slot
    assert res.count == 0


def test_cancel_pending_request_by_release():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    held = res.request()
    sim.run()
    assert held.processed
    pending = res.request()
    pending.release()  # cancel while still queued
    held.release()
    sim.run()
    assert res.count == 0
    assert not pending.triggered


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=25))
def test_property_resource_never_exceeds_capacity(capacity, n_users):
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    max_in_use = 0

    def user(i):
        yield sim.timeout(i * 0.1)
        req = res.request()
        yield req
        nonlocal max_in_use
        max_in_use = max(max_in_use, res.count)
        yield sim.timeout(1.0)
        req.release()

    for i in range(n_users):
        sim.process(user(i))
    sim.run()
    assert max_in_use <= capacity
    assert res.count == 0

"""EC2 capacity-failure injection and GP's launch retries."""

import pytest

from repro.cloud import InsufficientCapacity, MockEC2
from repro.core import CloudTestbed, usecase_topology
from repro.obs import capture
from repro.provision import DeploymentError, GlobusProvision
from repro.simcore import SimContext


def test_capacity_error_raised_at_configured_rate():
    ctx = SimContext(seed=70)
    ec2 = MockEC2(ctx, capacity_error_rate=0.999)
    with pytest.raises(InsufficientCapacity):
        ec2.run_instances("ami-b12ee0d8", "m1.small")


def test_invalid_rate_rejected():
    with pytest.raises(ValueError):
        MockEC2(SimContext(seed=0), capacity_error_rate=1.0)


def test_deployer_retries_through_transient_capacity_errors():
    """A 30% failure rate is absorbed by the launch retry loop."""
    with capture():
        bed = CloudTestbed(seed=74, capacity_error_rate=0.3)
    gp = GlobusProvision(bed)
    gpi = gp.create(usecase_topology("m1.small", cluster_nodes=2))

    def scenario():
        yield from gp.start(gpi.id)

    bed.ctx.sim.run(until=bed.ctx.sim.process(scenario()))
    assert gpi.state.value == "Running"
    assert len(gpi.deployment.nodes) == 5
    # at least one capacity error actually fired (and was retried)
    assert bed.ctx.obs.counter("ec2.capacity_errors").value >= 1


def test_deployer_gives_up_after_persistent_capacity_errors():
    bed = CloudTestbed(seed=72, capacity_error_rate=0.98)
    gp = GlobusProvision(bed)
    gpi = gp.create(usecase_topology("m1.small", cluster_nodes=1))

    def scenario():
        yield from gp.start(gpi.id)

    with pytest.raises(DeploymentError, match="capacity errors persisted"):
        bed.ctx.sim.run(until=bed.ctx.sim.process(scenario()))
    assert gpi.state.value == "New"  # rolled back to creatable state

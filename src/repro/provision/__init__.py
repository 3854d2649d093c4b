"""Globus Provision: topologies, the deployment engine, instance lifecycle.

The topology names load with the package.  The deployment engine and
the instance lifecycle, which import Galaxy and CRData, load on first
use, so ``gp-instance create``, ``list`` and ``--help`` start without
them.
"""

from importlib import import_module

from .topology import (
    PAPER_GALAXY_CONF,
    DomainSpec,
    EC2Spec,
    GlobusOnlineSpec,
    NodeSpec,
    Topology,
    TopologyDiff,
    TopologyError,
    diff_topologies,
    with_extra_worker,
    with_worker_count,
)

#: names loaded from their submodule on first use
_LAZY = {
    "Deployer": ".deployer",
    "Deployment": ".deployer",
    "DeploymentError": ".deployer",
    "DomainRuntime": ".deployer",
    "UpdateReport": ".deployer",
    "GlobusProvision": ".instance",
    "GPError": ".instance",
    "GPInstance": ".instance",
    "GPInstanceState": ".instance",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_LAZY[name], __name__), name)


__all__ = [
    "Deployer",
    "Deployment",
    "DeploymentError",
    "DomainRuntime",
    "DomainSpec",
    "EC2Spec",
    "GPError",
    "GPInstance",
    "GPInstanceState",
    "GlobusOnlineSpec",
    "GlobusProvision",
    "NodeSpec",
    "PAPER_GALAXY_CONF",
    "Topology",
    "TopologyDiff",
    "TopologyError",
    "UpdateReport",
    "diff_topologies",
    "with_extra_worker",
    "with_worker_count",
]

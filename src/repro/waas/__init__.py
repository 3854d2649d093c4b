"""Workflow-as-a-Service: a multi-tenant front door over the GP sim.

Thousands of tenants submit workflow DAGs with deadlines; admission
control fair-shares them onto one Condor pool, and an elastic
provisioner reshapes that pool through the topology-update path.  The
``waas`` bench suite races provisioning policies on SLA attainment vs
dollar cost.
"""

from .admission import AdmissionController
from .policies import (
    POLICIES,
    DeadlineSlackPolicy,
    PoolSnapshot,
    QueueDepthPolicy,
    ScalingPolicy,
    StaticPolicy,
    make_policy,
)
from .provisioner import ElasticProvisioner, ScalingEvent
from .service import WaasService, waas_topology
from .tenants import (
    ArrivalPlan,
    TenantSpec,
    WorkflowRequest,
    make_tenants,
    poisson_plan,
)

__all__ = [
    "POLICIES",
    "AdmissionController",
    "ArrivalPlan",
    "DeadlineSlackPolicy",
    "ElasticProvisioner",
    "PoolSnapshot",
    "QueueDepthPolicy",
    "ScalingEvent",
    "ScalingPolicy",
    "StaticPolicy",
    "TenantSpec",
    "WaasService",
    "WorkflowRequest",
    "make_policy",
    "make_tenants",
    "poisson_plan",
    "waas_topology",
]

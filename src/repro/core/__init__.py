"""The paper's contribution: Galaxy deployed and scaled on clouds via GP.

This package glues the substrates together: the Chef cookbooks for the
Galaxy/Globus/CRData stack (:mod:`repro.core.recipes`), the simulated
world (:mod:`repro.core.testbed`) and the Sec. V-A use-case driver
(:mod:`repro.core.usecase`).  The elastic-scaling extension is
:class:`repro.waas.ElasticProvisioner` driven by a
:mod:`repro.waas.policies` policy.
"""

from .recipes import (
    GALAXY_HEAD_RUN_LIST,
    build_galaxy_cookbook,
    build_globus_cookbook,
    build_repository,
)
from .testbed import (
    AFFY_CEL_PATH,
    CVRG_DATA_ENDPOINT,
    FOUR_CEL_PATH,
    CloudTestbed,
)
from .usecase import UseCaseError, UseCaseResult, run_usecase, usecase_topology

__all__ = [
    "AFFY_CEL_PATH",
    "CVRG_DATA_ENDPOINT",
    "CloudTestbed",
    "FOUR_CEL_PATH",
    "GALAXY_HEAD_RUN_LIST",
    "UseCaseError",
    "UseCaseResult",
    "build_galaxy_cookbook",
    "build_globus_cookbook",
    "build_repository",
    "run_usecase",
    "usecase_topology",
]

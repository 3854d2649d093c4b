"""Galaxy: the scientific workflow platform (paper Sec. II).

Datasets/histories, declarative tools, workflow DAGs, job runners (local
and Condor), provenance capture, and pages/sharing — the programmatic
equivalent of the Galaxy instance the paper deploys.
"""

from .app import GalaxyApp, GalaxyConfig, GalaxyError, GalaxyUser
from .datasets import Dataset, DatasetState, History, KNOWN_EXTENSIONS
from .libraries import DataLibrary, LibraryError, LibraryItem, LibraryStore
from .jobs import (
    CondorJobRunner,
    InputHandle,
    Job,
    JobError,
    JobManager,
    JobRunner,
    JobState,
    LocalJobRunner,
    OutputHandle,
    ToolRunContext,
)
from .pages import Page, PageStore, SharingError
from .provenance import JobRecord, ProvenanceError, ProvenanceStore
from .tools import Tool, Toolbox, ToolError, ToolOutput, ToolParameter
from .upload_tools import (
    UPLOAD_FTP_TOOL_ID,
    UPLOAD_HTTP_TOOL_ID,
    build_upload_tools,
    install_upload_tools,
)
from .workflows import (
    Connection,
    Workflow,
    WorkflowEngine,
    WorkflowError,
    WorkflowInvocation,
    WorkflowStep,
)

__all__ = [
    "Connection",
    "CondorJobRunner",
    "DataLibrary",
    "Dataset",
    "DatasetState",
    "GalaxyApp",
    "GalaxyConfig",
    "GalaxyError",
    "GalaxyUser",
    "History",
    "InputHandle",
    "Job",
    "JobError",
    "JobManager",
    "JobRecord",
    "JobRunner",
    "JobState",
    "KNOWN_EXTENSIONS",
    "LibraryError",
    "LibraryItem",
    "LibraryStore",
    "LocalJobRunner",
    "OutputHandle",
    "Page",
    "PageStore",
    "ProvenanceError",
    "ProvenanceStore",
    "SharingError",
    "Tool",
    "ToolError",
    "ToolOutput",
    "ToolParameter",
    "ToolRunContext",
    "Toolbox",
    "UPLOAD_FTP_TOOL_ID",
    "UPLOAD_HTTP_TOOL_ID",
    "Workflow",
    "build_upload_tools",
    "install_upload_tools",
    "WorkflowEngine",
    "WorkflowError",
    "WorkflowInvocation",
    "WorkflowStep",
]

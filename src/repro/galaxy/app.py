"""GalaxyApp: the assembled Galaxy instance.

This is what a deployed "simple-galaxy-condor" host runs: users,
histories, the toolbox, the job manager (local or Condor-backed), the
workflow engine, provenance capture and pages.  The web UI is out of
scope; the programmatic API below is the stand-in the examples and
benchmarks drive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from ..cluster.nfs import MountTable, SimFilesystem
from ..simcore import SimContext
from .datasets import Dataset, DatasetState, History
from .jobs import Job, JobManager, JobRunner
from .pages import PageStore
from .provenance import ProvenanceStore
from .tools import Tool, Toolbox
from .workflows import Workflow, WorkflowEngine, WorkflowInvocation

Filesystem = Union[SimFilesystem, MountTable]


class GalaxyError(Exception):
    pass


@dataclass
class GalaxyUser:
    username: str
    email: str
    histories: list[int] = field(default_factory=list)
    #: Globus Online username linked to this account (Sec. IV-A requires
    #: "register an account in Galaxy with the same username")
    globus_username: Optional[str] = None
    #: disk quota in bytes; None = unlimited
    quota_bytes: Optional[int] = None


@dataclass
class GalaxyConfig:
    """Instance configuration (the paper's universe of relevant knobs)."""

    file_path: str = "/galaxy/database/files"
    ftp_upload_enabled: bool = True
    http_upload_max_bytes: int = 2 * 1024**3
    brand: str = "Galaxy / Globus Online"


class GalaxyApp:
    """One running Galaxy instance."""

    def __init__(
        self,
        ctx: SimContext,
        fs: Optional[Filesystem] = None,
        config: Optional[GalaxyConfig] = None,
        runner: Optional[JobRunner] = None,
        job_overheads: Optional[tuple[float, float]] = None,
        services: Optional[dict[str, Any]] = None,
    ) -> None:
        self.ctx = ctx
        self.fs: Filesystem = fs if fs is not None else SimFilesystem("galaxy")
        self.config = config or GalaxyConfig()
        kwargs: dict[str, Any] = {}
        if job_overheads is not None:
            kwargs["prep_overhead_s"], kwargs["finalize_overhead_s"] = job_overheads
        self.toolbox = Toolbox()
        self.jobs = JobManager(
            ctx,
            self.fs,
            file_path=self.config.file_path,
            runner=runner,
            services=services,
            **kwargs,
        )
        self.provenance = ProvenanceStore(self.jobs)
        self.workflows = WorkflowEngine(ctx, self.toolbox, self.jobs)
        self.pages = PageStore()
        from .libraries import LibraryStore

        self.libraries = LibraryStore(self.fs, self.jobs, ctx)
        self.users: dict[str, GalaxyUser] = {}
        self.histories: dict[int, History] = {}
        self.workflow_store: dict[str, Workflow] = {}
        self._history_ids = itertools.count(1)

    # -- users / histories ------------------------------------------------------
    def create_user(self, username: str, email: str = "") -> GalaxyUser:
        if username in self.users:
            raise GalaxyError(f"user {username!r} exists")
        user = GalaxyUser(
            username=username,
            email=email or f"{username}@example.org",
        )
        self.users[username] = user
        return user

    def user(self, username: str) -> GalaxyUser:
        try:
            return self.users[username]
        except KeyError:
            raise GalaxyError(f"no such user {username!r}") from None

    def link_globus_account(self, username: str, globus_username: str) -> None:
        self.user(username).globus_username = globus_username

    def create_history(self, username: str, name: str = "Unnamed history") -> History:
        user = self.user(username)
        history = History(id=next(self._history_ids), name=name, user=username)
        self.histories[history.id] = history
        user.histories.append(history.id)
        return history

    # -- sharing (Sec. II-2: "share datasets, histories, and workflows") ---------
    def share_history(self, history: History, owner: str, with_user: str) -> None:
        if history.user != owner:
            raise GalaxyError("only the owner can share a history")
        self.user(with_user)
        history.shared_with.add(with_user)

    def import_history(
        self, history: History, as_user: str, name: Optional[str] = None
    ) -> History:
        """Copy a shared/published history into the user's workspace.

        Like Galaxy, the copy references the same underlying files —
        datasets are new history items pointing at the original payloads.
        """
        self.user(as_user)
        if not history.accessible_by(as_user):
            raise GalaxyError(
                f"{as_user!r} has no access to history {history.name!r}"
            )
        copy = self.create_history(as_user, name or f"imported: {history.name}")
        for ds in history.active():
            new_ds = copy.new_dataset(
                self.jobs._next_dataset_id, ds.name, ext=ds.ext,
                created_at=self.ctx.now,
            )
            self.jobs._next_dataset_id += 1
            new_ds.file_path = ds.file_path      # copy-on-reference
            new_ds.size = ds.size
            new_ds.state = ds.state
            new_ds.peek = ds.peek
            new_ds.metadata = dict(ds.metadata)
            new_ds.creating_job_id = ds.creating_job_id
        return copy

    # -- quotas -------------------------------------------------------------------
    def user_disk_usage(self, username: str) -> int:
        """Bytes of live datasets across the user's histories."""
        user = self.user(username)
        total = 0
        for hid in user.histories:
            history = self.histories[hid]
            total += sum(d.size for d in history.active())
        return total

    def set_user_quota(self, username: str, quota_bytes: Optional[int]) -> None:
        self.user(username).quota_bytes = quota_bytes

    def _check_quota(self, username: str) -> None:
        quota = self.user(username).quota_bytes
        if quota is None:
            return
        usage = self.user_disk_usage(username)
        if usage > quota:
            raise GalaxyError(
                f"user {username!r} is over quota "
                f"({usage} > {quota} bytes); delete datasets to continue"
            )

    # -- tools --------------------------------------------------------------------
    def install_tool(self, tool: Tool, section: str = "Tools") -> Tool:
        return self.toolbox.register(tool, section=section)

    def run_tool(
        self,
        username: str,
        history: History,
        tool_id: str,
        params: Optional[dict] = None,
        inputs: Optional[list[Dataset]] = None,
    ) -> Job:
        """Invoke a tool, as clicking *Execute* in the UI would."""
        self.user(username)
        self._check_quota(username)
        tool = self.toolbox.get(tool_id)
        return self.jobs.submit(
            tool, user=username, history=history, params=params, inputs=inputs
        )

    # -- workflows ------------------------------------------------------------------
    def save_workflow(self, workflow: Workflow) -> None:
        workflow.validate(self.toolbox)
        self.workflow_store[workflow.name] = workflow

    def run_workflow(
        self,
        username: str,
        workflow: Workflow | str,
        history: History,
        inputs: dict[int, Dataset],
    ) -> WorkflowInvocation:
        if isinstance(workflow, str):
            try:
                workflow = self.workflow_store[workflow]
            except KeyError:
                raise GalaxyError(f"no saved workflow {workflow!r}") from None
        return self.workflows.invoke(workflow, history, user=username, inputs=inputs)

    # -- convenience ------------------------------------------------------------------
    def upload_data(
        self,
        history: History,
        name: str,
        data: Optional[bytes] = None,
        size: Optional[int] = None,
        ext: str = "data",
    ) -> Dataset:
        """Materialise a dataset directly (admin path used by deployments)."""
        return self.jobs.import_dataset(history, name, data=data, size=size, ext=ext)

    def delete_dataset(self, dataset: Dataset, purge: bool = False) -> None:
        """Delete (hide) a dataset; ``purge`` also frees the disk payload.

        Purged datasets no longer count against the owner's quota.
        """
        dataset.deleted = True
        if purge and dataset.file_path and self.fs.exists(dataset.file_path):
            self.fs.remove(dataset.file_path)
            dataset.size = 0
            dataset.state = DatasetState.DISCARDED

    def download_dataset(self, dataset: Dataset) -> bytes:
        """The history panel's "Save" button: the dataset's raw bytes."""
        if not dataset.usable:
            raise GalaxyError(
                f"dataset {dataset.display_name!r} is {dataset.state.value}"
            )
        return self.fs.read(dataset.file_path)

    def history_panel(self, history: History) -> list[str]:
        """The right-hand history panel, as display strings."""
        return [
            f"{d.hid}: {d.name} [{d.state.value}]"
            + (f" — {d.info}" if d.info else "")
            for d in history.active()
        ]

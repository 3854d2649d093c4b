"""Job execution: tool invocations, runners (local and Condor), finalization.

A job's lifecycle: NEW -> QUEUED (outputs appear grey in the history) ->
RUNNING -> OK/ERROR.  "Galaxy jobs are transparently assigned to Condor
worker nodes for parallel execution" (Sec. III-B) through
:class:`CondorJobRunner`; deployments without Condor use
:class:`LocalJobRunner`.

Tool *timing* comes from the tool's work model (or, for service-backed
tools such as the Globus Transfer tools, from the tool's own simulation
process); tool *outputs* come from running the tool's real ``execute``
code against input bytes on the simulated filesystem.
"""

from __future__ import annotations

import enum
import inspect
import posixpath
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from .. import calibration
from ..cluster.condor import CondorPool, MachineAd
from ..cluster.nfs import FileNode, MountTable, SimFilesystem
from ..simcore import Resource, SimContext, SimEvent
from .datasets import Dataset, DatasetState, History
from .tools import Tool, ToolError

Filesystem = Union[SimFilesystem, MountTable]


class JobError(Exception):
    pass


class JobState(str, enum.Enum):
    NEW = "new"
    QUEUED = "queued"
    RUNNING = "running"
    OK = "ok"
    ERROR = "error"


@dataclass
class Job:
    """One tool invocation."""

    id: int
    tool: Tool
    user: str
    history: History
    params: dict
    inputs: list[Dataset]
    outputs: dict[str, Dataset]
    state: JobState = JobState.NEW
    stdout: str = ""
    stderr: str = ""
    machine: str = ""
    create_time: float = 0.0
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    done: Optional[SimEvent] = None
    #: obs causal carrier: id of the job's galaxy.job span, cited as the
    #: cause of stage-in/out, compute, and Condor queue spans downstream.
    #: None whenever observability is disabled.
    obs_span_id: Optional[int] = None

    @property
    def duration_s(self) -> Optional[float]:
        if self.end_time is None or self.start_time is None:
            return None
        return self.end_time - self.start_time

    @property
    def wall_s(self) -> Optional[float]:
        """Submission-to-finish time, the quantity the paper reports."""
        if self.end_time is None:
            return None
        return self.end_time - self.create_time


class InputHandle:
    """A tool's read view of one input dataset."""

    def __init__(self, dataset: Dataset, fs: Filesystem) -> None:
        self.dataset = dataset
        self._fs = fs

    @property
    def name(self) -> str:
        return self.dataset.name

    @property
    def ext(self) -> str:
        return self.dataset.ext

    @property
    def size(self) -> int:
        return self.dataset.size

    @property
    def path(self) -> str:
        return self.dataset.file_path

    @property
    def metadata(self) -> dict:
        return self.dataset.metadata

    def read(self) -> bytes:
        return self._fs.read(self.dataset.file_path)


class OutputHandle:
    """A tool's write view of one output dataset."""

    def __init__(self, dataset: Dataset, fs: Filesystem, now: float) -> None:
        self.dataset = dataset
        self._fs = fs
        self._now = now
        self.written = False

    def write(
        self,
        data: Optional[bytes] = None,
        size: Optional[int] = None,
        checksum: Optional[str] = None,
    ) -> FileNode:
        """Write the dataset's file; ``checksum`` is passed to the
        filesystem's ``write`` (a replay passes its first run's)."""
        node = self._fs.write(
            self.dataset.file_path, data=data, size=size, mtime=self._now,
            checksum=checksum,
        )
        self.dataset.size = node.size
        if data is not None:
            self.dataset.set_peek(data)
        self.written = True
        return node

    def adopt(self) -> None:
        """Claim a payload an external mover (e.g. Globus Transfer) already
        delivered to this dataset's file path."""
        node = self._fs.stat(self.dataset.file_path)
        self.dataset.size = node.size
        if node.data is not None:
            self.dataset.set_peek(node.data)
        self.written = True

    def set_name(self, name: str) -> None:
        self.dataset.name = name

    def set_metadata(self, **kv: Any) -> None:
        self.dataset.metadata.update(kv)

    def set_info(self, info: str) -> None:
        self.dataset.info = info


class ToolRunContext:
    """Everything a tool's ``execute`` sees."""

    def __init__(
        self,
        ctx: SimContext,
        job: Job,
        fs: Filesystem,
        services: Optional[dict[str, Any]] = None,
    ) -> None:
        self.ctx = ctx
        self.job = job
        self.params = job.params
        self.user = job.user
        self.inputs = [InputHandle(d, fs) for d in job.inputs]
        self.outputs = {
            name: OutputHandle(d, fs, ctx.now) for name, d in job.outputs.items()
        }
        #: deployment services injected by the app (transfer client factory, ...)
        self.services = services or {}
        self._log_lines: list[str] = []

    def input(self, index: int = 0) -> InputHandle:
        return self.inputs[index]

    def output(self, name: str) -> OutputHandle:
        try:
            return self.outputs[name]
        except KeyError:
            raise ToolError(f"tool declares no output {name!r}") from None

    def log(self, line: str) -> None:
        self._log_lines.append(line)

    @property
    def stdout(self) -> str:
        return "\n".join(self._log_lines)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


class JobRunner:
    """Interface: time the compute phase of a job."""

    def dispatch(self, job: Job, cpu_work: float, io_work: float):
        """Simulation sub-process; returns the executing machine's name."""
        raise NotImplementedError  # pragma: no cover


class LocalJobRunner(JobRunner):
    """Runs jobs on the Galaxy server itself, ``cores`` at a time."""

    def __init__(
        self,
        ctx: SimContext,
        cpu_factor: float = 1.0,
        io_factor: float = 1.0,
        cores: int = 1,
        name: str = "galaxy-server",
    ) -> None:
        self.ctx = ctx
        self.cpu_factor = cpu_factor
        self.io_factor = io_factor
        self.name = name
        self._slots = Resource(ctx.sim, capacity=cores)

    def dispatch(self, job: Job, cpu_work: float, io_work: float):
        req = self._slots.request()
        yield req
        try:
            yield self.ctx.sim.timeout(
                cpu_work / self.cpu_factor + io_work / self.io_factor
            )
        finally:
            req.release()
        return self.name


class CondorJobRunner(JobRunner):
    """Submits compute to the deployment's Condor pool.

    Tool software requirements become Condor machine requirements: a job
    only matches machines whose Chef state has the packages converged.
    """

    def __init__(self, ctx: SimContext, pool: CondorPool) -> None:
        self.ctx = ctx
        self.pool = pool

    @staticmethod
    def _requirements_for(tool: Tool) -> Optional[Callable[[MachineAd], bool]]:
        needed = set(tool.requirements)
        if not needed:
            return None

        def req(machine: MachineAd) -> bool:
            if machine.node is None:
                return True
            return needed <= machine.node.chef.installed_software

        return req

    def dispatch(self, job: Job, cpu_work: float, io_work: float):
        cjob = self.pool.submit(
            cpu_work=cpu_work,
            io_work=io_work,
            owner=job.user,
            requirements=self._requirements_for(job.tool),
            cause=job.obs_span_id,
        )
        result = yield self.pool.when_done(cjob)
        return result.machine_name


# ---------------------------------------------------------------------------
# Manager
# ---------------------------------------------------------------------------


class JobManager:
    """Creates, schedules and finalises jobs."""

    def __init__(
        self,
        ctx: SimContext,
        fs: Filesystem,
        file_path: str = "/galaxy/database/files",
        runner: Optional[JobRunner] = None,
        prep_overhead_s: float = calibration.JOB_PREP_OVERHEAD_S,
        finalize_overhead_s: float = calibration.JOB_FINALIZE_OVERHEAD_S,
        services: Optional[dict[str, Any]] = None,
    ) -> None:
        self.ctx = ctx
        self.fs = fs
        self.file_path = file_path
        self.runner = runner if runner is not None else LocalJobRunner(ctx)
        self.prep_overhead_s = prep_overhead_s
        self.finalize_overhead_s = finalize_overhead_s
        #: shared-storage backend pricing per-job stage-in/out (None or an
        #: NFS backend charges nothing: job I/O lives in the work models)
        self.storage = None
        self.services = dict(services or {})
        self.jobs: dict[int, Job] = {}
        self._next_job_id = 1
        self._next_dataset_id = 1
        #: concurrent explicit stage-in/out operations (obs gauge series)
        self._staging_active = 0
        self.fs.mkdirs(file_path)
        #: observers called with each job reaching a terminal state
        self.listeners: list[Callable[[Job], None]] = []

    # -- dataset plumbing -----------------------------------------------------
    def new_dataset(self, history: History, name: str, ext: str) -> Dataset:
        ds = history.new_dataset(
            self._next_dataset_id, name, ext=ext, created_at=self.ctx.now
        )
        self._next_dataset_id += 1
        ds.file_path = posixpath.join(self.file_path, f"dataset_{ds.id}.dat")
        return ds

    def import_dataset(
        self,
        history: History,
        name: str,
        data: Optional[bytes] = None,
        size: Optional[int] = None,
        ext: str = "data",
    ) -> Dataset:
        """Directly materialise an OK dataset (admin/test convenience)."""
        ds = self.new_dataset(history, name, ext)
        node = self.fs.write(ds.file_path, data=data, size=size, mtime=self.ctx.now)
        ds.size = node.size
        if data is not None:
            ds.set_peek(data)
        ds.state = DatasetState.OK
        return ds

    # -- submission --------------------------------------------------------------
    def submit(
        self,
        tool: Tool,
        user: str,
        history: History,
        params: Optional[dict] = None,
        inputs: Optional[list[Dataset]] = None,
    ) -> Job:
        inputs = list(inputs or [])
        for ds in inputs:
            if not ds.usable:
                raise JobError(
                    f"input dataset {ds.display_name!r} is {ds.state.value}, not ok"
                )
        validated = tool.validate_params(params or {})
        outputs: dict[str, Dataset] = {}
        for out in tool.outputs:
            ds = self.new_dataset(
                history, out.label or f"{tool.name} on data", ext=out.ext
            )
            ds.state = DatasetState.QUEUED
            outputs[out.name] = ds
        job = Job(
            id=self._next_job_id,
            tool=tool,
            user=user,
            history=history,
            params=validated,
            inputs=inputs,
            outputs=outputs,
            create_time=self.ctx.now,
            done=self.ctx.sim.event(),
        )
        self._next_job_id += 1
        self.jobs[job.id] = job
        for ds in outputs.values():
            ds.creating_job_id = job.id
        job.state = JobState.QUEUED
        obs = self.ctx.obs
        if obs.enabled:
            job.obs_span_id = obs.start(
                "galaxy.job", track=f"galaxy/job-{job.id}", job=job.id, tool=tool.id
            ).id
        self.ctx.sim.process(self._run(job), name=f"job-{job.id}")
        return job

    def when_done(self, job: Job) -> SimEvent:
        assert job.done is not None
        return job.done

    # -- execution -------------------------------------------------------------------
    def _run(self, job: Job):
        tool = job.tool
        yield self.ctx.sim.timeout(self.prep_overhead_s)
        job.state = JobState.RUNNING
        job.start_time = self.ctx.now
        obs = self.ctx.obs
        if obs.enabled:
            # nested under galaxy.job: the compute phase after prep
            obs.start(
                "galaxy.job.run",
                track=f"galaxy/job-{job.id}",
                cause=job.obs_span_id,
                job=job.id,
            )
        for ds in job.outputs.values():
            ds.state = DatasetState.RUNNING
        services = dict(self.services)
        services["runner"] = self.runner
        run = ToolRunContext(self.ctx, job, self.fs, services=services)
        try:
            if tool.execute is None:
                raise ToolError(f"tool {tool.id} has no execute implementation")
            if inspect.isgeneratorfunction(tool.execute):
                # A process-style tool (e.g. the Globus Transfer tools): the
                # tool's own simulation process defines its duration.  It
                # runs on the Galaxy server, not the Condor pool.
                yield from tool.execute(run)
                if not job.machine:
                    job.machine = "galaxy-server"
            else:
                # A work-model tool: the runner times the compute (locally
                # or on Condor), then the real tool body produces outputs.
                cpu, io = tool.work(job.params, [d.size for d in job.inputs])
                # Explicit stage-in for backends without a worker-side
                # namespace.  Zero-cost backends (NFS) schedule no event
                # at all, keeping the default sim JSON byte-identical.
                if self.storage is not None:
                    stage_in = self.storage.stage_in_seconds(
                        [(d.file_path, d.size) for d in job.inputs]
                    )
                    if stage_in > 0.0:
                        span = None
                        if obs.enabled:
                            span = obs.start(
                                "galaxy.stage_in",
                                track=f"galaxy/job-{job.id}",
                                cause=job.obs_span_id,
                                job=job.id,
                                files=len(job.inputs),
                            )
                            self._staging_active += 1
                            obs.series("galaxy.staging_active").record(
                                self._staging_active
                            )
                        yield self.ctx.sim.timeout(stage_in)
                        if span is not None:
                            obs.finish(span)
                            self._staging_active -= 1
                            obs.series("galaxy.staging_active").record(
                                self._staging_active
                            )
                machine = yield from self.runner.dispatch(job, cpu, io)
                job.machine = machine or "unknown"
                tool.execute(run)
                if self.storage is not None:
                    stage_out = self.storage.stage_out_seconds(
                        [(d.file_path, d.size) for d in job.outputs.values()]
                    )
                    if stage_out > 0.0:
                        span = None
                        if obs.enabled:
                            span = obs.start(
                                "galaxy.stage_out",
                                track=f"galaxy/job-{job.id}",
                                cause=job.obs_span_id,
                                job=job.id,
                                files=len(job.outputs),
                            )
                            self._staging_active += 1
                            obs.series("galaxy.staging_active").record(
                                self._staging_active
                            )
                        yield self.ctx.sim.timeout(stage_out)
                        if span is not None:
                            obs.finish(span)
                            self._staging_active -= 1
                            obs.series("galaxy.staging_active").record(
                                self._staging_active
                            )
        except Exception as exc:  # noqa: BLE001 - job errors surface in the UI
            self._finish_error(job, str(exc), run)
            return
        yield self.ctx.sim.timeout(self.finalize_overhead_s)
        self._finish_ok(job, run)

    def _finish_ok(self, job: Job, run: ToolRunContext) -> None:
        job.stdout = run.stdout
        for name, handle in run.outputs.items():
            ds = job.outputs[name]
            if not handle.written:
                self._finish_error(
                    job, f"tool produced no data for output {name!r}", run
                )
                return
            ds.state = DatasetState.OK
        job.state = JobState.OK
        job.end_time = self.ctx.now
        obs = self.ctx.obs
        if obs.enabled:
            obs.finish_open(f"galaxy/job-{job.id}")
        self._notify(job)

    def _finish_error(self, job: Job, message: str, run: ToolRunContext) -> None:
        job.state = JobState.ERROR
        job.stderr = message
        job.stdout = run.stdout
        job.end_time = self.ctx.now
        for ds in job.outputs.values():
            ds.state = DatasetState.ERROR
            ds.info = message
        obs = self.ctx.obs
        if obs.enabled:
            obs.finish_open(f"galaxy/job-{job.id}", status="error", error=message)
        self._notify(job)

    def _notify(self, job: Job) -> None:
        for listener in self.listeners:
            listener(job)
        if job.done is not None and not job.done.triggered:
            job.done.succeed(job)



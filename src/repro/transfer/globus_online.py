"""Globus Online / Globus Transfer: the hosted transfer service.

Reproduces the service behaviour the paper depends on (Sec. IV-A):

* users register accounts and attach X.509 credentials to their profile;
* endpoints front GridFTP servers and must be *activated* with a valid
  user credential before use — Globus Online "manages, on behalf of
  users, the security credentials required ... [and] will utilize the
  appropriate credential to activate the selected endpoint";
* transfers are fire-and-forget *tasks*: the service monitors progress,
  retries faults automatically with backoff, auto-tunes parallel streams,
  enforces optional deadlines (Galaxy shows an error if exceeded), and
  e-mails the user on completion;
* third-party transfers (neither endpoint local to the requester) work.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

from .. import calibration
from ..security.x509 import Certificate, CertificateAuthority, CertificateError
from ..simcore import SimContext, SimEvent
from .gridftp import (
    GridFTPError,
    GridFTPServer,
    checksum_seconds,
    coalesced_chunk_plan,
    mlsd_seconds,
    per_file_request_cost,
)
from .sites import SiteGraph

#: Control-plane latency of one REST call to the hosted service.
API_LATENCY_S = 0.5
#: Base retry backoff; attempt ``k`` waits ``k * RETRY_BACKOFF_S``.
RETRY_BACKOFF_S = 5.0
#: Default endpoint activation lifetime.
ACTIVATION_LIFETIME_S = 12 * 3600.0


class GlobusError(Exception):
    pass


class TaskStatus(str, enum.Enum):
    ACTIVE = "ACTIVE"
    SUCCEEDED = "SUCCEEDED"
    FAILED = "FAILED"


@dataclass(frozen=True)
class TransferItem:
    """One source->destination pairing inside a task."""

    source_path: str
    dest_path: str
    recursive: bool = False


@dataclass
class TransferSpec:
    """What the user asks the service to do."""

    source_endpoint: str
    dest_endpoint: str
    items: list[TransferItem]
    label: str = ""
    deadline_s: Optional[float] = None   # relative to submission
    verify_checksum: bool = True
    parallel: Optional[int] = None       # force stream count (None = auto)
    notify: bool = True
    #: mirror/synchronize mode: None (always copy), "exists" (skip files
    #: already present at the destination), or "checksum" (skip only when
    #: the destination content matches)
    sync_level: Optional[str] = None

    def __post_init__(self) -> None:
        if self.sync_level not in (None, "exists", "checksum"):
            raise ValueError(f"unknown sync_level {self.sync_level!r}")


@dataclass
class TaskEvent:
    time: float
    code: str
    description: str


@dataclass
class EmailNotification:
    time: float
    to: str
    subject: str
    body: str


@dataclass
class TransferTask:
    """Service-side record of one transfer."""

    task_id: str
    owner: str
    spec: TransferSpec
    status: TaskStatus = TaskStatus.ACTIVE
    submit_time: float = 0.0
    completion_time: Optional[float] = None
    bytes_transferred: int = 0
    files_transferred: int = 0
    files_skipped: int = 0
    files_total: int = 0
    faults: int = 0
    fatal_error: str = ""
    events: list[TaskEvent] = field(default_factory=list)
    done: Optional[SimEvent] = None

    @property
    def is_terminal(self) -> bool:
        return self.status in (TaskStatus.SUCCEEDED, TaskStatus.FAILED)

    @property
    def duration_s(self) -> Optional[float]:
        if self.completion_time is None:
            return None
        return self.completion_time - self.submit_time

    def effective_rate_mbps(self) -> Optional[float]:
        dur = self.duration_s
        if not dur:
            return None
        return self.bytes_transferred * 8.0 / dur / 1e6


@dataclass
class GOUser:
    username: str
    email: str
    credentials: list[Certificate] = field(default_factory=list)


@dataclass
class Endpoint:
    """A named Globus endpoint fronting one or more GridFTP servers."""

    name: str                      # canonical "owner#display" form
    owner: str
    servers: list[GridFTPServer]
    public: bool = False
    #: username -> activation expiry (absolute sim time)
    activations: dict[str, float] = field(default_factory=dict)

    @property
    def site(self) -> str:
        return self.servers[0].site

    def pick_server(self) -> GridFTPServer:
        """Least-loaded GridFTP server (endpoints can front several)."""
        return min(
            self.servers, key=lambda s: (s.active_tasks, s._conn_pool.count)
        )

    def is_activated(self, username: str, now: float) -> bool:
        return self.activations.get(username, -1.0) > now


class GlobusOnline:
    """The hosted service: accounts, endpoints, and the transfer engine."""

    def __init__(
        self,
        ctx: SimContext,
        sites: Optional[SiteGraph] = None,
        ca: Optional[CertificateAuthority] = None,
        fault_rate: float = 0.0,
        max_retries: int = 3,
    ) -> None:
        if not (0.0 <= fault_rate < 1.0):
            raise ValueError("fault_rate must be in [0, 1)")
        self.ctx = ctx
        self.sites = sites if sites is not None else SiteGraph.paper_testbed()
        self.ca = ca if ca is not None else CertificateAuthority("GlobusOnline-CA")
        self.fault_rate = fault_rate
        self.max_retries = max_retries
        self.users: dict[str, GOUser] = {}
        self.endpoints: dict[str, Endpoint] = {}
        self.tasks: dict[str, TransferTask] = {}
        self.emails: list[EmailNotification] = []
        self._task_ids = itertools.count(1)
        # obs causal carriers: task id -> go.task span id, cited by the
        # per-file spans (and by downstream stage-in consumers).  Stays
        # empty when obs is disabled; consumers gate on truthiness.
        self._task_span_ids: dict[str, int] = {}
        #: tasks submitted but not yet terminal (obs gauge series)
        self._active_count = 0

    # -- accounts ---------------------------------------------------------------
    def register_user(self, username: str, email: str = "") -> GOUser:
        if username in self.users:
            raise GlobusError(f"username {username!r} taken")
        user = GOUser(username=username, email=email or f"{username}@example.org")
        self.users[username] = user
        return user

    def _user(self, username: str) -> GOUser:
        try:
            return self.users[username]
        except KeyError:
            raise GlobusError(f"no Globus Online account {username!r}") from None

    def add_user_credential(self, username: str, cert: Certificate) -> None:
        """Attach an X.509 certificate to the user's profile (Sec. IV-A)."""
        self._user(username).credentials.append(cert)

    # -- endpoints ----------------------------------------------------------------
    def create_endpoint(
        self,
        name: str,
        servers: list[GridFTPServer],
        public: bool = False,
    ) -> Endpoint:
        """Register ``owner#display`` fronting the given servers."""
        if "#" not in name:
            raise GlobusError(f"endpoint name {name!r} must be 'owner#display'")
        owner = name.split("#", 1)[0]
        self._user(owner)
        if name in self.endpoints:
            raise GlobusError(f"endpoint {name!r} exists")
        if not servers:
            raise GlobusError("an endpoint needs at least one GridFTP server")
        ep = Endpoint(name=name, owner=owner, servers=list(servers), public=public)
        self.endpoints[name] = ep
        return ep

    def endpoint(self, name: str) -> Endpoint:
        try:
            return self.endpoints[name]
        except KeyError:
            raise GlobusError(f"no such endpoint {name!r}") from None

    def list_endpoints(self, username: str) -> list[Endpoint]:
        """Endpoints visible to a user: public ones plus their own."""
        self._user(username)
        return sorted(
            (e for e in self.endpoints.values() if e.public or e.owner == username),
            key=lambda e: e.name,
        )

    def activate_endpoint(
        self,
        name: str,
        username: str,
        credential: Optional[Certificate] = None,
        lifetime_s: float = ACTIVATION_LIFETIME_S,
    ) -> float:
        """Activate an endpoint for a user; returns the expiry time.

        With no explicit credential the service tries each certificate on
        the user's profile (auto-activation).
        """
        ep = self.endpoint(name)
        user = self._user(username)
        candidates = [credential] if credential is not None else list(user.credentials)
        last_error: Optional[Exception] = None
        for cred in candidates:
            try:
                self.ca.verify(cred, self.ctx.now)
            except CertificateError as exc:
                last_error = exc
                continue
            expiry = min(self.ctx.now + lifetime_s, cred.not_after)
            ep.activations[username] = expiry
            self.ctx.obs.instant(
                "globus.activate", track="globus",
                endpoint=name, user=username, expiry=expiry,
            )
            return expiry
        if last_error is not None:
            raise GlobusError(f"activation of {name} failed: {last_error}")
        raise GlobusError(
            f"activation of {name} failed: no credential on {username}'s profile"
        )

    def activate_endpoint_myproxy(
        self,
        name: str,
        username: str,
        myproxy_server,
        myproxy_username: str,
        passphrase: str,
        lifetime_s: float = ACTIVATION_LIFETIME_S,
    ) -> float:
        """Activate using a delegated MyProxy credential (the 2012 flow).

        Globus Online contacts the MyProxy server GP deployed, retrieves a
        short-lived proxy with the user's passphrase, and activates the
        endpoint with it.
        """
        from ..security.myproxy import MyProxyError

        try:
            proxy = myproxy_server.retrieve(
                myproxy_username, passphrase, now=self.ctx.now, lifetime_s=lifetime_s
            )
        except MyProxyError as exc:
            raise GlobusError(f"MyProxy activation of {name} failed: {exc}") from exc
        return self.activate_endpoint(
            name, username, credential=proxy, lifetime_s=lifetime_s
        )

    # -- transfers -----------------------------------------------------------------
    def submit(self, username: str, spec: TransferSpec) -> TransferTask:
        """Submit a transfer; returns immediately with an ACTIVE task."""
        self._user(username)
        if not spec.items:
            raise GlobusError("a transfer needs at least one item")
        # endpoints must resolve at submit time (API behaviour)
        self.endpoint(spec.source_endpoint)
        self.endpoint(spec.dest_endpoint)
        task = TransferTask(
            task_id=f"go-task-{next(self._task_ids):06d}",
            owner=username,
            spec=spec,
            submit_time=self.ctx.now,
            done=self.ctx.sim.event(),
        )
        self.tasks[task.task_id] = task
        self._event(task, "SUBMITTED", f"{len(spec.items)} item(s)")
        obs = self.ctx.obs
        if obs.enabled:
            self._task_span_ids[task.task_id] = obs.start(
                "go.task",
                track=f"go/{task.task_id}",
                task=task.task_id,
                src=spec.source_endpoint,
                dst=spec.dest_endpoint,
                label=spec.label,
            ).id
            self._active_count += 1
            obs.series("go.active_tasks").record(self._active_count)
        self.ctx.sim.process(self._run_task(task), name=task.task_id)
        return task

    def task(self, task_id: str) -> TransferTask:
        try:
            return self.tasks[task_id]
        except KeyError:
            raise GlobusError(f"no such task {task_id!r}") from None

    def task_span_id(self, task_id: str):
        """Obs span id of a task's go.task span (None when obs is off).

        Lets consumers (Galaxy staging tools) cite the transfer that fed
        them as the cause of their own spans — ids stay resolvable after
        the task completes, like the tasks themselves.
        """
        return self._task_span_ids.get(task_id) if self._task_span_ids else None

    def when_done(self, task: TransferTask) -> SimEvent:
        assert task.done is not None
        return task.done

    # -- internals --------------------------------------------------------------------
    def _event(self, task: TransferTask, code: str, description: str) -> None:
        task.events.append(TaskEvent(self.ctx.now, code, description))

    def _fail(self, task: TransferTask, reason: str) -> None:
        task.status = TaskStatus.FAILED
        task.fatal_error = reason
        task.completion_time = self.ctx.now
        self._event(task, "FAILED", reason)
        self._finish(task)

    def _succeed(self, task: TransferTask) -> None:
        task.status = TaskStatus.SUCCEEDED
        task.completion_time = self.ctx.now
        self._event(task, "SUCCEEDED", f"{task.bytes_transferred} bytes")
        self._finish(task)

    def _finish(self, task: TransferTask) -> None:
        """Common terminal bookkeeping: spans, notification."""
        obs = self.ctx.obs
        if obs.enabled:
            # closes the task span and any file span still open on a
            # mid-transfer failure, innermost first
            if task.status is TaskStatus.FAILED:
                obs.finish_open(
                    f"go/{task.task_id}", status="error", error=task.fatal_error
                )
            else:
                obs.finish_open(f"go/{task.task_id}")
            self._active_count -= 1
            obs.series("go.active_tasks").record(self._active_count)
        self._notify(task)
        if task.done is not None and not task.done.triggered:
            task.done.succeed(task)

    def _notify(self, task: TransferTask) -> None:
        if not task.spec.notify:
            return
        user = self._user(task.owner)
        self.emails.append(
            EmailNotification(
                time=self.ctx.now,
                to=user.email,
                subject=f"Globus Transfer {task.task_id} {task.status.value}",
                body=(
                    f"label={task.spec.label!r} files={task.files_transferred}"
                    f"/{task.files_total} bytes={task.bytes_transferred}"
                    + (f" error={task.fatal_error}" if task.fatal_error else "")
                ),
            )
        )

    def _ensure_active(self, task: TransferTask, ep: Endpoint) -> bool:
        if ep.is_activated(task.owner, self.ctx.now):
            return True
        try:
            self.activate_endpoint(ep.name, task.owner)
            self._event(task, "ACTIVATED", ep.name)
            return True
        except GlobusError as exc:
            self._fail(task, str(exc))
            return False

    def _run_task(self, task: TransferTask):
        spec = task.spec
        deadline = (
            task.submit_time + spec.deadline_s if spec.deadline_s is not None else None
        )
        yield self.ctx.sim.timeout(API_LATENCY_S)
        src_ep = self.endpoint(spec.source_endpoint)
        dst_ep = self.endpoint(spec.dest_endpoint)
        if not self._ensure_active(task, src_ep):
            return
        if not self._ensure_active(task, dst_ep):
            return
        src = src_ep.pick_server()
        dst = dst_ep.pick_server()
        src.active_tasks += 1
        dst.active_tasks += 1
        task_servers = (src, dst)
        if task.done is not None:
            task.done.callbacks.append(
                lambda _ev: [
                    setattr(s, "active_tasks", s.active_tasks - 1)
                    for s in task_servers
                ]
            )
        network = self.sites.path(src.site, dst.site)

        # Expand items into a concrete file list.
        files: list[tuple[str, str, int]] = []  # (src_path, dst_path, size)
        try:
            for item in spec.items:
                if item.recursive:
                    children = src.list_files(item.source_path)
                    yield self.ctx.sim.timeout(mlsd_seconds(len(children), network.rtt_s))
                    root = item.source_path.rstrip("/")
                    for child in children:
                        rel = child[len(root):].lstrip("/")
                        dst_path = item.dest_path.rstrip("/") + "/" + rel
                        files.append((child, dst_path, src.stat(child).size))
                else:
                    files.append(
                        (item.source_path, item.dest_path, src.stat(item.source_path).size)
                    )
        except GridFTPError as exc:
            self._fail(task, str(exc))
            return
        task.files_total = len(files)

        # One-time task overhead plus per-file control chatter.
        yield self.ctx.sim.timeout(
            calibration.GO_OVERHEAD_S + per_file_request_cost(len(files), network.rtt_s)
        )

        faults_stream = self.ctx.stream("globus.faults")
        obs = self.ctx.obs
        track = f"go/{task.task_id}"
        src_conn = src._conn_pool.request()
        dst_conn = dst._conn_pool.request()
        yield src_conn
        yield dst_conn
        try:
            for src_path, dst_path, size in files:
                if spec.sync_level is not None and dst.exists(dst_path):
                    try:
                        # either side may vanish between expansion and this
                        # compare; that is a FAILED task, not a sim crash
                        matches = spec.sync_level == "exists" or (
                            spec.sync_level == "checksum"
                            and dst.stat(dst_path).checksum == src.stat(src_path).checksum
                        )
                    except GridFTPError as exc:
                        self._fail(task, str(exc))
                        return
                    if matches:
                        # one control round trip to compare, then move on
                        yield self.ctx.sim.timeout(2.0 * network.rtt_s)
                        task.files_skipped += 1
                        self._event(task, "SKIPPED", f"{dst_path} up to date")
                        continue
                streams = src.stream_plan(size, spec.parallel)
                wire = src.wire_seconds(network, size, streams)
                file_span = obs.start(
                    "go.file",
                    track=track,
                    cause=self._task_span_ids.get(task.task_id)
                    if self._task_span_ids
                    else None,
                    path=dst_path,
                    bytes=size,
                    streams=streams,
                )
                chunk_moved = False
                checksummed = False
                if deadline is None and self.fault_rate == 0.0 and wire > 0.0:
                    # Fault-free, deadline-free transfers (the paper's
                    # headline sweeps) skip the retry loop: the file's
                    # wire time becomes one chunk cohort whose members
                    # expose in-flight progress on the source server and
                    # whose last member is pinned to exactly ``wire``
                    # seconds out, so completion timing is bit-identical
                    # to the single timeout it replaces.  The checksum
                    # pass rides along as the cohort's tail member.
                    attempt = 1
                    plan = coalesced_chunk_plan(size)
                    if plan:
                        tail = (
                            checksum_seconds(size) if spec.verify_checksum else 0.0
                        )
                        yield src.chunk_cohort(
                            plan,
                            size * 8.0 / wire,
                            last_at=self.ctx.now + wire,
                            tail=tail,
                        ).done
                        chunk_moved = True
                        checksummed = tail > 0.0
                    else:
                        yield self.ctx.sim.timeout(wire)
                else:
                    attempt = 0
                    while True:
                        attempt += 1
                        if deadline is not None and self.ctx.now >= deadline:
                            self._fail(task, "deadline exceeded")
                            return
                        faulted = (
                            self.fault_rate > 0.0
                            and float(faults_stream.random()) < self.fault_rate
                        )
                        duration = wire
                        if faulted:
                            duration = wire * float(faults_stream.uniform(0.05, 0.8))
                        if deadline is not None and self.ctx.now + duration > deadline:
                            yield self.ctx.sim.timeout(deadline - self.ctx.now)
                            self._fail(task, "deadline exceeded")
                            return
                        yield self.ctx.sim.timeout(duration)
                        if not faulted:
                            break
                        task.faults += 1
                        self._event(
                            task,
                            "FAULT",
                            f"{src_path}: connection reset (attempt {attempt})",
                        )
                        if obs.enabled:
                            obs.instant(
                                "go.fault", track=track, path=src_path, attempt=attempt
                            )
                        if attempt > self.max_retries:  # max_retries + 1 attempts
                            self._fail(task, f"{src_path}: retries exhausted")
                            return
                        backoff = RETRY_BACKOFF_S * attempt
                        if deadline is not None and self.ctx.now + backoff > deadline:
                            yield self.ctx.sim.timeout(max(0.0, deadline - self.ctx.now))
                            self._fail(task, "deadline exceeded")
                            return
                        yield self.ctx.sim.timeout(backoff)
                if spec.verify_checksum and not checksummed:
                    yield self.ctx.sim.timeout(checksum_seconds(size))
                try:
                    node = src.stat(src_path)
                except GridFTPError as exc:
                    self._fail(task, str(exc))
                    return
                dst.store(dst_path, node, now=self.ctx.now)
                if not chunk_moved:  # the chunk cohort already counted it
                    src.bytes_moved += size
                task.files_transferred += 1
                task.bytes_transferred += size
                self._event(task, "PROGRESS", f"{dst_path} ({size} bytes)")
                obs.finish(file_span.set(attempts=attempt))
        finally:
            src_conn.release()
            dst_conn.release()
        self._succeed(task)

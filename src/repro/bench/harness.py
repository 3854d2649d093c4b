"""Parallel fan-out orchestrator for the benchmark suites.

The paper's evaluation is a matrix of *independent* runs — one per EC2
instance type and workload — and every driver in this package builds a
fresh, seed-deterministic world per run.  That independence is what this
module industrializes: a suite of :class:`BenchSpec` columns is executed
across a pool of persistent worker processes and merged back into one
:class:`SuiteResult` in **spec order**, so the merged document is
byte-identical no matter how many workers ran it or in which order tasks
finished.  Payloads carry simulated results only; the one
host-dependent field is each task's ``wall_seconds``, which
:meth:`SuiteResult.sim_json` leaves out for the determinism pins.

Robustness contract:

* a task that raises becomes a ``failed`` record carrying the traceback;
* a worker process that *dies* (``os._exit``, segfault, OOM-kill) marks
  its in-flight task ``failed`` with the exit code and is respawned —
  the rest of the suite still runs;
* a task that exceeds its timeout is terminated and recorded as
  ``timeout``.

``workers=1`` runs every spec in-process (the sequential driver path);
``workers>1`` forks the pool once and streams specs over pipes, so the
per-task overhead is one pickled dict each way rather than a process
spawn.  Payloads are canonicalized through a JSON round-trip before they
leave the worker, which makes the merged result transport-independent
(tuples become lists either way).
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import time
import traceback
from collections import deque
from dataclasses import dataclass, field

from ..obs.recorder import capture
from ..reporting import render_table

#: registry of task callables the specs reference by name (see
#: :func:`task`); populated by ``repro.bench.suites`` on import.
TASKS: dict[str, object] = {}


def task(name: str):
    """Register a callable as a named benchmark task.

    Specs reference tasks by this name so they stay picklable and
    JSON-serializable; workers re-import ``repro.bench.suites`` to
    repopulate the registry under any multiprocessing start method.
    """

    def deco(fn):
        if name in TASKS:
            raise ValueError(f"duplicate task name {name!r}")
        TASKS[name] = fn
        return fn

    return deco


def resolve_task(name: str):
    if name not in TASKS:
        # the standard tasks live in the suite registry; importing it is
        # what populates TASKS in a freshly-spawned worker
        from . import suites  # noqa: F401
    try:
        return TASKS[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark task {name!r}; known: {sorted(TASKS)}"
        ) from None


@dataclass(frozen=True)
class BenchSpec:
    """One independent column of a suite: a task name plus parameters."""

    name: str
    task: str
    params: dict = field(default_factory=dict)
    timeout_s: float | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "task": self.task,
            "params": dict(self.params),
            "timeout_s": self.timeout_s,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "BenchSpec":
        return cls(
            name=doc["name"],
            task=doc["task"],
            params=dict(doc.get("params") or {}),
            timeout_s=doc.get("timeout_s"),
        )


@dataclass(frozen=True)
class BenchSuite:
    """An ordered collection of specs; the merge preserves this order."""

    name: str
    description: str
    specs: tuple[BenchSpec, ...]

    def config_digest(self) -> str:
        return config_digest(self.specs)


def config_digest(specs) -> str:
    """Stable identity of *what* was run (not how fast it ran)."""
    doc = json.dumps([s.to_dict() for s in specs], sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


@dataclass
class TaskResult:
    """Outcome of one spec: ``ok``, ``failed``, or ``timeout``.

    ``obs`` carries the observability docs recorded while the task ran
    (one per simulation context; see :mod:`repro.obs`): a provenance
    bundle's ``spans`` section.  They are deliberately absent from
    :meth:`to_dict`/``sim_dict`` so result JSON — including the committed
    determinism baselines — is identical with or without ``--run-out``.
    """

    spec: BenchSpec
    status: str
    payload: dict | None
    wall_seconds: float
    error: str | None = None
    obs: list[dict] | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        return {
            "name": self.spec.name,
            "task": self.spec.task,
            "params": dict(self.spec.params),
            "status": self.status,
            "wall_seconds": self.wall_seconds,
            "payload": self.payload,
            "error": self.error,
        }


@dataclass
class SuiteResult:
    """Deterministic merge of a suite's task results (spec order)."""

    suite: str
    workers: int
    wall_seconds: float
    tasks: list[TaskResult]

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.tasks)

    def counts(self) -> dict[str, int]:
        out = {"ok": 0, "failed": 0, "timeout": 0}
        for t in self.tasks:
            out[t.status] = out.get(t.status, 0) + 1
        return out

    def payload_failures(self) -> int:
        """Work failures hiding inside otherwise-``ok`` tasks.

        ``ok`` means the task callable returned — but a driver can
        return cleanly while its payload records failed work units
        (e.g. a WaaS run whose Condor jobs never completed reports
        ``tasks_failed > 0``).  This sums the top-level
        ``tasks_failed`` keys across ok-task payloads so the CLI can
        refuse to exit 0 on a suite that quietly lost work.
        """
        total = 0
        for t in self.tasks:
            if t.ok and isinstance(t.payload, dict):
                n = t.payload.get("tasks_failed")
                if isinstance(n, (int, float)) and not isinstance(n, bool):
                    total += int(n)
        return total

    def config_digest(self) -> str:
        return config_digest([t.spec for t in self.tasks])

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "workers": self.workers,
            "config_digest": self.config_digest(),
            "wall_seconds": self.wall_seconds,
            "counts": self.counts(),
            "tasks": [t.to_dict() for t in self.tasks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def sim_dict(self) -> dict:
        """The host-independent view: byte-identical across worker counts.

        Payloads go in as the tasks returned them; dropped are each
        task's ``wall_seconds``, its error text (tracebacks carry
        PIDs/paths), and the suite-level timing/worker fields.
        """
        return {
            "suite": self.suite,
            "config_digest": self.config_digest(),
            "tasks": [
                {
                    "name": t.spec.name,
                    "task": t.spec.task,
                    "params": dict(t.spec.params),
                    "status": t.status,
                    "payload": t.payload,
                }
                for t in self.tasks
            ],
        }

    def sim_json(self) -> str:
        return json.dumps(self.sim_dict(), indent=2, sort_keys=True)

    def scenario_dict(self) -> dict:
        """What ran — the reconstruction recipe a provenance bundle
        stores (see :mod:`repro.provenance`): rerunning these specs
        reproduces :meth:`sim_dict` byte-identically."""
        return {
            "suite": self.suite,
            "specs": [t.spec.to_dict() for t in self.tasks],
        }

    def obs_docs(self) -> list[dict]:
        """All observability docs recorded by the tasks, in spec order."""
        docs: list[dict] = []
        for t in self.tasks:
            docs.extend(t.obs or ())
        return docs

    def render(self) -> str:
        rows = [
            (
                t.spec.name,
                t.status,
                f"{t.wall_seconds:.3f}",
                (t.error or "").strip().splitlines()[-1][:60] if t.error else "",
            )
            for t in self.tasks
        ]
        counts = self.counts()
        title = (
            f"suite {self.suite}: {counts['ok']}/{len(self.tasks)} ok, "
            f"workers={self.workers}, wall {self.wall_seconds:.2f}s"
        )
        return render_table(["spec", "status", "wall (s)", "error"], rows, title=title)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _execute(
    spec: BenchSpec, obs: bool = False
) -> tuple[str, dict | None, float, str | None, list[dict] | None]:
    """Run one spec in the current process; exceptions become records.

    ``obs=True`` wraps the task in an ``obs.capture()`` block, so every
    simulation the task builds — tasks construct their own
    ``SimContext`` — records spans/metrics; the exported docs ride back
    as the fifth tuple element, relabelled ``<spec name>:<label>`` so
    merged suite traces stay unambiguous.
    """
    # Settle deferred garbage from the previous task, then keep the
    # cyclic collector paused for this one (the kernel already pauses it
    # per drain): each task's wall clock measures its own work, not a
    # predecessor's cleanup or mid-run gen-0 sweeps.  Generations 0-1
    # suffice — with the collector paused during tasks, a task's garbage
    # is never promoted past gen 1 — and cost microseconds where a full
    # collect scans the whole heap (~tens of ms under these imports).
    gc.collect(1)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    try:
        fn = resolve_task(spec.task)
        cap = None
        if obs:
            with capture() as cap:
                payload = fn(**spec.params)
        else:
            payload = fn(**spec.params)
        # canonicalize so in-process and piped results merge identically
        payload = json.loads(json.dumps(payload))
        docs = None
        if cap is not None:
            docs = [dict(d, label=f"{spec.name}:{d['label']}") for d in cap.to_docs()]
            docs = json.loads(json.dumps(docs))
        return "ok", payload, time.perf_counter() - t0, None, docs
    except Exception:
        return "failed", None, time.perf_counter() - t0, traceback.format_exc(), None
    finally:
        if gc_was_enabled:
            gc.enable()


def run_spec(spec: BenchSpec, obs: bool = False) -> TaskResult:
    """In-process execution of a single spec (the drivers' entry point)."""
    return TaskResult(spec, *_execute(spec, obs))


def _worker_main(conn) -> None:
    """Persistent worker loop: recv a spec dict, send a result tuple.

    The spec dict may carry an ``obs`` key alongside the spec fields, so
    the pipe protocol stays one flat dict each way.
    """
    from . import suites  # noqa: F401  (registers tasks under spawn)

    while True:
        try:
            doc = conn.recv()
        except (EOFError, OSError):
            break
        if doc is None:
            break
        obs = doc.pop("obs", False)
        spec = BenchSpec.from_dict(doc)
        try:
            conn.send(_execute(spec, obs))
        except Exception:
            try:
                conn.send(("failed", None, 0.0, traceback.format_exc(), None))
            except Exception:
                break
    conn.close()


class _Worker:
    """One pool slot: a process plus the duplex pipe feeding it."""

    def __init__(self, ctx):
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_main, args=(child_conn,), daemon=True)
        self.proc.start()
        child_conn.close()
        #: (spec index, spec, perf_counter at assignment) while busy
        self.current: tuple[int, BenchSpec, float] | None = None

    @property
    def busy(self) -> bool:
        return self.current is not None

    def assign(self, idx: int, spec: BenchSpec, obs: bool = False) -> None:
        doc = spec.to_dict()
        if obs:
            doc["obs"] = True
        self.conn.send(doc)
        self.current = (idx, spec, time.perf_counter())

    def stop(self) -> None:
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.conn.close()
        self.proc.join(timeout=1.0)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=1.0)

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        self.proc.terminate()
        self.proc.join(timeout=1.0)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=1.0)


def _run_pool(specs, workers, default_timeout_s, progress, obs):
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # no fork on this platform
        ctx = multiprocessing.get_context("spawn")
    n_workers = max(1, min(workers, len(specs)))
    pool: list[_Worker | None] = [_Worker(ctx) for _ in range(n_workers)]
    pending = deque(enumerate(specs))
    out: list[TaskResult | None] = [None] * len(specs)
    done = 0

    def finish(idx, result):
        nonlocal done
        out[idx] = result
        done += 1
        if progress is not None:
            progress(result)

    def replacement():
        # only burn a fork if there is still work for the slot to do
        return _Worker(ctx) if pending else None

    try:
        while done < len(specs):
            progressed = False
            for i, w in enumerate(pool):
                if w is None or w.busy:
                    continue
                if not pending:
                    continue
                idx, spec = pending.popleft()
                try:
                    w.assign(idx, spec, obs)
                except (BrokenPipeError, OSError):
                    # died idle; put the spec back and respawn the slot
                    pending.appendleft((idx, spec))
                    w.kill()
                    pool[i] = replacement()
                progressed = True
            for i, w in enumerate(pool):
                if w is None or not w.busy:
                    continue
                idx, spec, started = w.current
                timeout = (
                    spec.timeout_s if spec.timeout_s is not None else default_timeout_s
                )
                elapsed = time.perf_counter() - started
                if w.conn.poll(0):
                    try:
                        status, payload, wall, error, obs_docs = w.conn.recv()
                    except (EOFError, OSError):
                        w.kill()
                        finish(idx, TaskResult(
                            spec, "failed", None, elapsed,
                            f"worker process died (exit code {w.proc.exitcode})",
                        ))
                        pool[i] = replacement()
                    else:
                        w.current = None
                        finish(
                            idx,
                            TaskResult(spec, status, payload, wall, error, obs_docs),
                        )
                    progressed = True
                elif not w.proc.is_alive():
                    exitcode = w.proc.exitcode
                    w.kill()
                    finish(idx, TaskResult(
                        spec, "failed", None, elapsed,
                        f"worker process died (exit code {exitcode})",
                    ))
                    pool[i] = replacement()
                    progressed = True
                elif timeout is not None and elapsed > timeout:
                    w.kill()
                    finish(idx, TaskResult(
                        spec, "timeout", None, elapsed,
                        f"timed out after {timeout:.1f}s",
                    ))
                    pool[i] = replacement()
                    progressed = True
            if not progressed:
                time.sleep(0.005)
    finally:
        for w in pool:
            if w is not None:
                w.stop()
    return out


def run_suite(
    suite: BenchSuite,
    workers: int = 1,
    default_timeout_s: float | None = 600.0,
    progress=None,
    obs: bool = False,
) -> SuiteResult:
    """Execute every spec and merge the results deterministically.

    ``workers=1`` runs in-process (no timeouts are enforced — there is
    no process to terminate); ``workers>1`` fans out across a persistent
    process pool with crash isolation and per-task timeouts.

    ``obs=True`` records spans/metrics inside every task (see
    :mod:`repro.obs`); the docs land on each :class:`TaskResult`'s
    ``obs`` field and leave payloads and ``sim_json()`` untouched.
    """
    t0 = time.perf_counter()
    if workers <= 1:
        results = []
        for spec in suite.specs:
            result = run_spec(spec, obs)
            results.append(result)
            if progress is not None:
                progress(result)
    else:
        results = _run_pool(
            list(suite.specs), workers, default_timeout_s, progress, obs
        )
    wall = time.perf_counter() - t0
    return SuiteResult(suite.name, workers, wall, list(results))

"""Span recording: hierarchical, sim-time-keyed, zero-overhead when off.

The observability model has three moving parts:

* :class:`Span` — one named interval of simulated time on a *track*
  (a Chrome-trace thread: one per node, transfer task, job, ...).  Spans
  on the same track nest; a span opened while another is open on the same
  track becomes its child.  :meth:`ObsRecorder.start` opens one and
  :meth:`ObsRecorder.finish` closes it with a status.
* :class:`ObsRecorder` — collects spans, instant events, provenance
  annotations and gauge time series for one simulation context.  Its
  clock is bound to the owning :class:`~repro.simcore.kernel.Simulator`,
  so every timestamp is deterministic simulated seconds.
* :data:`NULL_RECORDER` — the disabled singleton every context gets by
  default.  All of its methods are no-ops returning shared null objects,
  so an uninstrumented run pays one attribute load and a truthiness test
  per site, and the hot kernel loop pays nothing at all (the kernel
  checks ``obs.enabled`` once per ``run()``, not per event).

Recording never touches the RNG streams and never schedules events, so a
run's simulation output is byte-identical whether observability is on or
off — the property CI's obs-smoke step enforces.

Harness integration: :func:`capture` installs a process-wide default so
that every :class:`~repro.simcore.context.SimContext` built inside the
``with`` block records into a fresh recorder.  That is how ``gp-bench
--run-out`` reaches simulations constructed deep inside benchmark tasks
without threading a parameter through every constructor.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Optional

from .timeseries import NULL_SERIES, TimeSeries

__all__ = [
    "Span",
    "ObsRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "capture",
    "Capture",
    "recorder_for_context",
]


class Span:
    """One named interval of simulated time."""

    __slots__ = (
        "id",
        "name",
        "track",
        "start",
        "end",
        "parent_id",
        "cause_id",
        "status",
        "error",
        "attrs",
    )

    def __init__(
        self,
        id: int,
        name: str,
        track: str,
        start: float,
        parent_id: Optional[int],
        attrs: dict[str, Any],
        cause_id: Optional[int] = None,
    ) -> None:
        self.id = id
        self.name = name
        self.track = track
        self.start = start
        self.end: Optional[float] = None
        self.parent_id = parent_id
        #: causal predecessor across tracks (a span id): the operation
        #: whose completion released this one — an EC2 boot for a Chef
        #: converge, a Condor wait for its run.  ``parent_id`` is same-track
        #: nesting; ``cause_id`` is the cross-entity edge the critical-path
        #: walk follows.
        self.cause_id = cause_id
        self.status = "open"
        self.error: Optional[str] = None
        self.attrs = attrs

    def set(self, **attrs: Any) -> "Span":
        """Attach/overwrite attributes on an open or closed span."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "track": self.track,
            "start": self.start,
            "end": self.end,
            "parent_id": self.parent_id,
            "cause_id": self.cause_id,
            "status": self.status,
            "error": self.error,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Span {self.name!r} [{self.track}] {self.start}"
            f"..{self.end if self.end is not None else '?'} {self.status}>"
        )


class ObsRecorder:
    """Span, instant, annotation and series sink for one simulation context."""

    enabled = True

    def __init__(self, label: str = "sim", clock: Optional[Callable[[], float]] = None) -> None:
        self.label = label
        self._clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        self.spans: list[Span] = []
        self.instants: list[dict] = []
        #: provenance annotations (see :meth:`annotate`): structured facts
        #: about *what* ran, not *when* — topology specs, deployment
        #: metadata — that bundle exporters lift out of the span log
        self.annotations: list[dict] = []
        #: named gauge time series (see :mod:`repro.obs.timeseries`)
        self.series_registry: dict[str, TimeSeries] = {}
        self._next_id = 1
        #: per-track stacks of open spans (nesting: top of stack = parent)
        self._open: dict[str, list[Span]] = {}

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the recorder at a simulation clock (``lambda: sim.now``)."""
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock()

    # -- spans --------------------------------------------------------------
    def start(
        self,
        name: str,
        track: Optional[str] = None,
        cause: "Span | int | None" = None,
        **attrs: Any,
    ) -> Span:
        """Open a span at the current sim time.

        ``track=None`` gives the span its own single-use track named after
        the span id — the choice for operations that may overlap arbitrarily
        (concurrent GridFTP transfers on one server) where false parent
        links would mislead.

        ``cause`` names the causal predecessor — a :class:`Span` or its
        id, typically on *another* track — whose completion released this
        operation (boot -> converge, condor wait -> run).  It is pure
        metadata: recording a cause schedules nothing and never alters
        nesting.
        """
        sid = self._next_id
        self._next_id += 1
        if track is None:
            track = f"{name}#{sid}"
        stack = self._open.get(track)
        parent_id = stack[-1].id if stack else None
        cause_id = cause.id if isinstance(cause, Span) else cause
        span = Span(sid, name, track, self._clock(), parent_id, attrs, cause_id)
        self.spans.append(span)
        if stack is None:
            self._open[track] = [span]
        else:
            stack.append(span)
        return span

    def finish(self, span: Span, status: str = "ok", error: Optional[str] = None) -> Span:
        """Close a span at the current sim time."""
        if span.end is not None:
            return span  # idempotent: exporter-safe double close
        span.end = self._clock()
        span.status = status
        span.error = error
        stack = self._open.get(span.track)
        if stack:
            # usually LIFO; tolerate out-of-order closes (overlapping
            # operations that share a track by design)
            try:
                stack.remove(span)
            except ValueError:
                pass
            if not stack:
                del self._open[span.track]
        return span

    def finish_open(self, track: str, status: str = "ok", error: Optional[str] = None) -> int:
        """Close every open span on ``track``, innermost first."""
        stack = self._open.get(track)
        closed = 0
        while stack:
            self.finish(stack[-1], status=status, error=error)
            stack = self._open.get(track)
            closed += 1
        return closed

    def instant(self, name: str, track: Optional[str] = None, **attrs: Any) -> None:
        """Record a point event (faults, negotiation cycles, activations)."""
        self.instants.append(
            {
                "name": name,
                "track": track if track is not None else name,
                "time": self._clock(),
                "attrs": attrs,
            }
        )

    def annotate(self, kind: str, **attrs: Any) -> None:
        """Attach a provenance annotation to this recorder.

        Annotations carry reconstruction inputs — the deployed topology
        spec, deployment facts — rather than timing.  They ride in
        :meth:`to_dict` (and therefore through the harness pipe) but the
        trace exporters ignore them; ``repro.provenance`` collects them
        into the bundle's topology section via
        :func:`repro.obs.export.annotations`.
        """
        self.annotations.append({"kind": kind, "time": self._clock(), "attrs": attrs})

    # -- series -------------------------------------------------------------
    def series(self, name: str) -> TimeSeries:
        """Named gauge time series, created on first use (sim-time samples)."""
        ts = self.series_registry.get(name)
        if ts is None:
            ts = self.series_registry[name] = TimeSeries(name, self._clock)
        return ts

    # -- export -------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe document: the unit the exporters and the harness move."""
        return {
            "label": self.label,
            "spans": [s.to_dict() for s in self.spans],
            "instants": [dict(i, attrs=dict(i["attrs"])) for i in self.instants],
            "annotations": [dict(a, attrs=dict(a["attrs"])) for a in self.annotations],
            "series": {
                name: self.series_registry[name].to_list()
                for name in sorted(self.series_registry)
            },
        }


class _NullSpan:
    """Shared do-nothing span: every disabled ``start()`` returns this."""

    __slots__ = ()

    id = 0
    name = ""
    track = ""
    start = 0.0
    end = 0.0
    parent_id = None
    cause_id = None
    status = "ok"
    error = None

    def set(self, **_attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The disabled recorder: every method is a constant-cost no-op."""

    enabled = False
    label = "disabled"
    spans: list = []       # intentionally shared and always empty
    instants: list = []
    annotations: list = []
    now = 0.0

    __slots__ = ()

    def bind_clock(self, _clock) -> None:
        pass

    def start(
        self, _name: str, _track: Optional[str] = None, _cause=None, **_attrs: Any
    ) -> _NullSpan:
        return _NULL_SPAN

    def finish(self, span, status: str = "ok", error: Optional[str] = None):
        return span

    def finish_open(self, _track: str, status: str = "ok", error: Optional[str] = None) -> int:
        return 0

    def instant(self, _name: str, _track: Optional[str] = None, **_attrs: Any) -> None:
        pass

    def annotate(self, _kind: str, **_attrs: Any) -> None:
        pass

    def series(self, _name: str):
        return NULL_SERIES

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "spans": [],
            "instants": [],
            "annotations": [],
            "series": {},
        }


#: the process-wide disabled singleton
NULL_RECORDER = NullRecorder()


# ---------------------------------------------------------------------------
# Process-wide capture (the --run-out plumbing)
# ---------------------------------------------------------------------------


class Capture:
    """Recorders created while a :func:`capture` block was active."""

    def __init__(self) -> None:
        self.recorders: list[ObsRecorder] = []

    def add(self, recorder: ObsRecorder) -> None:
        self.recorders.append(recorder)

    def to_docs(self) -> list[dict]:
        """One JSON-safe doc per simulation context, in creation order."""
        return [r.to_dict() for r in self.recorders]


_active_capture: Optional[Capture] = None


@contextmanager
def capture():
    """Record every simulation built inside the block.

    Contexts constructed while the block is active (and not given an
    explicit ``obs=``) each get a fresh :class:`ObsRecorder`, collected on
    the yielded :class:`Capture`.  Nesting restores the previous capture
    on exit, and worker processes can use this around a whole task.
    """
    global _active_capture
    previous = _active_capture
    cap = Capture()
    _active_capture = cap
    try:
        yield cap
    finally:
        _active_capture = previous


def recorder_for_context(obs, sim) -> "ObsRecorder | NullRecorder":
    """Resolve a context's ``obs=`` argument into a recorder.

    * an :class:`ObsRecorder` — used as-is (clock bound to ``sim``);
    * ``True`` — a fresh recorder;
    * ``None``/``False`` — a fresh recorder if a :func:`capture` block is
      active, else the shared :data:`NULL_RECORDER`.

    Fresh recorders are registered with the active capture, labelled by
    creation order so exports are deterministic.
    """
    if isinstance(obs, ObsRecorder):
        obs.bind_clock(lambda: sim.now)
        return obs
    cap = _active_capture
    if not obs and cap is None:
        return NULL_RECORDER
    recorder = ObsRecorder(
        label=f"sim-{len(cap.recorders)}" if cap is not None else "sim",
        clock=lambda: sim.now,
    )
    if cap is not None:
        cap.add(recorder)
    return recorder

"""The discrete-event simulation kernel.

:class:`Simulator` owns the clock and the event queue.  Components schedule
:class:`~repro.simcore.events.SimEvent` objects; processes (generators) are
driven by :class:`~repro.simcore.process.Process`.  Determinism: events at
equal times are processed in (priority, insertion order).  Fire times
must not precede the clock; each guard is spelled ``not t >= now`` so a
NaN time fails it too, at no extra cost on the hot constructors.

Performance notes
-----------------
The queue is split in two.  Timed events live on a binary heap keyed by
``(time, (priority << 53) + insertion-order)`` — the priority/insertion
tiebreak packed into a single integer so heap sifts compare one field,
not two.  New timed entries are staged in a pending list and merged
lazily — bulk loads heapify in O(n) instead of paying n O(log n)
pushes.  Zero-delay NORMAL-priority events —
``succeed()``/``fail()`` triggers and resource grants, by far the most
common schedule — go to a FIFO deque instead, skipping the
``O(log n)`` heap push/pop entirely.  Because insertion order is globally
monotonic, the deque is always sorted by insertion order, and the drain
loop merges deque and heap by comparing ``(priority, insertion-order)``
whenever the heap's head shares the current timestamp, so observable
ordering is bit-identical to a single heap.  :meth:`Simulator._drain` is
the one dispatch loop: it binds the queue structures to locals and drains
all events of one timestamp before re-checking the stop conditions.

Per-simulator counters (:attr:`Simulator.events_processed`,
:attr:`Simulator.peak_queue_depth`) feed the scale benchmarks.
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Callable, Optional

from ..obs.recorder import NULL_RECORDER
from .cohort import EventCohort
from .errors import SimulationError, StopSimulation
from .events import LAZY, NORMAL, URGENT, AllOf, AnyOf, SimEvent, Timeout
from .process import Process, ProcessGenerator

__all__ = ["Simulator", "URGENT", "NORMAL", "LAZY"]


class _FnCallback:
    """Adapter invoking a zero-argument function as an event callback.

    ``call_in`` runs on hot paths (EC2 state machines, retry timers); a
    slotted adapter avoids allocating a fresh closure cell per call the
    way ``lambda _ev: fn()`` would.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], None]) -> None:
        self.fn = fn

    def __call__(self, _event: SimEvent) -> None:
        self.fn()


class Simulator:
    """Event loop with a virtual clock measured in seconds."""

    __slots__ = (
        "_now",
        "_queue",
        "_pending",
        "_immediate",
        "_eid",
        "events_processed",
        "peak_queue_depth",
        "obs",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: timed/prioritised events as ``(time, key, event)`` where
        #: ``key = (priority << 53) + insertion-id`` packs the tiebreak
        #: into one integer: URGENT keys are negative, NORMAL keys are the
        #: bare insertion id, LAZY keys exceed 2**53.  One comparison
        #: level instead of two, and a smaller tuple per entry.
        self._queue: list[tuple[float, int, SimEvent]] = []
        #: timed entries scheduled but not yet sifted into the heap.  Bulk
        #: loads (staging thousands of timers before the first pop) flush
        #: with one O(n) ``heapify`` instead of n O(log n) pushes; trickle
        #: inserts fall back to ``heappush``.  Pop order depends only on
        #: the (unique) sort keys, so the internal arrangement produced by
        #: either flush path yields identical event ordering.
        self._pending: list[tuple[float, int, SimEvent]] = []
        #: zero-delay NORMAL events at the current time: (insertion id, event)
        self._immediate: deque[tuple[int, SimEvent]] = deque()
        self._eid = count()
        #: events popped and executed since construction
        self.events_processed: int = 0
        #: high-water mark of pending events (heap + immediate deque)
        self.peak_queue_depth: int = 0
        #: observability recorder; the shared null singleton unless a
        #: :class:`~repro.simcore.context.SimContext` installs a live one.
        #: The hot drain loop never consults it — :meth:`run` checks
        #: ``obs.enabled`` once per call, so instrumentation off costs
        #: nothing per event.
        self.obs = NULL_RECORDER

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def queue_depth(self) -> int:
        """Number of scheduled-but-unprocessed events.

        Counts the heap, the unflushed staging list, and the zero-delay
        FIFO; every cohort member is its own entry, so members count
        individually.
        """
        return len(self._queue) + len(self._pending) + len(self._immediate)

    # -- factories ---------------------------------------------------------
    def event(self) -> SimEvent:
        """Create a fresh, untriggered event."""
        return SimEvent(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    def call_in(self, delay: float, fn: Callable[[], None]) -> SimEvent:
        """Run ``fn()`` after ``delay`` simulated seconds."""
        ev = Timeout(self, delay)
        ev.callbacks.append(_FnCallback(fn))
        return ev

    def schedule_cohort(
        self,
        times,
        apply,
        payload: object = None,
        cause: object = None,
    ) -> EventCohort:
        """Register N homogeneous timers as one struct-of-arrays cohort.

        ``times`` are absolute fire times (each >= now); the kernel calls
        ``apply(cohort, k)`` when member ``k`` fires.  See
        :class:`~repro.simcore.cohort.EventCohort` for the ordering and
        accounting contract.  ``cause`` is opaque causal baggage for
        observability (obs span id(s) readable by ``apply`` as
        ``cohort.cause``); the kernel ignores it.  Returns the cohort;
        its ``done`` event fires after the last member is applied.
        """
        return EventCohort(self, times, apply, payload, cause)

    # -- scheduling --------------------------------------------------------
    # NOTE: the hot constructors (Timeout.__init__, SimEvent.succeed/fail)
    # inline this push to save a call per event; keep them in sync.
    def _schedule(self, event: SimEvent, delay: float = 0.0, priority: int = NORMAL) -> None:
        if delay == 0.0 and priority == NORMAL:
            self._immediate.append((next(self._eid), event))
        else:
            self._pending.append(
                (self._now + delay, (priority << 53) + next(self._eid), event)
            )

    def _flush_pending(self) -> None:
        """Merge deferred timed entries into the heap (see ``_pending``)."""
        pending = self._pending
        queue = self._queue
        if len(pending) << 3 >= len(queue):
            queue.extend(pending)
            heapify(queue)
        else:
            for entry in pending:
                heappush(queue, entry)
        pending.clear()

    def _drain(self, until_f: Optional[float]) -> None:
        """The hot loop: run events until the queue empties or ``until_f``.

        The scheduling structures are bound to locals, and all events of
        the current timestamp drain in one inner pass.  A failed event
        nobody waited on (and nobody defused) re-raises its error here.

        The queue-depth high-water mark is sampled where depth can peak:
        once on entry, then after each callback batch (only callbacks
        schedule new events; between batches depth strictly falls), plus
        once at exit for events left unprocessed by ``until_f``.  The
        maximum over those samples is the exact peak, and callback-less
        events (bare timers) pay nothing.
        """
        queue = self._queue
        pending = self._pending
        immediate = self._immediate
        pop_immediate = immediate.popleft
        flush = self._flush_pending
        now = self._now
        processed = 0
        peak = self.peak_queue_depth
        depth = len(queue) + len(pending) + len(immediate)
        if depth > peak:
            peak = depth
        try:
            while True:
                if pending:
                    flush()
                if immediate:
                    event = None
                    if queue:
                        head = queue[0]
                        # A heap entry beats the deque head only at the
                        # same timestamp with a smaller packed key; deque
                        # entries are NORMAL, so bare-id comparison
                        # suffices (URGENT keys are negative, LAZY > 2**53).
                        if head[0] == now and head[1] < immediate[0][0]:
                            event = heappop(queue)[2]
                    if event is None:
                        event = pop_immediate()[1]
                elif queue:
                    entry = heappop(queue)
                    when = entry[0]
                    if when > now:
                        if until_f is not None and when > until_f:
                            heappush(queue, entry)
                            now = until_f
                            return
                        now = when
                    event = entry[2]
                else:
                    if until_f is not None:
                        now = until_f
                    return
                processed += 1
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    # Publish the clock only when user code is about to run;
                    # callback-less events (bare timers) skip the store.
                    self._now = now
                    for cb in callbacks:
                        cb(event)
                    depth = len(queue) + len(pending) + len(immediate)
                    if depth > peak:
                        peak = depth
                if event._ok is False and not event._defused:
                    raise event.value  # type: ignore[misc]
        finally:
            depth = len(queue) + len(pending) + len(immediate)
            if depth > peak:
                peak = depth
            self._now = now
            self.events_processed += processed
            self.peak_queue_depth = peak

    def run(self, until: float | SimEvent | None = None) -> object:
        """Run until the queue drains, a time is reached, or an event fires.

        ``until`` may be ``None`` (drain), a number (absolute time), or an
        event (stop once it is processed and every callback on it has run,
        returning its value — or raising it, if the event failed).

        The per-simulator counters (:attr:`events_processed`,
        :attr:`peak_queue_depth`) **persist across calls**: each ``run()``
        accumulates onto the totals rather than resetting them, so a
        scenario staged as several ``run(until=...)`` phases reports the
        same counts as one uninterrupted drain.  Sample before/after a
        call to attribute counts to one phase.

        With a live observability recorder installed (see
        :mod:`repro.obs`), every call records a ``kernel.run`` span on the
        ``kernel`` track carrying the number of events the call
        processed.  The disabled recorder skips it after one flag test.
        """
        obs = self.obs
        if not obs.enabled:
            return self._run(until)
        span = obs.start("kernel.run", track="kernel")
        before = self.events_processed
        try:
            result = self._run(until)
        except BaseException as exc:
            span.set(events=self.events_processed - before)
            obs.finish(span, status="error", error=repr(exc))
            raise
        span.set(events=self.events_processed - before)
        obs.finish(span)
        return result

    def _run(self, until: float | SimEvent | None) -> object:
        until_f: Optional[float] = None
        # ``until``'s callback list while this run waits on the event
        hooks: Optional[list] = None
        if isinstance(until, SimEvent):
            if until.processed:
                if not until.ok:
                    raise until.value  # type: ignore[misc]
                return until.value
            hooks = until.callbacks

            def _stop(_ev: SimEvent) -> None:
                # Stop only after every callback on the event, including
                # ones added after this run began: those sit behind this
                # hook, so it moves behind them once and runs again last.
                if hooks[-1] is not _stop:
                    hooks.append(_stop)
                    return
                raise StopSimulation()

            hooks.append(_stop)
        elif until is not None:
            until_f = float(until)
            if not until_f >= self._now:  # also rejects NaN
                raise ValueError(
                    f"until ({until_f}) is NaN or in the past (now={self._now})"
                )

        # Pause the cyclic garbage collector for the drain: the hot loop
        # allocates thousands of short-lived events/tuples per run, which
        # trips gen-0 collections constantly (measured ~35% of kernel
        # wall on the scale grid) while the kernel itself creates no
        # reference cycles that need collecting mid-run.  Re-enabled (and
        # nesting-safe) on exit; a deferred collection then reclaims any
        # cycles model code made.
        paused_gc = gc.isenabled()
        if paused_gc:
            gc.disable()
        try:
            self._drain(until_f)
        except StopSimulation:
            if not until.ok:
                raise until.value  # type: ignore[misc]
            return until.value
        finally:
            if paused_gc:
                gc.enable()
            if hooks is not None and until.callbacks is not None:
                # The event never fired: unhook, so a later run waiting
                # on it is not stopped by this run's hook.
                hooks.remove(_stop)
        if hooks is not None:
            raise SimulationError(
                "event queue drained before the awaited event triggered"
            )
        return None

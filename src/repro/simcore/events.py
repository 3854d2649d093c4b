"""Event primitives for the discrete-event kernel.

The model follows the classic SimPy design: an :class:`SimEvent` is a
one-shot occurrence with a value (or an exception).  Callbacks attached to
the event run when the kernel processes it.  :class:`Timeout` is an event
scheduled a fixed delay in the future; :class:`AnyOf`/:class:`AllOf`
combine events.

All event classes declare ``__slots__``: simulations at scale allocate
millions of events, and slotted instances are both smaller and faster to
construct than dict-backed ones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .errors import SimulationError, UntriggeredEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kernel import Simulator

# Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()

#: Priority used for "urgent" bookkeeping events (process initialization).
URGENT = -1
#: Default priority for ordinary events.
NORMAL = 0
#: Priority for deferred bookkeeping that should run only after every
#: ordinary event at the same timestamp has been processed (used to
#: coalesce e.g. Condor negotiator wake-ups).
LAZY = 1


class SimEvent:
    """A one-shot event that may succeed with a value or fail with an error.

    Lifecycle: *pending* -> *triggered* (scheduled on the event queue) ->
    *processed* (callbacks have run).  An event can only be triggered once.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[["SimEvent"], None]]] = []
        self._value: object = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value and scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed by the kernel."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise UntriggeredEvent(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> object:
        """The event's value (or exception instance if it failed)."""
        if self._value is _PENDING:
            raise UntriggeredEvent(f"{self!r} has not been triggered")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: object = None, priority: int = NORMAL) -> "SimEvent":
        """Trigger the event successfully with ``value``.

        ``priority`` orders the event against others at the same timestamp
        (lower runs first); :data:`LAZY` defers processing until every
        ordinary same-timestamp event has drained.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # Inlined Simulator._schedule(self, 0.0, priority): triggers are
        # the hottest schedule in any run.
        sim = self.sim
        if priority == NORMAL:
            sim._immediate.append((next(sim._eid), self))
        else:
            sim._pending.append(
                (sim._now, (priority << 53) + next(sim._eid), self)
            )
        return self

    def fail(self, exception: BaseException) -> "SimEvent":
        """Trigger the event with an exception.

        Processes waiting on the event will have the exception thrown into
        them.  Failed events must be waited on (or marked ``defused``) or
        the kernel re-raises the error at processing time.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        sim = self.sim
        sim._immediate.append((next(sim._eid), self))
        return self

    @property
    def defused(self) -> bool:
        """True once some waiter has taken responsibility for a failure."""
        return self._defused

    @defused.setter
    def defused(self, value: bool) -> None:
        self._defused = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


#: The one event that stands for every event nobody waits on (see
#: :meth:`~repro.simcore.kernel.Simulator.trigger_unwatched`).  It is
#: already processed and has no callbacks, so any simulator's kernel can
#: pop it any number of times and run nothing; each pop still counts.
UNWATCHED = SimEvent.__new__(SimEvent)
UNWATCHED.callbacks = None
UNWATCHED._value = None
UNWATCHED._ok = True
UNWATCHED._defused = False


class Timeout(SimEvent):
    """Event that fires after a fixed simulated delay.

    The constructor bypasses :meth:`SimEvent.__init__` and writes every
    slot directly: timeouts are the single most-allocated object in a
    simulation, and the flat initializer keeps them cheap.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: object = None) -> None:
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        # Inlined Simulator._schedule(self, delay, NORMAL); a NORMAL
        # priority packs to the bare insertion id.
        if delay == 0.0:
            sim._immediate.append((next(sim._eid), self))
        else:
            sim._pending.append((sim._now + delay, next(sim._eid), self))


class _Condition(SimEvent):
    """Base for events composed of several sub-events."""

    __slots__ = ("events", "_unprocessed")

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent]) -> None:
        super().__init__(sim)
        self.events = list(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("cannot mix events from different simulators")
        self._unprocessed = len(self.events)
        if not self.events:
            self.succeed({})
            return
        on_sub = self._on_subevent  # bind once, not per sub-event
        for ev in self.events:
            if ev.callbacks is None:  # already processed
                on_sub(ev)
            else:
                ev.callbacks.append(on_sub)

    def _collect(self) -> dict:
        return {
            ev: ev._value
            for ev in self.events
            if ev.callbacks is None and ev._ok
        }

    def _on_subevent(self, ev: SimEvent) -> None:
        # Slot accesses instead of the public properties: ``ev`` has been
        # processed by the kernel, so the untriggered guards cannot fire.
        if not ev._ok:
            # Waiting on the condition counts as handling the failure, even
            # when the condition has already fired (e.g. two sub-processes
            # failing at the same timestamp).
            ev._defused = True
            if self._value is _PENDING:
                self.fail(ev._value)  # type: ignore[arg-type]
            return
        if self._value is not _PENDING:
            return
        self._unprocessed -= 1
        if self._check():
            self.succeed(self._collect())

    def _check(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every sub-event has triggered successfully."""

    __slots__ = ()

    def _check(self) -> bool:
        return self._unprocessed == 0


class AnyOf(_Condition):
    """Triggers when at least one sub-event has triggered successfully."""

    __slots__ = ()

    def _check(self) -> bool:
        return self._unprocessed < len(self.events)

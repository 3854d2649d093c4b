"""Generator-based simulation processes.

A process wraps a Python generator that yields :class:`SimEvent` objects.
When a yielded event triggers, the process resumes with the event's value
(or the event's exception is thrown into the generator).  A process is
itself an event that triggers when the generator returns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from .errors import SimulationError
from .events import SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator

ProcessGenerator = Generator[SimEvent, object, object]


class _Initialize(SimEvent):
    """Immediate event that starts a process on the next kernel step."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process") -> None:
        super().__init__(sim)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        sim._schedule(self, delay=0.0, priority=-1)


class Process(SimEvent):
    """A running process; also an event that fires when the process ends."""

    __slots__ = ("name", "_generator")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = "") -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        _Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def _resume(self, event: SimEvent) -> None:
        """Advance the generator with ``event``'s outcome.

        ``event`` is always processed here, so the raw ``_ok``/``_value``
        slots are read directly — this loop runs once per context switch.
        """
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(event._value)  # type: ignore[arg-type]
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except Exception as exc:
                # The process raised: fail the process event.  Waiters
                # receive the exception; with no waiters the kernel
                # surfaces it when it processes the failure.
                self.fail(exc)
                return
            if not isinstance(next_event, SimEvent):
                exc = SimulationError(
                    f"{self.name} yielded a non-event: {next_event!r}"
                )
                self._generator.close()
                self.fail(exc)
                return
            if next_event.sim is not self.sim:
                raise SimulationError("yielded event belongs to another simulator")
            if next_event.callbacks is None:  # processed
                # Already happened: loop and feed it straight back in.
                event = next_event
                continue
            next_event.callbacks.append(self._resume)
            return

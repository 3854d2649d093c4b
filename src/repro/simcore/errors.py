"""Exception types used by the discrete-event simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all kernel-level errors."""


class StopSimulation(SimulationError):
    """Raised internally to halt :meth:`Simulator.run` early."""


class UntriggeredEvent(SimulationError):
    """Raised when the value of an event is read before it triggered."""

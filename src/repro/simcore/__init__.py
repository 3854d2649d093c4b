"""Discrete-event simulation kernel underpinning the whole reproduction.

Public API::

    from repro.simcore import SimContext, Simulator

    ctx = SimContext(seed=42)

    def proc(ctx):
        yield ctx.sim.timeout(5.0)
        return "done"

    p = ctx.sim.process(proc(ctx))
    ctx.sim.run(until=p)   # -> "done", ctx.now == 5.0
"""

from .cohort import EventCohort
from .context import SimContext
from .errors import (
    EmptySchedule,
    Interrupt,
    SimulationError,
    StopSimulation,
    UntriggeredEvent,
)
from .events import LAZY, NORMAL, URGENT, AllOf, AnyOf, SimEvent, Timeout
from .kernel import Simulator
from .process import Process
from .resources import Container, PriorityResource, Request, Resource, Store
from .rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "EmptySchedule",
    "EventCohort",
    "Interrupt",
    "LAZY",
    "NORMAL",
    "PriorityResource",
    "Process",
    "RandomStreams",
    "Request",
    "Resource",
    "SimContext",
    "SimEvent",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Store",
    "Timeout",
    "URGENT",
    "UntriggeredEvent",
]

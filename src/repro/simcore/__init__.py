"""Discrete-event simulation kernel underpinning the whole reproduction.

One event queue with one dispatch loop (:class:`Simulator`), one-shot
events and their ``AllOf``/``AnyOf`` combinations, generator processes,
FIFO capacity resources, and event cohorts that register N homogeneous
timers as one record.  Only what the models call is here.

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
from .errors import SimulationError, StopSimulation, UntriggeredEvent
from .events import LAZY, NORMAL, URGENT, AllOf, AnyOf, SimEvent, Timeout
from .kernel import Simulator
from .process import Process
from .resources import Request, Resource
from .rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "EventCohort",
    "LAZY",
    "NORMAL",
    "Process",
    "RandomStreams",
    "Request",
    "Resource",
    "SimContext",
    "SimEvent",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Timeout",
    "URGENT",
    "UntriggeredEvent",
]

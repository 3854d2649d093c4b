"""Simulation context: the bundle every component receives.

A :class:`SimContext` owns the kernel, the named RNG streams, and the
observability recorder (:mod:`repro.obs`), the simulator's one event
channel.  Passing one object keeps constructor signatures flat and makes
whole-system determinism a single-seed affair.
"""

from __future__ import annotations

import numpy as np

from ..obs.recorder import recorder_for_context
from .kernel import Simulator
from .rng import RandomStreams


class SimContext:
    """Kernel + RNG + obs, the spine threaded through every subsystem."""

    def __init__(
        self,
        seed: int = 0,
        initial_time: float = 0.0,
        obs: object = None,
    ) -> None:
        self.seed = seed
        self.sim = Simulator(initial_time=initial_time)
        self.rng = RandomStreams(seed)
        #: observability recorder (see :mod:`repro.obs`): pass an
        #: :class:`~repro.obs.ObsRecorder` or ``True`` to record spans,
        #: instants and series; the default is the shared null recorder
        #: unless an ``obs.capture()`` block is active, in which case a
        #: fresh recorder is created and registered with it.
        self.obs = recorder_for_context(obs, self.sim)
        self.sim.obs = self.obs

    @property
    def now(self) -> float:
        return self.sim.now

    def stream(self, name: str) -> np.random.Generator:
        return self.rng.stream(name)

"""Sim-time gauge sampling: deterministic time series on the recorder.

A :class:`TimeSeries` is an append-only list of ``(sim_time, value)``
points owned by an :class:`~repro.obs.recorder.ObsRecorder`.  Producers
sample at *state transitions they already handle* — a negotiation cycle,
a workflow admission, a stage-in starting — never from timers of their
own, so recording a series schedules no events and the simulation output
stays byte-identical with observability on or off (the same contract
spans and instants honour).

Points ride inside the recorder's doc form (``to_dict()["series"]``, one
``[t, value]`` list per series name) and export as Chrome counter events
(:func:`repro.obs.export.chrome_trace`): the counter tracks of the
``<group>.trace.json`` view ``gp-bench --run-out`` writes.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["TimeSeries", "NULL_SERIES"]


class TimeSeries:
    """One named gauge sampled at simulated timestamps."""

    __slots__ = ("name", "points", "_clock")

    def __init__(self, name: str, clock: Callable[[], float]) -> None:
        self.name = name
        self.points: list[tuple[float, float]] = []
        self._clock = clock

    def record(self, value: float) -> None:
        """Append one ``(now, value)`` sample at the recorder's clock."""
        self.points.append((self._clock(), float(value)))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def last(self) -> float | None:
        return self.points[-1][1] if self.points else None

    def to_list(self) -> list[list[float]]:
        """JSON-safe ``[[t, value], ...]`` in recording order."""
        return [[t, v] for t, v in self.points]


class _NullSeries:
    """Shared do-nothing series returned by the disabled recorder."""

    __slots__ = ()

    name = ""
    points: list = []
    last = None

    def record(self, _value: float) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def to_list(self) -> list:
        return []


#: the disabled singleton every ``NullRecorder.series()`` call returns
NULL_SERIES = _NullSeries()

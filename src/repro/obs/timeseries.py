"""Sim-time gauge sampling: deterministic time series on the recorder.

A :class:`TimeSeries` is an append-only list of ``(sim_time, value)``
points owned by an :class:`~repro.obs.recorder.ObsRecorder`.  Producers
sample at *state transitions they already handle* — a negotiation cycle,
a workflow admission, a stage-in starting — never from timers of their
own, so recording a series schedules no events and the simulation output
stays byte-identical with observability on or off (the same contract
spans and instants honour).

Points ride inside the recorder's doc form (``to_dict()["series"]``) and
export as a flat JSONL file via :func:`timeseries_jsonl`::

    {"context": "sim-0", "series": "condor.idle_jobs", "t": 12.5, "value": 3}

one object per line, series in sorted-name order per context, points in
recording order — the view ``gp-bench --run-out`` writes as
``<suite>.timeseries.jsonl`` and the autoscaling policies' post-hoc
analysis consumes.
"""

from __future__ import annotations

import json
from typing import Callable

__all__ = ["TimeSeries", "NULL_SERIES", "timeseries_jsonl", "series_points"]


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


def series_points(source) -> list[dict]:
    """Flatten all series across docs into point records.

    Each record is ``{"context", "series", "t", "value"}``; contexts keep
    doc order, series within a context sort by name, points keep
    recording order — fully deterministic for byte-stable exports.
    """
    # imported here: export.as_docs imports nothing from this module, but
    # keeping the dependency one-way at module load avoids a cycle if the
    # exporters ever grow series-aware summaries
    from .export import as_docs

    out: list[dict] = []
    for i, doc in enumerate(as_docs(source)):
        label = doc.get("label") or f"sim-{i}"
        series = doc.get("series") or {}
        for name in sorted(series):
            for t, v in series[name]:
                out.append({"context": label, "series": name, "t": t, "value": v})
    return out


def timeseries_jsonl(source) -> str:
    """The ``.timeseries.jsonl`` artefact: one JSON object per point."""
    lines = [json.dumps(p, sort_keys=True) for p in series_points(source)]
    return "\n".join(lines) + ("\n" if lines else "")

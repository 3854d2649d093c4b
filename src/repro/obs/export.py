"""Exporters: Chrome ``trace_event`` JSON and a span summary table.

All exporters consume the JSON-safe *doc* form produced by
:meth:`~repro.obs.recorder.ObsRecorder.to_dict` (or
:meth:`~repro.obs.recorder.Capture.to_docs`), so the same code path
serves in-process use, the benchmark harness (docs ride back from worker
processes over a pipe), and a provenance bundle's ``spans`` section.

The Chrome trace uses complete (``ph: "X"``) events — one per closed
span, timestamped in microseconds of *simulated* time — plus thread
(``i``) instants, one counter (``C``) event per gauge series point, and
``M`` metadata naming each process (one simulation context) and thread
(one span track).  The output loads directly in Perfetto /
``about://tracing``, which draws each series as a counter track.
"""

from __future__ import annotations

import math

__all__ = [
    "annotations",
    "as_docs",
    "chrome_trace",
    "summary_rows",
    "summary_table",
]

#: simulated seconds -> Chrome trace microseconds
_US = 1_000_000.0


def as_docs(source) -> list[dict]:
    """Normalize any obs source into a list of context docs.

    Accepts a Capture, an ObsRecorder, a single doc dict, or an iterable
    of docs/recorders.
    """
    if source is None:
        return []
    if hasattr(source, "to_docs"):
        return source.to_docs()
    if hasattr(source, "to_dict"):
        return [source.to_dict()]
    if isinstance(source, dict):
        return [source]
    out: list[dict] = []
    for item in source:
        out.extend(as_docs(item))
    return out


def annotations(source, kind: str | None = None) -> list[dict]:
    """Provenance annotations across contexts, in recording order.

    Each returned dict carries the annotation fields plus a ``context``
    key naming the doc it came from; ``kind`` filters (e.g.
    ``"topology"``).  This is the bundle exporter's view of what the
    recorders captured about the deployed world.
    """
    out: list[dict] = []
    for i, doc in enumerate(as_docs(source)):
        label = doc.get("label") or f"sim-{i}"
        for ann in doc.get("annotations", ()):
            if kind is None or ann.get("kind") == kind:
                out.append(dict(ann, context=label))
    return out


def _clamp_end(span: dict, fallback: float) -> float:
    """Open spans (a sim stopped mid-operation) export with zero width."""
    end = span.get("end")
    if end is None:
        return max(float(span["start"]), fallback)
    return float(end)


def chrome_trace(source) -> dict:
    """Build a Chrome ``trace_event`` document (the JSON-object form).

    Tracks map to thread ids in first-appearance order per context, spans
    before instants; each context is its own process, and its series
    points are counter events on thread 0.  Events are stably sorted by
    (pid, tid, ts) so per-track timestamps are monotone by construction —
    the property :func:`repro.obs.validate.check_chrome_trace` checks —
    and, as a recorder's clock never goes back, each series keeps its
    recording order.
    """
    docs = as_docs(source)
    events: list[dict] = []
    for pid, doc in enumerate(docs, start=1):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": doc.get("label") or f"sim-{pid}"},
            }
        )
        tids: dict[str, int] = {}

        def tid_of(track: str, tids=tids, pid=pid) -> int:
            tid = tids.get(track)
            if tid is None:
                tid = tids[track] = len(tids) + 1
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": tid,
                        "args": {"name": track},
                    }
                )
            return tid

        for span in doc.get("spans", ()):
            start = float(span["start"])
            end = _clamp_end(span, start)
            args = dict(span.get("attrs") or {})
            args["status"] = span.get("status", "ok")
            if span.get("error"):
                args["error"] = span["error"]
            events.append(
                {
                    "name": span["name"],
                    "ph": "X",
                    "pid": pid,
                    "tid": tid_of(span["track"]),
                    "ts": start * _US,
                    "dur": (end - start) * _US,
                    "args": args,
                }
            )
        for inst in doc.get("instants", ()):
            events.append(
                {
                    "name": inst["name"],
                    "ph": "i",
                    "s": "t",
                    "pid": pid,
                    "tid": tid_of(inst["track"]),
                    "ts": float(inst["time"]) * _US,
                    "args": dict(inst.get("attrs") or {}),
                }
            )
        series = doc.get("series") or {}
        for name in sorted(series):
            for t, value in series[name]:
                events.append(
                    {
                        "name": name,
                        "ph": "C",
                        "pid": pid,
                        "tid": 0,
                        "ts": float(t) * _US,
                        "args": {"value": value},
                    }
                )
    metadata = [e for e in events if e["ph"] == "M"]
    timed = [e for e in events if e["ph"] != "M"]
    timed.sort(key=lambda e: (e["pid"], e["tid"], e["ts"]))
    return {"traceEvents": metadata + timed, "displayTimeUnit": "ms"}


def _percentile(sorted_values: list[float], q: float) -> float:
    """Exact nearest-rank percentile of an ascending list (0.0 if empty).

    Span-duration summaries and the waas driver's makespan and
    admission-wait percentiles both use it.

    Nearest-rank: the smallest value with at least ``q`` of the samples
    at or below it, i.e. ``sorted_values[ceil(q * n) - 1]`` clamped to a
    valid index (q=0.0 returns the minimum, q=1.0 the maximum).  The old
    ``round(q * n + 0.5)`` form hit banker's rounding on exact .5
    products — p95 of 20 samples picked rank 20 instead of 19.
    """
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def summary_rows(source) -> list[dict]:
    """Per-span-name aggregates in sim-seconds, sorted by total desc."""
    docs = as_docs(source)
    durations: dict[str, list[float]] = {}
    errors: dict[str, int] = {}
    for doc in docs:
        for span in doc.get("spans", ()):
            end = span.get("end")
            if end is None:
                continue
            durations.setdefault(span["name"], []).append(end - float(span["start"]))
            if span.get("status") not in ("ok", None):
                errors[span["name"]] = errors.get(span["name"], 0) + 1
    rows = []
    for name, values in durations.items():
        values.sort()
        rows.append(
            {
                "name": name,
                "count": len(values),
                "errors": errors.get(name, 0),
                "total_s": sum(values),
                "mean_s": sum(values) / len(values),
                "p50_s": _percentile(values, 0.50),
                "p95_s": _percentile(values, 0.95),
                "max_s": values[-1],
            }
        )
    rows.sort(key=lambda r: (-r["total_s"], r["name"]))
    return rows


def summary_table(source, title: str = "span summary (sim-seconds)") -> str:
    """The text artefact: where simulated time went, by span name."""
    # imported lazily: repro.reporting pulls in repro.simcore, which in
    # turn imports this package for the null recorder — a module-level
    # import here would close that cycle during interpreter start-up
    from ..reporting.tables import render_table

    rows = summary_rows(source)
    if not rows:
        return "(no spans recorded)"
    return render_table(
        ["span", "count", "err", "total (s)", "mean (s)", "p50 (s)", "p95 (s)", "max (s)"],
        [
            (
                r["name"],
                r["count"],
                r["errors"],
                f"{r['total_s']:.2f}",
                f"{r['mean_s']:.2f}",
                f"{r['p50_s']:.2f}",
                f"{r['p95_s']:.2f}",
                f"{r['max_s']:.2f}",
            )
            for r in rows
        ],
        title=title,
    )

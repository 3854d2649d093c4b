"""Deployment timeline: a text Gantt chart from obs spans.

Renders what happened when during a GP deployment — instance boots,
Chef converges per host, and Globus Online transfer tasks — which makes
the Fig. 10 deployment-time structure visible at a glance.

The input is anything :func:`repro.obs.export.as_docs` understands — an
:class:`~repro.obs.ObsRecorder`, a :class:`~repro.obs.Capture`, or
exported doc dicts; intervals come from the recorded ``ec2.boot`` /
``chef.converge`` / ``go.task`` spans.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.export import as_docs


@dataclass
class Interval:
    label: str
    start: float
    end: float

    @property
    def duration_s(self) -> float:
        return self.end - self.start


#: obs span name -> (label prefix, attribute naming the entity, whether
#: only a span that finished ``ok`` gets a row).  A boot cancelled by
#: ``terminate_instances`` or a converge that raised never happened as a
#: deployment step; a failed GO task still occupied its time.
_SPAN_ROWS = {
    "ec2.boot": ("boot", "instance", True),
    "chef.converge": ("chef", "node", True),
    "go.task": ("go", "task", False),
}


def collect_intervals(source) -> list[Interval]:
    """Boot, converge, and transfer intervals from recorded spans."""
    intervals: list[Interval] = []
    for doc in as_docs(source):
        for span in doc.get("spans", ()):
            row = _SPAN_ROWS.get(span["name"])
            if row is None or span.get("end") is None:
                continue
            prefix, key, ok_only = row
            if ok_only and span.get("status", "ok") != "ok":
                continue
            entity = (span.get("attrs") or {}).get(key, "?")
            intervals.append(
                Interval(f"{prefix} {entity}", float(span["start"]), float(span["end"]))
            )
    return intervals


def render_timeline(source, width: int = 50) -> str:
    """Gantt-style bars, one per interval, on a shared time axis."""
    intervals = collect_intervals(source)
    if not intervals:
        return "(no deployment activity recorded)"
    t0 = min(iv.start for iv in intervals)
    t1 = max(iv.end for iv in intervals)
    span = max(1e-9, t1 - t0)
    label_w = max(len(iv.label) for iv in intervals)
    lines = [f"deployment timeline ({t1 - t0:.0f}s total)"]
    for iv in sorted(intervals, key=lambda i: (i.start, i.label)):
        # an interval starting at the axis end still gets its one cell
        lead = min(int((iv.start - t0) / span * width), width - 1)
        length = max(1, int((iv.end - iv.start) / span * width))
        bar = " " * lead + "#" * min(length, width - lead)
        lines.append(
            f"{iv.label.ljust(label_w)} |{bar.ljust(width)}| "
            f"{iv.start - t0:6.0f}s..{iv.end - t0:6.0f}s"
        )
    return "\n".join(lines)

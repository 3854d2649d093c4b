"""Structural span-log diff: name the first *span* that moved.

``gp-replay``'s sim-JSON comparison says reproduction broke at some
numeric leaf; this module says it in execution terms — the first span
(track + name + sim time) whose recorded shape differs between two span
logs.  That is the ROADMAP's requested safety gate for kernel surgery:
a diverging replay points at the operation that moved, not just the
first differing number.

Both sides are lists of obs docs (the
:meth:`~repro.obs.recorder.ObsRecorder.to_dict` form, as stored in a
provenance bundle's ``spans`` section or returned by
``SuiteResult.obs_docs()``).  Only span structure is compared — never
a doc's other keys (instants, series, and the ``metrics`` object that
bundles written before metrics were dropped still carry), and never
attrs, which may carry host-dependent detail.  Spans are compared in
recording order on the deterministic fields ``(name, track, start, end,
parent_id, cause_id, status)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["SpanDivergence", "first_span_divergence", "render_span_divergence"]

#: span fields compared, in reporting priority order
SPAN_FIELDS = ("name", "track", "start", "end", "parent_id", "cause_id", "status")


@dataclass(frozen=True)
class SpanDivergence:
    """The first span where two recorded traces disagree."""

    context: str            # doc label the span belongs to
    index: int              # span position within the doc (recording order)
    field: str              # differing span field, or "<missing>"/"<context>"
    expected: Any
    actual: Any
    name: str               # span identity from whichever side has it
    track: str
    time: float             # span start in sim-seconds

    def to_dict(self) -> dict:
        return {
            "context": self.context,
            "index": self.index,
            "field": self.field,
            "expected": self.expected,
            "actual": self.actual,
            "name": self.name,
            "track": self.track,
            "time": self.time,
        }


def _doc_label(doc: dict, i: int) -> str:
    return doc.get("label") or f"sim-{i}"


def _span_identity(span: Optional[dict]) -> tuple[str, str, float]:
    if not isinstance(span, dict):
        return ("?", "?", 0.0)
    return (
        str(span.get("name", "?")),
        str(span.get("track", "?")),
        float(span.get("start") or 0.0),
    )


def first_span_divergence(
    expected_docs: list[dict], actual_docs: list[dict]
) -> Optional[SpanDivergence]:
    """First differing span between two span logs, or ``None`` if equal.

    Docs pair up in order; a missing/extra doc or span reports as a
    ``<missing>`` divergence carrying the identity of whichever side has
    the span.  Field comparison treats int/float equal values as equal
    (JSON round-trips may rewrite ``1`` as ``1.0``).
    """
    for i in range(max(len(expected_docs), len(actual_docs))):
        if i >= len(expected_docs) or i >= len(actual_docs):
            present = actual_docs[i] if i < len(actual_docs) else expected_docs[i]
            return SpanDivergence(
                context=_doc_label(present, i),
                index=0,
                field="<context>",
                expected="<absent>" if i >= len(expected_docs) else "<present>",
                actual="<absent>" if i >= len(actual_docs) else "<present>",
                name="",
                track="",
                time=0.0,
            )
        exp_doc, act_doc = expected_docs[i], actual_docs[i]
        label = _doc_label(exp_doc, i)
        exp_spans = exp_doc.get("spans") or []
        act_spans = act_doc.get("spans") or []
        for k in range(max(len(exp_spans), len(act_spans))):
            exp = exp_spans[k] if k < len(exp_spans) else None
            act = act_spans[k] if k < len(act_spans) else None
            if exp is None or act is None:
                name, track, time = _span_identity(act if exp is None else exp)
                return SpanDivergence(
                    context=label,
                    index=k,
                    field="<missing>",
                    expected="<absent>" if exp is None else "<span>",
                    actual="<absent>" if act is None else "<span>",
                    name=name,
                    track=track,
                    time=time,
                )
            for field in SPAN_FIELDS:
                ev, av = exp.get(field), act.get(field)
                if ev == av:
                    continue
                name, track, time = _span_identity(exp)
                return SpanDivergence(
                    context=label,
                    index=k,
                    field=field,
                    expected=ev,
                    actual=av,
                    name=name,
                    track=track,
                    time=time,
                )
    return None


def render_span_divergence(
    div: SpanDivergence, title: str = "first diverging span"
) -> str:
    return "\n".join(
        [
            f"{title}:",
            f"  context:  {div.context} (span #{div.index})",
            f"  span:     {div.name} [{div.track}] at t={div.time:g}s",
            f"  field:    {div.field}",
            f"  expected: {div.expected!r}",
            f"  actual:   {div.actual!r}",
        ]
    )

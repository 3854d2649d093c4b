"""Structured JSON divergence and counterfactual comparison rendering.

Two consumers share this module:

* ``gp-replay``'s verifier — for each section the replayed run derives
  (``spans``, ``topology``, ``sim``) whose canonical bytes differ from
  the bundled one, :func:`first_divergence` walks both documents in
  deterministic order and names the first differing path, so the
  failure report says *where* reproduction broke instead of dumping two
  multi-kilobyte blobs;
* counterfactual replay — :func:`comparison_rows` /
  :func:`render_comparison` turn a baseline payload and a what-if payload
  into a per-metric delta table (makespans, costs, event counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .tables import render_table

__all__ = [
    "Divergence",
    "first_divergence",
    "render_divergence",
    "flatten_numeric",
    "comparison_rows",
    "render_comparison",
]


@dataclass(frozen=True)
class Divergence:
    """The first point where two JSON documents disagree."""

    path: str
    expected: Any
    actual: Any

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "expected": _describe(self.expected),
            "actual": _describe(self.actual),
        }


def _describe(value: Any, limit: int = 120) -> str:
    """Short, type-revealing rendering of one side of a divergence."""
    if isinstance(value, (dict, list)):
        text = f"<{type(value).__name__} of {len(value)} entries>"
    else:
        text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def first_divergence(expected: Any, actual: Any, path: str = "$") -> Optional[Divergence]:
    """Deterministic first difference between two JSON-safe documents.

    Dicts are walked in sorted key order (a missing key diverges at that
    key's path), lists by index; the first scalar mismatch wins.  Returns
    ``None`` when the documents are equal.
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            sub = f"{path}.{key}"
            if key not in expected:
                return Divergence(sub, "<absent>", actual[key])
            if key not in actual:
                return Divergence(sub, expected[key], "<absent>")
            found = first_divergence(expected[key], actual[key], sub)
            if found is not None:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        for i in range(min(len(expected), len(actual))):
            found = first_divergence(expected[i], actual[i], f"{path}[{i}]")
            if found is not None:
                return found
        if len(expected) != len(actual):
            i = min(len(expected), len(actual))
            longer = expected if len(expected) > len(actual) else actual
            extra = longer[i]
            if longer is expected:
                return Divergence(f"{path}[{i}]", extra, "<absent>")
            return Divergence(f"{path}[{i}]", "<absent>", extra)
        return None
    # scalar (or type-mismatched) leaves; bool is not interchangeable
    # with int here because JSON round-trips preserve the distinction
    if type(expected) is not type(actual) and not (
        isinstance(expected, (int, float))
        and isinstance(actual, (int, float))
        and not isinstance(expected, bool)
        and not isinstance(actual, bool)
    ):
        return Divergence(path, expected, actual)
    if expected != actual:
        return Divergence(path, expected, actual)
    return None


def render_divergence(div: Divergence, title: str = "first divergence") -> str:
    return "\n".join(
        [
            f"{title}:",
            f"  path:     {div.path}",
            f"  expected: {_describe(div.expected)}",
            f"  actual:   {_describe(div.actual)}",
        ]
    )


# ---------------------------------------------------------------------------
# Counterfactual comparison
# ---------------------------------------------------------------------------


def flatten_numeric(doc: Any, prefix: str = "") -> dict[str, float]:
    """Flatten a payload to dotted-path -> numeric leaf (bools excluded)."""
    out: dict[str, float] = {}
    if isinstance(doc, dict):
        for key in sorted(doc):
            sub = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_numeric(doc[key], sub))
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            out.update(flatten_numeric(item, f"{prefix}[{i}]"))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        out[prefix] = float(doc)
    return out


#: payload keys worth showing even when unchanged — the makespan / cost /
#: event-count axes a counterfactual replay exists to compare (matched on
#: the final dotted-path component)
HEADLINE_KEYS = frozenset(
    {
        "sim_seconds",
        "deploy_sim_seconds",
        "events_processed",
        "exec_min",
        "deploy_min",
        "cost_usd",
        "cost_proportional_usd",
        "cost_hourly_usd",
        "sla_attainment",
        "makespan_p50_s",
        "makespan_p95_s",
        "baseline_min",
        "scaled_min",
    }
)


def comparison_rows(
    baseline: dict, replayed: dict, include_unchanged_headlines: bool = True
) -> list[dict]:
    """Per-metric deltas between a baseline payload and a what-if payload.

    Rows cover every numeric path that changed, plus (optionally) the
    headline metrics even when equal — an all-zero table is itself the
    result when a counterfactual knob provably does not matter.
    """
    base = flatten_numeric(baseline)
    new = flatten_numeric(replayed)
    rows: list[dict] = []
    for path in sorted(set(base) | set(new)):
        b, n = base.get(path), new.get(path)
        changed = b != n
        leaf = path.rsplit(".", 1)[-1]
        if not changed and not (include_unchanged_headlines and leaf in HEADLINE_KEYS):
            continue
        rows.append(
            {
                "metric": path,
                "baseline": b,
                "replayed": n,
                "delta": (n - b) if (b is not None and n is not None) else None,
                "pct": (
                    100.0 * (n - b) / b
                    if (b not in (None, 0.0) and n is not None)
                    else None
                ),
            }
        )
    return rows


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def render_comparison(rows: list[dict], title: str = "counterfactual comparison") -> str:
    if not rows:
        return "(no numeric metrics to compare)"
    return render_table(
        ["metric", "baseline", "replayed", "delta", "delta %"],
        [
            (
                r["metric"],
                _fmt(r["baseline"]),
                _fmt(r["replayed"]),
                _fmt(r["delta"]),
                "-" if r["pct"] is None else f"{r['pct']:+.1f}%",
            )
            for r in rows
        ],
        title=title,
    )

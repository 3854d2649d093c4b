"""Text rendering of critical-path attribution (the Fig. 10 view).

Consumes the ``.critpath.json`` document built by
:func:`repro.obs.critpath.critpath_doc` and renders the per-layer phase
breakdown the paper reports — boot / converge / transfer / queue /
execute seconds — one row per simulation context.
"""

from __future__ import annotations

from .tables import render_table

__all__ = ["render_critpath"]


def render_critpath(doc: dict) -> str:
    """One row per context: its makespan and each layer's seconds.

    Contexts ran side by side, not one after another.  The last row adds
    up the N contexts (the doc's ``critical_path_s`` and ``layers``) and
    is labelled ``sum of N`` so it never reads as one run's makespan —
    the doc's ``makespan_s`` is the longest context's.
    """
    contexts = doc.get("contexts") or []
    totals = doc.get("layers") or {}
    layers = sorted(totals, key=lambda layer: (-totals[layer], layer))
    rows = [(c.get("label") or "sim", c["makespan_s"], c["layers"]) for c in contexts]
    rows.append((f"sum of {len(contexts)}", sum(r[1] for r in rows), totals))
    return render_table(
        ["context", "makespan (s)", *(f"{layer} (s)" for layer in layers)],
        [
            (label, f"{makespan:.2f}", *(f"{seconds.get(k, 0.0):.2f}" for k in layers))
            for label, makespan, seconds in rows
        ],
        title=f"critical path per context ({doc.get('suite') or 'run'}, sim-seconds)",
    )

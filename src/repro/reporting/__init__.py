"""Plain-text reporting used by benchmarks, replay, and examples."""

from .critpath import render_critpath
from .divergence import (
    Divergence,
    comparison_rows,
    first_divergence,
    flatten_numeric,
    render_comparison,
    render_divergence,
)
from .tables import Comparison, render_series, render_table
from .timeline import collect_intervals, render_timeline

__all__ = [
    "Comparison",
    "Divergence",
    "collect_intervals",
    "comparison_rows",
    "first_divergence",
    "flatten_numeric",
    "render_comparison",
    "render_critpath",
    "render_divergence",
    "render_series",
    "render_table",
    "render_timeline",
]

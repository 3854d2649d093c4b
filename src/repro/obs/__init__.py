"""Unified observability: spans, instants, gauge series, and trace exporters.

The reproduction's answer to the paper's "where does deployment time go?"
question (Figs. 10–11): every layer of the stack — kernel, EC2 control
plane, Chef converges, GridFTP/Globus transfers, the Condor pool, and
Galaxy jobs — opens hierarchical :class:`Span` intervals keyed on
*simulated* time, marks point events as instants, and samples named gauge
series, all into one per-context recorder.

Disabled (the default), the whole subsystem is a handful of shared no-op
singletons and simulation output is byte-identical to an uninstrumented
build — CI enforces this.  Enabled, a run exports:

* a Chrome ``trace_event`` JSON loadable in Perfetto / ``about://tracing``;
* a ``(t, value)`` gauge sample log (:mod:`repro.obs.timeseries`);
* the causal critical path (:mod:`repro.obs.critpath`);
* a text summary table (count / total / p50 / p95 per span name).

``gp-bench --run-out`` writes each as a view of a provenance bundle's
``spans`` section (:mod:`repro.provenance.rundir`), schema-checked by
:mod:`repro.obs.validate`.

Enable per context::

    ctx = SimContext(seed=0, obs=True)
    ...
    print(summary_table(ctx.obs))

or for everything built inside a block (how ``gp-bench --run-out`` taps
simulations constructed deep inside benchmark tasks)::

    with capture() as cap:
        run_usecase()
    json.dump(chrome_trace(cap), open("usecase.trace.json", "w"))
"""

from .critpath import critical_path, critpath_doc, layer_of
from .export import (
    annotations,
    as_docs,
    chrome_trace,
    summary_rows,
    summary_table,
)
from .recorder import (
    NULL_RECORDER,
    Capture,
    NullRecorder,
    ObsRecorder,
    Span,
    capture,
    recorder_for_context,
)
from .timeseries import NULL_SERIES, TimeSeries, series_points, timeseries_jsonl
from .tracediff import SpanDivergence, first_span_divergence, render_span_divergence
from .validate import check_chrome_trace, check_critpath, check_obs_docs, check_timeseries

__all__ = [
    "Capture",
    "NULL_RECORDER",
    "NULL_SERIES",
    "NullRecorder",
    "ObsRecorder",
    "Span",
    "SpanDivergence",
    "TimeSeries",
    "annotations",
    "as_docs",
    "capture",
    "check_chrome_trace",
    "check_critpath",
    "check_obs_docs",
    "check_timeseries",
    "chrome_trace",
    "critical_path",
    "critpath_doc",
    "first_span_divergence",
    "layer_of",
    "recorder_for_context",
    "render_span_divergence",
    "series_points",
    "summary_rows",
    "summary_table",
    "timeseries_jsonl",
]

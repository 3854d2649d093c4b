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

* a Chrome ``trace_event`` JSON loadable in Perfetto / ``about://tracing``,
  the gauge series (:mod:`repro.obs.timeseries`) as its counter tracks;
* the causal critical path (:mod:`repro.obs.critpath`);
* a text summary table (count / total / p50 / p95 per span name).

``gp-bench --run-out`` writes two views of a provenance bundle's
``spans`` section per suite group (:mod:`repro.provenance.rundir`): the
trace, with the critical path as one more track, and a report holding
the critical-path and summary tables.  :mod:`repro.obs.validate` checks
the trace's schema.

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
from .timeseries import NULL_SERIES, TimeSeries
from .validate import check_chrome_trace, check_critpath, check_obs_docs

__all__ = [
    "Capture",
    "NULL_RECORDER",
    "NULL_SERIES",
    "NullRecorder",
    "ObsRecorder",
    "Span",
    "TimeSeries",
    "annotations",
    "as_docs",
    "capture",
    "check_chrome_trace",
    "check_critpath",
    "check_obs_docs",
    "chrome_trace",
    "critical_path",
    "critpath_doc",
    "layer_of",
    "recorder_for_context",
    "summary_rows",
    "summary_table",
]

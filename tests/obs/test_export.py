"""Exporters: Chrome trace shape, summary aggregates."""

import json

from repro.obs import ObsRecorder, chrome_trace, summary_rows, summary_table
from repro.obs.validate import check_chrome_trace


def _demo_recorder():
    clock = {"t": 0.0}
    rec = ObsRecorder(label="demo", clock=lambda: clock["t"])
    outer = rec.start("phase", track="main", step=1)
    clock["t"] = 2.0
    inner = rec.start("sub", track="main")
    clock["t"] = 3.0
    rec.finish(inner)
    rec.instant("tick", track="main", n=7)
    clock["t"] = 10.0
    rec.finish(outer)
    return rec


def test_chrome_trace_is_valid_and_microsecond_scaled():
    doc = chrome_trace(_demo_recorder())
    assert check_chrome_trace(doc) == []
    x = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    by_name = {e["name"]: e for e in x}
    assert by_name["phase"]["ts"] == 0.0
    assert by_name["phase"]["dur"] == 10.0 * 1e6
    assert by_name["sub"]["ts"] == 2.0 * 1e6
    # same track -> same (pid, tid)
    assert by_name["sub"]["tid"] == by_name["phase"]["tid"]
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert instants and instants[0]["args"] == {"n": 7}
    # metadata names the process and each track
    meta = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "M"}
    assert meta["process_name"]["args"]["name"] == "demo"
    assert meta["thread_name"]["args"]["name"] == "main"


def test_chrome_trace_json_serializable_and_deterministic():
    a = json.dumps(chrome_trace(_demo_recorder()), sort_keys=True)
    b = json.dumps(chrome_trace(_demo_recorder()), sort_keys=True)
    assert a == b


def test_multiple_docs_get_distinct_pids():
    doc = chrome_trace([_demo_recorder(), _demo_recorder()])
    assert check_chrome_trace(doc) == []
    pids = {e["pid"] for e in doc["traceEvents"]}
    assert pids == {1, 2}


def test_open_span_exports_zero_width():
    rec = ObsRecorder(label="open")
    rec.start("never-finished", track="a")
    doc = chrome_trace(rec)
    assert check_chrome_trace(doc) == []
    x = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert x[0]["dur"] == 0.0


def test_summary_rows_aggregate_per_name():
    rows = summary_rows(_demo_recorder())
    by_name = {r["name"]: r for r in rows}
    assert by_name["phase"]["count"] == 1
    assert by_name["phase"]["total_s"] == 10.0
    assert by_name["sub"]["p50_s"] == 1.0
    # sorted by total desc
    assert rows[0]["name"] == "phase"


def test_summary_counts_errors():
    rec = ObsRecorder(label="e")
    rec.finish(rec.start("w", track="a"), status="error", error="x")
    rec.finish(rec.start("w", track="a"))
    row = summary_rows(rec)[0]
    assert row["count"] == 2
    assert row["errors"] == 1


def test_summary_table_renders_and_handles_empty():
    assert "phase" in summary_table(_demo_recorder())
    assert "no spans" in summary_table(ObsRecorder(label="empty"))

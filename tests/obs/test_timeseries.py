"""Sim-time gauge series: recording, export, and the obs-off contract."""

from repro.obs import NULL_RECORDER, ObsRecorder, chrome_trace
from repro.obs.timeseries import NULL_SERIES


def _recorder():
    clock = [0.0]
    rec = ObsRecorder(label="run", clock=lambda: clock[0])
    rec.series("condor.idle_jobs").record(3)
    clock[0] = 10.0
    rec.series("condor.idle_jobs").record(1)
    rec.series("waas.in_flight").record(2.5)
    return rec


def test_series_records_sim_time_points_in_order():
    rec = _recorder()
    series = rec.series("condor.idle_jobs")
    assert series.to_list() == [[0.0, 3.0], [10.0, 1.0]]
    assert series.last == 1.0
    assert len(series) == 2


def test_series_registry_returns_same_instance_per_name():
    rec = ObsRecorder(label="run")
    assert rec.series("a") is rec.series("a")
    assert rec.series("a") is not rec.series("b")


def test_null_recorder_series_is_shared_noop():
    series = NULL_RECORDER.series("anything")
    assert series is NULL_SERIES
    series.record(42.0)
    assert len(series) == 0
    assert series.last is None
    assert series.to_list() == []


def test_doc_form_carries_series_sorted_by_name():
    doc = _recorder().to_dict()
    assert list(doc["series"]) == ["condor.idle_jobs", "waas.in_flight"]
    assert doc["series"]["waas.in_flight"] == [[10.0, 2.5]]


def test_series_points_flatten_deterministically():
    """Each point is one counter event on its context's thread 0: at one
    time series go in name order, and each keeps its recording order."""
    counters = [e for e in chrome_trace(_recorder())["traceEvents"] if e["ph"] == "C"]
    assert counters == [
        {"name": "condor.idle_jobs", "ph": "C", "pid": 1, "tid": 0, "ts": 0.0,
         "args": {"value": 3.0}},
        {"name": "condor.idle_jobs", "ph": "C", "pid": 1, "tid": 0, "ts": 10e6,
         "args": {"value": 1.0}},
        {"name": "waas.in_flight", "ph": "C", "pid": 1, "tid": 0, "ts": 10e6,
         "args": {"value": 2.5}},
    ]

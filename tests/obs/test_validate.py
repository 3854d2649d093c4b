"""Schema checks for exported traces, critpath docs and gauge series,
and ``gp-replay DIR``, the one validator that applies them to a run
directory's views."""

import json
import shutil

import pytest

from repro.bench.harness import run_suite
from repro.obs import ObsRecorder, chrome_trace
from repro.obs.validate import check_chrome_trace
from repro.provenance import build_bundle, write_run_dir
from repro.provenance.cli import main

from ..provenance.conftest import tiny_suite


@pytest.fixture(scope="module")
def fresh_run_dir(tmp_path_factory):
    """What ``gp-bench --run-out`` writes for one tiny scale run."""
    out = tmp_path_factory.mktemp("fresh") / "run-out"
    write_run_dir(build_bundle(run_suite(tiny_suite(), obs=True)), out)
    return out


@pytest.fixture()
def run_dir(fresh_run_dir, tmp_path):
    """A private copy of the fresh run directory, free to damage."""
    return shutil.copytree(fresh_run_dir, tmp_path / "run-out")


def _check(run_dir, capsys):
    """``gp-replay DIR --check-only``: (exit code, stdout, error doc)."""
    code = main([str(run_dir), "--check-only"])
    captured = capsys.readouterr()
    error = json.loads(captured.err)["error"] if code else None
    return code, captured.out, error


def _valid_doc():
    rec = ObsRecorder(label="v")
    rec.finish(rec.start("w", track="a"))
    return chrome_trace(rec)


def test_valid_doc_passes():
    assert check_chrome_trace(_valid_doc()) == []


def test_rejects_non_object_and_missing_events():
    assert check_chrome_trace([]) != []
    assert check_chrome_trace({}) != []
    assert check_chrome_trace({"traceEvents": {}}) != []


def test_rejects_unknown_phase_and_bad_fields():
    doc = _valid_doc()
    doc["traceEvents"][-1]["ph"] = "Q"
    assert any("ph" in e for e in check_chrome_trace(doc))

    doc = _valid_doc()
    doc["traceEvents"][-1]["ts"] = -1.0
    assert check_chrome_trace(doc) != []

    doc = _valid_doc()
    doc["traceEvents"][-1]["dur"] = float("nan")
    assert check_chrome_trace(doc) != []

    doc = _valid_doc()
    doc["traceEvents"][-1]["pid"] = True  # bool is not an acceptable id
    assert check_chrome_trace(doc) != []


def test_requires_at_least_one_complete_event():
    doc = _valid_doc()
    doc["traceEvents"] = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert any("X" in e for e in check_chrome_trace(doc))


def test_detects_non_monotone_timestamps_per_track():
    rec = ObsRecorder(label="v")
    rec.finish(rec.start("w", track="a"))
    doc = chrome_trace(rec)
    doc["traceEvents"].append(
        dict(doc["traceEvents"][-1], ts=doc["traceEvents"][-1]["ts"] + 5.0)
    )
    doc["traceEvents"].append(dict(doc["traceEvents"][-1], ts=0.0))
    # hand-built out-of-order event on the same (pid, tid)
    errors = check_chrome_trace(doc)
    assert any("went backwards" in e for e in errors)


def test_cli_main_ok_and_failure(run_dir, capsys):
    code, out, _ = _check(run_dir, capsys)
    assert code == 0
    assert "bundle ok" in out

    # well-formed JSON that is not the view the bundle derives
    (run_dir / "scale.trace.json").write_text(json.dumps({"traceEvents": []}))
    code, _, error = _check(run_dir, capsys)
    assert code == 3
    assert error["code"] == "run.view-mismatch"
    assert error["detail"]["file"] == "scale.trace.json"

    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cli_main_empty_file_fails(run_dir, capsys):
    """A zero-byte (or whitespace-only) view means the exporter never
    wrote — that must be a named failure, never a pass."""
    for content in ("", "  \n\t\n"):
        (run_dir / "scale.trace.json").write_text(content)
        code, _, error = _check(run_dir, capsys)
        assert code == 3
        assert error["code"] == "run.view-empty"
        assert "empty view file" in error["message"]
        assert "scale.trace.json" in error["message"]


def test_cli_main_truncated_file_fails(run_dir, capsys):
    """A view cut off mid-write is not the view its bundle derives."""
    trace = run_dir / "scale.trace.json"
    full = trace.read_text()
    trace.write_text(full[: len(full) // 2])
    code, _, error = _check(run_dir, capsys)
    assert code == 3
    assert error["code"] == "run.view-mismatch"
    assert "scale.trace.json" in error["message"]


def test_cli_main_empty_file_fails_even_alongside_good_files(run_dir, capsys):
    (run_dir / "scale.summary.txt").write_text("")
    code, _, error = _check(run_dir, capsys)
    assert code == 3
    assert error["code"] == "run.view-empty"
    assert error["detail"] == {"file": "scale.summary.txt"}


# -- .critpath.json ---------------------------------------------------------


def _valid_critpath():
    from repro.obs import critpath_doc

    rec = ObsRecorder(label="cp")
    clock = [0.0]
    rec._clock = lambda: clock[0]
    boot = rec.start("ec2.boot", track="ec2/i-1")
    clock[0] = 60.0
    rec.finish(boot)
    run = rec.start("condor.run", track="condor/job-1", cause=boot.id)
    clock[0] = 100.0
    rec.finish(run)
    return json.loads(json.dumps(critpath_doc(rec, suite="cp")))


def test_valid_critpath_doc_passes():
    from repro.obs.validate import check_critpath

    assert check_critpath(_valid_critpath()) == []


def test_critpath_rejects_bad_version_and_missing_sections():
    from repro.obs.validate import check_critpath

    assert check_critpath([]) != []
    doc = _valid_critpath()
    doc["version"] = 2
    assert any("version" in e for e in check_critpath(doc))
    doc = _valid_critpath()
    del doc["contexts"]
    assert any("contexts" in e for e in check_critpath(doc))


def test_critpath_rejects_gap_sum_and_layer_drift():
    from repro.obs.validate import check_critpath

    doc = _valid_critpath()
    doc["contexts"][0]["segments"][1]["start"] += 5.0
    assert any("gap in coverage" in e for e in check_critpath(doc))

    doc = _valid_critpath()
    doc["contexts"][0]["makespan_s"] += 3.0
    assert any("makespan_s" in e for e in check_critpath(doc))

    doc = _valid_critpath()
    doc["contexts"][0]["layers"]["boot"] += 2.0
    assert any("layers['boot']" in e for e in check_critpath(doc))

    doc = _valid_critpath()
    seg = doc["contexts"][0]["segments"][0]
    seg["duration_s"] = seg["duration_s"] + 1.0
    assert any("duration_s" in e for e in check_critpath(doc))


def test_cli_validates_critpath_files(run_dir, capsys):
    critpath = run_dir / "scale.critpath.json"
    from repro.obs.validate import check_critpath

    assert check_critpath(json.loads(critpath.read_text())) == []
    full = critpath.read_text()

    critpath.write_text("")
    code, _, error = _check(run_dir, capsys)
    assert (code, error["code"]) == (3, "run.view-empty")

    critpath.write_text(full[:40])
    code, _, error = _check(run_dir, capsys)
    assert (code, error["code"]) == (3, "run.view-mismatch")
    assert "scale.critpath.json" in error["message"]


# -- .timeseries.jsonl ------------------------------------------------------


def _valid_timeseries_text():
    from repro.obs import timeseries_jsonl

    rec = ObsRecorder(label="ts")
    clock = [0.0]
    rec._clock = lambda: clock[0]
    rec.series("condor.idle_jobs").record(3)
    clock[0] = 5.0
    rec.series("condor.idle_jobs").record(1)
    return timeseries_jsonl(rec)


def test_valid_timeseries_passes(run_dir, capsys):
    from repro.obs.validate import check_timeseries

    lines = [
        (i + 1, json.loads(line))
        for i, line in enumerate(_valid_timeseries_text().splitlines())
    ]
    assert check_timeseries(lines) == []
    assert (run_dir / "scale.timeseries.jsonl").read_text().strip()
    assert _check(run_dir, capsys)[0] == 0


def test_timeseries_rejects_bad_fields_and_backwards_time():
    from repro.obs.validate import check_timeseries

    assert check_timeseries([(1, [])]) != []
    assert check_timeseries(
        [(1, {"context": "", "series": "s", "t": 0.0, "value": 1.0})]
    ) != []
    assert check_timeseries(
        [(1, {"context": "c", "series": "s", "t": -1.0, "value": 1.0})]
    ) != []
    assert check_timeseries(
        [(1, {"context": "c", "series": "s", "t": 0.0, "value": float("nan")})]
    ) != []
    errors = check_timeseries(
        [
            (1, {"context": "c", "series": "s", "t": 5.0, "value": 1.0}),
            (2, {"context": "c", "series": "s", "t": 2.0, "value": 1.0}),
        ]
    )
    assert any("went backwards" in e for e in errors)
    # different series may interleave times freely
    assert check_timeseries(
        [
            (1, {"context": "c", "series": "a", "t": 5.0, "value": 1.0}),
            (2, {"context": "c", "series": "b", "t": 2.0, "value": 1.0}),
        ]
    ) == []


def test_cli_timeseries_empty_vs_truncated_are_distinct(run_dir, capsys):
    series = run_dir / "scale.timeseries.jsonl"
    full = series.read_text()

    series.write_text("")
    code, _, err_empty = _check(run_dir, capsys)
    assert (code, err_empty["code"]) == (3, "run.view-empty")

    series.write_text(full[:-20])
    code, _, err_cut = _check(run_dir, capsys)
    assert (code, err_cut["code"]) == (3, "run.view-mismatch")
    assert err_cut["detail"] == err_empty["detail"] == {"file": "scale.timeseries.jsonl"}

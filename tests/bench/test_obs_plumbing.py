"""--run-out plumbing: capture in workers, doc forwarding, run directories.

The invariants: obs docs ride back from worker processes intact, they
never leak into result/sim JSON (the determinism baselines), and the CLI
writes one bundle plus one schema-valid view set per constituent suite.
"""

import json
import pathlib

import pytest

from repro.bench import cli, suites
from repro.bench.harness import BenchSpec, BenchSuite, run_spec, run_suite
from repro.obs.validate import check_chrome_trace
from repro.provenance import build_bundle, read_run_dir, write_run_dir

SMOKE = BenchSuite(
    "plumbing-smoke",
    "usecase smoke under observation",
    (BenchSpec(name="usecase/expansion", task="usecase.expansion"),),
)


def test_run_spec_obs_collects_relabelled_docs():
    result = run_spec(SMOKE.specs[0], obs=True)
    assert result.ok
    assert result.obs, "expected at least one obs doc"
    for doc in result.obs:
        assert doc["label"].startswith("usecase/expansion:sim-")
        assert doc["spans"]
    # obs off -> no docs
    assert run_spec(SMOKE.specs[0]).obs is None


def test_obs_docs_identical_sequential_vs_pooled():
    seq = run_suite(SMOKE, workers=1, obs=True)
    pooled = run_suite(SMOKE, workers=2, obs=True)
    assert seq.obs_docs() == pooled.obs_docs()
    assert seq.obs_docs(), "expected docs from the pooled run"


def test_obs_absent_from_result_and_sim_json():
    with_obs = run_suite(SMOKE, workers=1, obs=True)
    without = run_suite(SMOKE, workers=1, obs=False)
    assert "obs" not in json.dumps(with_obs.to_dict())
    assert with_obs.sim_json() == without.sim_json()


def test_failed_task_carries_no_docs():
    suite = BenchSuite(
        "boom", "scripted failure", (BenchSpec(name="x/boom", task="selftest.boom"),)
    )
    result = run_suite(suite, workers=1, obs=True)
    assert result.tasks[0].status == "failed"
    assert result.tasks[0].obs is None


def test_write_run_dir_one_view_set_per_suite(tmp_path):
    suite = suites.combined(["usecase", "fig11"], smoke=True)
    result = run_suite(suite, workers=1, obs=True)
    written = write_run_dir(build_bundle(result), tmp_path)
    assert written[0].name == "usecase+fig11-smoke.bundle.json"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in written
    ) == [
        "fig11.report.md",
        "fig11.trace.json",
        "usecase+fig11-smoke.bundle.json",
        "usecase.report.md",
        "usecase.trace.json",
    ]
    for trace in tmp_path.glob("*.trace.json"):
        assert check_chrome_trace(json.loads(trace.read_text())) == []
    report = (tmp_path / "usecase.report.md").read_text()
    assert report.startswith("# usecase\n\n```\ncritical path per context (usecase")
    assert "span summary" in report
    # gauge samples rode along as counter events
    events = json.loads((tmp_path / "usecase.trace.json").read_text())["traceEvents"]
    assert any(e["ph"] == "C" for e in events)
    assert read_run_dir(tmp_path).spans == result.obs_docs()


def test_cli_run_out_flag_end_to_end(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["usecase", "--smoke", "--run-out", str(out), "-q"])
    assert code == 0
    assert check_chrome_trace(json.loads((out / "usecase.trace.json").read_text())) == []
    assert not list(out.glob("*.spans.jsonl")), "spans live in the bundle only"
    assert read_run_dir(out).spans
    assert "usecase-smoke.bundle.json (digest " in capsys.readouterr().out


def test_cli_run_out_pricing_only_writes_the_bundle_alone(tmp_path, capsys):
    """The closed-form pricing sweep builds no simulation: the directory
    holds the bundle and no views, and still verifies."""
    out = tmp_path / "run"
    assert cli.main(["pricing_sweep", "--smoke", "--run-out", str(out), "-q"]) == 0
    assert "no task recorded spans" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["pricing_sweep-smoke.bundle.json"]
    assert read_run_dir(out).spans == []


def test_cli_run_out_refuses_a_used_path(tmp_path, capsys):
    """A stale view from an earlier run would fail the directory check,
    so --run-out takes only a new or empty directory, before running."""
    used = tmp_path / "used"
    used.mkdir()
    (used / "old.trace.json").write_text("{}")
    a_file = tmp_path / "file"
    a_file.write_text("")
    for target in (used, a_file):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fig11", "--smoke", "--run-out", str(target), "-q"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "new or empty directory" in captured.err
        assert "running suite" not in captured.out
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["fig11", "--smoke", "--run-out", str(empty), "-q"]) == 0


def test_cli_run_out_that_cannot_be_created_exits_two_before_running(tmp_path, capsys):
    """A path below a regular file, or a name too long for the file
    system, can never become the run directory: the CLI says so before
    any task runs, not after the whole suite."""
    a_file = tmp_path / "file"
    a_file.write_text("")
    for target in (a_file / "run", tmp_path / ("x" * 300)):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fig11", "--smoke", "--run-out", str(target), "-q"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"--run-out {target} cannot be created" in captured.err
        assert "running suite" not in captured.out and "| spec" not in captured.out


def test_committed_smoke_baseline_regenerates_byte_identically():
    """The obs-off determinism pin: rebuilding the smoke sweep's sim JSON
    reproduces benchmarks/results/bench_smoke_sim.json exactly."""
    committed = (
        pathlib.Path(__file__).parent.parent.parent
        / "benchmarks"
        / "results"
        / "bench_smoke_sim.json"
    ).read_text()
    result = run_suite(suites.combined(None, smoke=True), workers=1)
    assert result.sim_json() + "\n" == committed

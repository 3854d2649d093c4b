"""Schema sanity for the CI pipeline: valid YAML, pinned actions, the
jobs the repo's workflow contract requires."""

import pathlib
import re

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = (
    pathlib.Path(__file__).parent.parent / ".github" / "workflows" / "ci.yml"
)


@pytest.fixture(scope="module")
def workflow():
    doc = yaml.safe_load(WORKFLOW.read_text())
    assert isinstance(doc, dict)
    return doc


def _steps(workflow, job):
    return workflow["jobs"][job]["steps"]


def test_workflow_parses_and_has_triggers(workflow):
    # YAML 1.1 parses the bare `on:` key as boolean True
    triggers = workflow.get("on", workflow.get(True))
    assert "pull_request" in triggers
    assert triggers["push"]["branches"] == ["main"]


def test_required_jobs_exist(workflow):
    assert {"lint", "tests", "bench-smoke"} <= set(workflow["jobs"])


def test_workflow_cancels_superseded_runs(workflow):
    """A top-level concurrency group cancels stale runs of the same ref."""
    conc = workflow.get("concurrency")
    assert isinstance(conc, dict), "workflow needs a top-level concurrency group"
    assert conc.get("cancel-in-progress") is True
    group = conc.get("group", "")
    assert "github.ref" in group, "the group must be keyed on the ref"


def test_every_setup_python_step_caches_pip(workflow):
    """All setup-python steps (lint included) restore the pip cache."""
    setups = [
        step
        for job in workflow["jobs"].values()
        for step in job["steps"]
        if "setup-python" in step.get("uses", "")
    ]
    assert setups, "expected setup-python steps"
    for step in setups:
        assert step.get("with", {}).get("cache") == "pip", (
            f"setup-python step missing 'cache: pip': {step}"
        )


def test_all_actions_are_version_pinned(workflow):
    uses = [
        step["uses"]
        for job in workflow["jobs"].values()
        for step in job["steps"]
        if "uses" in step
    ]
    assert uses, "expected at least one action reference"
    for ref in uses:
        assert re.search(r"@v\d+", ref), f"unpinned action: {ref}"


def test_test_jobs_run_on_310_and_312(workflow):
    for job in ("tests", "bench-smoke"):
        versions = workflow["jobs"][job]["strategy"]["matrix"]["python-version"]
        assert versions == ["3.10", "3.12"]


def test_tests_job_runs_tier1(workflow):
    commands = [s.get("run", "") for s in _steps(workflow, "tests")]
    assert any("python -m pytest -x -q" in c for c in commands)


def test_bench_job_runs_smoke_harness_and_determinism(workflow):
    commands = [s.get("run", "") for s in _steps(workflow, "bench-smoke")]
    smoke = [c for c in commands if "python -m repro.bench" in c and "--smoke" in c]
    assert smoke, "bench-smoke must run the harness in --smoke mode"
    assert any("--workers" in c for c in smoke)
    assert any("test_determinism" in c for c in commands)


def test_bench_job_passes_no_kernel_knobs(workflow):
    """The kernel has one event queue and one dispatch path; no step may
    still ask gp-bench for another (argparse would reject the flag)."""
    commands = [s.get("run", "") for s in _steps(workflow, "bench-smoke")]
    stale = [c for c in commands if "--scheduler" in c or "--dispatch" in c]
    assert not stale, f"bench-smoke passes removed kernel flags: {stale}"


def test_bench_job_schema_checks_trajectory_record(workflow):
    """A --trajectory run is appended and its record schema-checked."""
    commands = [s.get("run", "") for s in _steps(workflow, "bench-smoke")]
    traj = [c for c in commands if "--trajectory" in c]
    assert traj, "bench-smoke must exercise --trajectory"
    assert any("TrajectoryRecord.from_dict" in c for c in traj), (
        "the appended trajectory record must be schema-checked"
    )


def test_bench_job_runs_pricing_sweep_smoke(workflow):
    """The vectorized pricing sweep (equivalence + anchor checks) is in CI."""
    commands = [s.get("run", "") for s in _steps(workflow, "bench-smoke")]
    pricing = [c for c in commands if "pricing_sweep" in c]
    assert pricing, "bench-smoke must run the pricing_sweep suite"
    assert any("--smoke" in c for c in pricing)


def test_bench_job_runs_waas_policy_smoke(workflow):
    """The WaaS suite races its policies in CI and byte-compares the
    parallel and sequential merges."""
    commands = [s.get("run", "") for s in _steps(workflow, "bench-smoke")]
    waas = [c for c in commands if "repro.bench waas" in c]
    assert waas, "bench-smoke must run the waas suite"
    assert any("--smoke" in c for c in waas)
    assert any("--workers 4" in c and "--workers 1" in c and "cmp" in c for c in waas), (
        "the waas sim JSON must be byte-compared across worker counts"
    )


def test_bench_job_runs_storage_ablation_smoke(workflow):
    """The storage-backend ablation runs every backend in CI, byte-compares
    the parallel and sequential merges, and gp-replays the bundle of a
    suite whose tasks deploy non-NFS backends."""
    commands = [s.get("run", "") for s in _steps(workflow, "bench-smoke")]
    storage = [c for c in commands if "repro.bench storage_ablation" in c]
    assert storage, "bench-smoke must run the storage_ablation suite"
    assert any("--smoke" in c for c in storage)
    assert any(
        "--workers 4" in c and "--workers 1" in c and "cmp" in c for c in storage
    ), "the storage sim JSON must be byte-compared across worker counts"
    assert any(
        "repro.provenance.cli" in c
        and "storage_ablation-smoke.bundle.json" in c
        for c in storage
    ), "the storage ablation bundle must round-trip through gp-replay"


def test_bench_job_checks_every_perfbench_workload(workflow):
    """Each host-cost benchmark workload makes a short pass in CI, and the
    step fails unless the run's last line reports it correct with no
    failed scenario run."""
    commands = [s.get("run", "") for s in _steps(workflow, "bench-smoke")]
    perf = [c for c in commands if "perfbench/run.py" in c]
    assert len(perf) == 1, "bench-smoke must run perfbench in one step"
    step = perf[0]
    assert "for workload in paper_obs storage waas" in step
    assert '--workload "$workload"' in step
    for flag in ("--seed 1", "--seconds 0.1", "--trace 0"):
        assert flag in step
    assert "tail -n 1" in step, "the verdict is the last line of stdout"
    assert "doc['correct'] is True" in step and "doc['failed'] == 0" in step


def test_bench_job_compares_sim_json_against_committed_baseline(workflow):
    """Obs-off sim output is pinned byte-for-byte to the repo snapshot."""
    commands = [s.get("run", "") for s in _steps(workflow, "bench-smoke")]
    assert any(
        "cmp" in c and "benchmarks/results/bench_smoke_sim.json" in c
        for c in commands
    ), "bench-smoke must byte-compare against the committed sim baseline"


def test_bench_job_runs_obs_smoke(workflow):
    """An instrumented sweep runs, leaves sim JSON unchanged, and every
    exported Chrome trace passes the schema check."""
    commands = [s.get("run", "") for s in _steps(workflow, "bench-smoke")]
    obs = [c for c in commands if "--obs-out" in c]
    assert obs, "bench-smoke must run an --obs-out sweep"
    assert any("cmp" in c and "obs" in c for c in obs), (
        "the obs-on sim JSON must be byte-compared against the obs-off one"
    )
    assert any("repro.obs.validate" in c and "trace.json" in c for c in commands), (
        "exported traces must be schema-checked"
    )


def test_obs_baseline_is_committed_and_current(workflow):
    """The committed baseline exists and matches what the code produces."""
    baseline = (
        pathlib.Path(__file__).parent.parent
        / "benchmarks"
        / "results"
        / "bench_smoke_sim.json"
    )
    assert baseline.exists(), "commit benchmarks/results/bench_smoke_sim.json"
    import json

    doc = json.loads(baseline.read_text())
    assert doc["suite"] == "smoke"
    assert all(t["status"] == "ok" for t in doc["tasks"])


def test_bench_job_bundles_and_replays_smoke(workflow):
    """The smoke suite is bundled, replayed with gp-replay, and its
    bundled sim section byte-compared against the committed baseline."""
    commands = [s.get("run", "") for s in _steps(workflow, "bench-smoke")]
    bundled = [c for c in commands if "--bundle-out" in c]
    assert bundled, "bench-smoke must export a provenance bundle"
    assert any("repro.provenance.cli" in c for c in bundled), (
        "the exported bundle must be replayed/verified with gp-replay"
    )
    assert any(
        "--export-sim" in c and "benchmarks/results/bench_smoke_sim.json" in c
        for c in bundled
    ), "the bundled sim must be byte-compared against the committed baseline"


def test_bench_job_replays_scale_bundle(workflow):
    """A scale smoke bundle is written and replayed byte-identically."""
    commands = [s.get("run", "") for s in _steps(workflow, "bench-smoke")]
    scale = [
        c
        for c in commands
        if "scale --smoke" in c and "--bundle-out" in c and "repro.provenance.cli" in c
    ]
    assert scale, "bench-smoke must bundle the scale smoke suite and replay it"


def test_bench_job_rejects_corrupted_bundle(workflow):
    """The negative gate: a deliberately corrupted bundle must fail with
    the structured BundleError JSON, never verify."""
    commands = [s.get("run", "") for s in _steps(workflow, "bench-smoke")]
    corrupt = [c for c in commands if "corrupted.bundle.json" in c]
    assert corrupt, "bench-smoke must exercise a corrupted bundle"
    step = corrupt[0]
    assert "unexpectedly verified" in step and "exit 1" in step, (
        "a verifying corrupted bundle must fail the job"
    )
    assert "bundle.section-digest" in step, (
        "the structured error code must be asserted"
    )


def test_bench_job_uploads_suite_artifact(workflow):
    uploads = [
        s for s in _steps(workflow, "bench-smoke")
        if "upload-artifact" in s.get("uses", "")
    ]
    assert uploads
    assert "bench-smoke-suite.json" in uploads[0]["with"]["path"]


def test_lint_job_runs_ruff(workflow):
    commands = [s.get("run", "") for s in _steps(workflow, "lint")]
    assert any("ruff check" in c for c in commands)


def test_bench_job_runs_critpath_and_validates_all_obs_artefacts(workflow):
    """A --critpath-out sweep runs, leaves sim JSON unchanged, and the
    validator covers critpath docs and gauge series alongside traces."""
    commands = [s.get("run", "") for s in _steps(workflow, "bench-smoke")]
    critpath = [c for c in commands if "--critpath-out" in c]
    assert critpath, "bench-smoke must run a --critpath-out sweep"
    assert any("cmp" in c and "critpath" in c for c in critpath), (
        "the critpath-on sim JSON must be byte-compared against the obs-off one"
    )
    validate = [c for c in commands if "repro.obs.validate" in c]
    assert any(".critpath.json" in c for c in validate), (
        "exported critpath docs must be schema-checked"
    )
    assert any(".timeseries.jsonl" in c for c in validate), (
        "exported gauge series must be schema-checked"
    )


def test_bench_job_gates_trajectory_against_committed_baseline(workflow):
    """The trajectory --check gate runs against the committed baseline."""
    commands = [s.get("run", "") for s in _steps(workflow, "bench-smoke")]
    gate = [c for c in commands if "repro.bench.trajectory" in c and "--check" in c]
    assert gate, "bench-smoke must run the trajectory --check gate"
    step = gate[0]
    assert "--critpath" in step, "the gate must pin critical-path layers"
    assert "benchmarks/results/trajectory_baseline.json" in step, (
        "the gate must use the committed baseline"
    )


def test_trajectory_baseline_is_committed():
    baseline = (
        pathlib.Path(__file__).parent.parent
        / "benchmarks"
        / "results"
        / "trajectory_baseline.json"
    )
    assert baseline.exists(), "commit benchmarks/results/trajectory_baseline.json"
    import json

    doc = json.loads(baseline.read_text())
    assert doc["critpath"]["layers"], "baseline must pin critical-path layers"


def test_bench_job_rejects_tampered_span_log(workflow):
    """The trace-diff negative gate: a bundle whose span log was perturbed
    must fail replay and the failure must name the diverging span."""
    commands = [s.get("run", "") for s in _steps(workflow, "bench-smoke")]
    tampered = [c for c in commands if "perturbed.bundle.json" in c]
    assert tampered, "bench-smoke must exercise a span-tampered bundle"
    step = tampered[0]
    assert "unexpectedly verified" in step and "exit 1" in step, (
        "a verifying tampered bundle must fail the job"
    )
    assert "first diverging span" in step, (
        "the replay output must name the first diverging span"
    )
    assert "condor.wait" in step, (
        "the asserted divergence must carry the span name"
    )

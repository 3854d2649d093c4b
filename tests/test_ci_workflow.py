"""Schema sanity for the CI pipeline: valid YAML, pinned actions, the
jobs the repo's workflow contract requires."""

import os
import pathlib
import re
import subprocess

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


def test_determinism_pins_step_runs_the_crdata_output_digests(workflow):
    """The CRData tool-output pins run beside the sim pins, so an engine
    change that moves one output byte fails the bench job too."""
    step = next(
        s for s in _steps(workflow, "bench-smoke") if s.get("name") == "Determinism pins"
    )
    assert "tests/bench/test_determinism.py" in step["run"]
    assert "tests/crdata/test_output_digests.py" in step["run"]


def test_bench_job_passes_no_kernel_knobs(workflow):
    """The kernel has one event queue and one dispatch path; no step may
    still ask gp-bench for another (argparse would reject the flag)."""
    commands = [s.get("run", "") for s in _steps(workflow, "bench-smoke")]
    stale = [c for c in commands if "--scheduler" in c or "--dispatch" in c]
    assert not stale, f"bench-smoke passes removed kernel flags: {stale}"


def test_no_step_writes_the_deleted_trajectory_record(workflow):
    """perfbench is the one host-cost record; no step may still ask for
    the wall-clock trajectory (its module and gp-bench flag are gone)."""
    commands = [
        step.get("run", "")
        for job in workflow["jobs"].values()
        for step in job["steps"]
    ]
    stale = [
        c for c in commands if "--trajectory" in c or "repro.bench.trajectory" in c
    ]
    assert not stale, f"CI still runs the deleted trajectory record: {stale}"


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
        "--run-out run-out-storage" in c
        and "repro.provenance.cli run-out-storage" in c
        for c in storage
    ), "the storage ablation run directory must round-trip through gp-replay"


#: the lowest events/probe each perfbench workload may report in CI,
#: ~6.7x below the medians measured on a 2-vCPU VM; never lower these
PERFBENCH_FLOORS = {"paper_obs": 52.0, "storage": 69.0, "waas": 192.0}


def test_bench_job_checks_every_perfbench_workload(workflow):
    """Each host-cost benchmark workload makes a short pass in CI, and the
    step fails unless the run's last line reports it correct with no
    failed scenario run and drained at least its events/probe floor."""
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
    assert "doc['metrics']['events_per_probe']['value'] >= floor" in step
    for workload, floor in PERFBENCH_FLOORS.items():
        found = re.search(rf"'{workload}': ([0-9.]+)", step)
        assert found, f"no events/probe floor for {workload}"
        assert float(found.group(1)) >= floor, (
            f"{workload} floor {found.group(1)} is looser than {floor}"
        )


def test_bench_job_compares_sim_json_against_committed_baseline(workflow):
    """Obs-off sim output is pinned byte-for-byte to the repo snapshot."""
    commands = [s.get("run", "") for s in _steps(workflow, "bench-smoke")]
    assert any(
        "cmp" in c and "benchmarks/results/bench_smoke_sim.json" in c
        for c in commands
    ), "bench-smoke must byte-compare against the committed sim baseline"


def _instrumented_smoke_steps(workflow):
    """Steps that run the whole smoke suite with span capture on."""
    return [
        s.get("run", "")
        for s in _steps(workflow, "bench-smoke")
        if "python -m repro.bench --smoke" in s.get("run", "")
        and "--run-out" in s.get("run", "")
    ]


def test_bench_job_runs_obs_smoke(workflow):
    """One instrumented sweep runs, once, and leaves sim JSON unchanged."""
    obs = _instrumented_smoke_steps(workflow)
    assert len(obs) == 1, "bench-smoke must run the instrumented smoke suite once"
    assert "--run-out run-out" in obs[0]
    assert "cmp bench-smoke-sim.json bench-smoke-sim-obs.json" in obs[0], (
        "the obs-on sim JSON must be byte-compared against the obs-off one"
    )


def test_obs_smoke_refuses_files_that_are_neither_bundle_nor_view(workflow, tmp_path):
    """The instrumented step fails when ``run-out`` holds any file but the
    bundle, the traces and the reports, such as a view format this
    repository no longer writes."""
    (step,) = _instrumented_smoke_steps(workflow)
    lines = step.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("stray="))
    check = "\n".join(lines[start : lines.index("fi", start) + 1])
    run_out = tmp_path / "run-out"
    run_out.mkdir()
    for name in ("smoke.bundle.json", "fig10.trace.json", "fig10.report.md"):
        (run_out / name).write_text("{}")
    bash = ["bash", "-e", "-c", check]
    assert subprocess.run(bash, cwd=tmp_path, capture_output=True).returncode == 0
    (run_out / "fig10.timeseries.jsonl").write_text("{}")
    failed = subprocess.run(bash, cwd=tmp_path, capture_output=True, text=True)
    assert failed.returncode == 1
    assert "fig10.timeseries.jsonl" in failed.stdout


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
    """The smoke run directory is replayed with gp-replay, and its bundled
    sim section byte-compared against the committed baseline."""
    (step,) = _instrumented_smoke_steps(workflow)
    assert "repro.provenance.cli run-out" in step, (
        "the run directory must be replayed/verified with gp-replay"
    )
    assert "--export-sim bundle-sim.json" in step
    assert "cmp bundle-sim.json benchmarks/results/bench_smoke_sim.json" in step, (
        "the bundled sim must be byte-compared against the committed baseline"
    )


def test_bench_job_replays_scale_bundle(workflow):
    """A scale smoke run directory is written and replayed byte-identically."""
    commands = [s.get("run", "") for s in _steps(workflow, "bench-smoke")]
    scale = [
        c
        for c in commands
        if "scale --smoke" in c
        and "--run-out run-out-scale" in c
        and "repro.provenance.cli run-out-scale" in c
    ]
    assert scale, "bench-smoke must write the scale smoke run directory and replay it"


def test_bench_job_rejects_corrupted_bundle(workflow):
    """The negative gate: a deliberately corrupted bundle must fail with
    the structured BundleError JSON, never verify."""
    commands = [s.get("run", "") for s in _steps(workflow, "bench-smoke")]
    corrupt = [c for c in commands if "corrupted.bundle.json" in c]
    assert corrupt, "bench-smoke must exercise a corrupted bundle"
    step = corrupt[0]
    assert "run-out/smoke.bundle.json" in step, "corrupt the run directory's bundle"
    assert "|| code=$?" in step and '[ "$code" -ne 3 ]' in step and "exit 1" in step, (
        "gp-replay must exit exactly 3 (untrusted bundle), not just nonzero"
    )
    assert "bundle.section-digest" in step, (
        "the structured error code must be asserted"
    )


def test_bench_job_rejects_malformed_spans_doc(workflow):
    """The schema gate: a copy of the run directory whose bundle holds a
    spans doc the views cannot read, re-digested so its digests hold, must
    exit exactly 3 with the named schema code, never a traceback."""
    commands = [s.get("run", "") for s in _steps(workflow, "bench-smoke")]
    malformed = [c for c in commands if "['spans'][0] = 5" in c]
    assert malformed, "bench-smoke must exercise a malformed spans doc"
    step = malformed[0]
    assert "cp -r run-out run-out-malformed" in step, "tamper with a copy of run-out"
    assert "content_digest" in step, "the spans section must be re-digested"
    assert "run-out-malformed --check-only" in step
    assert "|| code=$?" in step and '[ "$code" -ne 3 ]' in step and "exit 1" in step, (
        "gp-replay must exit exactly 3 (untrusted bundle), not just nonzero"
    )
    assert "bundle.spans-schema" in step, "the structured error code must be asserted"


def test_bench_job_uploads_suite_artifact(workflow):
    uploads = [
        s for s in _steps(workflow, "bench-smoke")
        if "upload-artifact" in s.get("uses", "")
    ]
    assert uploads
    assert "bench-smoke-suite.json" in uploads[0]["with"]["path"]
    assert "run-out/" in uploads[0]["with"]["path"]


def test_lint_job_runs_ruff(workflow):
    commands = [s.get("run", "") for s in _steps(workflow, "lint")]
    assert any("ruff check" in c for c in commands)


def test_bench_job_runs_critpath_and_validates_all_obs_artefacts(workflow):
    """The instrumented sweep's run directory holds the traces (spans,
    gauge series and critical paths) and reports as views of its bundle,
    and gp-replay DIR — the one validator — checks every one of them
    before replaying."""
    (step,) = _instrumented_smoke_steps(workflow)
    run = step.index("--run-out run-out")
    replay = step.index("repro.provenance.cli run-out")
    assert run < replay, "the directory must be validated after it is written"


def test_no_step_uses_the_deleted_artefact_flags(workflow):
    """--run-out replaced the three artefact flags, and gp-replay DIR the
    per-file validator; argparse would reject the flags, and the
    validator module has no command line any more."""
    commands = [
        step.get("run", "")
        for job in workflow["jobs"].values()
        for step in job["steps"]
    ]
    stale = [
        c
        for c in commands
        for old in ("--obs-out", "--critpath-out", "--bundle-out", "repro.obs.validate")
        if old in c
    ]
    assert not stale, f"CI still uses the deleted artefact surface: {stale}"


def test_bench_job_rejects_tampered_span_log(workflow):
    """The span-log negative gate: a bundle whose span log was perturbed
    must fail replay and the failure must name the diverging span."""
    commands = [s.get("run", "") for s in _steps(workflow, "bench-smoke")]
    tampered = [c for c in commands if "perturbed.bundle.json" in c]
    assert tampered, "bench-smoke must exercise a span-tampered bundle"
    step = tampered[0]
    assert "run-out/smoke.bundle.json" in step, "tamper with the run directory's bundle"
    assert "|| code=$?" in step and '[ "$code" -ne 1 ]' in step and "exit 1" in step, (
        "gp-replay must exit exactly 1 (replay diverged), not just nonzero"
    )
    assert "first divergence in spans" in step, (
        "the replay output must name the section that diverged"
    )
    assert "condor.wait" in step, (
        "the asserted divergence must carry the span name"
    )


def test_bench_job_rejects_tampered_series_value(workflow):
    """The whole-section gate: a copy of the bundle whose first
    ``condor.idle_jobs`` series value was changed, then re-digested, must
    fail replay, because the replay compares every recorded key."""
    commands = [s.get("run", "") for s in _steps(workflow, "bench-smoke")]
    tampered = [c for c in commands if "condor.idle_jobs" in c]
    assert tampered, "bench-smoke must exercise a bundle with a tampered series value"
    step = tampered[0]
    assert "run-out/smoke.bundle.json" in step, "tamper with the run directory's bundle"
    assert "points[0][1] += 1" in step, "change the first series value"
    assert "content_digest" in step, "the spans section must be re-digested"
    assert "|| code=$?" in step and '[ "$code" -ne 1 ]' in step and "exit 1" in step, (
        "gp-replay must exit exactly 1 (replay diverged), not just nonzero"
    )


def test_bench_job_refuses_a_galaxy_conf_typo(workflow, tmp_path):
    """The shipped galaxy.conf creates an instance, and the same file with
    ``condor:`` misspelled ``condr:`` exits exactly 1 naming the key, with
    no traceback; the step fails when the misspelled file is accepted."""
    (step,) = [
        s["run"]
        for s in _steps(workflow, "bench-smoke")
        if s.get("name", "").startswith("gp-instance:")
    ]

    def run(body):
        return subprocess.run(
            ["bash", "-e", "-c", body], cwd=WORKFLOW.parents[2],
            env={**os.environ, "TMPDIR": str(tmp_path)}, capture_output=True, text=True,
        )

    assert run(step).returncode == 0
    no_typo = run(step.replace("s/^condor:/condr:/", "s/^condor:/condor:/"))
    assert no_typo.returncode == 1
    assert "exited 0, expected 1" in no_typo.stdout


def test_bench_job_names_deeply_nested_json(workflow, tmp_path):
    """100,000 ``[`` as a bundle, a topology and an instance registry:
    ``gp-replay --check-only`` exits exactly 3 with ``bundle.unreadable``,
    ``gp-instance create`` and ``list`` exit exactly 1 with an ``error:``
    line, and no command prints a traceback."""
    (step,) = [
        s["run"]
        for s in _steps(workflow, "bench-smoke")
        if s.get("name") == "Deeply nested JSON is a named error"
    ]
    result = subprocess.run(
        ["bash", "-e", "-c", step], cwd=WORKFLOW.parents[2],
        env={**os.environ, "TMPDIR": str(tmp_path)}, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr

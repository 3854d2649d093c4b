"""Job lifecycle, runners, history panel integration."""

import dataclasses

import pytest

from repro import calibration
from repro.cluster import CondorPool, MachineAd
from repro.galaxy import (
    CondorJobRunner,
    DatasetState,
    GalaxyApp,
    JobError,
    JobState,
    LocalJobRunner,
    Tool,
    ToolOutput,
    ToolParameter,
)
from repro.simcore import SimContext

from .conftest import sleep_tool


def test_tool_run_produces_ok_dataset(app, history):
    ds = app.upload_data(history, "notes.txt", data=b"hello galaxy", ext="txt")
    job = app.run_tool("boliu", history, "upper1", inputs=[ds])
    assert job.state == JobState.QUEUED
    out = job.outputs["output"]
    assert out.state == DatasetState.QUEUED
    app.ctx.sim.run(until=app.jobs.when_done(job))
    assert job.state == JobState.OK
    assert out.state == DatasetState.OK
    assert app.fs.read(out.file_path) == b"HELLO GALAXY"
    assert out.peek == "HELLO GALAXY"
    assert "uppercased" in job.stdout


def test_job_duration_includes_overheads():
    ctx = SimContext(seed=1)
    app = GalaxyApp(ctx)  # default calibrated overheads
    app.install_tool(sleep_tool(cpu_work=100.0))
    app.create_user("u")
    h = app.create_history("u")
    ds = app.upload_data(h, "in", data=b"x")
    job = app.run_tool("u", h, "sleep100", inputs=[ds])
    ctx.sim.run(until=app.jobs.when_done(job))
    assert job.wall_s == pytest.approx(
        calibration.JOB_FIXED_OVERHEAD_S + 100.0, abs=1.0
    )


def test_failing_tool_marks_error(app, history):
    ds = app.upload_data(history, "in", data=b"x")
    job = app.run_tool("boliu", history, "crash1", inputs=[ds])
    app.ctx.sim.run(until=app.jobs.when_done(job))
    assert job.state == JobState.ERROR
    assert "segmentation fault" in job.stderr
    out = job.outputs["output"]
    assert out.state == DatasetState.ERROR
    assert "segmentation fault" in out.info
    # the history panel shows the error
    panel = app.history_panel(history)
    assert any("[error]" in line for line in panel)


def test_tool_writing_no_output_is_error(app, history):
    def execute(run):
        pass  # forgets to write

    tool = Tool(
        id="lazy",
        name="Lazy",
        parameters=[ToolParameter(name="input", type="data")],
        outputs=[ToolOutput(name="output", ext="txt")],
        execute=execute,
    )
    app.install_tool(tool)
    ds = app.upload_data(history, "in", data=b"x")
    job = app.run_tool("boliu", history, "lazy", inputs=[ds])
    app.ctx.sim.run(until=app.jobs.when_done(job))
    assert job.state == JobState.ERROR
    assert "no data" in job.stderr


def test_non_ok_input_rejected(app, history):
    ds = app.upload_data(history, "in", data=b"x")
    ds.state = DatasetState.ERROR
    with pytest.raises(JobError, match="not ok"):
        app.run_tool("boliu", history, "upper1", inputs=[ds])


def test_local_runner_serialises_on_cores():
    ctx = SimContext(seed=1)
    app = GalaxyApp(
        ctx, runner=LocalJobRunner(ctx, cores=1), job_overheads=(0.0, 0.0)
    )
    app.install_tool(sleep_tool(cpu_work=100.0))
    app.create_user("u")
    h = app.create_history("u")
    d1 = app.upload_data(h, "a", data=b"x")
    d2 = app.upload_data(h, "b", data=b"x")
    j1 = app.run_tool("u", h, "sleep100", inputs=[d1])
    j2 = app.run_tool("u", h, "sleep100", inputs=[d2])
    ctx.sim.run(until=ctx.sim.all_of([app.jobs.when_done(j1), app.jobs.when_done(j2)]))
    assert ctx.now == pytest.approx(200.0, abs=1.0)


def test_condor_runner_dispatches_to_pool_and_records_machine():
    ctx = SimContext(seed=1)
    pool = CondorPool(ctx, negotiation_interval_s=5.0)
    pool.add_machine(MachineAd(name="worker-1", cores=2, memory_gb=4.0, cpu_factor=2.0))
    app = GalaxyApp(ctx, runner=CondorJobRunner(ctx, pool), job_overheads=(0.0, 0.0))
    app.install_tool(sleep_tool(cpu_work=100.0))
    app.create_user("u")
    h = app.create_history("u")
    ds = app.upload_data(h, "a", data=b"x")
    job = app.run_tool("u", h, "sleep100", inputs=[ds])
    ctx.sim.run(until=app.jobs.when_done(job))
    assert job.state == JobState.OK
    assert job.machine == "worker-1"
    # ran at 2x speed
    assert ctx.now == pytest.approx(50.0, abs=1.0)


def test_condor_parallelism_across_workers():
    ctx = SimContext(seed=1)
    pool = CondorPool(ctx, negotiation_interval_s=5.0)
    for i in range(4):
        pool.add_machine(MachineAd(name=f"w{i}", cores=1, memory_gb=4.0, cpu_factor=1.0))
    app = GalaxyApp(ctx, runner=CondorJobRunner(ctx, pool), job_overheads=(0.0, 0.0))
    app.install_tool(sleep_tool(cpu_work=100.0))
    app.create_user("u")
    h = app.create_history("u")
    jobs = []
    for i in range(4):
        ds = app.upload_data(h, f"d{i}", data=b"x")
        jobs.append(app.run_tool("u", h, "sleep100", inputs=[ds]))
    ctx.sim.run(until=ctx.sim.all_of([app.jobs.when_done(j) for j in jobs]))
    assert ctx.now == pytest.approx(100.0, abs=1.0)  # all parallel
    assert {j.machine for j in jobs} == {"w0", "w1", "w2", "w3"}


def test_tool_requirements_constrain_condor_match():
    ctx = SimContext(seed=1)
    pool = CondorPool(ctx, negotiation_interval_s=5.0)
    from repro.cloud import MockEC2
    from repro.cluster import ClusterNode

    ec2 = MockEC2(ctx, boot_jitter=0.0)
    (i1,) = ec2.run_instances("ami-b12ee0d8", "m1.small")
    (i2,) = ec2.run_instances("ami-b12ee0d8", "c1.medium")
    ctx.sim.run()
    plain = ClusterNode.create("plain", i1)
    rnode = ClusterNode.create("r-node", i2)
    rnode.chef.packages.add("R")
    pool.add_node(plain)
    pool.add_node(rnode)

    app = GalaxyApp(ctx, runner=CondorJobRunner(ctx, pool), job_overheads=(0.0, 0.0))
    tool = dataclasses.replace(sleep_tool(cpu_work=10.0), requirements=("R",))
    app.install_tool(tool)
    app.create_user("u")
    h = app.create_history("u")
    ds = app.upload_data(h, "a", data=b"x")
    job = app.run_tool("u", h, "sleep10", inputs=[ds])
    ctx.sim.run(until=app.jobs.when_done(job))
    assert job.machine == "r-node"


def test_dataset_hids_are_sequential(app, history):
    d1 = app.upload_data(history, "a", data=b"1")
    d2 = app.upload_data(history, "b", data=b"2")
    job = app.run_tool("boliu", history, "upper1", inputs=[d1])
    app.ctx.sim.run(until=app.jobs.when_done(job))
    hids = [d.hid for d in history.datasets]
    assert hids == [1, 2, 3]
    assert history.by_hid(2) is d2
    with pytest.raises(KeyError):
        history.by_hid(99)


def test_job_listener_invoked(app, history):
    seen = []
    app.jobs.listeners.append(lambda j: seen.append((j.id, j.state.value)))
    ds = app.upload_data(history, "a", data=b"x")
    job = app.run_tool("boliu", history, "upper1", inputs=[ds])
    app.ctx.sim.run(until=app.jobs.when_done(job))
    assert (job.id, "ok") in seen

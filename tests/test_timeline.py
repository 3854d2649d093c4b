"""Deployment timeline rendering from recorded obs spans."""

from repro.cloud import MockEC2
from repro.core import CloudTestbed, usecase_topology
from repro.obs import ObsRecorder, capture
from repro.provision import GlobusProvision
from repro.reporting import collect_intervals, render_timeline
from repro.simcore import SimContext


def _recorded(*rows):
    """An ObsRecorder holding one finished span per
    ``(name, attrs, start, end[, status])`` row."""
    clock = {"t": 0.0}
    rec = ObsRecorder(label="s", clock=lambda: clock["t"])
    for name, attrs, start, end, *status in rows:
        clock["t"] = start
        span = rec.start(name, **attrs)
        clock["t"] = end
        rec.finish(span, status=status[0] if status else "ok")
    return rec


def test_deployment_produces_timeline():
    with capture() as cap:
        bed = CloudTestbed(seed=60)
    gp = GlobusProvision(bed)
    gpi = gp.create(usecase_topology("m1.small", cluster_nodes=1))

    def scenario():
        yield from gp.start(gpi.id)

    bed.ctx.sim.run(until=bed.ctx.sim.process(scenario()))
    intervals = collect_intervals(cap)
    boots = [iv for iv in intervals if iv.label.startswith("boot")]
    converges = [iv for iv in intervals if iv.label.startswith("chef")]
    assert len(boots) == 4     # server, head, gridftp, worker
    assert len(converges) == 4
    for iv in intervals:
        assert iv.end > iv.start
    # converge of a node starts after its boot ends
    head = next(iv for iv in converges if "galaxy-condor" in iv.label)
    assert head.start >= min(b.end for b in boots) - 1e-9

    art = render_timeline(cap)
    assert "chef simple-galaxy-condor" in art
    assert "#" in art
    # every bar line has the shared axis width
    lines = art.splitlines()[1:]
    assert len({ln.index("|") for ln in lines}) == 1


def test_globus_tasks_appear_as_go_rows():
    rec = _recorded(
        ("go.task", {"task": "go-task-000001"}, 10.0, 55.0),
        # a failed task still occupied its time: it keeps its row
        ("go.task", {"task": "go-task-000002"}, 30.0, 70.0, "error"),
    )
    by_label = {iv.label: iv for iv in collect_intervals(rec)}
    assert by_label["go go-task-000001"].start == 10.0
    assert by_label["go go-task-000001"].end == 55.0
    assert by_label["go go-task-000002"].end == 70.0
    art = render_timeline(rec)
    assert "go go-task-000001" in art and "go go-task-000002" in art


def test_cancelled_boot_and_failed_converge_draw_no_bar():
    """A boot that ``terminate_instances`` cut short, or a converge that
    raised, never happened as a deployment step: no row for either."""
    with capture() as cap:
        ctx = SimContext(seed=0)
    ec2 = MockEC2(ctx)
    ec2.run_instances("ami-b12ee0d8", "m1.small", count=2)
    ctx.sim.call_in(10.0, lambda: ec2.terminate_instances(["i-00000002"]))
    ctx.sim.run()
    assert [iv.label for iv in collect_intervals(cap)] == ["boot i-00000001"]

    rec = _recorded(
        ("chef.converge", {"node": "n1"}, 0.0, 30.0, "error"),
        ("chef.converge", {"node": "n2"}, 0.0, 40.0),
    )
    assert [iv.label for iv in collect_intervals(rec)] == ["chef n2"]


def test_zero_span_docs_render_as_no_activity():
    """Obs docs whose tracks recorded no (finished) spans produce no
    intervals — and the renderer says so instead of dividing by zero."""
    rec = ObsRecorder(label="idle")
    assert collect_intervals(rec) == []
    assert "no deployment activity" in render_timeline(rec)

    # a doc with spans, all unfinished: still zero intervals
    rec.start("ec2.boot", track="ec2/i-1", instance="i-1")
    rec.start("chef.converge", track="chef/n1", node="n1")
    assert collect_intervals(rec) == []
    assert "no deployment activity" in render_timeline(rec)


def test_unknown_span_names_are_ignored():
    rec = _recorded(("transfer.window", {}, 0.0, 5.0))  # not a timeline row
    assert collect_intervals(rec) == []


def test_trace_with_no_go_tasks_renders_without_go_rows():
    rec = _recorded(
        ("ec2.boot", {"instance": "i-1"}, 0.0, 40.0),
        ("chef.converge", {"node": "n1"}, 40.0, 100.0),
    )
    intervals = collect_intervals(rec)
    assert sorted(iv.label for iv in intervals) == ["boot i-1", "chef n1"]
    art = render_timeline(rec)
    assert "go " not in art
    assert "boot i-1" in art and "chef n1" in art


def test_zero_duration_interval_renders_a_visible_bar():
    # a zero-length go task mid-axis, and one at the very end of the axis
    for go_at in (10.0, 60.0):
        rec = _recorded(
            ("go.task", {"task": "t1"}, go_at, go_at),
            ("ec2.boot", {"instance": "i-1"}, 10.0, 60.0),
        )
        art = render_timeline(rec)
        go_line = next(ln for ln in art.splitlines() if ln.startswith("go t1"))
        assert "#" in go_line  # length floor of one cell, even at zero duration


def test_collect_intervals_accepts_obs_spans():
    clock = {"t": 0.0}
    rec = ObsRecorder(label="s", clock=lambda: clock["t"])
    boot = rec.start("ec2.boot", track="ec2/i-1", instance="i-1")
    clock["t"] = 90.0
    rec.finish(boot)
    conv = rec.start("chef.converge", track="chef/n1", node="n1")
    clock["t"] = 150.0
    rec.finish(conv)
    rec.start("chef.recipe", track="chef/n1", recipe="r")  # unfinished: skipped
    intervals = collect_intervals(rec)
    assert sorted(iv.label for iv in intervals) == ["boot i-1", "chef n1"]
    assert {iv.duration_s for iv in intervals} == {90.0, 60.0}
    assert "boot i-1" in render_timeline(rec)

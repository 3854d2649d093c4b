"""Whole-system observability: spans from real deployments.

An instrumented use-case run must export a schema-valid Chrome trace,
its spans must reconcile with the timestamps the model keeps itself,
repeated runs must record identical span trees, and recording must leave
simulation output byte-identical to an obs-off run.
"""

import json

import pytest

from repro.core import CloudTestbed, run_usecase, usecase_topology
from repro.obs import capture, chrome_trace, summary_rows
from repro.obs.validate import check_chrome_trace
from repro.provision import GlobusProvision
from repro.reporting import collect_intervals


def _deploy(seed: int = 60):
    """One GP deployment (boots + converges) inside a capture block."""
    with capture() as cap:
        bed = CloudTestbed(seed=seed)
        gp = GlobusProvision(bed)
        gpi = gp.create(usecase_topology("m1.small", cluster_nodes=1))

        def scenario():
            yield from gp.start(gpi.id)

        bed.ctx.sim.run(until=bed.ctx.sim.process(scenario()))
    return bed, gpi, cap


def _boot_intervals(bed):
    """(row label, launch, first billed instant) per instance, from
    EC2's own records: a boot lasts from launch until billing starts."""
    first_billed = {}
    for iv in bed.ec2.meter.intervals:
        first_billed.setdefault(iv.instance_id, iv.start)
    return sorted(
        (f"boot {i.id}", i.launch_time, first_billed[i.id])
        for i in bed.ec2.instances.values()
    )


def _converge_durations(gpi):
    """(row label, duration) per converge, from each Chef node's own log."""
    return sorted(
        (f"chef {node.chef.name}", entry["duration"])
        for node in gpi.deployment.nodes.values()
        for entry in node.chef.converge_log
    )


def test_deployment_spans_cover_boot_and_converge():
    bed, gpi, cap = _deploy()
    [doc] = cap.to_docs()
    names = {s["name"] for s in doc["spans"]}
    assert {"kernel.run", "ec2.boot", "chef.converge", "chef.recipe"} <= names
    # every span closed cleanly
    for span in doc["spans"]:
        assert span["end"] is not None, span
        assert span["status"] == "ok", span
    # recipes nest under their converge span
    by_id = {s["id"]: s for s in doc["spans"]}
    for s in doc["spans"]:
        if s["name"] == "chef.recipe":
            assert by_id[s["parent_id"]]["name"] == "chef.converge"


def test_span_totals_reconcile_with_model_timestamps():
    bed, gpi, cap = _deploy()
    rows = {r["name"]: r for r in summary_rows(cap)}
    boot_total = sum(end - start for _, start, end in _boot_intervals(bed))
    converge_total = sum(d for _, d in _converge_durations(gpi))
    assert rows["ec2.boot"]["total_s"] == pytest.approx(boot_total)
    assert rows["chef.converge"]["total_s"] == pytest.approx(converge_total)


def test_span_based_intervals_match_model_timestamps():
    bed, gpi, cap = _deploy()
    intervals = collect_intervals(cap)
    boots = sorted(
        (iv.label, iv.start, iv.end) for iv in intervals if iv.label.startswith("boot")
    )
    converges = sorted(
        (iv.label, iv.duration_s) for iv in intervals if iv.label.startswith("chef")
    )
    assert boots == _boot_intervals(bed)
    assert converges == _converge_durations(gpi)


def test_usecase_transfer_spans_reconcile_with_go_rows():
    with capture() as cap:
        result = run_usecase(run_large=False)
    rows = {r["name"]: r for r in summary_rows(cap)}
    assert rows["go.task"]["count"] >= 1
    # reconcile against the go rows of the span-derived timeline
    go_total = sum(
        iv.end - iv.start
        for iv in collect_intervals(cap)
        if iv.label.startswith("go ")
    )
    assert rows["go.task"]["total_s"] == pytest.approx(go_total)
    assert result.step3_job.state.value == "ok"


def test_usecase_records_lifecycle_instants():
    """Infrastructure events no span covers (deploy/update done, startd
    join, GO activation) are instants at the sim time of the action."""
    with capture() as cap:
        result = run_usecase(run_large=False)
    [doc] = cap.to_docs()
    by_name = {}
    for inst in doc["instants"]:
        assert inst["track"] == inst["name"].split(".")[0]
        by_name.setdefault(inst["name"], []).append(inst)

    [deployed] = by_name["gp.deployed"]
    assert deployed["time"] == result.deploy_seconds  # the run starts at t=0
    assert deployed["attrs"] == {"nodes": 4, "seconds": result.deploy_seconds}

    step3 = result.step3_job
    [updated] = by_name["gp.updated"]
    assert updated["time"] == pytest.approx(step3.end_time + result.update_seconds)
    assert updated["attrs"] == {
        "seconds": result.update_seconds,
        "added": ["simple-condor-wn2"],
        "removed": [],
        "retyped": [],
    }

    joins = [(i["time"], i["attrs"]) for i in by_name["condor.startd-join"]]
    assert joins == [
        (deployed["time"], {"machine": "simple-condor-wn1", "cores": 1}),
        (updated["time"], {"machine": "simple-condor-wn2", "cores": 2}),
    ]

    fetch_start = result.deploy_seconds
    fetch_end = fetch_start + result.transfer_small_seconds
    endpoints = set()
    for inst in by_name["globus.activate"]:
        attrs = inst["attrs"]
        assert fetch_start <= inst["time"] <= fetch_end
        assert attrs["user"] == "boliu" and attrs["expiry"] > inst["time"]
        endpoints.add(attrs["endpoint"])
    assert endpoints == {"galaxy#CVRG-Galaxy", "cvrg#galaxy"}


def test_usecase_chrome_trace_is_perfetto_valid():
    with capture() as cap:
        run_usecase(run_large=False)
    doc = chrome_trace(cap)
    assert check_chrome_trace(doc) == []


def test_repeated_runs_record_identical_span_trees():
    docs = []
    for _ in range(2):
        with capture() as cap:
            run_usecase(run_large=False)
        docs.append(json.loads(json.dumps(cap.to_docs())))
    assert docs[0] == docs[1]
    kernel_runs = [s for d in docs[0] for s in d["spans"] if s["name"] == "kernel.run"]
    assert kernel_runs
    assert all(set(s["attrs"]) == {"events"} for s in kernel_runs)


def test_observability_does_not_perturb_simulation_output():
    quiet = run_usecase(run_large=False)
    with capture():
        observed = run_usecase(run_large=False)
    assert quiet.steps34_seconds == observed.steps34_seconds
    assert quiet.deploy_seconds == observed.deploy_seconds

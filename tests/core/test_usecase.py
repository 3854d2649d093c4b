"""The Sec. V-A use case end-to-end, with the paper's anchors as shape checks."""

import gc

import pytest

from repro.bench.storage_ablation import StorageAblationConfig, run_one
from repro.core import CloudTestbed, run_usecase
from repro.galaxy import GalaxyApp
from repro.provision import Deployer


def test_usecase_small_cluster_matches_paper_anchor():
    """Steps 3+4 on an m1.small cluster: paper reports 10.7 minutes."""
    res = run_usecase(scale_up_with=None, seed=1)
    assert res.steps34_minutes == pytest.approx(10.7, rel=0.08)
    assert res.deploy_minutes == pytest.approx(8.8, rel=0.08)
    assert res.step3_job.machine == "simple-condor-wn1"
    assert res.step4_job.machine == "simple-condor-wn1"


def test_usecase_scale_up_cuts_time_like_paper():
    """Adding a c1.medium worker: paper reports 10.7 -> 6.9 minutes."""
    baseline = run_usecase(scale_up_with=None, seed=1)
    scaled = run_usecase(scale_up_with="c1.medium", seed=1)
    assert scaled.steps34_minutes < baseline.steps34_minutes * 0.75
    # the big step-4 job migrated to the new faster node
    assert scaled.step4_job.machine == "simple-condor-wn2"
    assert scaled.update_seconds is not None
    assert scaled.update_seconds < 10 * 60  # "within minutes"


def test_usecase_outputs_are_real_statistics():
    res = run_usecase(scale_up_with=None, run_large=False, seed=2)
    lines = res.top_table_head.splitlines()
    assert lines[0].startswith("probe\tlogFC")
    # top probe is strongly significant on the planted data
    first = lines[1].split("\t")
    assert abs(float(first[1])) > 1.0       # |logFC|
    assert float(first[4]) < 1e-6           # p-value
    assert any("fourCelFileSamples.zip [ok]" in s for s in res.history_panel)


def test_usecase_transfer_times_scale_with_size():
    res = run_usecase(scale_up_with=None, seed=3)
    assert res.transfer_large_seconds > res.transfer_small_seconds
    # 190.3 MB at tens of Mbit/s: well under 10 minutes
    assert res.transfer_large_seconds < 600


def test_usecase_cost_anchor_small():
    bed = CloudTestbed(seed=4)
    res = run_usecase(bed=bed, scale_up_with=None)
    cost = res.steps34_cost_usd(bed)
    assert cost == pytest.approx(0.007, rel=0.15)  # paper: 0.007 USD


def test_a_drained_use_case_world_dies_by_refcount():
    """The kernel pauses the cyclic collector while it drains, and the
    storage ablation drops each world once its row is read.  The world's
    Galaxy app, deployer and testbed must then die by refcount: no
    reference cycle may hold them for the collector."""
    enabled, flags, before = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.collect()
    gc.disable()
    try:
        row = run_one("nfs", StorageAblationConfig(seed=1))
        assert row.exec_min > 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = sorted(
            type(o).__name__
            for o in gc.garbage[before:]
            if isinstance(o, (GalaxyApp, CloudTestbed, Deployer))
        )
    finally:
        gc.set_debug(flags)
        del gc.garbage[before:]
        if enabled:
            gc.enable()
    assert left == []

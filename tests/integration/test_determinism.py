"""Whole-scenario determinism: one seed, bit-stable results."""

from repro.core import CloudTestbed, run_usecase


def fingerprint(seed: int) -> tuple:
    bed = CloudTestbed(seed=seed)
    res = run_usecase(bed=bed, scale_up_with="c1.medium")
    return (
        res.deploy_seconds,
        res.transfer_small_seconds,
        res.transfer_large_seconds,
        res.step3_job.wall_s,
        res.step4_job.wall_s,
        res.update_seconds,
        res.top_table_head,
        tuple(res.history_panel),
        round(bed.total_cost(), 12),
        bed.ctx.sim.events_processed,
    )


def test_same_seed_same_everything():
    assert fingerprint(5) == fingerprint(5)


def test_different_seed_same_statistics_different_jitterless_times():
    """With boot jitter off, timing is seed-independent; the planted
    statistics depend only on the workload seeds, which are fixed."""
    a, b = fingerprint(5), fingerprint(6)
    assert a[6] == b[6]          # identical top table (same workload seeds)
    assert a[0] == b[0]          # same deploy time (no jitter)


def test_boot_jitter_breaks_timing_but_not_results():
    bed1 = CloudTestbed(seed=5, boot_jitter=0.1)
    res1 = run_usecase(bed=bed1, scale_up_with=None, run_large=False)
    bed2 = CloudTestbed(seed=6, boot_jitter=0.1)
    res2 = run_usecase(bed=bed2, scale_up_with=None, run_large=False)
    assert res1.deploy_seconds != res2.deploy_seconds
    assert res1.top_table_head == res2.top_table_head

"""Vectorized cost estimator: scalar-loop equivalence and Fig. 10 anchors."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import calibration
from repro.cloud import (
    DEFAULT_INSTANCE_TYPES,
    PriceBook,
    estimate_batch,
    estimate_scalar_loop,
    estimate_usecase_steps34,
)
from repro.crdata import USECASE_TOOL_ID, build_crdata_tools
from repro.galaxy import Tool
from repro.workloads import make_pricing_sweep_sizes

from ..galaxy.conftest import uppercase_tool

#: what the calibrated model pins per step-3+4 column: 150 s of fixed
#: overhead (2 jobs x 75 s) plus 500 m1.small-seconds of work / factor
MODEL_STEPS34_S = {
    t: 2 * calibration.JOB_FIXED_OVERHEAD_S + 500.0 / calibration.CPU_FACTORS[t]
    for t in DEFAULT_INSTANCE_TYPES
}

#: the paper's Fig. 10 execution anchors, seconds
PAPER_STEPS34_S = {
    "m1.small": 642.0,
    "c1.medium": 414.0,
    "m1.large": 324.0,
    "m1.xlarge": 276.0,
}


@pytest.fixture(scope="module")
def usecase_tool():
    return next(t for t in build_crdata_tools() if t.id == USECASE_TOOL_ID)


def test_batch_equals_scalar_loop_exactly(usecase_tool):
    sizes = make_pricing_sweep_sizes(n_jobs=500, seed=3)
    est = estimate_batch(usecase_tool, sizes)
    ref = estimate_scalar_loop(usecase_tool, sizes)
    assert np.array_equal(est.seconds, ref.seconds)  # bitwise, not approx
    assert np.array_equal(est.cost_usd, ref.cost_usd)
    assert np.array_equal(est.cpu_work, ref.cpu_work)
    assert np.array_equal(est.io_work, ref.io_work)


@given(
    sizes=st.lists(
        st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
        min_size=1,
        max_size=50,
    )
)
def test_property_batch_equals_scalar_loop(sizes):
    tool = next(t for t in build_crdata_tools() if t.id == USECASE_TOOL_ID)
    arr = np.asarray(sizes, dtype=float)
    est = estimate_batch(tool, arr)
    ref = estimate_scalar_loop(tool, arr)
    assert np.array_equal(est.seconds, ref.seconds)
    assert np.array_equal(est.cost_usd, ref.cost_usd)


@pytest.mark.parametrize(
    "tool",
    [Tool(id="plain", name="Plain"), uppercase_tool()],
    ids=["default_work_model", "custom_work_model"],
)
def test_any_tool_prices_through_the_estimator(tool):
    """A tool outside the CRData catalog prices batches through its one
    array work model, bit-identical to pricing each job with ``Tool.work``."""
    sizes = np.array([[0.0, 0.0], [1e6, 2.5e6], [190.3e6, 7.0]])
    est = estimate_batch(tool, sizes)
    ref = estimate_scalar_loop(tool, sizes)
    assert np.array_equal(est.seconds, ref.seconds)
    assert np.array_equal(est.cost_usd, ref.cost_usd)
    assert np.array_equal(est.cpu_work, ref.cpu_work)
    assert np.array_equal(est.io_work, ref.io_work)


def test_usecase_anchor_within_two_percent_of_paper():
    est = estimate_usecase_steps34()
    totals = est.total_seconds()
    assert est.n_jobs == 2
    for itype, anchor in PAPER_STEPS34_S.items():
        rel = abs(totals[itype] - anchor) / anchor
        assert rel <= 0.02, f"{itype}: {totals[itype]:.1f}s vs {anchor:.0f}s anchor"


def test_usecase_matches_calibrated_model_closed_form():
    est = estimate_usecase_steps34()
    totals = est.total_seconds()
    for itype, expect in MODEL_STEPS34_S.items():
        # int-truncated archive byte sizes put the work a hair under 500
        assert totals[itype] == pytest.approx(expect, rel=1e-7)


def test_cost_is_rate_times_seconds(usecase_tool):
    book = PriceBook.paper()
    est = estimate_batch(usecase_tool, np.array([10.7e6, 190.3e6]), book=book)
    for itype in est.instance_types:
        expect = book.hourly(itype) * est.seconds_for(itype) / 3600.0
        assert np.array_equal(est.cost_for(itype), expect)


def test_cheapest_and_fastest_bracket_the_grid(usecase_tool):
    est = estimate_batch(usecase_tool, make_pricing_sweep_sizes(n_jobs=100, seed=1))
    assert est.cheapest() == "m1.small"
    assert est.fastest() == "m1.xlarge"
    secs = [est.total_seconds()[t] for t in est.instance_types]
    costs = [est.total_cost()[t] for t in est.instance_types]
    assert secs == sorted(secs, reverse=True)
    assert costs == sorted(costs)


def test_custom_instance_subset_and_overhead(usecase_tool):
    est = estimate_batch(
        usecase_tool,
        np.array([1e6]),
        instance_types=("m1.large",),
        overhead_s=0.0,
    )
    assert est.instance_types == ("m1.large",)
    assert est.seconds.shape == (1, 1)
    cpu, io = usecase_tool.work_batch({}, np.array([1e6]))
    expect = (
        cpu[0] / calibration.CPU_FACTORS["m1.large"]
        + io[0] / calibration.IO_FACTORS["m1.large"]
    )
    assert est.seconds[0, 0] == pytest.approx(expect)


def test_unknown_instance_type_raises(usecase_tool):
    with pytest.raises(KeyError, match="cpu factor"):
        estimate_batch(usecase_tool, np.array([1e6]), instance_types=("m7i.large",))
    with pytest.raises(KeyError, match="no such instance type"):
        estimate_usecase_steps34().column("m7i.large")

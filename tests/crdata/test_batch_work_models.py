"""Each CRData family has one array work model; one job is its one-row case."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import calibration
from repro.crdata import USECASE_TOOL_ID, build_crdata_tools
from repro.crdata.catalog import affy_work, matrix_work, plot_work, seq_work
from repro.galaxy.tools import ToolError, as_sizes_matrix

MB = float(calibration.MB)


# The per-job scalar formulas the array models replaced, kept as references.


def _total_mb(sizes) -> float:
    return float(np.asarray(sizes, dtype=float).sum()) / MB


def affy_reference(sizes) -> tuple[float, float]:
    mb = _total_mb(sizes)
    return (calibration.AFFY_CPU_SECONDS_PER_MB * mb + calibration.AFFY_FIXED_CPU_S, 0.0)


def matrix_reference(sizes) -> tuple[float, float]:
    mb = _total_mb(sizes)
    return (
        calibration.MATRIX_CPU_BASE_S + calibration.MATRIX_CPU_S_PER_MB * mb,
        calibration.MATRIX_IO_S,
    )


def seq_reference(sizes) -> tuple[float, float]:
    mb = _total_mb(sizes)
    return (
        calibration.SEQ_CPU_BASE_S + calibration.SEQ_CPU_S_PER_MB * mb,
        calibration.SEQ_IO_S,
    )


def plot_reference(sizes) -> tuple[float, float]:
    mb = _total_mb(sizes)
    return (
        calibration.PLOT_CPU_BASE_S + calibration.PLOT_CPU_S_PER_MB * mb,
        calibration.PLOT_IO_S,
    )


REFERENCES = {
    affy_work: affy_reference,
    matrix_work: matrix_reference,
    seq_work: seq_reference,
    plot_work: plot_reference,
}
FAMILIES = list(REFERENCES)

#: one catalog tool per family
TOOL_OF = {tool.work_model: tool for tool in build_crdata_tools()}

byte_sizes = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)

sizes_rows = st.lists(byte_sizes, max_size=8)

size_matrices = st.integers(min_value=1, max_value=8).flatmap(
    lambda cols: st.lists(
        st.lists(byte_sizes, min_size=cols, max_size=cols),
        min_size=1,
        max_size=20,
    )
)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
@given(matrix=size_matrices)
def test_batch_matches_scalar_loop_exactly(family, matrix):
    """Bitwise equality: every row of the array model is the replaced
    scalar formula applied to that job."""
    arr = np.asarray(matrix, dtype=float)
    cpu, io = family({}, arr)
    assert cpu.shape == io.shape == (arr.shape[0],)
    for i, row in enumerate(arr):
        cpu_ref, io_ref = REFERENCES[family](row)
        assert cpu[i] == cpu_ref  # exact, not approx
        assert io[i] == io_ref


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
@given(sizes=sizes_rows)
def test_tool_work_is_the_scalar_formula(family, sizes):
    """``Tool.work`` (what the job manager calls) returns the replaced
    scalar formula bit for bit, as Python floats, zero inputs included."""
    cpu, io = TOOL_OF[family].work({}, sizes)
    cpu_ref, io_ref = REFERENCES[family](sizes)
    assert type(cpu) is float and type(io) is float
    assert (cpu, io) == (cpu_ref, io_ref)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
def test_batch_accepts_flat_size_vector(family):
    """A 1-D vector means one single-input job per entry."""
    sizes = np.array([1e6, 2e7, 3e8])
    tool = TOOL_OF[family]
    cpu_flat, io_flat = tool.work_batch({}, sizes)
    cpu_col, io_col = tool.work_batch({}, sizes.reshape(-1, 1))
    assert np.array_equal(cpu_flat, cpu_col)
    assert np.array_equal(io_flat, io_col)


def test_every_catalog_tool_prices_with_a_family_model():
    models = {tool.work_model for tool in build_crdata_tools()}
    assert models == set(FAMILIES)


def test_tool_work_batch_uses_registered_batch_model():
    tool = next(t for t in build_crdata_tools() if t.id == USECASE_TOOL_ID)
    sizes = np.array([[10.7e6], [190.3e6]])
    cpu, io = tool.work_batch({}, sizes)
    cpu_ref, io_ref = affy_work({}, sizes)
    assert np.array_equal(cpu, cpu_ref)
    assert np.array_equal(io, io_ref)


def test_tool_work_is_the_one_row_case_of_work_batch():
    tool = TOOL_OF[seq_work]
    arr = np.array([[1e6, 2e6], [3e6, 4e6]])
    cpu, io = tool.work_batch({}, arr)
    for i, row in enumerate(arr):
        assert tool.work({}, row) == (cpu[i], io[i])


def test_as_sizes_matrix_shapes():
    assert as_sizes_matrix([1.0, 2.0]).shape == (2, 1)
    assert as_sizes_matrix([[1.0, 2.0]]).shape == (1, 2)
    with pytest.raises(ToolError, match="1-D or 2-D"):
        as_sizes_matrix(np.zeros((2, 2, 2)))


def test_work_batch_rejects_wrong_output_shape():
    tool = next(t for t in build_crdata_tools() if t.id == USECASE_TOOL_ID)
    bad = replace(tool, work_model=lambda params, sizes: (np.zeros(3), np.zeros(3)))
    with pytest.raises(ToolError, match="shape"):
        bad.work_batch({}, np.array([[1.0], [2.0]]))
    with pytest.raises(ToolError, match="shape"):
        bad.work({}, [1.0])

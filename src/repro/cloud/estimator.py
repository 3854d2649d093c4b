"""Closed-form batch cost estimation: N jobs x M instance types, no event loop.

The discrete-event simulator prices one use-case run at a time; a CRData
sweep wants the Fig. 10 economics — execution seconds and USD cost per
instance type — for *thousands* of candidate archives at once.  Both
views share one model:

    seconds = JOB_FIXED_OVERHEAD_S + cpu_work / cpu_factor + io_work / io_factor
    cost    = hourly_price * seconds / 3600

``estimate_batch`` composes a tool's work model (``Tool.work_batch``) with
``calibration.CPU_FACTORS`` / ``IO_FACTORS`` and a :class:`PriceBook` in
one broadcasted array expression, so the vectorized estimate is
bit-for-bit identical to pricing one job at a time with ``Tool.work``, as
the simulator does (the equivalence is pinned in
``tests/cloud/test_estimator.py``, along with the Fig. 10 step-3+4
anchors the simulator reproduces).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .. import calibration
from .pricing import PriceBook

#: the Fig. 10 instance grid (the types the paper's economics cover)
DEFAULT_INSTANCE_TYPES = ("m1.small", "c1.medium", "m1.large", "m1.xlarge")


@dataclass
class CostEstimate:
    """Seconds and USD for ``n_jobs`` jobs across ``instance_types``.

    ``seconds`` and ``cost_usd`` have shape ``(n_jobs, len(instance_types))``;
    ``cpu_work`` / ``io_work`` are the per-job work vectors (m1.small-seconds).
    """

    instance_types: tuple[str, ...]
    seconds: np.ndarray
    cost_usd: np.ndarray
    cpu_work: np.ndarray
    io_work: np.ndarray

    @property
    def n_jobs(self) -> int:
        return int(self.seconds.shape[0])

    def column(self, instance_type: str) -> int:
        try:
            return self.instance_types.index(instance_type)
        except ValueError:
            raise KeyError(f"no such instance type {instance_type!r}") from None

    def seconds_for(self, instance_type: str) -> np.ndarray:
        return self.seconds[:, self.column(instance_type)]

    def cost_for(self, instance_type: str) -> np.ndarray:
        return self.cost_usd[:, self.column(instance_type)]

    def total_seconds(self) -> dict[str, float]:
        """Serial makespan of the whole batch per instance type."""
        return {
            t: float(self.seconds[:, j].sum())
            for j, t in enumerate(self.instance_types)
        }

    def total_cost(self) -> dict[str, float]:
        """Whole-batch USD per instance type."""
        return {
            t: float(self.cost_usd[:, j].sum())
            for j, t in enumerate(self.instance_types)
        }

    def cheapest(self) -> str:
        totals = self.total_cost()
        return min(totals, key=totals.__getitem__)

    def fastest(self) -> str:
        totals = self.total_seconds()
        return min(totals, key=totals.__getitem__)


def _factors(
    instance_types: Sequence[str], table: dict[str, float], label: str
) -> np.ndarray:
    try:
        return np.array([table[t] for t in instance_types], dtype=float)
    except KeyError as exc:
        raise KeyError(f"no {label} for instance type {exc}") from None


def estimate_batch(
    tool,
    sizes,
    instance_types: Sequence[str] = DEFAULT_INSTANCE_TYPES,
    book: Optional[PriceBook] = None,
    params: Optional[dict] = None,
    overhead_s: float = calibration.JOB_FIXED_OVERHEAD_S,
) -> CostEstimate:
    """Price ``sizes`` (an ``(n_jobs, n_inputs)`` byte matrix, or a 1-D
    vector of single-input jobs) run through ``tool`` on every instance
    type, in one broadcasted expression.

    ``tool`` is a :class:`repro.galaxy.tools.Tool`; its ``work_batch``
    supplies the work vectors.
    """
    book = book if book is not None else PriceBook.paper()
    types = tuple(instance_types)
    cpu, io = tool.work_batch(params or {}, sizes)
    cpu_factors = _factors(types, calibration.CPU_FACTORS, "cpu factor")
    io_factors = _factors(types, calibration.IO_FACTORS, "io factor")
    rates = np.array([book.hourly(t) for t in types], dtype=float)
    seconds = (
        overhead_s
        + cpu[:, None] / cpu_factors[None, :]
        + io[:, None] / io_factors[None, :]
    )
    cost = rates[None, :] * seconds / 3600.0
    return CostEstimate(
        instance_types=types,
        seconds=seconds,
        cost_usd=cost,
        cpu_work=cpu,
        io_work=io,
    )


def estimate_scalar_loop(
    tool,
    sizes,
    instance_types: Sequence[str] = DEFAULT_INSTANCE_TYPES,
    book: Optional[PriceBook] = None,
    params: Optional[dict] = None,
    overhead_s: float = calibration.JOB_FIXED_OVERHEAD_S,
) -> CostEstimate:
    """Reference implementation: the per-sample Python loop.

    Same model as :func:`estimate_batch`, computed one job and one
    instance type at a time, each job priced by ``Tool.work`` (the
    one-row case the simulator's job manager calls).  Exists so the
    equivalence tests (and the ``pricing_sweep`` benchmark's self-check)
    can assert the vectorized path matches it exactly.
    """
    from ..galaxy.tools import as_sizes_matrix

    book = book if book is not None else PriceBook.paper()
    types = tuple(instance_types)
    matrix = as_sizes_matrix(sizes)
    n = matrix.shape[0]
    cpu = np.empty(n, dtype=float)
    io = np.empty(n, dtype=float)
    for i, row in enumerate(matrix):
        cpu[i], io[i] = tool.work(params or {}, row)
    seconds = np.empty((n, len(types)), dtype=float)
    cost = np.empty((n, len(types)), dtype=float)
    for j, itype in enumerate(types):
        f = calibration.CPU_FACTORS[itype]
        g = calibration.IO_FACTORS[itype]
        rate = book.hourly(itype)
        for i in range(n):
            seconds[i, j] = overhead_s + cpu[i] / f + io[i] / g
            cost[i, j] = rate * seconds[i, j] / 3600.0
    return CostEstimate(
        instance_types=types,
        seconds=seconds,
        cost_usd=cost,
        cpu_work=cpu,
        io_work=io,
    )


def estimate_usecase_steps34(
    instance_types: Sequence[str] = DEFAULT_INSTANCE_TYPES,
    book: Optional[PriceBook] = None,
) -> CostEstimate:
    """The Fig. 10 anchor workload: the two use-case CEL archives.

    Steps 3+4 run ``affyDifferentialExpression.R`` over the 10.7 MB and
    190.3 MB archives; the column sums of ``seconds`` reproduce the
    642/414/324/276 s anchors the event-driven simulator pins, without
    running the event loop.
    """
    from ..crdata.catalog import USECASE_TOOL_ID, build_crdata_tools

    tool = next(t for t in build_crdata_tools() if t.id == USECASE_TOOL_ID)
    sizes = np.array(
        [[calibration.FOUR_CEL_ZIP_BYTES], [calibration.AFFY_CEL_ZIP_BYTES]],
        dtype=float,
    )
    return estimate_batch(tool, sizes, instance_types=instance_types, book=book)

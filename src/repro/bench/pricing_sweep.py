"""Pricing sweep: Fig. 10 economics for thousands of archives at once.

The figure-10 driver prices one use-case run per instance type through
the discrete-event simulator; this benchmark prices a whole synthetic
CRData sweep — thousands of `affyDifferentialExpression`-style archives
across the same instance grid — through the closed-form vectorized
estimator (``repro.cloud.estimator``), with two built-in checks:

* **equivalence**: a slice of the batch is re-priced with the scalar
  per-sample loop and must match the vectorized result exactly;
* **anchors**: the estimator's use-case column sums must land on the
  Fig. 10 step-3+4 anchors (642/414/324/276 s) that the event-driven
  simulator pins, without running the event loop.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..cloud.estimator import (
    estimate_batch,
    estimate_scalar_loop,
    estimate_usecase_steps34,
)
from ..crdata import USECASE_TOOL_ID
from ..crdata.catalog import build_crdata_tools
from ..reporting import render_table
from ..workloads import make_pricing_sweep_sizes
from .figure10 import PAPER_EXEC_MIN

#: paper anchors in seconds (Fig. 10 exec minutes x 60)
ANCHOR_STEPS34_S = {t: m * 60.0 for t, m in PAPER_EXEC_MIN.items()}

#: the estimator may sit this far off the paper anchors (the fitted
#: calibration itself lands ~1.2% high on m1.small)
ANCHOR_REL_TOL = 0.02


@dataclass(frozen=True)
class PricingSweepConfig:
    """One sweep column: batch size, size range, and RNG seed."""

    n_jobs: int = 2000
    seed: int = 0
    min_mb: float = 1.0
    max_mb: float = 512.0
    #: how many leading rows are re-priced with the scalar loop for the
    #: equivalence check (clamped to ``n_jobs``)
    scalar_check_jobs: int = 256


SMOKE_CONFIG = PricingSweepConfig(n_jobs=200, scalar_check_jobs=200)
FULL_CONFIG = PricingSweepConfig(n_jobs=2000)


@dataclass
class PricingSweepResult:
    config: PricingSweepConfig
    instance_types: list[str]
    total_seconds: dict[str, float]
    total_cost_usd: dict[str, float]
    anchor_seconds: dict[str, float]
    anchor_rel_err: dict[str, float]
    scalar_check_jobs: int
    scalar_max_abs_diff: float
    cheapest: str
    fastest: str

    def check_shape(self) -> None:
        """The invariants the sweep guarantees; raises AssertionError."""
        assert self.scalar_max_abs_diff == 0.0, (
            f"vectorized estimate drifted from the scalar loop by "
            f"{self.scalar_max_abs_diff}"
        )
        for itype, err in self.anchor_rel_err.items():
            assert err <= ANCHOR_REL_TOL, (
                f"{itype}: estimator {self.anchor_seconds[itype]:.1f}s is "
                f"{err:.1%} off the {ANCHOR_STEPS34_S[itype]:.0f}s anchor"
            )
        secs = [self.total_seconds[t] for t in self.instance_types]
        costs = [self.total_cost_usd[t] for t in self.instance_types]
        assert secs == sorted(secs, reverse=True), "batch time must fall with size"
        assert costs == sorted(costs), "batch cost must rise with size"
        assert self.cheapest == self.instance_types[0]
        assert self.fastest == self.instance_types[-1]

    def to_dict(self) -> dict:
        doc = {
            "config": asdict(self.config),
            "instance_types": list(self.instance_types),
            "total_seconds": dict(self.total_seconds),
            "total_cost_usd": dict(self.total_cost_usd),
            "anchor_seconds": dict(self.anchor_seconds),
            "anchor_rel_err": dict(self.anchor_rel_err),
            "scalar_check_jobs": self.scalar_check_jobs,
            "scalar_max_abs_diff": self.scalar_max_abs_diff,
            "cheapest": self.cheapest,
            "fastest": self.fastest,
            "rendered": self.render(),
        }
        return doc

    def render(self) -> str:
        rows = [
            (
                itype,
                f"{self.total_seconds[itype] / 3600.0:.2f}",
                f"{self.total_cost_usd[itype]:.2f}",
                f"{self.anchor_seconds[itype]:.0f}",
                f"{ANCHOR_STEPS34_S[itype]:.0f}",
                f"{self.anchor_rel_err[itype]:.2%}",
            )
            for itype in self.instance_types
        ]
        return render_table(
            [
                "instance type",
                "batch (h)",
                "batch (USD)",
                "use-case est (s)",
                "anchor (s)",
                "err",
            ],
            rows,
            title=(
                f"Pricing sweep: {self.config.n_jobs} archives "
                f"({self.config.min_mb:g}-{self.config.max_mb:g} MB, "
                f"seed {self.config.seed}) x {len(self.instance_types)} types"
            ),
        )


def run(config: PricingSweepConfig | None = None) -> PricingSweepResult:
    config = config if config is not None else FULL_CONFIG
    tool = next(t for t in build_crdata_tools() if t.id == USECASE_TOOL_ID)
    sizes = make_pricing_sweep_sizes(
        n_jobs=config.n_jobs,
        seed=config.seed,
        min_mb=config.min_mb,
        max_mb=config.max_mb,
    )

    est = estimate_batch(tool, sizes)

    # Equivalence: re-price a leading slice with the per-sample loop.
    k = max(1, min(config.scalar_check_jobs, config.n_jobs))
    ref = estimate_scalar_loop(tool, sizes[:k])
    diff = max(
        float(abs(est.seconds[:k] - ref.seconds).max()),
        float(abs(est.cost_usd[:k] - ref.cost_usd).max()),
    )

    # Anchors: the two use-case archives, closed form.
    anchor_est = estimate_usecase_steps34()
    anchor_seconds = anchor_est.total_seconds()
    anchor_rel_err = {
        itype: abs(anchor_seconds[itype] - ANCHOR_STEPS34_S[itype])
        / ANCHOR_STEPS34_S[itype]
        for itype in anchor_est.instance_types
    }

    return PricingSweepResult(
        config=config,
        instance_types=list(est.instance_types),
        total_seconds=est.total_seconds(),
        total_cost_usd=est.total_cost(),
        anchor_seconds=anchor_seconds,
        anchor_rel_err=anchor_rel_err,
        scalar_check_jobs=k,
        scalar_max_abs_diff=diff,
        cheapest=est.cheapest(),
        fastest=est.fastest(),
    )

"""Suite registry: the paper's evaluation matrix as fan-out columns.

Each named suite maps a paper artefact (or the scale grid) onto
independent :class:`~repro.bench.harness.BenchSpec` columns.  Every
suite comes in two shapes: the full matrix, and a ``smoke`` variant that
exercises the same code paths in well under a minute for tier-1 and CI.

Task payloads are plain JSON documents; where a driver renders an ASCII
artefact (Fig. 11, the use case, the ablations) the rendered table rides
along in the payload under ``"rendered"`` so the merged suite JSON can
rebuild ``benchmarks/results/`` without re-running anything.
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import asdict, replace

from .. import calibration
from . import (
    ablations,
    figure10,
    figure11,
    pricing_sweep,
    scale,
    storage_ablation,
    usecase,
    waas,
)
from .harness import BenchSpec, BenchSuite, task

# ---------------------------------------------------------------------------
# Tasks (referenced by name so specs stay picklable/JSON-serializable)
# ---------------------------------------------------------------------------


@task("fig10.column")
def fig10_column(instance_type: str, cluster_nodes: int = 1, seed: int = 0) -> dict:
    row = figure10.run_one(instance_type, seed=seed, cluster_nodes=cluster_nodes)
    return asdict(row)


@task("fig11.sweep")
def fig11_sweep(sizes: list[int] | None = None, seed: int = 0) -> dict:
    result = figure11.run(sizes=sizes, seed=seed)
    result.check_shape()
    return {"sizes": result.sizes, "rates": result.rates, "rendered": result.render()}


@task("usecase.expansion")
def usecase_expansion(seed: int = 0) -> dict:
    bench = usecase.run(seed=seed)
    bench.check_shape()
    return {
        "baseline_min": bench.baseline.steps34_minutes,
        "scaled_min": bench.scaled.steps34_minutes,
        "step4_machine": bench.scaled.step4_job.machine,
        "update_seconds": bench.scaled.update_seconds,
        "rendered": bench.render(),
    }


@task("scale.run")
def scale_run(**config_kwargs) -> dict:
    result = scale.run(scale.ScaleConfig(**config_kwargs))
    result.check_shape()
    return result.to_dict()


@task("pricing.sweep")
def pricing_sweep_run(**config_kwargs) -> dict:
    result = pricing_sweep.run(pricing_sweep.PricingSweepConfig(**config_kwargs))
    result.check_shape()
    return result.to_dict()


@task("waas.run")
def waas_run(**config_kwargs) -> dict:
    result = waas.run(waas.WaasConfig(**config_kwargs))
    result.check_shape()
    return result.to_dict()


@task("storage.ablation")
def storage_ablation_run(**config_kwargs) -> dict:
    if "backends" in config_kwargs:
        config_kwargs["backends"] = tuple(config_kwargs["backends"])
    result = storage_ablation.run(
        storage_ablation.StorageAblationConfig(**config_kwargs)
    )
    result.check_shape()
    return result.to_dict()


@task("ablations.ami")
def ablation_ami(seed: int = 0) -> dict:
    result = ablations.run_ami_ablation(seed=seed)
    result.check_shape()
    return {
        "stock_seconds": result.stock_seconds,
        "custom_seconds": result.custom_seconds,
        "speedup": result.speedup,
        "rendered": result.render(),
    }


@task("ablations.billing")
def ablation_billing(seed: int = 0) -> dict:
    result = ablations.run_billing_ablation(seed=seed)
    result.check_shape()
    return {
        "proportional_usd": result.proportional_usd,
        "hourly_usd": result.hourly_usd,
        "ec2_2012_usd": result.ec2_2012_usd,
        "rendered": result.render(),
    }


@task("ablations.pool_width")
def ablation_pool_width(widths: list[int] | None = None, seed: int = 0) -> dict:
    result = ablations.run_pool_width_ablation(widths=widths, seed=seed)
    result.check_shape()
    return {
        "widths": result.widths,
        "makespans_s": result.makespans_s,
        "rendered": result.render(),
    }


@task("ablations.streams")
def ablation_streams(streams: list[int] | None = None, seed: int = 0) -> dict:
    result = ablations.run_stream_ablation(streams=streams, seed=seed)
    result.check_shape()
    return {
        "streams": result.streams,
        "rates_mbps": result.rates_mbps,
        "rendered": result.render(),
    }


@task("ablations.batching")
def ablation_batching(n_files: int = 12, seed: int = 0) -> dict:
    result = ablations.run_batching_ablation(n_files=n_files, seed=seed)
    result.check_shape()
    return {
        "n_files": result.n_files,
        "batched_seconds": result.batched_seconds,
        "individual_seconds": result.individual_seconds,
        "speedup": result.speedup,
        "rendered": result.render(),
    }


# Harness self-test tasks: scripted failure modes for the isolation and
# timeout machinery (kept here so freshly-spawned workers can resolve
# them under any start method).


@task("selftest.sleep")
def selftest_sleep(seconds: float = 0.1) -> dict:
    _time.sleep(seconds)
    return {"slept": seconds}


@task("selftest.boom")
def selftest_boom(message: str = "scripted failure") -> dict:
    raise RuntimeError(message)


@task("selftest.exit")
def selftest_exit(code: int = 13) -> dict:
    os._exit(code)  # hard crash: no exception, no cleanup


@task("selftest.poisoned")
def selftest_poisoned(tasks_failed: int = 1) -> dict:
    """An "ok" task whose payload admits it lost work — exercises the
    CLI's payload-level ``tasks_failed`` gate."""
    return {"looks": "fine", "tasks_failed": tasks_failed}


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

#: cluster widths the full Fig. 10 matrix sweeps per instance type
FIG10_FULL_WIDTHS = (1, 2, 4, 8)

#: the full scale grid: the headline config plus shape/seed variants
SCALE_FULL_GRID = (
    scale.FULL_CONFIG,
    replace(scale.FULL_CONFIG, workers=61, transfers=250, jobs=1000),
    replace(scale.FULL_CONFIG, workers=253, transfers=750, jobs=3000, file_mb=32),
    replace(scale.FULL_CONFIG, seed=1),
)

#: tiny shapes exercising the same code paths in milliseconds
SCALE_SMOKE_GRID = (
    scale.SMOKE_CONFIG,
    replace(scale.SMOKE_CONFIG, seed=1),
    replace(scale.SMOKE_CONFIG, workers=8, transfers=10, jobs=40),
)

#: the full pricing sweep: thousands of archives, two seeds, a wide-range
#: column (estimator only — no event loop, so even 10k jobs are cheap)
PRICING_FULL_GRID = (
    pricing_sweep.FULL_CONFIG,
    replace(pricing_sweep.FULL_CONFIG, n_jobs=10000),
    replace(pricing_sweep.FULL_CONFIG, n_jobs=10000, seed=1, max_mb=2048.0),
)

PRICING_SMOKE_GRID = (
    pricing_sweep.SMOKE_CONFIG,
    replace(pricing_sweep.SMOKE_CONFIG, n_jobs=150, seed=1),
)


def _scale_spec(config: scale.ScaleConfig) -> BenchSpec:
    name = (
        f"scale/n{config.nodes}-t{config.transfers}"
        f"-j{config.jobs}-f{config.file_mb}-s{config.seed}"
    )
    return BenchSpec(name=name, task="scale.run", params=asdict(config))


def fig10_suite(smoke: bool = False) -> BenchSuite:
    widths = (1,) if smoke else FIG10_FULL_WIDTHS
    specs = tuple(
        BenchSpec(
            name=f"fig10/{itype}/w{width}",
            task="fig10.column",
            params={"instance_type": itype, "cluster_nodes": width},
        )
        for itype in figure10.INSTANCE_TYPES
        for width in widths
    )
    return BenchSuite(
        "fig10", "Fig. 10 matrix: instance type x cluster width", specs
    )


def fig11_suite(smoke: bool = False) -> BenchSuite:
    params = {"sizes": [calibration.MB, 100 * calibration.MB]} if smoke else {}
    return BenchSuite(
        "fig11",
        "Fig. 11: transfer rate by method and file size",
        (BenchSpec(name="fig11/sweep", task="fig11.sweep", params=params),),
    )


def usecase_suite(smoke: bool = False) -> BenchSuite:
    return BenchSuite(
        "usecase",
        "Sec. V-A use case: baseline vs elastic scale-up",
        (BenchSpec(name="usecase/expansion", task="usecase.expansion"),),
    )


def scale_suite(smoke: bool = False) -> BenchSuite:
    grid = SCALE_SMOKE_GRID if smoke else SCALE_FULL_GRID
    return BenchSuite(
        "scale",
        "Scale grid: production-size deployments as kernel stress tests",
        tuple(_scale_spec(cfg) for cfg in grid),
    )


def _pricing_spec(config: pricing_sweep.PricingSweepConfig) -> BenchSpec:
    name = (
        f"pricing/n{config.n_jobs}-mb{config.min_mb:g}-{config.max_mb:g}"
        f"-s{config.seed}"
    )
    return BenchSpec(name=name, task="pricing.sweep", params=asdict(config))


def pricing_sweep_suite(smoke: bool = False) -> BenchSuite:
    grid = PRICING_SMOKE_GRID if smoke else PRICING_FULL_GRID
    return BenchSuite(
        "pricing_sweep",
        "Vectorized batch pricing across the Fig. 10 instance grid",
        tuple(_pricing_spec(cfg) for cfg in grid),
        # closed-form estimator: builds no SimContext, records no spans
        supports_obs=False,
    )


def _waas_spec(config: waas.WaasConfig) -> BenchSpec:
    name = (
        f"waas/{config.policy}/t{config.tenants}-w{config.workflows}"
        f"-s{config.seed}"
    )
    return BenchSpec(name=name, task="waas.run", params=asdict(config))


def waas_suite(smoke: bool = False) -> BenchSuite:
    grid = waas.SMOKE_GRID if smoke else waas.FULL_GRID
    return BenchSuite(
        "waas",
        "WaaS multi-tenant front door: SLA vs cost per elasticity policy",
        tuple(_waas_spec(cfg) for cfg in grid),
    )


def storage_ablation_suite(smoke: bool = False) -> BenchSuite:
    itypes = (
        storage_ablation.SMOKE_INSTANCE_TYPES
        if smoke
        else storage_ablation.FULL_INSTANCE_TYPES
    )
    specs = tuple(
        BenchSpec(
            name=f"storage/{itype}",
            task="storage.ablation",
            params={"instance_type": itype},
        )
        for itype in itypes
    )
    return BenchSuite(
        "storage_ablation",
        "Data-sharing backends: use-case workload per backend x instance type",
        specs,
    )


def ablations_suite(smoke: bool = False) -> BenchSuite:
    specs = (
        BenchSpec(name="ablations/ami", task="ablations.ami"),
        BenchSpec(name="ablations/billing", task="ablations.billing"),
        BenchSpec(
            name="ablations/pool_width",
            task="ablations.pool_width",
            params={"widths": [1, 4]} if smoke else {},
        ),
        BenchSpec(
            name="ablations/streams",
            task="ablations.streams",
            params={"streams": [1, 4]} if smoke else {},
        ),
        BenchSpec(
            name="ablations/batching",
            task="ablations.batching",
            params={"n_files": 6} if smoke else {},
        ),
    )
    return BenchSuite("ablations", "Design-choice ablations (DESIGN.md)", specs)


SUITE_BUILDERS = {
    "fig10": fig10_suite,
    "fig11": fig11_suite,
    "usecase": usecase_suite,
    "scale": scale_suite,
    "pricing_sweep": pricing_sweep_suite,
    "ablations": ablations_suite,
    "waas": waas_suite,
    "storage_ablation": storage_ablation_suite,
}


def names() -> list[str]:
    return list(SUITE_BUILDERS)


def get(name: str, smoke: bool = False) -> BenchSuite:
    try:
        builder = SUITE_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown suite {name!r}; known: {names()}") from None
    return builder(smoke=smoke)


def combined(selected: list[str] | None = None, smoke: bool = False) -> BenchSuite:
    """Merge the selected suites (default: all) into one ordered suite."""
    selected = list(selected) if selected else names()
    specs: list[BenchSpec] = []
    supports_obs = False
    for name in selected:
        suite = get(name, smoke=smoke)
        specs.extend(suite.specs)
        supports_obs = supports_obs or suite.supports_obs
    if selected == names():
        label = "smoke" if smoke else "full"
    else:
        label = "+".join(selected) + ("-smoke" if smoke else "")
    return BenchSuite(
        label,
        f"suites: {', '.join(selected)}",
        tuple(specs),
        supports_obs,
    )

"""The benchmark's workloads, driven through the simulator's public API.

A :class:`Workload` is a tuple of :class:`Scenario` kinds.  Each splits into
``setup`` (build the simulated world and its inputs, before the kernel
runs) and ``drain`` (run the simulation and read back its results), so
the runner can time the two apart.  ``drain`` checks the outputs it reads
and raises :class:`WrongOutput` when one is wrong.

Each workload replays a configuration that one of the repository's own
``gp-bench`` suites ships, with the benchmark's seed in place of the
suite's:

* ``paper_obs`` — the ``fig10`` columns (``figure10.INSTANCE_TYPES``, one
  worker each) and the ``usecase`` suite's c1.medium scale-up;
* ``storage`` — the ``storage_ablation`` smoke shape: the Fig. 10
  m1.small column once per storage backend;
* ``waas`` — the 1k-tenant ``queue_depth`` run of ``waas.FULL_GRID``.

The seed seeds the simulator's random streams and, for ``waas``, draws
the arrival plan; the paper's use-case archives are fixed.  The same
seed gives the same worlds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.bench import waas as waas_suite
from repro.bench.figure10 import INSTANCE_TYPES, Figure10Result, Figure10Row
from repro.bench.storage_ablation import (
    BackendRow,
    StorageAblationConfig,
    StorageAblationResult,
)
from repro.bench.usecase import UseCaseBench
from repro.cluster.condor import JobState
from repro.core.testbed import CloudTestbed
from repro.core.usecase import run_usecase
from repro.galaxy import JobState as GalaxyJobState
from repro.obs import capture, check_chrome_trace, check_critpath, chrome_trace, critpath_doc
from repro.provision.instance import GlobusProvision
from repro.storage import StagingStats
from repro.transfer.globus_online import TaskStatus
from repro.waas import (
    AdmissionController,
    ElasticProvisioner,
    WaasService,
    make_policy,
    poisson_plan,
    waas_topology,
)


class WrongOutput(AssertionError):
    """A scenario produced a result that violates its expected shape."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongOutput(what)


@dataclass
class Outcome:
    """What one drained scenario produced.

    ``fingerprint`` holds the simulated results.  It, ``events`` (kernel
    events processed during ``drain``) and ``counts`` (work done per
    layer, setup included) must repeat exactly whenever the same kind
    runs again with the same seed.
    """

    fingerprint: tuple
    events: int
    counts: dict[str, int]
    detail: Any = None


@dataclass(frozen=True)
class Scenario:
    name: str
    setup: Callable[[], Any]
    drain: Callable[[Any], Outcome]
    #: the same scenario with observability forced off, for workloads
    #: whose contract is that recording never changes simulated results
    unobserved: "Scenario | None" = None


@dataclass(frozen=True)
class Workload:
    scenarios: tuple[Scenario, ...]
    #: checks across one outcome per scenario, by scenario name
    verify: "Callable[[dict[str, Outcome]], None] | None" = None


def _layer_counts(
    bed: CloudTestbed,
    pool,
    galaxy=None,
    staged: int = 0,
    workflows: int = 0,
    spans: int = 0,
) -> dict[str, int]:
    """Work the layers finished, as counts."""
    return {
        "events": bed.ctx.sim.events_processed,
        "condor_jobs": sum(
            1 for j in pool.schedd.jobs.values() if j.state is JobState.COMPLETED
        ),
        "go_tasks": sum(
            1 for t in bed.go.tasks.values() if t.status is TaskStatus.SUCCEEDED
        ),
        "files_staged": staged,
        "galaxy_jobs": 0
        if galaxy is None
        else sum(1 for j in galaxy.jobs.jobs.values() if j.state is GalaxyJobState.OK),
        "waas_workflows": workflows,
        "instances": len(bed.ec2.instances),
        "spans": spans,
    }


# ---------------------------------------------------------------------------
# storage: the storage_ablation smoke shape, one use case per backend
# ---------------------------------------------------------------------------

#: the ``storage_ablation`` smoke suite: m1.small, one worker
STORAGE = StorageAblationConfig()


def _storage_scenario(seed: int, backend: str) -> Scenario:
    """``storage_ablation.run_one`` split where the kernel first runs, so
    the testbed is built in ``setup``."""

    def setup():
        return CloudTestbed(seed=seed)

    def drain(bed) -> Outcome:
        result = run_usecase(
            bed=bed,
            instance_type=STORAGE.instance_type,
            cluster_nodes=STORAGE.cluster_nodes,
            scale_up_with=None,
            storage=backend,
        )
        deployment = result.instance.deployment
        stats = StagingStats.of(deployment.domains["simple"].storage)
        row = BackendRow(
            backend=backend,
            instance_type=STORAGE.instance_type,
            deploy_min=result.deploy_minutes,
            exec_min=result.steps34_minutes,
            job_cost_usd=result.steps34_cost_usd(bed),
            cluster_cost_usd=bed.total_cost("proportional"),
            cluster_nodes_total=len(deployment.nodes),
            staged_in_mb=stats.bytes_staged_in / (1024.0 * 1024.0),
            staged_out_mb=stats.bytes_staged_out / (1024.0 * 1024.0),
            files_staged=stats.files_staged,
            events_processed=bed.ctx.sim.events_processed,
        )
        _expect(result.step4_job is not None, "step 4 did not run")
        return Outcome(
            fingerprint=(
                row.deploy_min,
                row.exec_min,
                round(row.job_cost_usd, 9),
                round(row.cluster_cost_usd, 9),
                row.cluster_nodes_total,
                stats.bytes_staged_in,
                stats.bytes_staged_out,
            ),
            events=row.events_processed,
            counts=_layer_counts(
                bed, deployment.pool, deployment.galaxy, staged=row.files_staged
            ),
            detail=row,
        )

    return Scenario(f"storage-{backend}", setup, drain)


def storage(seed: int) -> Workload:
    """The Fig. 10 m1.small column deployed on each shared-storage backend,
    checked against Juve et al.'s runtime and cost orderings."""

    def verify(outcomes: dict[str, Outcome]) -> None:
        result = StorageAblationResult(
            instance_type=STORAGE.instance_type,
            rows=[outcomes[f"storage-{b}"].detail for b in STORAGE.backends],
        )
        try:
            result.check_shape()
        except AssertionError as exc:
            raise WrongOutput(f"storage shape: {exc}") from None

    return Workload(
        tuple(_storage_scenario(seed, b) for b in STORAGE.backends), verify=verify
    )


# ---------------------------------------------------------------------------
# waas: multi-tenant front door with a queue-depth autoscaler
# ---------------------------------------------------------------------------

#: the ``waas`` suite's 1k-tenant headline under the queue-depth policy
WAAS = next(
    c for c in waas_suite.FULL_GRID if c.policy == "queue_depth" and c.tenants == 1000
)


def waas(seed: int) -> Workload:
    """An open-loop Poisson stream of tenant DAGs against a GP deployment
    whose Condor pool a queue-depth policy grows through ``gp.update``:
    ``waas.run`` split where the kernel first runs."""
    config = replace(WAAS, seed=seed)

    def setup():
        bed = CloudTestbed(seed=config.seed)
        gp = GlobusProvision(bed)
        plan = poisson_plan(
            config.tenants,
            config.workflows,
            config.arrival_rate_per_s,
            tenant_quota=config.tenant_quota,
            dag_tasks=config.dag_tasks,
            unique_dags=config.unique_dags,
            shapes=config.shapes,
            mean_task_work_s=config.mean_task_work_s,
            deadline_base_s=config.deadline_base_s,
            deadline_slack=config.deadline_slack,
            seed=config.seed,
        )
        gpi = gp.create(
            waas_topology(config.base_workers, instance_type=config.instance_type)
        )
        return bed, gp, gpi, plan

    def drain(world) -> Outcome:
        bed, gp, gpi, plan = world
        sim = bed.ctx.sim
        before = sim.events_processed
        bed.run(until=sim.process(gp.start(gpi.id), name="gp-start"))
        admission = AdmissionController(bed.ctx, max_in_flight=config.max_in_flight)
        service = WaasService(gp, gpi.id, plan, admission)
        provisioner = ElasticProvisioner(
            gp,
            gpi.id,
            make_policy(config.policy, **dict(config.policy_params)),
            service.snapshot,
            check_interval_s=config.check_interval_s,
            min_workers=config.min_workers,
            max_workers=config.max_workers,
            worker_instance_type=config.worker_instance_type,
        )

        def drive(_ctx):
            service.open()
            provisioner.start()
            yield service.all_done
            provisioner.stop()

        bed.run(until=sim.process(drive(bed.ctx), name="waas-drive"))
        done, rejected = len(service.completed), len(service.rejected)
        proportional = bed.ec2.meter.cost(bed.now, mode="proportional")
        hourly = bed.ec2.meter.cost(bed.now, mode="hourly")
        # the checks of ``WaasResult.check_shape``, plus a policy that acted
        _expect(
            done + rejected == config.workflows,
            f"{done} done + {rejected} rejected != {config.workflows} workflows",
        )
        _expect(
            service.jobs_submitted == service.jobs_completed,
            "a WaaS task never completed",
        )
        _expect(0 <= service.sla_met <= done, f"{service.sla_met} SLAs met of {done}")
        _expect(provisioner.scale_ups > 0, "the autoscaler never scaled up")
        _expect(
            provisioner.peak_workers <= max(config.max_workers, config.base_workers),
            f"pool grew to {provisioner.peak_workers} workers",
        )
        _expect(
            provisioner.worker_count() >= min(config.min_workers, config.base_workers),
            f"pool shrank to {provisioner.worker_count()} workers",
        )
        _expect(proportional <= hourly + 1e-9, "proportional cost above hourly")
        return Outcome(
            fingerprint=(
                bed.now,
                done,
                service.sla_met,
                provisioner.scale_ups,
                provisioner.scale_downs,
                provisioner.peak_workers,
                round(proportional, 9),
            ),
            events=sim.events_processed - before,
            counts=_layer_counts(bed, service.pool, workflows=done),
        )

    return Workload((Scenario("waas", setup, drain),))


# ---------------------------------------------------------------------------
# paper_obs: Fig. 10 and the Sec. V-A use case with span recording on
# ---------------------------------------------------------------------------

#: the four Fig. 10 columns, then the use case's elastic scale-up run
PAPER_KINDS = tuple((itype, None) for itype in INSTANCE_TYPES) + (
    ("m1.small", "c1.medium"),
)


def _paper_scenario(seed: int, itype: str, scale_up: "str | None", observe: bool) -> Scenario:
    name = f"usecase-{itype}" + (f"+{scale_up}" if scale_up else "")

    def setup():
        if not observe:
            return CloudTestbed(seed=seed), None
        with capture() as cap:
            bed = CloudTestbed(seed=seed)
        return bed, cap

    def drain(world) -> Outcome:
        bed, cap = world
        result = run_usecase(bed=bed, instance_type=itype, scale_up_with=scale_up)
        _expect(result.step3_job.wall_s > 0, "step 3 did not run")
        _expect(result.step4_job is not None, "step 4 did not run")
        deployment = result.instance.deployment
        spans = 0
        detail = {"result": result}
        if cap is not None:
            detail["critpath"] = path = critpath_doc(cap, suite=name)
            detail["trace"] = trace = chrome_trace(cap)
            spans = sum(len(r.spans) for r in cap.recorders)
            _expect(spans > 0, "no spans recorded")
            _expect(len(trace["traceEvents"]) > spans, "trace export lost spans")
            _expect(
                abs(path["critical_path_s"] - path["makespan_s"]) < 1e-6,
                "critical path does not cover the makespan",
            )
        return Outcome(
            fingerprint=(
                result.deploy_seconds,
                result.steps34_seconds,
                result.update_seconds,
                round(result.steps34_cost_usd(bed), 9),
            ),
            events=bed.ctx.sim.events_processed,
            counts=_layer_counts(bed, deployment.pool, deployment.galaxy, spans=spans),
            detail=detail,
        )

    unobserved = _paper_scenario(seed, itype, scale_up, False) if observe else None
    return Scenario(name, setup, drain, unobserved)


def paper_obs(seed: int) -> Workload:
    """Fig. 10's four instance-type columns and the use case's c1.medium
    scale-up, each recorded by ``repro.obs`` and followed by the
    critical-path walk and the Chrome-trace export of its spans."""
    return Workload(
        tuple(
            _paper_scenario(seed, itype, scale_up, True)
            for itype, scale_up in PAPER_KINDS
        ),
        verify=_check_paper,
    )


def _check_paper(outcomes: dict[str, Outcome]) -> None:
    """Whole-workload checks on one outcome per kind: the validity of the
    exported artefacts, the Fig. 10 orderings and the use-case speed-up."""
    for name, outcome in outcomes.items():
        problems = check_critpath(outcome.detail["critpath"])
        problems += check_chrome_trace(outcome.detail["trace"])
        _expect(not problems, f"invalid obs artefacts for {name}: {problems[:3]}")
    columns = [outcomes[f"usecase-{itype}"] for itype in INSTANCE_TYPES]
    figure = Figure10Result(
        rows=[
            Figure10Row(
                instance_type=itype,
                deploy_min=o.detail["result"].deploy_minutes,
                exec_min=o.detail["result"].steps34_minutes,
                cost_usd=o.fingerprint[3],
            )
            for itype, o in zip(INSTANCE_TYPES, columns)
        ]
    )
    usecase = UseCaseBench(
        baseline=outcomes["usecase-m1.small"].detail["result"],
        scaled=outcomes["usecase-m1.small+c1.medium"].detail["result"],
    )
    try:
        figure.check_shape()
        usecase.check_shape()
    except AssertionError as exc:
        raise WrongOutput(f"paper shape: {exc}") from None


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "paper_obs": paper_obs,
    "storage": storage,
    "waas": waas,
}

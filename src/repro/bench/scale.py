"""Scale benchmark: a production-size deployment as a kernel stress test.

The paper's experiments stop at a handful of nodes and two transfers; the
north star is a substrate that prices *campaigns*.  This driver deploys a
GP topology in the 128–256 node range, then pushes hundreds of concurrent
Globus transfers and thousands of Condor jobs through it, and reports
what the simulator did with that world: events processed, peak scheduler
queue depth, and deploy/total sim time.

The same driver runs two ways:

* ``FULL_CONFIG`` — the 128-node headline of ``gp-bench scale``;
* ``SMOKE_CONFIG`` — a tiny topology exercising every code path in well
  under a second, run in tier-1 by ``tests/bench/test_scale_smoke.py``.

Everything in the workload is derived deterministically from the config
(no wall-clock or unseeded randomness), so two runs with the same config
produce byte-identical results.  What a run costs the host is measured
by ``perfbench/run.py``, not here.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .. import calibration
from ..cluster.condor import JobState
from ..core.testbed import CVRG_DATA_ENDPOINT, CloudTestbed
from ..core.usecase import usecase_topology
from ..provision.deployer import Deployer
from ..transfer.globus_online import TaskStatus, TransferItem, TransferSpec


@dataclass(frozen=True)
class ScaleConfig:
    """Workload shape.  Total topology size is ``workers + 3`` nodes
    (NFS/NIS server, GridFTP node, Galaxy/Condor head)."""

    workers: int = 125          # -> 128-node topology
    transfers: int = 500        # concurrent Globus Transfer tasks
    jobs: int = 2000            # Condor jobs
    file_mb: int = 64           # size of each transferred file
    job_cpu_seconds: float = 45.0   # base per-job work (m1.small-seconds)
    instance_type: str = "m1.small"
    seed: int = 0

    @property
    def nodes(self) -> int:
        return self.workers + 3


#: The headline configuration (128 nodes, 500 transfers, 2000 jobs).
FULL_CONFIG = ScaleConfig()

#: Everything exercised, nothing waited for: runs in tier-1.
SMOKE_CONFIG = ScaleConfig(workers=4, transfers=6, jobs=24, file_mb=4)


@dataclass
class ScaleResult:
    """What one run measured (simulation metrics are seed-deterministic)."""

    config: ScaleConfig
    nodes: int
    deploy_sim_seconds: float
    sim_seconds: float
    events_processed: int
    peak_queue_depth: int
    transfers_succeeded: int
    jobs_completed: int
    bytes_transferred: int

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["config"] = asdict(self.config)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def check_shape(self) -> None:
        """Sanity assertions shared by the smoke test and the full run."""
        assert self.transfers_succeeded == self.config.transfers
        assert self.jobs_completed == self.config.jobs
        assert self.nodes == self.config.nodes
        assert self.events_processed > 0
        assert self.peak_queue_depth > 0
        expected = self.config.transfers * self.config.file_mb * calibration.MB
        assert self.bytes_transferred == expected


def _input_path(i: int) -> str:
    return f"/home/boliu/scale/input-{i:04d}.dat"


def _stage_inputs(bed: CloudTestbed, config: ScaleConfig) -> None:
    """Bulk files on the CVRG endpoint (metadata-tracked, no real bytes)."""
    size = config.file_mb * calibration.MB
    for i in range(config.transfers):
        bed.cvrg_fs.write(_input_path(i), size=size, owner="boliu")


def _job_work(config: ScaleConfig, i: int) -> float:
    """Deterministic per-job variety: 1.0x .. 1.5x the base work."""
    return config.job_cpu_seconds * (1.0 + 0.5 * ((i * 7919) % 101) / 101.0)


def run(config: ScaleConfig = FULL_CONFIG) -> ScaleResult:
    """Deploy, load, and drain the scale scenario; return the metrics."""
    bed = CloudTestbed(seed=config.seed)
    deployer = Deployer(bed)
    topology = usecase_topology(
        instance_type=config.instance_type, cluster_nodes=config.workers
    )
    _stage_inputs(bed, config)

    deploy_proc = bed.ctx.sim.process(deployer.deploy(topology), name="deploy")
    deployment = bed.run(until=deploy_proc)
    deploy_sim_seconds = bed.now

    def scenario(ctx):
        tasks = []
        for i in range(config.transfers):
            spec = TransferSpec(
                source_endpoint=CVRG_DATA_ENDPOINT,
                dest_endpoint=deployment.endpoint_name,
                items=[TransferItem(_input_path(i), _input_path(i))],
                label=f"scale-{i:04d}",
                notify=False,
            )
            tasks.append(bed.go.submit("boliu", spec))
        pool = deployment.pool
        jobs = [
            pool.submit(cpu_work=_job_work(config, i), owner=f"user{i % 8}")
            for i in range(config.jobs)
        ]
        waits = [bed.go.when_done(t) for t in tasks]
        waits += [pool.when_done(j) for j in jobs]
        yield ctx.sim.all_of(waits)
        return tasks, jobs

    proc = bed.ctx.sim.process(scenario(bed.ctx), name="scale-load")
    tasks, jobs = bed.run(until=proc)

    sim = bed.ctx.sim
    return ScaleResult(
        config=config,
        nodes=len(deployment.nodes),
        deploy_sim_seconds=deploy_sim_seconds,
        sim_seconds=bed.now,
        events_processed=sim.events_processed,
        peak_queue_depth=sim.peak_queue_depth,
        transfers_succeeded=sum(
            1 for t in tasks if t.status is TaskStatus.SUCCEEDED
        ),
        jobs_completed=sum(1 for j in jobs if j.state is JobState.COMPLETED),
        bytes_transferred=sum(t.bytes_transferred for t in tasks),
    )

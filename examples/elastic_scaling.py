#!/usr/bin/env python
"""Elastic scaling: the paper's future-work feature, working.

Deploys a one-worker cluster, attaches the elastic provisioner with the
queue-depth policy, then submits a burst of 12 statistical jobs.  The
provisioner watches the Condor queue, grows the pool with c1.medium
workers through ``gp-instance-update``, and shrinks it again once the
queue drains — "users pay only for the resources they use, while also
being able to scale up to meet resource requirements" (Sec. III-C).

Run:  python examples/elastic_scaling.py
"""

from repro.calibration import MB
from repro.core import CloudTestbed, usecase_topology
from repro.galaxy import JobState
from repro.provision import GlobusProvision
from repro.waas import ElasticProvisioner, QueueDepthPolicy
from repro.workloads import make_expression_matrix_bytes


def main() -> None:
    bed = CloudTestbed(seed=0)
    gp = GlobusProvision(bed)
    gpi = gp.create(usecase_topology("m1.small", cluster_nodes=1))

    def scenario():
        yield from gp.start(gpi.id)
        print(f"Deployed {gpi.id} with "
              f"{len(gpi.deployment.worker_nodes('simple'))} worker(s)")
        app = gpi.deployment.galaxy
        history = app.create_history("boliu", "burst")

        scaler = ElasticProvisioner(
            gp, gpi.id, QueueDepthPolicy(),
            domain="simple", check_interval_s=30.0, max_workers=4,
        )
        scaler.start()

        data = make_expression_matrix_bytes(n_probes=2000)
        jobs = []
        for i in range(12):
            ds = app.upload_data(
                history, f"batch_{i}.tsv", data=data, size=400 * MB, ext="tabular"
            )
            jobs.append(
                app.run_tool("boliu", history, "crdata_matrixModeratedTTest",
                             inputs=[ds])
            )
        print(f"Submitted {len(jobs)} jobs at t={bed.ctx.now:.0f}s")
        yield bed.ctx.sim.all_of([app.jobs.when_done(j) for j in jobs])
        makespan = max(j.end_time for j in jobs) - min(j.create_time for j in jobs)
        print(f"All jobs finished; makespan {makespan / 60:.1f} min")
        assert all(j.state == JobState.OK for j in jobs)

        # let the scaler notice the idle pool and shrink
        yield bed.ctx.sim.timeout(10 * 60.0)
        scaler.stop()

        print("\nScaler events:")
        for event in scaler.events:
            print(f"  t={event.time:7.0f}s  {event.action:10s} "
                  f"workers={event.workers_after}  queue={event.queue_depth}")
        by_machine = {}
        for job in jobs:
            by_machine[job.machine] = by_machine.get(job.machine, 0) + 1
        print("\nJobs per machine:")
        for machine, count in sorted(by_machine.items()):
            print(f"  {machine:24s} {count}")
        print(f"\nFinal worker count: {len(gpi.deployment.worker_nodes('simple'))}")
        print(f"Total simulated cost: ${bed.total_cost():.4f}")

    bed.ctx.sim.run(until=bed.ctx.sim.process(scenario()))


if __name__ == "__main__":
    main()

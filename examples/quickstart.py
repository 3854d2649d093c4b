#!/usr/bin/env python
"""Quickstart: deploy a Galaxy cloud instance and run one analysis.

This walks the happy path in ~40 lines of API:

1. build the simulated world (EC2 + Globus Online + the CVRG data
   endpoint);
2. deploy the paper's ``galaxy.conf`` topology with Globus Provision;
3. pull a dataset in through *Get Data via Globus Online*;
4. run a CRData statistical tool on the Condor pool;
5. look at the history panel, exactly what the Galaxy UI would show;
6. draw the deployment timeline from the run's recorded obs spans.

Run:  python examples/quickstart.py
"""

from repro import obs
from repro.core import CVRG_DATA_ENDPOINT, FOUR_CEL_PATH, CloudTestbed, usecase_topology
from repro.provision import GlobusProvision
from repro.reporting import render_timeline
from repro.tools_globus import GET_DATA_TOOL_ID


def main() -> None:
    # everything built inside the capture block records obs spans
    with obs.capture() as cap:
        bed = CloudTestbed(seed=0)
    gp = GlobusProvision(bed)

    # 1-2: create and start a GP instance from the paper's topology.
    gpi = gp.create(usecase_topology(instance_type="c1.medium", cluster_nodes=1))
    print(f"Created new instance: {gpi.id}")

    def scenario():
        print(f"Starting instance {gpi.id}...")
        yield from gp.start(gpi.id)
        print(f"done!  (simulated deployment: {gpi.start_seconds / 60:.1f} min)")
        doc = gpi.describe()
        for host in doc["hosts"]:
            print(f"  {host['name']:24s} {host['instance_type']:10s} {host['hostname']}")
        print(f"Galaxy URL: {doc['galaxy_url']}")

        app = gpi.deployment.galaxy
        history = app.create_history("boliu", "Quickstart")

        # 3: fetch the 10.7 MB CEL archive from the CVRG endpoint.
        fetch = app.run_tool(
            "boliu", history, GET_DATA_TOOL_ID,
            params={"endpoint": CVRG_DATA_ENDPOINT, "path": FOUR_CEL_PATH},
        )
        yield app.jobs.when_done(fetch)
        dataset = fetch.outputs["output"]
        print(f"\nFetched {dataset.name} ({dataset.size / 2**20:.1f} MB) "
              f"in {fetch.wall_s:.0f} simulated seconds")

        # 4: run differential expression on the Condor pool.
        analyse = app.run_tool(
            "boliu", history, "crdata_affyDifferentialExpression",
            params={"top_n": 10}, inputs=[dataset],
        )
        yield app.jobs.when_done(analyse)
        print(f"Analysis ran on {analyse.machine} in {analyse.wall_s:.0f} s\n")

        # 5: the history panel and the first rows of the top table.
        print("History panel:")
        for line in app.history_panel(history):
            print(f"  {line}")
        table = app.fs.read(analyse.outputs["top_table"].file_path).decode()
        print("\nTop table (first 5 rows):")
        for row in table.splitlines()[:6]:
            print(f"  {row}")

        gp.terminate(gpi.id)
        print(f"\nTerminated {gpi.id}.  "
              f"Total simulated cost: ${bed.total_cost():.4f}")

    bed.ctx.sim.run(until=bed.ctx.sim.process(scenario()))
    # 6: boots, converges and GO tasks on one time axis.
    print("\n" + render_timeline(cap))


if __name__ == "__main__":
    main()

"""Endpoints fronting several GridFTP servers balance their load."""

from repro.calibration import MB
from repro.cluster import SimFilesystem
from repro.transfer import GridFTPServer, TaskStatus, TransferItem, TransferSpec

from .conftest import Testbed


def test_concurrent_tasks_spread_over_servers():
    bed = Testbed()
    shared_fs = SimFilesystem("big-site")
    servers = [
        GridFTPServer(
            ctx=bed.ctx, hostname=f"dtn{i}.ec2", site="ec2", fs=shared_fs,
            max_connections=1,
        )
        for i in range(2)
    ]
    bed.go.create_endpoint("cvrg#striped", servers, public=True)
    tasks = []
    for i in range(2):
        path = f"/home/boliu/big{i}.dat"
        bed.laptop_fs.write(path, size=512 * MB)
        tasks.append(
            bed.go.submit(
                "boliu",
                TransferSpec(
                    source_endpoint="boliu#laptop",
                    dest_endpoint="cvrg#striped",
                    items=[TransferItem(path, f"/in/big{i}.dat")],
                    notify=False,
                ),
            )
        )
    bed.ctx.sim.run(until=bed.ctx.sim.all_of([bed.go.when_done(t) for t in tasks]))
    assert all(t.status == TaskStatus.SUCCEEDED for t in tasks)
    # both data movers actually carried traffic
    assert all(s.bytes_moved > 0 for s in servers)
    # and both files landed on the shared site filesystem
    assert shared_fs.stat("/in/big0.dat").size == 512 * MB
    assert shared_fs.stat("/in/big1.dat").size == 512 * MB


def test_single_server_endpoint_still_works():
    bed = Testbed()
    path = bed.put_file()
    task = bed.go.submit(
        "boliu",
        TransferSpec(
            source_endpoint="boliu#laptop",
            dest_endpoint="cvrg#galaxy",
            items=[TransferItem(path, "/g/x.dat")],
            notify=False,
        ),
    )
    bed.ctx.sim.run(until=bed.go.when_done(task))
    assert task.status == TaskStatus.SUCCEEDED


def test_staged_transfers_leave_no_server_load_behind():
    """``run(until=when_done)`` returns only after the task's ``done``
    callbacks ran, including the load release GO registers after its API
    latency; otherwise each staged transfer leaves both of its servers
    one task too high and ``pick_server`` balances on stale counts."""
    bed = Testbed()
    servers = [
        GridFTPServer(
            ctx=bed.ctx, hostname=f"dtn{i}.ec2", site="ec2",
            fs=SimFilesystem(f"dtn{i}"),
        )
        for i in range(2)
    ]
    bed.go.create_endpoint("cvrg#pair", servers, public=True)
    picked = []
    for i in range(3):
        path = bed.put_file(f"/home/boliu/f{i}.dat", size=4 * MB)
        picked.append(bed.go.endpoint("cvrg#pair").pick_server().hostname)
        task = bed.go.submit(
            "boliu",
            TransferSpec(
                source_endpoint="boliu#laptop",
                dest_endpoint="cvrg#pair",
                items=[TransferItem(path, f"/in/f{i}.dat")],
                notify=False,
            ),
        )
        bed.ctx.sim.run(until=bed.go.when_done(task))
        assert task.status == TaskStatus.SUCCEEDED
    assert [s.active_tasks for s in servers] == [0, 0]
    assert bed.laptop_server.active_tasks == 0
    # with no load left behind, every idle pick is the first server
    assert picked == ["dtn0.ec2"] * 3

"""Globus Online service: accounts, endpoints, activation, transfer tasks."""

import pytest

from repro.calibration import GB, MB
from repro.security import CertificateAuthority
from repro.simcore import SimContext
from repro.transfer import (
    GlobusError,
    GlobusOnline,
    TaskStatus,
    TransferItem,
    TransferSpec,
)

from .conftest import Testbed


def simple_spec(src="/home/boliu/data.zip", dst="/galaxy/database/data.zip", **kw):
    return TransferSpec(
        source_endpoint="boliu#laptop",
        dest_endpoint="cvrg#galaxy",
        items=[TransferItem(src, dst)],
        **kw,
    )


def test_register_duplicate_user():
    go = GlobusOnline(SimContext(seed=0))
    go.register_user("a")
    with pytest.raises(GlobusError, match="taken"):
        go.register_user("a")


def test_endpoint_name_must_be_qualified(bed):
    with pytest.raises(GlobusError, match="owner#display"):
        bed.go.create_endpoint("unqualified", [bed.laptop_server])


def test_endpoint_owner_must_exist(bed):
    with pytest.raises(GlobusError, match="no Globus Online account"):
        bed.go.create_endpoint("ghost#ep", [bed.laptop_server])


def test_endpoint_needs_servers(bed):
    with pytest.raises(GlobusError, match="at least one"):
        bed.go.create_endpoint("boliu#empty", [])


def test_list_endpoints_visibility(bed):
    bed.go.register_user("other")
    names = [e.name for e in bed.go.list_endpoints("other")]
    assert "cvrg#galaxy" in names      # public
    assert "boliu#laptop" not in names  # private to boliu
    assert [e.name for e in bed.go.list_endpoints("boliu")] == [
        "boliu#laptop",
        "cvrg#galaxy",
    ]


def test_successful_transfer_moves_file(bed):
    path = bed.put_file(size=10 * MB)
    task = bed.go.submit("boliu", simple_spec(src=path))
    assert task.status == TaskStatus.ACTIVE
    bed.ctx.sim.run(until=bed.go.when_done(task))
    assert task.status == TaskStatus.SUCCEEDED
    assert bed.galaxy_fs.stat("/galaxy/database/data.zip").size == 10 * MB
    assert task.bytes_transferred == 10 * MB
    assert task.files_transferred == 1


def test_transfer_autoactivates_endpoints(bed):
    path = bed.put_file()
    assert not bed.go.endpoint("cvrg#galaxy").is_activated("boliu", bed.ctx.now)
    task = bed.go.submit("boliu", simple_spec(src=path))
    bed.ctx.sim.run(until=bed.go.when_done(task))
    assert task.status == TaskStatus.SUCCEEDED
    assert bed.go.endpoint("cvrg#galaxy").is_activated("boliu", bed.ctx.now)
    codes = [e.code for e in task.events]
    assert "ACTIVATED" in codes


def test_transfer_fails_without_credential(bed):
    bed.go.register_user("nocred")
    path = bed.put_file()
    spec = simple_spec(src=path)
    task = bed.go.submit("nocred", spec)
    bed.ctx.sim.run(until=bed.go.when_done(task))
    assert task.status == TaskStatus.FAILED
    assert "no credential" in task.fatal_error


def test_transfer_fails_with_expired_credential():
    bed = Testbed()
    bed.ca.revoke(bed.boliu_cert)
    path = bed.put_file()
    task = bed.go.submit("boliu", simple_spec(src=path))
    bed.ctx.sim.run(until=bed.go.when_done(task))
    assert task.status == TaskStatus.FAILED
    assert "revoked" in task.fatal_error


def test_missing_source_file_fails_task(bed):
    task = bed.go.submit("boliu", simple_spec(src="/home/boliu/ghost.zip"))
    bed.ctx.sim.run(until=bed.go.when_done(task))
    assert task.status == TaskStatus.FAILED
    assert "ghost.zip" in task.fatal_error


def test_unknown_endpoint_rejected_at_submit(bed):
    spec = TransferSpec(
        source_endpoint="boliu#nope",
        dest_endpoint="cvrg#galaxy",
        items=[TransferItem("/a", "/b")],
    )
    with pytest.raises(GlobusError, match="no such endpoint"):
        bed.go.submit("boliu", spec)


def test_empty_items_rejected(bed):
    with pytest.raises(GlobusError, match="at least one item"):
        bed.go.submit(
            "boliu",
            TransferSpec("boliu#laptop", "cvrg#galaxy", items=[]),
        )


def test_email_notification_on_success(bed):
    path = bed.put_file()
    task = bed.go.submit("boliu", simple_spec(src=path, label="upload cel files"))
    bed.ctx.sim.run(until=bed.go.when_done(task))
    assert len(bed.go.emails) == 1
    mail = bed.go.emails[0]
    assert mail.to == "boliu@uchicago.edu"
    assert "SUCCEEDED" in mail.subject
    assert "upload cel files" in mail.body


def test_notify_false_suppresses_email(bed):
    path = bed.put_file()
    task = bed.go.submit("boliu", simple_spec(src=path, notify=False))
    bed.ctx.sim.run(until=bed.go.when_done(task))
    assert bed.go.emails == []


def test_deadline_exceeded_fails_task(bed):
    path = bed.put_file(size=1 * GB)
    task = bed.go.submit("boliu", simple_spec(src=path, deadline_s=10.0))
    bed.ctx.sim.run(until=bed.go.when_done(task))
    assert task.status == TaskStatus.FAILED
    assert "deadline" in task.fatal_error
    # failed exactly at the deadline, not after
    assert task.completion_time == pytest.approx(task.submit_time + 10.0)
    assert not bed.galaxy_fs.exists("/galaxy/database/data.zip")


def test_generous_deadline_succeeds(bed):
    path = bed.put_file(size=1 * MB)
    task = bed.go.submit("boliu", simple_spec(src=path, deadline_s=3600.0))
    bed.ctx.sim.run(until=bed.go.when_done(task))
    assert task.status == TaskStatus.SUCCEEDED


def test_faults_are_retried_and_counted():
    bed = Testbed(fault_rate=0.4, seed=123)
    path = bed.put_file(size=100 * MB)
    task = bed.go.submit("boliu", simple_spec(src=path))
    bed.ctx.sim.run(until=bed.go.when_done(task))
    # with 40% fault rate and several attempts, at least one fault occurred
    assert task.status in (TaskStatus.SUCCEEDED, TaskStatus.FAILED)
    if task.status == TaskStatus.SUCCEEDED:
        assert bed.galaxy_fs.exists("/galaxy/database/data.zip")
    assert task.faults >= 1
    assert any(e.code == "FAULT" for e in task.events)


def test_fault_free_service_has_no_fault_events(bed):
    path = bed.put_file(size=100 * MB)
    task = bed.go.submit("boliu", simple_spec(src=path))
    bed.ctx.sim.run(until=bed.go.when_done(task))
    assert task.faults == 0
    assert task.status == TaskStatus.SUCCEEDED


def test_fault_free_tasks_build_no_fault_stream(bed):
    """Only a faulty service draws from ``globus.faults``, so a fault-free
    one never builds the stream, on the chunk-cohort path or (with a
    deadline) on the retry loop's."""
    path = bed.put_file(size=10 * MB)
    for spec in (simple_spec(src=path), simple_spec(src=path, deadline_s=3600.0)):
        task = bed.go.submit("boliu", spec)
        bed.ctx.sim.run(until=bed.go.when_done(task))
        assert task.status == TaskStatus.SUCCEEDED
    assert "globus.faults" not in bed.ctx.rng._streams


def test_recursive_directory_transfer(bed):
    for i in range(3):
        bed.laptop_fs.write(f"/home/boliu/celdir/sample_{i}.cel", size=MB)
    bed.laptop_fs.write("/home/boliu/celdir/nested/readme.txt", data=b"notes")
    spec = TransferSpec(
        source_endpoint="boliu#laptop",
        dest_endpoint="cvrg#galaxy",
        items=[TransferItem("/home/boliu/celdir", "/galaxy/database/celdir", recursive=True)],
    )
    task = bed.go.submit("boliu", spec)
    bed.ctx.sim.run(until=bed.go.when_done(task))
    assert task.status == TaskStatus.SUCCEEDED
    assert task.files_transferred == 4
    assert bed.galaxy_fs.exists("/galaxy/database/celdir/sample_0.cel")
    assert bed.galaxy_fs.read("/galaxy/database/celdir/nested/readme.txt") == b"notes"


def test_third_party_transfer_neither_endpoint_local(bed):
    """boliu triggers cvrg#galaxy -> cvrg#repo without touching his laptop."""
    repo_fs = __import__("repro.cluster", fromlist=["SimFilesystem"]).SimFilesystem("repo")
    from repro.transfer import GridFTPServer

    repo_server = GridFTPServer(
        ctx=bed.ctx, hostname="repo.cvrg.org", site="cvrg", fs=repo_fs
    )
    bed.go.create_endpoint("cvrg#repo", [repo_server], public=True)
    bed.galaxy_fs.write("/galaxy/database/results.txt", data=b"top table")
    spec = TransferSpec(
        source_endpoint="cvrg#galaxy",
        dest_endpoint="cvrg#repo",
        items=[TransferItem("/galaxy/database/results.txt", "/archive/results.txt")],
    )
    task = bed.go.submit("boliu", spec)
    bed.ctx.sim.run(until=bed.go.when_done(task))
    assert task.status == TaskStatus.SUCCEEDED
    assert repo_fs.read("/archive/results.txt") == b"top table"


def test_bigger_files_take_longer(bed):
    p1 = bed.put_file("/home/boliu/small.zip", size=1 * MB)
    t1 = bed.go.submit("boliu", simple_spec(src=p1, dst="/g/small.zip"))
    bed.ctx.sim.run(until=bed.go.when_done(t1))
    d1 = t1.duration_s

    p2 = bed.put_file("/home/boliu/big.zip", size=512 * MB)
    t2 = bed.go.submit("boliu", simple_spec(src=p2, dst="/g/big.zip"))
    bed.ctx.sim.run(until=bed.go.when_done(t2))
    assert t2.duration_s > d1


def test_effective_rate_grows_with_size(bed):
    """The Fig. 11 mechanism: overhead amortises, streams scale up."""
    rates = []
    for i, size in enumerate([1 * MB, 100 * MB, 1 * GB]):
        p = bed.put_file(f"/home/boliu/f{i}.bin", size=size)
        t = bed.go.submit("boliu", simple_spec(src=p, dst=f"/g/f{i}.bin"))
        bed.ctx.sim.run(until=bed.go.when_done(t))
        rates.append(t.effective_rate_mbps())
    assert rates[0] < rates[1] < rates[2]


def test_forced_parallel_streams(bed):
    """Forcing 1 stream on a big file is slower than auto-tuned 4."""
    p = bed.put_file("/home/boliu/big1.bin", size=1 * GB)
    t1 = bed.go.submit("boliu", simple_spec(src=p, dst="/g/a.bin", parallel=1))
    bed.ctx.sim.run(until=bed.go.when_done(t1))
    p2 = bed.put_file("/home/boliu/big2.bin", size=1 * GB)
    t4 = bed.go.submit("boliu", simple_spec(src=p2, dst="/g/b.bin"))
    bed.ctx.sim.run(until=bed.go.when_done(t4))
    assert t4.duration_s < t1.duration_s / 2


def test_invalid_fault_rate():
    with pytest.raises(ValueError):
        GlobusOnline(SimContext(seed=0), fault_rate=1.5)


def test_task_lookup(bed):
    path = bed.put_file()
    task = bed.go.submit("boliu", simple_spec(src=path))
    assert bed.go.task(task.task_id) is task
    with pytest.raises(GlobusError):
        bed.go.task("go-task-999999")

"""TransferClient (REST facade), FTP/HTTP baselines, sites, GridFTP."""

import pytest

from repro.calibration import GB, MB
from repro.cloud import NetworkPath
from repro.cluster import SimFilesystem
from repro.transfer import (
    FTPUploader,
    GlobusAPIError,
    GridFTPError,
    GridFTPServer,
    HTTPUploader,
    SiteGraph,
    TransferClient,
    UploadError,
)

from .conftest import Testbed


# -- TransferClient ----------------------------------------------------------


def test_client_requires_known_account(bed):
    with pytest.raises(GlobusAPIError) as err:
        TransferClient(bed.go, "ghost")
    assert err.value.status == 401


def test_submit_and_poll_task(bed):
    path = bed.put_file()
    client = TransferClient(bed.go, "boliu")
    doc = client.submit_transfer(
        client.get_submission_id(),
        "boliu#laptop",
        "cvrg#galaxy",
        [(path, "/galaxy/database/data.zip")],
        label="from api",
    )
    assert doc.status == "ACTIVE"
    bed.ctx.sim.run(until=client.when_task_done(doc.task_id))
    final = client.get_task(doc.task_id)
    assert final.status == "SUCCEEDED"
    assert final.files_transferred == 1
    assert client.task_successful(doc.task_id)
    events = client.task_event_list(doc.task_id)
    assert events[0]["code"] == "SUBMITTED"
    assert events[-1]["code"] == "SUCCEEDED"


def test_submission_id_reuse_rejected(bed):
    path = bed.put_file()
    client = TransferClient(bed.go, "boliu")
    sid = client.get_submission_id()
    client.submit_transfer(sid, "boliu#laptop", "cvrg#galaxy", [(path, "/g/a")])
    with pytest.raises(GlobusAPIError) as err:
        client.submit_transfer(sid, "boliu#laptop", "cvrg#galaxy", [(path, "/g/b")])
    assert err.value.status == 409


def test_bad_endpoint_is_400(bed):
    client = TransferClient(bed.go, "boliu")
    with pytest.raises(GlobusAPIError) as err:
        client.submit_transfer(
            client.get_submission_id(), "boliu#nope", "cvrg#galaxy", [("/a", "/b")]
        )
    assert err.value.status == 400


def test_task_of_other_user_is_403(bed):
    path = bed.put_file()
    owner = TransferClient(bed.go, "boliu")
    doc = owner.submit_transfer(
        owner.get_submission_id(), "boliu#laptop", "cvrg#galaxy", [(path, "/g/x")]
    )
    bed.go.register_user("snoop")
    snoop = TransferClient(bed.go, "snoop")
    with pytest.raises(GlobusAPIError) as err:
        snoop.get_task(doc.task_id)
    assert err.value.status == 403


def test_unknown_task_is_404(bed):
    client = TransferClient(bed.go, "boliu")
    with pytest.raises(GlobusAPIError) as err:
        client.get_task("go-task-424242")
    assert err.value.status == 404


def test_endpoint_list_and_activate(bed):
    client = TransferClient(bed.go, "boliu")
    assert client.endpoint_list() == ["boliu#laptop", "cvrg#galaxy"]
    expiry = client.endpoint_activate("cvrg#galaxy")
    assert expiry > bed.ctx.now
    bed.go.register_user("nocred")
    nocred = TransferClient(bed.go, "nocred")
    with pytest.raises(GlobusAPIError) as err:
        nocred.endpoint_activate("cvrg#galaxy")
    assert err.value.status == 400


# -- FTP / HTTP baselines ------------------------------------------------------


def run_upload(bed, uploader_cls, size, dst="/galaxy/database/up.dat"):
    src = bed.put_file("/home/boliu/up.dat", size=size)
    up = uploader_cls(bed.ctx)
    proc = bed.ctx.sim.process(
        up.upload(bed.laptop_fs, src, bed.galaxy_fs, dst)
    )
    return bed.ctx.sim.run(until=proc)


def test_ftp_upload_moves_file(bed):
    result = run_upload(bed, FTPUploader, 10 * MB)
    assert bed.galaxy_fs.stat("/galaxy/database/up.dat").size == 10 * MB
    assert result.protocol == "ftp"
    assert 0.1 < result.rate_mbps < 6.5


def test_http_upload_slower_than_ftp(bed):
    ftp = run_upload(bed, FTPUploader, 5 * MB, dst="/g/ftp.dat")
    http = run_upload(bed, HTTPUploader, 5 * MB, dst="/g/http.dat")
    assert http.seconds > ftp.seconds
    assert http.rate_mbps < 0.03


def test_http_refuses_over_2gb(bed):
    src = bed.put_file("/home/boliu/huge.dat", size=2 * GB + 1)
    up = HTTPUploader(bed.ctx)
    proc = bed.ctx.sim.process(
        up.upload(bed.laptop_fs, src, bed.galaxy_fs, "/g/huge.dat")
    )
    with pytest.raises(UploadError, match="exceeds"):
        bed.ctx.sim.run(until=proc)


def test_upload_missing_source(bed):
    up = FTPUploader(bed.ctx)
    with pytest.raises(UploadError, match="ghost"):
        # the generator raises at creation time (stat happens eagerly)
        proc = bed.ctx.sim.process(
            up.upload(bed.laptop_fs, "/ghost", bed.galaxy_fs, "/g/x")
        )
        bed.ctx.sim.run(until=proc)


def test_upload_preserves_content(bed):
    bed.laptop_fs.write("/home/boliu/small.txt", data=b"content!")
    up = FTPUploader(bed.ctx)
    proc = bed.ctx.sim.process(
        up.upload(bed.laptop_fs, "/home/boliu/small.txt", bed.galaxy_fs, "/g/s.txt")
    )
    bed.ctx.sim.run(until=proc)
    assert bed.galaxy_fs.read("/g/s.txt") == b"content!"


# -- SiteGraph -------------------------------------------------------------------


def test_site_graph_paths():
    g = SiteGraph.paper_testbed()
    assert g.path("laptop", "ec2").rtt_s == pytest.approx(0.05)
    assert g.path("ec2", "laptop") is g.path("laptop", "ec2")
    # same-site is LAN-fast
    assert g.path("ec2", "ec2").rtt_s < 0.01
    # unknown pairs use the default WAN
    assert g.path("mars", "ec2") is g.default


def test_site_graph_rejects_self_connect():
    g = SiteGraph()
    with pytest.raises(ValueError):
        g.connect("a", "a", NetworkPath.paper_wan())


# -- GridFTP server --------------------------------------------------------------


def test_gridftp_stat_missing(bed):
    with pytest.raises(GridFTPError):
        bed.laptop_server.stat("/nope")


def test_gridftp_list_files_on_file_and_dir(bed):
    bed.laptop_fs.write("/d/a", size=1)
    bed.laptop_fs.write("/d/sub/b", size=1)
    assert bed.laptop_server.list_files("/d/a") == ["/d/a"]
    assert bed.laptop_server.list_files("/d") == ["/d/a", "/d/sub/b"]
    with pytest.raises(GridFTPError, match="no such path"):
        bed.laptop_server.list_files("/missing")


def test_gridftp_invalid_parallel(bed):
    with pytest.raises(GridFTPError):
        bed.laptop_server.stream_plan(1024, parallel=0)

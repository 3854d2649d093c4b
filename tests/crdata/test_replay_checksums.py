"""A replayed CRData run gives its outputs the checksums of its first run.

A memo hit replays each content write with the SHA-256 hex digest that
the first run's ``FileNode`` got, so the filesystem hashes none of the
replayed bytes.  A size-only write carries no checksum: its
``bulk_checksum`` token names the path and the write time, which a
replay need not share with the first run.
"""

import hashlib

import pytest

from repro.cluster import nfs
from repro.crdata.catalog import RESULT_MEMO
from repro.galaxy import GalaxyApp, JobState
from repro.simcore import SimContext

from .test_output_digests import CASES
from .test_result_memo import INPUTS, probe_tool, run_once


@pytest.fixture(autouse=True)
def cold_memo():
    RESULT_MEMO.clear()
    yield
    RESULT_MEMO.clear()


class RecordingHashlib:
    """``hashlib`` as :mod:`repro.cluster.nfs` sees it: records every
    byte string handed to ``sha256``."""

    def __init__(self) -> None:
        self.hashed: list[bytes] = []

    def sha256(self, data: bytes = b""):
        self.hashed.append(bytes(data))
        return hashlib.sha256(data)


def output_nodes(app, job):
    return {name: app.fs.stat(ds.file_path) for name, ds in job.outputs.items()}


@pytest.mark.parametrize("case", CASES)
def test_a_warm_hit_hashes_none_of_its_replayed_bytes(case, monkeypatch):
    tool_id, kind = case[:-1].split("[")
    cold = output_nodes(*run_once(tool_id, INPUTS[kind]))
    recording = RecordingHashlib()
    monkeypatch.setattr(nfs, "hashlib", recording)
    app, job = run_once(tool_id, INPUTS[kind])
    assert job.state == JobState.OK, job.stderr
    assert len(RESULT_MEMO) == 1
    warm = output_nodes(app, job)
    replayed = {node.data for node in warm.values()}
    assert not replayed & set(recording.hashed)
    assert {name: node.checksum for name, node in warm.items()} == {
        name: node.checksum for name, node in cold.items()
    }
    for node in warm.values():
        assert node.checksum == hashlib.sha256(node.data).hexdigest()


def test_a_replayed_size_only_write_mints_its_own_token():
    def execute(run):
        run.output("out").write(size=4096)

    ctx = SimContext(seed=5)
    app = GalaxyApp(ctx, job_overheads=(0.0, 0.0))
    app.toolbox.register(probe_tool(execute))
    app.create_user("boliu")
    history = app.create_history("boliu", "memo")
    name, data, _, ext = INPUTS["matrix"]
    dataset = app.upload_data(history, name, data=data, ext=ext)
    nodes = []
    for _ in range(2):
        job = app.run_tool("boliu", history, "crdata_memoProbe", inputs=[dataset])
        ctx.sim.run(until=app.jobs.when_done(job))
        assert job.state == JobState.OK, job.stderr
        nodes.append(app.fs.stat(job.outputs["out"].file_path))
    assert len(RESULT_MEMO) == 1
    for node in nodes:
        assert node.checksum == nfs.bulk_checksum(node.path, 4096, node.mtime)
    assert nodes[0].checksum != nodes[1].checksum

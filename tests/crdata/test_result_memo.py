"""The CRData result memo: a repeated analysis is replayed, not recomputed.

Every CRData tool's ``execute`` goes through ``catalog.RESULT_MEMO``,
keyed by the tool id, the validated params with their types, the SHA-256
of each input's bytes and the declared output names.  Each digest-pin
case runs twice, in two fresh worlds.  The second run, with the
statistics engines, the data formats and the plotting replaced by stubs
that raise, must leave exactly what the first run left.  A changed param
or input byte misses; a failing run stores nothing and fails the same
way twice; the byte cap evicts the oldest entry.
"""

import pytest

from repro.crdata import catalog, install_crdata_tools
from repro.crdata.catalog import RESULT_MEMO
from repro.crdata.formats import CelArchive
from repro.galaxy import GalaxyApp, JobState
from repro.simcore import SimContext
from repro.workloads import (
    make_affy_cel_archive,
    make_clinical_table,
    make_expression_matrix_bytes,
    make_four_cel_archive,
    make_rnaseq_archive,
)

from .test_output_digests import CASES, TOOL_PINS, sha256

FOUR, AFFY = make_four_cel_archive(), make_affy_cel_archive()
#: the digest-pin world's uploads: name, bytes, declared size, extension
INPUTS = {
    "four_cel": ("fourCelFileSamples.zip", FOUR.to_bytes(), FOUR.declared_size, "zip"),
    "affy_cel": ("affyCelFileSamples.zip", AFFY.to_bytes(), AFFY.declared_size, "zip"),
    "matrix": ("m.tsv", make_expression_matrix_bytes(), None, "tabular"),
    "bam": ("r.bam", make_rnaseq_archive().to_bytes(), None, "bam"),
    "clinical": ("c.tsv", make_clinical_table(), None, "tabular"),
}
DIFFEXPR = "crdata_affyDifferentialExpression"
TTEST = "crdata_matrixTTest"

#: what the tools compute with: the engines, the data formats, the plots
COMPUTE = (
    "classify", "clustering", "diffexpr", "normalize", "qc", "rnaseq", "survival",
    "plots", "BamArchive", "CelArchive", "ExpressionMatrix", "sniff",
)


class Stub:
    """Stands in for a module or class a tool computes with."""

    def __init__(self, name):
        self._name = name

    def __getattr__(self, attr):
        raise AssertionError(f"computed with {self._name}.{attr}")

    def __call__(self, *args, **kwargs):
        raise AssertionError(f"computed with {self._name}")


def stub_compute(monkeypatch):
    for name in COMPUTE:
        monkeypatch.setattr(catalog, name, Stub(name))


@pytest.fixture(autouse=True)
def cold_memo():
    RESULT_MEMO.clear()
    yield
    RESULT_MEMO.clear()


def run_once(tool_id, upload, params=None, tools=()):
    """Run one job in a fresh world; ``upload`` is ``(name, data, size,
    ext)``.  Returns the app and the finished job."""
    ctx = SimContext(seed=5)
    app = GalaxyApp(ctx, job_overheads=(0.0, 0.0))
    install_crdata_tools(app.toolbox)
    for tool in tools:
        app.toolbox.register(tool)
    app.create_user("boliu")
    history = app.create_history("boliu", "memo")
    name, data, size, ext = upload
    dataset = app.upload_data(history, name, data=data, size=size, ext=ext)
    job = app.run_tool("boliu", history, tool_id, params=params, inputs=[dataset])
    ctx.sim.run(until=app.jobs.when_done(job))
    return app, job


def left_behind(app, job):
    """Everything a job leaves: its state, stdout and stderr, and per
    output the file's bytes, size, checksum and mtime and the dataset's
    size, peek, info, name, metadata and state."""
    outputs = {}
    for name, ds in job.outputs.items():
        node = app.fs.stat(ds.file_path) if app.fs.isfile(ds.file_path) else None
        outputs[name] = (
            None if node is None else (node.data, node.size, node.checksum, node.mtime),
            ds.size, ds.peek, ds.info, ds.name, ds.metadata, ds.state,
        )
    return job.state, job.stdout, job.stderr, outputs


def pinned_digests(app, job):
    """The digest-pin form of a job's outputs."""
    digests = {}
    for name, ds in job.outputs.items():
        digests[name] = sha256(app.fs.read(ds.file_path))
        digests[f"{name}.info"] = sha256(ds.info.encode())
    return digests


@pytest.mark.parametrize("case", CASES)
def test_second_run_replays_the_first_and_computes_nothing(case, monkeypatch):
    tool_id, kind = case[:-1].split("[")
    app, job = run_once(tool_id, INPUTS[kind])
    first = left_behind(app, job)
    assert job.state == JobState.OK, job.stderr
    assert len(RESULT_MEMO) == 1

    stub_compute(monkeypatch)
    app, job = run_once(tool_id, INPUTS[kind])
    assert job.state == JobState.OK, job.stderr
    assert left_behind(app, job) == first
    assert len(RESULT_MEMO) == 1
    assert pinned_digests(app, job) == TOOL_PINS[case]


def flip_one_byte(data: bytes) -> bytes:
    """The matrix with one bit of its first value's last digit flipped."""
    i = data.index(b"\t", data.index(b"_at\t") + 4) - 1
    return data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]


@pytest.mark.parametrize(
    "tool_id, kind, upload, params",
    [
        pytest.param(
            DIFFEXPR, "four_cel", INPUTS["four_cel"], {"top_n": 49}, id="top_n-49"
        ),
        pytest.param(
            TTEST,
            "matrix",
            ("m.tsv", flip_one_byte(INPUTS["matrix"][1]), None, "tabular"),
            None,
            id="flipped-input-byte",
        ),
    ],
)
def test_changed_param_or_input_byte_misses(tool_id, kind, upload, params, monkeypatch):
    assert run_once(tool_id, INPUTS[kind])[1].state == JobState.OK
    stub_compute(monkeypatch)
    # a miss computes, and the stubs make computing fail
    _, job = run_once(tool_id, upload, params=params)
    assert job.state == JobState.ERROR
    assert job.stderr.startswith("computed with ")
    assert len(RESULT_MEMO) == 1
    monkeypatch.undo()
    _, job = run_once(tool_id, upload, params=params)
    assert job.state == JobState.OK, job.stderr
    assert len(RESULT_MEMO) == 2


def three_group_archive():
    arch = CelArchive(
        n_arrays=6, n_probes=200, seed=3, groups=["a", "a", "b", "b", "c", "c"],
        n_diff=5, effect=1.0, declared_size=6_000_000,
    )
    return ("threeGroups.zip", arch.to_bytes(), arch.declared_size, "zip")


@pytest.mark.parametrize(
    "upload, error",
    [
        pytest.param(
            three_group_archive(),
            "two-group analysis needs exactly two groups, found ['a', 'b', 'c']",
            id="three-groups",
        ),
        pytest.param(
            ("big.zip", None, 190_000_000, "zip"),
            "/galaxy/database/files/dataset_1.dat is a bulk (size-only) file"
            " with no stored bytes",
            id="size-only-input",
        ),
    ],
)
def test_failing_run_stores_nothing_and_fails_alike_twice(upload, error):
    app, job = run_once(DIFFEXPR, upload)
    first = left_behind(app, job)
    assert job.state == JobState.ERROR and job.stderr == error
    assert len(RESULT_MEMO) == 0
    app, job = run_once(DIFFEXPR, upload)
    assert left_behind(app, job) == first
    assert len(RESULT_MEMO) == 0


def probe_tool(execute, parameters=None):
    """A CRData-style tool built by the catalog's own factory."""
    return catalog._tool(
        "memoProbe.R", "memo probe", execute,
        outputs=[{"name": "out", "ext": "txt"}], parameters=parameters,
    )


@pytest.mark.parametrize("attr", ["ctx", "job", "user", "services", "inputs"])
def test_unkeyed_state_fails_on_the_first_run(attr):
    def execute(run):
        run.output("out").write(b"partial\n")
        getattr(run, attr)

    _, job = run_once("crdata_memoProbe", INPUTS["matrix"], tools=[probe_tool(execute)])
    assert job.state == JobState.ERROR
    assert job.stderr.endswith(f"object has no attribute {attr!r}")
    assert len(RESULT_MEMO) == 0


def test_partial_writes_of_a_failing_run_reach_the_outputs():
    def execute(run):
        run.output("out").write(b"partial\n")
        run.log("wrote part")
        raise catalog.ToolError("gave up")

    tool = probe_tool(execute)
    app, job = run_once("crdata_memoProbe", INPUTS["matrix"], tools=[tool])
    assert (job.state, job.stderr, job.stdout) == (JobState.ERROR, "gave up", "wrote part")
    assert app.fs.read(job.outputs["out"].file_path) == b"partial\n"
    assert len(RESULT_MEMO) == 0


def test_a_run_that_reads_an_input_name_is_not_stored():
    def execute(run):
        run.output("out").write(run.input(0).name.encode())

    tool = probe_tool(execute)
    for name in ("first.tsv", "second.tsv"):
        upload = (name,) + INPUTS["matrix"][1:]
        app, job = run_once("crdata_memoProbe", upload, tools=[tool])
        assert app.fs.read(job.outputs["out"].file_path) == name.encode()
        assert len(RESULT_MEMO) == 0


def test_param_values_of_different_types_never_share_a_key():
    def execute(run):
        run.output("out").write(repr(run.params["v"]).encode())

    # a select keeps the value as given, and 1 == 1.0 == True
    tool = probe_tool(execute, [{"name": "v", "type": "select", "options": (1, 2)}])
    for count, value in enumerate((1, 1.0, True), start=1):
        app, job = run_once("crdata_memoProbe", INPUTS["matrix"], {"v": value}, [tool])
        assert app.fs.read(job.outputs["out"].file_path) == repr(value).encode()
        assert len(RESULT_MEMO) == count


def test_going_past_the_cap_evicts_the_oldest_entry(monkeypatch):
    oldest = run_once(TTEST, INPUTS["matrix"])
    kept = left_behind(*oldest)
    entry = RESULT_MEMO.nbytes
    monkeypatch.setattr(catalog, "MEMO_CAP_BYTES", entry + entry // 2)
    run_once(TTEST, INPUTS["matrix"], {"top_n": 49})
    assert len(RESULT_MEMO) == 1
    assert RESULT_MEMO.nbytes <= catalog.MEMO_CAP_BYTES
    with monkeypatch.context() as m:
        stub_compute(m)
        # the newest entry is kept, the oldest has gone
        assert run_once(TTEST, INPUTS["matrix"], {"top_n": 49})[1].state == JobState.OK
        assert run_once(TTEST, INPUTS["matrix"])[1].state == JobState.ERROR
    assert left_behind(*run_once(TTEST, INPUTS["matrix"])) == kept
    # an entry larger than the whole cap is never stored
    RESULT_MEMO.clear()
    monkeypatch.setattr(catalog, "MEMO_CAP_BYTES", entry - 1)
    assert run_once(TTEST, INPUTS["matrix"])[1].state == JobState.OK
    assert len(RESULT_MEMO) == 0

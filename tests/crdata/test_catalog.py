"""The 35-tool catalog: registration, and every tool runs through Galaxy."""

import numpy as np
import pytest

from repro.crdata import (
    BamArchive,
    ExpressionMatrix,
    USECASE_TOOL_ID,
    build_crdata_tools,
    install_crdata_tools,
)
from repro.galaxy import GalaxyApp, JobState
from repro.simcore import SimContext
from repro.workloads import (
    make_clinical_table,
    make_expression_matrix_bytes,
    make_four_cel_archive,
    make_rnaseq_archive,
)


@pytest.fixture
def app():
    ctx = SimContext(seed=9)
    app = GalaxyApp(ctx, job_overheads=(0.0, 0.0))
    install_crdata_tools(app.toolbox)
    app.create_user("boliu")
    return app


@pytest.fixture
def history(app):
    return app.create_history("boliu", "CRData")


def run(app, history, tool_id, ds, params=None):
    job = app.run_tool("boliu", history, tool_id, params=params, inputs=[ds])
    app.ctx.sim.run(until=app.jobs.when_done(job))
    return job


def upload_cel(app, history):
    arch = make_four_cel_archive()
    return app.upload_data(
        history, "fourCelFileSamples.zip", data=arch.to_bytes(),
        size=arch.declared_size, ext="zip",
    )


def upload_matrix(app, history):
    return app.upload_data(
        history, "matrix.tsv", data=make_expression_matrix_bytes(), ext="tabular"
    )


def upload_bam(app, history):
    arch = make_rnaseq_archive()
    return app.upload_data(history, "reads.bam", data=arch.to_bytes(), ext="bam")


def test_catalog_has_35_tools():
    tools = build_crdata_tools()
    assert len(tools) == 35
    assert len({t.id for t in tools}) == 35
    named = {t.name for t in tools}
    # the four scripts the paper names explicitly
    assert {"affyDifferentialExpression.R", "affyClassify.R",
            "heatmap_plot_demo.R", "sequenceCountsPerTranscript.R",
            "sequenceDifferentialExperssion.R"} <= named
    assert all(t.requirements == ("R", "crdata-tools") for t in tools)
    assert all(t.description for t in tools)


def test_install_places_tools_in_crdata_section(app):
    sections = app.toolbox.sections()
    assert len(sections["CRData"]) == 35


def test_usecase_tool_recovers_planted_probes(app, history):
    """The paper's step 3: affyDifferentialExpression on 4 CEL files."""
    arch = make_four_cel_archive()
    ds = upload_cel(app, history)
    assert ds.size == arch.declared_size  # paper's 10.7 MB
    job = run(app, history, USECASE_TOOL_ID, ds, params={"top_n": 100})
    assert job.state == JobState.OK
    top_table = app.fs.read(job.outputs["top_table"].file_path).decode()
    lines = top_table.strip().splitlines()
    assert lines[0].startswith("probe\tlogFC")
    planted = {f"probe_{i:05d}_at" for i in arch.planted_probes()}
    reported = {ln.split("\t")[0] for ln in lines[1 : len(planted) + 1]}
    recovery = len(reported & planted) / len(planted)
    assert recovery >= 0.85
    figure = app.fs.read(job.outputs["figure"].file_path).decode()
    assert figure.startswith("<svg")
    assert "volcano" in figure.lower()


def test_affy_classify_perfect_on_separable(app, history):
    ds = upload_cel(app, history)
    job = run(app, history, "crdata_affyClassify", ds)
    assert job.state == JobState.OK
    preds = app.fs.read(job.outputs["predictions"].file_path).decode()
    assert "accuracy: 1.000" in preds


def test_heatmap_tool_clusters_samples(app, history):
    ds = upload_cel(app, history)
    job = run(app, history, "crdata_heatmap_plot_demo", ds)
    assert job.state == JobState.OK
    clusters = app.fs.read(job.outputs["clusters"].file_path).decode()
    rows = dict(
        ln.split("\t") for ln in clusters.strip().splitlines()[1:]
    )
    assert rows["sample_01.CEL"] == rows["sample_02.CEL"]
    assert rows["sample_03.CEL"] == rows["sample_04.CEL"]
    assert rows["sample_01.CEL"] != rows["sample_03.CEL"]


def test_sequence_counts_matrix_shape(app, history):
    ds = upload_bam(app, history)
    job = run(app, history, "crdata_sequenceCountsPerTranscript", ds)
    assert job.state == JobState.OK
    counts = app.fs.read(job.outputs["counts"].file_path).decode()
    lines = counts.strip().splitlines()
    arch = make_rnaseq_archive()
    assert len(lines) == arch.n_transcripts + 1
    header = lines[0].split("\t")
    assert header[1:] == arch.samples


def test_sequence_de_recovers_planted(app, history):
    arch = make_rnaseq_archive(n_reads=30_000, effect=4.0)
    ds = app.upload_data(history, "reads.bam", data=arch.to_bytes(), ext="bam")
    job = run(app, history, "crdata_sequenceDifferentialExperssion", ds,
              params={"top_n": 15})
    assert job.state == JobState.OK
    table = app.fs.read(job.outputs["top_table"].file_path).decode()
    planted = {f"tx_{i:04d}" for i in arch.planted_transcripts()}
    reported = {ln.split("\t")[0] for ln in table.strip().splitlines()[1:]}
    assert len(reported & planted) / len(planted) >= 0.6


def test_survival_tool(app, history):
    ds = app.upload_data(history, "clinical.tsv", data=make_clinical_table(), ext="tabular")
    job = run(app, history, "crdata_survivalKaplanMeier", ds)
    assert job.state == JobState.OK
    curves = app.fs.read(job.outputs["curves"].file_path).decode()
    assert "# group: A" in curves and "# group: B" in curves
    assert "log-rank" in job.outputs["curves"].info


def test_wrong_input_format_errors_cleanly(app, history):
    ds = app.upload_data(history, "garbage.txt", data=b"not a cel archive", ext="txt")
    job = run(app, history, "crdata_affyNormalize", ds)
    assert job.state == JobState.ERROR
    assert "not a CEL archive" in job.stderr


def test_matrix_pipeline_normalize_then_de(app, history):
    """Chain: affyNormalize -> matrixModeratedTTest reproduces the DE result."""
    ds = upload_cel(app, history)
    norm_job = run(app, history, "crdata_affyNormalize", ds)
    assert norm_job.state == JobState.OK
    matrix_ds = norm_job.outputs["matrix"]
    de_job = run(app, history, "crdata_matrixModeratedTTest", matrix_ds)
    assert de_job.state == JobState.OK
    table = app.fs.read(de_job.outputs["top_table"].file_path).decode()
    assert table.startswith("probe\tlogFC")


def test_every_tool_runs_ok(app, history):
    """Smoke: all 35 tools produce OK jobs on a suitable input."""
    cel = upload_cel(app, history)
    matrix = upload_matrix(app, history)
    bam = upload_bam(app, history)
    clinical = app.upload_data(
        history, "clinical.tsv", data=make_clinical_table(), ext="tabular"
    )
    inputs = {
        "crdata_survivalKaplanMeier": clinical,
    }
    failures = []
    for tool in app.toolbox.sections()["CRData"]:
        if tool.id in inputs:
            ds = inputs[tool.id]
        elif tool.id.startswith("crdata_affy") or tool.id == "crdata_heatmap_plot_demo":
            ds = cel
        elif tool.id.startswith("crdata_sequence"):
            ds = bam
        else:
            ds = matrix
        job = run(app, history, tool.id, ds)
        if job.state != JobState.OK:
            failures.append((tool.id, job.stderr))
    assert not failures, failures


def test_filter_then_reuse_output(app, history):
    bam = upload_bam(app, history)
    fjob = run(app, history, "crdata_sequenceFilterReads", bam,
               params={"keep_fraction": 0.5})
    assert fjob.state == JobState.OK
    filtered = fjob.outputs["bam"]
    cjob = run(app, history, "crdata_sequenceCountsPerTranscript", filtered)
    assert cjob.state == JobState.OK
    text = app.fs.read(cjob.outputs["counts"].file_path).decode()
    total = sum(
        sum(int(v) for v in ln.split("\t")[1:])
        for ln in text.strip().splitlines()[1:]
    )
    arch = make_rnaseq_archive()
    assert total <= arch.n_reads_per_sample * len(arch.samples) * 0.55


def test_bad_parameter_value_rejected(app, history):
    ds = upload_bam(app, history)
    job = run(app, history, "crdata_sequenceFilterReads", ds,
              params={"keep_fraction": 2.0})
    assert job.state == JobState.ERROR
    assert "keep_fraction" in job.stderr


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "tool_id,groups",
    [("crdata_matrixTTest", ["A"] * 3 + ["B"] * 3),
     ("crdata_matrixANOVA", ["a", "a", "b", "b", "c", "c"])],
)
def test_constant_row_prints_nan_only_on_its_own_last_row(app, history, tool_id, groups):
    """A constant probe has no p-value; it goes last, and the other rows
    keep their BH-adjusted p instead of printing nan."""
    values = np.random.default_rng(8).normal(8.0, 1.0, size=(30, 6))
    values[4] = 7.5
    em = ExpressionMatrix(values, [f"p{i}" for i in range(30)],
                          [f"s{i}" for i in range(6)], groups)
    ds = app.upload_data(history, "constant.tsv", data=em.to_bytes(), ext="tabular")
    job = run(app, history, tool_id, ds)
    assert job.state == JobState.OK, job.stderr
    out = job.outputs["top_table" if tool_id == "crdata_matrixTTest" else "table"]
    body = [ln.split("\t") for ln in app.fs.read(out.file_path).decode().splitlines()[1:]]
    assert len(body) == 30
    assert body[-1][0] == "p4"
    assert body[-1][-2:] == ["nan", "nan"]
    p = [float(r[-2]) for r in body[:-1]]
    assert p == sorted(p)
    assert all(r[-1] != "nan" for r in body[:-1])

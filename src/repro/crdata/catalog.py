"""The CRData toolset: 35 R-script tools exposed as Galaxy tools.

"The CRData toolset consists of 35 tools with various functions"
(Sec. IV-B).  Each tool here corresponds to one ``*.R`` script: a
declarative config (the Galaxy tool XML), a work model giving its
simulated cost, and a real ``execute`` implementation running the
statistics in :mod:`repro.crdata.engines` on the synthetic data formats.

Every tool requires the software the ``galaxy-globus-crdata`` recipe
installs (R + the CRData packages), so Condor only matches nodes that
recipe has converged.

Every ``execute`` runs through :data:`RESULT_MEMO`: a tool is a pure
function of its params and input bytes, so an analysis the process has
already run is replayed from its recorded effects instead of recomputed.
Simulated time is unaffected; it comes from the work model.
"""

from __future__ import annotations

import hashlib
from functools import cache
from types import MappingProxyType
from typing import Callable

import numpy as np

from .. import calibration
from ..cluster.nfs import FilesystemError
from ..galaxy.jobs import InputHandle, ToolRunContext
from ..galaxy.tools import Tool, Toolbox, ToolError
from . import plots
from .engines import classify, clustering, diffexpr, normalize, qc, rnaseq, survival
from .formats import (
    BamArchive,
    CelArchive,
    ExpressionMatrix,
    sniff,
)

MB = float(calibration.MB)

#: software every CRData tool needs on the executing node
CRDATA_REQUIREMENTS = ("R", "crdata-tools")

TOOL_SECTION = "CRData"


# ---------------------------------------------------------------------------
# Input decoding helpers
# ---------------------------------------------------------------------------


def load_expression(handle: InputHandle) -> ExpressionMatrix:
    """Accept either a CEL archive (RMA-normalised on the fly) or a matrix."""
    data = handle.read()
    kind = sniff(data)
    if kind == "cel":
        arch = CelArchive.from_bytes(data)
        values = normalize.rma(arch.intensities())
        return ExpressionMatrix(
            values=values,
            probe_names=arch.probe_names(),
            sample_names=arch.array_names,
            groups=list(arch.groups),
        )
    if kind == "matrix":
        return ExpressionMatrix.from_bytes(data)
    raise ToolError(
        f"input {handle.name!r} is neither a CEL archive nor an expression matrix"
    )


def load_cel(handle: InputHandle) -> CelArchive:
    data = handle.read()
    if sniff(data) != "cel":
        raise ToolError(f"input {handle.name!r} is not a CEL archive")
    return CelArchive.from_bytes(data)


def load_bam(handle: InputHandle) -> BamArchive:
    data = handle.read()
    if sniff(data) != "bam":
        raise ToolError(f"input {handle.name!r} is not a BAM archive")
    return BamArchive.from_bytes(data)


def two_group_mask(groups: list[str]) -> np.ndarray:
    labels = list(dict.fromkeys(groups))
    if len(labels) != 2:
        raise ToolError(
            f"two-group analysis needs exactly two groups, found {labels}"
        )
    return np.array([g == labels[1] for g in groups])


# ---------------------------------------------------------------------------
# Work models
#
# One array model per family: ``(params, (n_jobs, n_inputs) byte matrix)
# -> (cpu_work[n], io_work[n])``.  A single job is the one-row case
# (``Tool.work``), so the simulator and the batch estimator price a job
# with the same arithmetic.
# ---------------------------------------------------------------------------


def _batch_mb(sizes: np.ndarray) -> np.ndarray:
    """Per-job total input volume in MB for an (n_jobs, n_inputs) matrix."""
    return sizes.sum(axis=1) / MB


def affy_work(params: dict, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Heavy CEL processing: the calibrated use-case cost."""
    mb = _batch_mb(sizes)
    cpu = calibration.AFFY_CPU_SECONDS_PER_MB * mb + calibration.AFFY_FIXED_CPU_S
    return cpu, np.zeros_like(mb)


def matrix_work(params: dict, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mb = _batch_mb(sizes)
    cpu = calibration.MATRIX_CPU_BASE_S + calibration.MATRIX_CPU_S_PER_MB * mb
    return cpu, np.full_like(mb, calibration.MATRIX_IO_S)


def seq_work(params: dict, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mb = _batch_mb(sizes)
    cpu = calibration.SEQ_CPU_BASE_S + calibration.SEQ_CPU_S_PER_MB * mb
    return cpu, np.full_like(mb, calibration.SEQ_IO_S)


def plot_work(params: dict, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mb = _batch_mb(sizes)
    cpu = calibration.PLOT_CPU_BASE_S + calibration.PLOT_CPU_S_PER_MB * mb
    return cpu, np.full_like(mb, calibration.PLOT_IO_S)


# ---------------------------------------------------------------------------
# Execute bodies (each implements one R script)
# ---------------------------------------------------------------------------


def _volcano_svg(result: diffexpr.ModeratedTResult, fdr: float, title: str) -> bytes:
    neglog = -np.log10(np.maximum(result.p_value, 1e-300))
    hot = result.adj_p_value <= fdr
    return plots.scatter_svg(result.log_fc, neglog, title, hot).encode()


def _write_top_table(run: ToolRunContext, result: diffexpr.ModeratedTResult, n: int):
    run.output("top_table").write(result.as_tsv(n).encode())
    n_sig = int(np.count_nonzero(result.adj_p_value <= 0.05))
    run.output("top_table").set_info(
        f"{n_sig} probes at FDR<=0.05 (prior df={result.d0:.2f})"
    )
    if "figure" in run.outputs:
        run.output("figure").write(
            _volcano_svg(result, 0.05, "Differential expression volcano")
        )


def affy_differential_expression(run: ToolRunContext) -> None:
    """affyDifferentialExpression.R — the use-case tool (Fig. 7-9)."""
    em = load_expression(run.input(0))
    mask = two_group_mask(em.groups)
    result = diffexpr.moderated_t_test(em.values, mask, em.probe_names)
    n = int(run.params.get("top_n", 50))
    _write_top_table(run, result, n)
    run.log(f"moderated t-test on {em.values.shape[0]} probes, "
            f"{mask.sum()} vs {(~mask).sum()} arrays")


def affy_classify(run: ToolRunContext) -> None:
    """affyClassify.R — statistical classification of CEL files into groups."""
    em = load_expression(run.input(0))
    method = run.params.get("method", "centroid")
    result = classify.cross_validate(em.values, em.groups, method=method)
    lines = ["sample\tactual\tpredicted"]
    lines += [
        f"{s}\t{a}\t{p}"
        for s, a, p in zip(em.sample_names, result.actual, result.predicted)
    ]
    lines.append(f"# leave-one-out accuracy: {result.accuracy:.3f}")
    run.output("predictions").write(("\n".join(lines) + "\n").encode())
    run.output("confusion").write(result.confusion_tsv().encode())
    run.output("predictions").set_info(f"LOO accuracy {result.accuracy:.1%}")


def affy_normalize(run: ToolRunContext) -> None:
    """affyNormalize.R — RMA normalization to an expression matrix."""
    arch = load_cel(run.input(0))
    values = normalize.rma(arch.intensities())
    em = ExpressionMatrix(
        values=values,
        probe_names=arch.probe_names(),
        sample_names=arch.array_names,
        groups=list(arch.groups),
    )
    run.output("matrix").write(em.to_bytes())
    run.log(f"RMA on {arch.n_arrays} arrays x {arch.n_probes} probes")


def heatmap_plot_demo(run: ToolRunContext) -> None:
    """heatmap_plot_demo.R — hierarchical clustering + heatmap (Sec. IV-B)."""
    em = load_expression(run.input(0))
    axis = run.params.get("cluster_by", "samples")
    top = int(run.params.get("top_n", 40))
    values, names = qc.variance_filter(em.values, em.probe_names, top_n=top)
    res = clustering.hierarchical_cluster(
        values, labels=em.sample_names if axis == "samples" else names, axis=axis
    )
    if axis == "samples":
        ordered = values[:, res.order]
        svg = plots.heatmap_svg(ordered, names, res.ordered_labels())
    else:
        ordered = values[res.order]
        svg = plots.heatmap_svg(ordered, res.ordered_labels(), em.sample_names)
    run.output("figure").write(svg.encode())
    run.output("clusters").write(
        (
            "label\tcluster\n"
            + "\n".join(
                f"{lab}\t{cl}" for lab, cl in zip(res.labels, res.cluster_assignments)
            )
            + "\n"
        ).encode()
    )


def affy_hierarchical(run: ToolRunContext) -> None:
    em = load_expression(run.input(0))
    res = clustering.hierarchical_cluster(
        em.values, labels=em.sample_names, axis="samples",
        n_clusters=int(run.params.get("n_clusters", 2)),
    )
    run.output("clusters").write(
        (
            "sample\tcluster\n"
            + "\n".join(
                f"{s}\t{c}" for s, c in zip(res.labels, res.cluster_assignments)
            )
            + "\n"
        ).encode()
    )
    run.output("clusters").set_info(f"leaf order: {res.ordered_labels()}")


def affy_kmeans(run: ToolRunContext) -> None:
    em = load_expression(run.input(0))
    k = int(run.params.get("k", 3))
    res = clustering.kmeans(em.values, k=k, seed=int(run.params.get("seed", 0)))
    run.output("clusters").write(
        (
            "probe\tcluster\n"
            + "\n".join(
                f"{p}\t{c}" for p, c in zip(em.probe_names, res.assignments)
            )
            + f"\n# inertia: {res.inertia:.2f} after {res.n_iter} iterations\n"
        ).encode()
    )


def affy_qc(run: ToolRunContext) -> None:
    em = load_expression(run.input(0))
    rows = qc.array_qc(em.values, em.sample_names)
    body = "\n".join([qc.QC_HEADER] + [r.as_tsv() for r in rows]) + "\n"
    run.output("report").write(body.encode())
    n_out = sum(r.outlier for r in rows)
    run.output("report").set_info(
        f"{n_out} outlier array(s)" if n_out else "all arrays pass QC"
    )


def affy_pca(run: ToolRunContext) -> None:
    em = load_expression(run.input(0))
    res = qc.pca(em.values, n_components=int(run.params.get("n_components", 2)))
    run.output("scores").write(res.scores_tsv(em.sample_names).encode())
    mask = two_group_mask(em.groups) if len(set(em.groups)) == 2 else None
    run.output("figure").write(
        plots.scatter_svg(
            res.scores[:, 0],
            res.scores[:, 1] if res.scores.shape[1] > 1 else np.zeros(len(em.sample_names)),
            f"PCA ({res.explained_variance_ratio[0]:.0%} PC1)",
            highlight=mask,
        ).encode()
    )


def affy_boxplot(run: ToolRunContext) -> None:
    em = load_expression(run.input(0))
    s = qc.boxplot_summary(em.values)
    run.output("figure").write(
        plots.boxplot_svg(s, em.sample_names, "Array intensity boxplots").encode()
    )
    run.output("summary").write(
        (
            "stat\t" + "\t".join(em.sample_names) + "\n"
            + "\n".join(
                name + "\t" + "\t".join(f"{v:.4f}" for v in s[i])
                for i, name in enumerate(["min", "q1", "median", "q3", "max"])
            )
            + "\n"
        ).encode()
    )


def affy_ma_plot(run: ToolRunContext) -> None:
    em = load_expression(run.input(0))
    i = int(run.params.get("array_a", 0))
    j = int(run.params.get("array_b", 1))
    m_vals, a_vals = qc.ma_values(em.values, i, j)
    run.output("figure").write(
        plots.scatter_svg(
            a_vals, m_vals,
            f"MA plot: {em.sample_names[i]} vs {em.sample_names[j]}",
        ).encode()
    )


def affy_volcano(run: ToolRunContext) -> None:
    em = load_expression(run.input(0))
    mask = two_group_mask(em.groups)
    res = diffexpr.moderated_t_test(em.values, mask, em.probe_names)
    fdr = float(run.params.get("fdr", 0.05))
    run.output("figure").write(_volcano_svg(res, fdr, "Volcano plot"))


def affy_density(run: ToolRunContext) -> None:
    em = load_expression(run.input(0))
    dens, edges = qc.density_summary(em.values)
    centers = 0.5 * (edges[:-1] + edges[1:])
    series = {
        name: (centers, dens[i]) for i, name in enumerate(em.sample_names)
    }
    run.output("figure").write(
        plots.lines_svg(series, "Intensity densities").encode()
    )


def affy_filter(run: ToolRunContext) -> None:
    em = load_expression(run.input(0))
    top_n = run.params.get("top_n")
    values, names = qc.variance_filter(
        em.values,
        em.probe_names,
        top_n=int(top_n) if top_n else None,
        min_var=float(run.params.get("min_variance", 0.0)),
    )
    out = ExpressionMatrix(values, names, em.sample_names, em.groups)
    run.output("matrix").write(out.to_bytes())
    run.output("matrix").set_info(f"kept {len(names)}/{len(em.probe_names)} probes")


def affy_top_genes(run: ToolRunContext) -> None:
    em = load_expression(run.input(0))
    n = int(run.params.get("top_n", 25))
    var = em.values.var(axis=1, ddof=1)
    idx = np.argsort(var)[::-1][:n]
    lines = ["probe\tvariance\tmean"]
    lines += [
        f"{em.probe_names[i]}\t{var[i]:.4f}\t{em.values[i].mean():.4f}" for i in idx
    ]
    run.output("table").write(("\n".join(lines) + "\n").encode())


def affy_correlation(run: ToolRunContext) -> None:
    em = load_expression(run.input(0))
    corr = clustering.correlation_matrix(em.values)
    run.output("figure").write(
        plots.heatmap_svg(corr, em.sample_names, em.sample_names, "Sample correlation").encode()
    )
    lines = ["sample\t" + "\t".join(em.sample_names)]
    for name, row in zip(em.sample_names, corr):
        lines.append(name + "\t" + "\t".join(f"{v:.4f}" for v in row))
    run.output("table").write(("\n".join(lines) + "\n").encode())


# -- matrix tools ------------------------------------------------------------


def matrix_diffexpr(run: ToolRunContext) -> None:
    em = ExpressionMatrix.from_bytes(run.input(0).read())
    mask = two_group_mask(em.groups)
    res = diffexpr.moderated_t_test(em.values, mask, em.probe_names)
    _write_top_table(run, res, int(run.params.get("top_n", 50)))


def matrix_ttest(run: ToolRunContext) -> None:
    em = ExpressionMatrix.from_bytes(run.input(0).read())
    mask = two_group_mask(em.groups)
    res = diffexpr.student_t_test(em.values, mask, em.probe_names)
    run.output("top_table").write(res.as_tsv(int(run.params.get("top_n", 50))).encode())


def matrix_moderated(run: ToolRunContext) -> None:
    em = ExpressionMatrix.from_bytes(run.input(0).read())
    mask = two_group_mask(em.groups)
    res = diffexpr.moderated_t_test(em.values, mask, em.probe_names)
    _write_top_table(run, res, int(run.params.get("top_n", 50)))


def matrix_anova(run: ToolRunContext) -> None:
    em = ExpressionMatrix.from_bytes(run.input(0).read())
    rows = diffexpr.one_way_anova(em.values, em.groups, em.probe_names)
    n = int(run.params.get("top_n", 50))
    lines = ["probe\tF\tP.Value\tadj.P.Val"]
    lines += [f"{r[0]}\t{r[1]:.4f}\t{r[2]:.3e}\t{r[3]:.3e}" for r in rows[:n]]
    run.output("table").write(("\n".join(lines) + "\n").encode())


def matrix_fold_change(run: ToolRunContext) -> None:
    em = ExpressionMatrix.from_bytes(run.input(0).read())
    mask = two_group_mask(em.groups)
    rows = diffexpr.fold_change(em.values, mask, em.probe_names)
    cutoff = float(run.params.get("min_abs_fc", 0.0))
    lines = ["probe\tlogFC"]
    lines += [f"{n}\t{fc:.4f}" for n, fc in rows if abs(fc) >= cutoff]
    run.output("table").write(("\n".join(lines) + "\n").encode())


def matrix_zscore(run: ToolRunContext) -> None:
    em = ExpressionMatrix.from_bytes(run.input(0).read())
    out = ExpressionMatrix(
        normalize.zscore(em.values), em.probe_names, em.sample_names, em.groups
    )
    run.output("matrix").write(out.to_bytes())


def matrix_quantile(run: ToolRunContext) -> None:
    em = ExpressionMatrix.from_bytes(run.input(0).read())
    out = ExpressionMatrix(
        normalize.quantile_normalize(em.values), em.probe_names, em.sample_names, em.groups
    )
    run.output("matrix").write(out.to_bytes())


def matrix_log2(run: ToolRunContext) -> None:
    em = ExpressionMatrix.from_bytes(run.input(0).read())
    out = ExpressionMatrix(
        normalize.log2_transform(em.values), em.probe_names, em.sample_names, em.groups
    )
    run.output("matrix").write(out.to_bytes())


def matrix_heatmap(run: ToolRunContext) -> None:
    heatmap_plot_demo(run)


def matrix_pca(run: ToolRunContext) -> None:
    affy_pca(run)


def classify_nearest_centroid(run: ToolRunContext) -> None:
    em = ExpressionMatrix.from_bytes(run.input(0).read())
    result = classify.cross_validate(em.values, em.groups, method="centroid")
    run.output("predictions").write(
        (
            "sample\tactual\tpredicted\n"
            + "\n".join(
                f"{s}\t{a}\t{p}"
                for s, a, p in zip(em.sample_names, result.actual, result.predicted)
            )
            + f"\n# accuracy: {result.accuracy:.3f}\n"
        ).encode()
    )


# -- sequence tools ------------------------------------------------------------


def sequence_counts(run: ToolRunContext) -> None:
    """sequenceCountsPerTranscript.R (named in the paper)."""
    arch = load_bam(run.input(0))
    counts, tx_names, samples = rnaseq.count_matrix(arch)
    lines = ["transcript\t" + "\t".join(samples)]
    for name, row in zip(tx_names, counts):
        lines.append(name + "\t" + "\t".join(str(int(v)) for v in row))
    run.output("counts").write(("\n".join(lines) + "\n").encode())
    run.log(f"counted {counts.sum()} reads over {len(tx_names)} transcripts")


def sequence_diffexpr(run: ToolRunContext) -> None:
    """sequenceDifferentialExperssion.R [sic] (named in the paper)."""
    arch = load_bam(run.input(0))
    counts, tx_names, _samples = rnaseq.count_matrix(arch)
    labels = arch.condition_labels()
    if len(labels) != 2:
        raise ToolError("two-sample test needs exactly two conditions")
    mask = np.array([c == labels[1] for c in arch.conditions])
    rows = rnaseq.two_sample_count_test(counts, mask, tx_names)
    n = int(run.params.get("top_n", 50))
    body = "\n".join([rnaseq.COUNT_DE_HEADER] + [r.as_tsv() for r in rows[:n]]) + "\n"
    run.output("top_table").write(body.encode())
    sig = [r for r in rows if r.adj_p_value <= 0.05]
    run.output("top_table").set_info(f"{len(sig)} transcripts at FDR<=0.05")


def sequence_coverage(run: ToolRunContext) -> None:
    arch = load_bam(run.input(0))
    ann = arch.annotation()
    series = {}
    for i, sample in enumerate(arch.samples):
        hist, edges = rnaseq.coverage_histogram(arch.read_starts(i), ann)
        centers = 0.5 * (edges[:-1] + edges[1:])
        series[sample] = (centers, hist)
    run.output("figure").write(plots.lines_svg(series, "Read coverage").encode())


def sequence_align_stats(run: ToolRunContext) -> None:
    arch = load_bam(run.input(0))
    rows = rnaseq.alignment_stats(arch)
    body = "\n".join([rnaseq.ALIGN_STATS_HEADER] + [r.as_tsv() for r in rows]) + "\n"
    run.output("report").write(body.encode())


def sequence_filter_reads(run: ToolRunContext) -> None:
    arch = load_bam(run.input(0))
    keep_fraction = float(run.params.get("keep_fraction", 0.9))
    if not (0.0 < keep_fraction <= 1.0):
        raise ToolError("keep_fraction must be in (0, 1]")
    filtered = BamArchive(
        n_reads_per_sample=int(arch.n_reads_per_sample * keep_fraction),
        seed=arch.seed,
        samples=arch.samples,
        conditions=arch.conditions,
        annotation_seed=arch.annotation_seed,
        n_transcripts=arch.n_transcripts,
        n_diff=arch.n_diff,
        effect=arch.effect,
        read_length=arch.read_length,
    )
    run.output("bam").write(filtered.to_bytes())
    run.output("bam").set_info(
        f"kept {filtered.n_reads_per_sample}/{arch.n_reads_per_sample} reads per sample"
    )


def sequence_normalize_counts(run: ToolRunContext) -> None:
    arch = load_bam(run.input(0))
    counts, tx_names, samples = rnaseq.count_matrix(arch)
    log = bool(run.params.get("log", True))
    values = normalize.cpm(counts, log=log)
    em = ExpressionMatrix(values, tx_names, samples, list(arch.conditions))
    run.output("matrix").write(em.to_bytes())


def sequence_gene_body(run: ToolRunContext) -> None:
    arch = load_bam(run.input(0))
    series = {}
    bins = int(run.params.get("n_bins", 20))
    x = (np.arange(bins) + 0.5) / bins
    for i, sample in enumerate(arch.samples):
        series[sample] = (x, rnaseq.gene_body_coverage(arch, i, n_bins=bins))
    run.output("figure").write(
        plots.lines_svg(series, "Gene body coverage").encode()
    )


# -- misc tools -------------------------------------------------------------------


def survival_km(run: ToolRunContext) -> None:
    times, events, groups = survival.parse_clinical_table(run.input(0).read())
    labels = list(dict.fromkeys(groups))
    curves = []
    series = {}
    for lab in labels:
        mask = np.array([g == lab for g in groups])
        curve = survival.kaplan_meier(times[mask], events[mask], group=lab)
        curves.append(curve)
        if curve.times.size:
            series[lab] = (
                np.concatenate([[0.0], curve.times]),
                np.concatenate([[1.0], curve.survival]),
            )
    run.output("curves").write(
        ("".join(c.as_tsv() for c in curves)).encode()
    )
    if len(labels) == 2:
        chi2, p = survival.logrank_test(times, events, groups)
        run.output("curves").set_info(f"log-rank chi2={chi2:.3f} p={p:.3e}")
    if series:
        run.output("figure").write(
            plots.lines_svg(series, "Kaplan-Meier survival").encode()
        )
    else:
        run.output("figure").write(
            plots.lines_svg({"none": (np.array([0, 1]), np.array([1, 1]))},
                            "Kaplan-Meier survival (no events)").encode()
        )


def correlation_test_tool(run: ToolRunContext) -> None:
    em = ExpressionMatrix.from_bytes(run.input(0).read())
    a = run.params.get("probe_a") or em.probe_names[0]
    b = run.params.get("probe_b") or em.probe_names[-1]
    try:
        xi = em.probe_names.index(a)
        yi = em.probe_names.index(b)
    except ValueError as exc:
        raise ToolError(f"unknown probe: {exc}") from exc
    method = run.params.get("method", "pearson")
    r, p = qc.correlation_test(em.values[xi], em.values[yi], method=method)
    run.output("result").write(
        f"probe_a\tprobe_b\tmethod\tr\tp\n{a}\t{b}\t{method}\t{r:.4f}\t{p:.3e}\n".encode()
    )


# ---------------------------------------------------------------------------
# Result memo
#
# The Fig. 10 columns, the use case and the storage backends run the same
# analyses on the same two archives; only the simulated machine differs.
# A tool reads its params and its inputs' bytes and writes through its
# output handles and log, so that is all a memoized run may touch.
# ---------------------------------------------------------------------------

#: bytes of written data and text the memo keeps.  Each shipped suite
#: uses at most 3 keys (~113 KB per affyDifferentialExpression entry),
#: all 50 digest-pin cases hold 6.5 MiB, and the largest entry is 2.3 MB
#: (affyNormalize on the 72-array archive).
MEMO_CAP_BYTES = 16 << 20


class _KeyedOutput:
    """An output handle that passes each effect on and records it."""

    __slots__ = ("_name", "_handle", "_effects")

    def __init__(self, name: str, handle, effects: list) -> None:
        self._name = name
        self._handle = handle
        self._effects = effects

    def _apply(self, method: str, *args, **kwargs) -> None:
        getattr(self._handle, method)(*args, **kwargs)
        self._effects.append((method, self._name, args, kwargs))

    def write(self, data: bytes | None = None, size: int | None = None) -> None:
        node = self._handle.write(data, size)
        # a content write's checksum is the SHA-256 of its bytes, which a
        # replay hands over instead of hashing them again; a size-only
        # write's token names its path and time, so a replay mints its own
        kwargs = {} if data is None else {"checksum": node.checksum}
        self._effects.append(("write", self._name, (data, size), kwargs))

    def set_info(self, info: str) -> None:
        self._apply("set_info", info)

    def set_name(self, name: str) -> None:
        self._apply("set_name", name)

    def set_metadata(self, **kv) -> None:
        self._apply("set_metadata", **kv)


class _KeyedInput:
    """An input's bytes, as hashed into the key."""

    __slots__ = ("_data", "_handle", "_run")

    def __init__(self, data: bytes, handle: InputHandle, run: "_KeyedRun") -> None:
        self._data = data
        self._handle = handle
        self._run = run

    def read(self) -> bytes:
        return self._data

    @property
    def name(self) -> str:
        # not in the key: error text may name an input, a stored run may not
        self._run._storable = False
        return self._handle.name


class _KeyedRun:
    """What a memoized tool sees: ``params``, ``input(k)``, ``outputs``,
    ``output(name)`` and ``log``.  Every effect reaches the real run at
    once and is recorded; any other attribute raises AttributeError."""

    __slots__ = ("params", "outputs", "_effects", "_storable", "_inputs", "_run")

    def __init__(self, run: ToolRunContext, data: list[bytes]) -> None:
        self.params = MappingProxyType(run.params)
        self._effects: list[tuple] = []
        self._storable = True
        self.outputs = {
            name: _KeyedOutput(name, handle, self._effects)
            for name, handle in run.outputs.items()
        }
        self._inputs = [_KeyedInput(d, h, self) for d, h in zip(data, run.inputs)]
        self._run = run

    def input(self, index: int = 0) -> _KeyedInput:
        return self._inputs[index]

    def output(self, name: str) -> _KeyedOutput:
        self._run.output(name)  # an undeclared output fails as in a real run
        return self.outputs[name]

    def log(self, line: str) -> None:
        self._run.log(line)
        self._effects.append(("log", None, (line,), {}))


class ResultMemo:
    """Process-wide record of successful CRData tool runs.

    The key is the tool id, the validated params with their types, the
    SHA-256 of each input's bytes and the declared output names.  A miss
    runs the tool against a :class:`_KeyedRun` and keeps its effects if
    ``execute`` returns; a hit replays them, in order, through the real
    output handles, so size, peek, checksum and mtime come out as a real
    run's would.  A content write replays with the checksum its first
    run's file got, so no replayed byte is hashed again.  At most
    :data:`MEMO_CAP_BYTES` are kept, the oldest entry evicted first.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple[list[tuple], int]] = {}
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.nbytes = 0

    def wrap(
        self, tool_id: str, execute: Callable[[ToolRunContext], None]
    ) -> Callable[[ToolRunContext], None]:
        def memoized(run: ToolRunContext) -> None:
            try:
                data = [handle.read() for handle in run.inputs]
            except FilesystemError:
                return execute(run)  # no bytes to key on: the tool fails as ever
            key = (
                tool_id,
                tuple((k, type(v), repr(v)) for k, v in run.params.items()),
                tuple(hashlib.sha256(d).digest() for d in data),
                tuple(run.outputs),
            )
            entry = self._entries.get(key)
            if entry is not None:
                for method, output, args, kwargs in entry[0]:
                    target = run if output is None else run.output(output)
                    getattr(target, method)(*args, **kwargs)
                return
            keyed = _KeyedRun(run, data)
            execute(keyed)
            if keyed._storable:
                self._store(key, keyed._effects)

        return memoized

    def _store(self, key: tuple, effects: list[tuple]) -> None:
        size = sum(
            len(arg)
            for _, _, args, _ in effects
            for arg in args
            if isinstance(arg, (bytes, str))
        )
        if size > MEMO_CAP_BYTES:
            return
        while self.nbytes + size > MEMO_CAP_BYTES:
            self.nbytes -= self._entries.pop(next(iter(self._entries)))[1]
        self._entries[key] = (effects, size)
        self.nbytes += size


#: the one memo every CRData tool runs through
RESULT_MEMO = ResultMemo()


# ---------------------------------------------------------------------------
# Catalog assembly
# ---------------------------------------------------------------------------


def _tool(
    script: str,
    description: str,
    execute: Callable[[ToolRunContext], None],
    outputs: list[dict],
    parameters: list[dict] | None = None,
    work: Callable = matrix_work,
) -> Tool:
    tool_id = f"crdata_{script.replace('.R', '')}"
    config = {
        "id": tool_id,
        "name": script,
        "version": "1.0.0",
        "description": description,
        "parameters": (
            [{"name": "input", "type": "data", "label": "Input dataset"}]
            + (parameters or [])
        ),
        "outputs": outputs,
        "requirements": list(CRDATA_REQUIREMENTS),
    }
    return Tool.from_config(
        config, execute=RESULT_MEMO.wrap(tool_id, execute), work_model=work
    )


_TOP_N = {"name": "top_n", "type": "integer", "default": 50, "label": "Rows in top table"}
_FIG = {"name": "figure", "ext": "html", "label": "Figure"}


@cache
def build_crdata_tools() -> tuple[Tool, ...]:
    """All 35 CRData tools, in catalog order, built once per process and
    shared by every world's toolbox."""
    t = _tool
    return (
        # -- Affymetrix CEL tools (1-15) --------------------------------------
        t("affyDifferentialExpression.R",
          "Two-group differential expression on Affymetrix CEL files",
          affy_differential_expression,
          outputs=[{"name": "top_table", "ext": "tabular", "label": "Top table"}, _FIG],
          parameters=[_TOP_N], work=affy_work),
        t("affyClassify.R",
          "Statistical classification of Affymetrix CEL files into groups",
          affy_classify,
          outputs=[{"name": "predictions", "ext": "tabular"},
                   {"name": "confusion", "ext": "tabular"}],
          parameters=[{"name": "method", "type": "select",
                       "options": ("centroid", "lda"), "default": "centroid"}],
          work=affy_work),
        t("affyNormalize.R", "RMA normalization of CEL files",
          affy_normalize,
          outputs=[{"name": "matrix", "ext": "tabular"}], work=affy_work),
        t("affyQualityControl.R", "Per-array quality metrics and outlier flags",
          affy_qc, outputs=[{"name": "report", "ext": "tabular"}], work=affy_work),
        t("affyPCA.R", "Principal component analysis of arrays",
          affy_pca,
          outputs=[{"name": "scores", "ext": "tabular"}, _FIG],
          parameters=[{"name": "n_components", "type": "integer", "default": 2}],
          work=affy_work),
        t("affyHierarchicalClustering.R", "Hierarchical clustering of arrays",
          affy_hierarchical,
          outputs=[{"name": "clusters", "ext": "tabular"}],
          parameters=[{"name": "n_clusters", "type": "integer", "default": 2}],
          work=affy_work),
        t("heatmap_plot_demo.R",
          "Hierarchical clustering by genes or samples, plotted as a heatmap",
          heatmap_plot_demo,
          outputs=[_FIG, {"name": "clusters", "ext": "tabular"}],
          parameters=[{"name": "cluster_by", "type": "select",
                       "options": ("samples", "genes"), "default": "samples"},
                      {"name": "top_n", "type": "integer", "default": 40}],
          work=plot_work),
        t("affyBoxplot.R", "Intensity boxplots per array",
          affy_boxplot,
          outputs=[_FIG, {"name": "summary", "ext": "tabular"}], work=plot_work),
        t("affyMAPlot.R", "MA plot between two arrays",
          affy_ma_plot,
          outputs=[_FIG],
          parameters=[{"name": "array_a", "type": "integer", "default": 0},
                      {"name": "array_b", "type": "integer", "default": 1}],
          work=plot_work),
        t("affyVolcanoPlot.R", "Volcano plot of two-group differential expression",
          affy_volcano, outputs=[_FIG],
          parameters=[{"name": "fdr", "type": "float", "default": 0.05}],
          work=affy_work),
        t("affyDensityPlot.R", "Per-array intensity density curves",
          affy_density, outputs=[_FIG], work=plot_work),
        t("affyFilterProbes.R", "Variance/intensity probe filtering",
          affy_filter,
          outputs=[{"name": "matrix", "ext": "tabular"}],
          parameters=[{"name": "top_n", "type": "integer", "optional": True},
                      {"name": "min_variance", "type": "float", "default": 0.0}],
          work=matrix_work),
        t("affyTopGenes.R", "Most variable probes",
          affy_top_genes,
          outputs=[{"name": "table", "ext": "tabular"}],
          parameters=[{"name": "top_n", "type": "integer", "default": 25}],
          work=matrix_work),
        t("affyCorrelationMatrix.R", "Sample-sample correlation heatmap",
          affy_correlation,
          outputs=[_FIG, {"name": "table", "ext": "tabular"}], work=plot_work),
        t("affyKMeansClustering.R", "K-means clustering of probes",
          affy_kmeans,
          outputs=[{"name": "clusters", "ext": "tabular"}],
          parameters=[{"name": "k", "type": "integer", "default": 3},
                      {"name": "seed", "type": "integer", "default": 0}],
          work=affy_work),
        # -- expression-matrix tools (16-25) ------------------------------------
        t("matrixDifferentialExpression.R",
          "Two-group differential expression on an expression matrix",
          matrix_diffexpr,
          outputs=[{"name": "top_table", "ext": "tabular"}, _FIG],
          parameters=[_TOP_N], work=matrix_work),
        t("matrixTTest.R", "Per-probe Welch t-test",
          matrix_ttest,
          outputs=[{"name": "top_table", "ext": "tabular"}],
          parameters=[_TOP_N], work=matrix_work),
        t("matrixModeratedTTest.R", "Per-probe empirical-Bayes moderated t-test",
          matrix_moderated,
          outputs=[{"name": "top_table", "ext": "tabular"}, _FIG],
          parameters=[_TOP_N], work=matrix_work),
        t("matrixANOVA.R", "One-way ANOVA across groups",
          matrix_anova,
          outputs=[{"name": "table", "ext": "tabular"}],
          parameters=[_TOP_N], work=matrix_work),
        t("matrixFoldChange.R", "Per-probe log2 fold changes",
          matrix_fold_change,
          outputs=[{"name": "table", "ext": "tabular"}],
          parameters=[{"name": "min_abs_fc", "type": "float", "default": 0.0}],
          work=matrix_work),
        t("matrixZScore.R", "Row-standardise a matrix",
          matrix_zscore, outputs=[{"name": "matrix", "ext": "tabular"}],
          work=matrix_work),
        t("matrixQuantileNormalize.R", "Quantile normalization",
          matrix_quantile, outputs=[{"name": "matrix", "ext": "tabular"}],
          work=matrix_work),
        t("matrixLog2.R", "Log2 transform",
          matrix_log2, outputs=[{"name": "matrix", "ext": "tabular"}],
          work=matrix_work),
        t("matrixHeatmap.R", "Clustered heatmap of a matrix",
          matrix_heatmap,
          outputs=[_FIG, {"name": "clusters", "ext": "tabular"}],
          parameters=[{"name": "cluster_by", "type": "select",
                       "options": ("samples", "genes"), "default": "samples"},
                      {"name": "top_n", "type": "integer", "default": 40}],
          work=plot_work),
        t("matrixPCA.R", "PCA of a matrix",
          matrix_pca,
          outputs=[{"name": "scores", "ext": "tabular"}, _FIG],
          parameters=[{"name": "n_components", "type": "integer", "default": 2}],
          work=matrix_work),
        # -- sequence tools (26-32) ------------------------------------------------
        t("sequenceCountsPerTranscript.R",
          "Reads per genomic feature from BAM files over a UCSC-style annotation",
          sequence_counts,
          outputs=[{"name": "counts", "ext": "tabular"}], work=seq_work),
        t("sequenceDifferentialExperssion.R",
          "Two-sample test for RNA-sequence differential expression",
          sequence_diffexpr,
          outputs=[{"name": "top_table", "ext": "tabular"}],
          parameters=[_TOP_N], work=seq_work),
        t("sequenceCoveragePlot.R", "Genome-window read coverage",
          sequence_coverage, outputs=[_FIG], work=seq_work),
        t("sequenceAlignmentStats.R", "Per-sample mapping statistics",
          sequence_align_stats,
          outputs=[{"name": "report", "ext": "tabular"}], work=seq_work),
        t("sequenceFilterReads.R", "Downsample/filter reads",
          sequence_filter_reads,
          outputs=[{"name": "bam", "ext": "bam"}],
          parameters=[{"name": "keep_fraction", "type": "float", "default": 0.9}],
          work=seq_work),
        t("sequenceNormalizeCounts.R", "Library-size (CPM) normalization",
          sequence_normalize_counts,
          outputs=[{"name": "matrix", "ext": "tabular"}],
          parameters=[{"name": "log", "type": "boolean", "default": True}],
          work=seq_work),
        t("sequenceGeneBodyCoverage.R", "Read position bias along transcripts",
          sequence_gene_body,
          outputs=[_FIG],
          parameters=[{"name": "n_bins", "type": "integer", "default": 20}],
          work=seq_work),
        # -- misc (33-35) --------------------------------------------------------------
        t("survivalKaplanMeier.R",
          "Kaplan-Meier curves and log-rank test from a clinical table",
          survival_km,
          outputs=[{"name": "curves", "ext": "tabular"}, _FIG],
          work=matrix_work),
        t("correlationTest.R", "Correlation between two probes",
          correlation_test_tool,
          outputs=[{"name": "result", "ext": "tabular"}],
          parameters=[{"name": "probe_a", "type": "text", "optional": True},
                      {"name": "probe_b", "type": "text", "optional": True},
                      {"name": "method", "type": "select",
                       "options": ("pearson", "spearman"), "default": "pearson"}],
          work=matrix_work),
        t("classifyNearestCentroid.R", "Nearest-centroid classification of samples",
          classify_nearest_centroid,
          outputs=[{"name": "predictions", "ext": "tabular"}],
          work=matrix_work),
    )


def install_crdata_tools(toolbox: Toolbox) -> tuple[Tool, ...]:
    """Register the full catalog (what the crdata recipe does to Galaxy)."""
    tools = build_crdata_tools()
    for tool in tools:
        toolbox.register(tool, section=TOOL_SECTION)
    return tools


#: name the paper uses for the use-case tool
USECASE_TOOL_ID = "crdata_affyDifferentialExpression"

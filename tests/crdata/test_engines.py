"""Statistical engines: correctness on planted-signal data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crdata.engines import (
    classify,
    clustering,
    diffexpr,
    normalize,
    qc,
    rnaseq,
    survival,
)
from repro.crdata.formats import TranscriptAnnotation
from repro.workloads import make_four_cel_archive, make_rnaseq_archive


# -- normalize ------------------------------------------------------------------


def test_quantile_normalize_equalises_distributions():
    rng = np.random.default_rng(0)
    m = rng.normal(0, 1, size=(500, 4)) * np.array([1, 2, 3, 4]) + np.array([0, 5, -3, 2])
    q = normalize.quantile_normalize(m)
    cols = [np.sort(q[:, j]) for j in range(4)]
    for c in cols[1:]:
        assert np.allclose(c, cols[0])


def test_quantile_normalize_preserves_ranks():
    rng = np.random.default_rng(1)
    m = rng.normal(0, 1, size=(100, 3))
    q = normalize.quantile_normalize(m)
    for j in range(3):
        assert np.array_equal(np.argsort(m[:, j]), np.argsort(q[:, j]))


def test_rma_removes_scale_differences():
    arch = make_four_cel_archive()
    norm = normalize.rma(arch.intensities())
    medians = np.median(norm, axis=0)
    assert np.ptp(medians) < 1e-9  # identical after quantile normalization


def test_median_polish_recovers_additive_structure():
    rng = np.random.default_rng(2)
    row = rng.normal(0, 2, size=20)
    col = rng.normal(0, 1, size=5)
    m = 10 + row[:, None] + col[None, :]
    overall, row_eff, col_eff, resid = normalize.median_polish(m)
    assert overall == pytest.approx(10 + np.median(row) + np.median(col), abs=0.5)
    assert np.abs(resid).max() < 1e-6


def test_cpm_sums_to_million():
    counts = np.array([[10, 100], [90, 900]], dtype=float)
    c = normalize.cpm(counts)
    assert np.allclose(c.sum(axis=0), 1e6)
    with pytest.raises(ValueError):
        normalize.cpm(np.zeros((2, 2)))


def test_zscore_rows():
    m = np.array([[1.0, 2.0, 3.0], [10.0, 10.0, 10.0]])
    z = normalize.zscore(m)
    assert z[0].mean() == pytest.approx(0.0)
    assert z[0].std(ddof=1) == pytest.approx(1.0)
    assert np.all(z[1] == 0.0)  # constant row guarded


def test_log2_requires_positive():
    with pytest.raises(ValueError):
        normalize.log2_transform(np.array([[1.0, -1.0]]))
    with pytest.raises(ValueError):
        normalize.background_correct(np.array([[-5.0]]))


# -- diffexpr --------------------------------------------------------------------


def make_planted(seed=0, n=400, n_diff=20, per_group=4, effect=2.0):
    rng = np.random.default_rng(seed)
    m = rng.normal(8, 0.4, size=(n, 2 * per_group))
    planted = rng.choice(n, size=n_diff, replace=False)
    m[planted, per_group:] += effect
    mask = np.array([False] * per_group + [True] * per_group)
    return m, mask, set(planted.tolist())


def test_moderated_t_recovers_planted_genes():
    m, mask, planted = make_planted()
    res = diffexpr.moderated_t_test(m, mask)
    top = {int(r.name.split("_")[1]) for r in res.top(len(planted))}
    recovered = len(top & planted) / len(planted)
    assert recovered >= 0.9


def test_moderated_t_controls_null():
    rng = np.random.default_rng(3)
    m = rng.normal(0, 1, size=(500, 8))
    mask = np.array([False] * 4 + [True] * 4)
    res = diffexpr.moderated_t_test(m, mask)
    assert len(res.significant(0.05)) <= 5  # few false positives at FDR 5%


def test_moderated_t_small_groups_rejected():
    m = np.zeros((10, 3))
    with pytest.raises(ValueError, match="two samples"):
        diffexpr.moderated_t_test(m, np.array([False, True, True]))


def test_moderated_shrinks_variance():
    m, mask, _ = make_planted(per_group=2)  # tiny groups: shrinkage matters
    res = diffexpr.moderated_t_test(m, mask)
    assert res.d0 > 0
    assert res.s0_sq > 0


def test_top_table_tsv_format():
    m, mask, _ = make_planted()
    res = diffexpr.moderated_t_test(m, mask)
    tsv = res.as_tsv(5)
    lines = tsv.strip().splitlines()
    assert lines[0] == diffexpr.TOP_TABLE_HEADER
    assert len(lines) == 6
    assert len(lines[1].split("\t")) == 6


def test_bh_monotone_and_bounded():
    p = np.array([0.001, 0.01, 0.02, 0.5, 0.9])
    adj = diffexpr.benjamini_hochberg(p)
    assert np.all(adj >= p - 1e-12)
    assert np.all(adj <= 1.0)
    # order preserved
    assert np.array_equal(np.argsort(adj), np.argsort(p))


def test_bh_leaves_nan_out_of_n_and_keeps_it_nan():
    """R: p.adjust(c(0.01, NA, 0.04, 0.03), "BH") is 0.03, NA, 0.04, 0.04."""
    adj = diffexpr.benjamini_hochberg(np.array([0.01, np.nan, 0.04, 0.03]))
    np.testing.assert_allclose(adj, [0.03, np.nan, 0.04, 0.04], rtol=1e-12)


def with_constant_row(seed=8, n=12):
    """Normal rows with row 0 constant: untestable by Welch and ANOVA."""
    m = np.random.default_rng(seed).normal(8.0, 1.0, size=(n, 6))
    m[0] = 5.0
    return m


def assert_nan_p_sorted_last(names, p, adj):
    p, adj = np.array(p), np.array(adj)
    assert names[-1] == "row_0"
    assert np.isnan(p[-1]) and np.isnan(adj[-1])
    assert np.all(np.diff(p[:-1]) >= 0)
    assert not np.isnan(adj[:-1]).any()
    np.testing.assert_array_equal(adj[:-1], diffexpr.benjamini_hochberg(p[:-1]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_welch_constant_row_sorts_last_without_blanking_adjusted_p():
    mask = np.array([False] * 3 + [True] * 3)
    res = diffexpr.student_t_test(with_constant_row(), mask)
    assert_nan_p_sorted_last(
        [r.name for r in res.rows],
        [r.p_value for r in res.rows],
        [r.adj_p_value for r in res.rows],
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_anova_constant_row_sorts_last_without_blanking_adjusted_p():
    rows = diffexpr.one_way_anova(with_constant_row(), ["a", "a", "b", "b", "c", "c"])
    names, _f, p, adj = zip(*rows)
    assert_nan_p_sorted_last(list(names), p, adj)


def test_student_t_also_recovers():
    m, mask, planted = make_planted(effect=3.0)
    res = diffexpr.student_t_test(m, mask)
    top = {int(r.name.split("_")[1]) for r in res.top(len(planted))}
    assert len(top & planted) / len(planted) >= 0.8


def test_anova_multi_group():
    rng = np.random.default_rng(4)
    m = rng.normal(0, 1, size=(200, 12))
    m[:10, 8:] += 5.0  # third group strongly shifted for first 10 rows
    groups = ["a"] * 4 + ["b"] * 4 + ["c"] * 4
    rows = diffexpr.one_way_anova(m, groups)
    top_rows = {int(r[0].split("_")[1]) for r in rows[:10]}
    assert len(top_rows & set(range(10))) >= 8
    with pytest.raises(ValueError):
        diffexpr.one_way_anova(m, ["a"] * 12)


def test_fold_change_ordering():
    m = np.array([[0.0, 0.0, 5.0, 5.0], [0.0, 0.0, 1.0, 1.0]])
    rows = diffexpr.fold_change(m, np.array([False, False, True, True]))
    assert rows[0][1] == pytest.approx(5.0)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=40))
def test_property_bh_idempotent_bounds(ps):
    p = np.array(ps)
    adj = diffexpr.benjamini_hochberg(p)
    assert np.all((0 <= adj) & (adj <= 1))
    assert np.all(adj >= p - 1e-12)


# -- clustering --------------------------------------------------------------------


def test_hierarchical_separates_groups():
    arch = make_four_cel_archive()
    norm = normalize.rma(arch.intensities())
    res = clustering.hierarchical_cluster(norm, labels=arch.array_names, axis="samples")
    assign = res.cluster_assignments
    # the two controls cluster together, as do the two cases
    assert assign[0] == assign[1]
    assert assign[2] == assign[3]
    assert assign[0] != assign[2]


def test_hierarchical_validation():
    with pytest.raises(ValueError, match="axis"):
        clustering.hierarchical_cluster(np.zeros((4, 4)), axis="banana")
    with pytest.raises(ValueError, match="two observations"):
        clustering.hierarchical_cluster(np.zeros((5, 1)), axis="samples")


def test_kmeans_finds_planted_clusters():
    rng = np.random.default_rng(5)
    a = rng.normal(0, 0.2, size=(30, 3))
    b = rng.normal(5, 0.2, size=(30, 3))
    res = clustering.kmeans(np.vstack([a, b]), k=2, seed=1)
    assert len(set(res.assignments[:30])) == 1
    assert len(set(res.assignments[30:])) == 1
    assert res.assignments[0] != res.assignments[30]
    with pytest.raises(ValueError):
        clustering.kmeans(a, k=0)


def test_correlation_matrix_shape():
    m = np.random.default_rng(6).normal(size=(50, 4))
    c = clustering.correlation_matrix(m)
    assert c.shape == (4, 4)
    assert np.allclose(np.diag(c), 1.0)


# -- classify ----------------------------------------------------------------------


def test_classify_separable_data():
    rng = np.random.default_rng(7)
    g1 = rng.normal(0, 0.5, size=(100, 4))
    g2 = rng.normal(3, 0.5, size=(100, 4))
    m = np.hstack([g1, g2])
    groups = ["ctrl"] * 4 + ["case"] * 4
    for method in ("centroid", "lda"):
        res = classify.cross_validate(m, groups, method=method)
        assert res.accuracy == 1.0
    tsv = classify.cross_validate(m, groups).confusion_tsv()
    assert "ctrl" in tsv and "case" in tsv


def test_classify_validation():
    m = np.zeros((10, 4))
    with pytest.raises(classify.ClassifyError, match="two classes"):
        classify.cross_validate(m, ["a"] * 4)
    with pytest.raises(classify.ClassifyError, match="at least two samples"):
        classify.cross_validate(m, ["a", "a", "a", "b"])
    with pytest.raises(classify.ClassifyError, match="unknown method"):
        classify.cross_validate(m, ["a", "a", "b", "b"], method="svm")


# -- rnaseq -----------------------------------------------------------------------


def test_count_reads_exact():
    ann = TranscriptAnnotation.from_bytes(
        b"#name\tchrom\tstart\tend\ntx1\tchr1\t100\t200\ntx2\tchr1\t300\t400\n"
    )
    reads = np.array([50, 100, 150, 199, 200, 350, 500])
    counts = rnaseq.count_reads_per_transcript(reads, ann)
    assert counts.tolist() == [3, 1]  # 100,150,199 in tx1; 350 in tx2


def test_count_matrix_and_de_recovers_planted():
    arch = make_rnaseq_archive(n_reads=30_000, effect=4.0)
    counts, names, samples = rnaseq.count_matrix(arch)
    assert counts.shape == (arch.n_transcripts, len(arch.samples))
    assert counts.sum() > 0
    mask = np.array([c == "B" for c in arch.conditions])
    rows = rnaseq.two_sample_count_test(counts, mask, names)
    planted = {f"tx_{i:04d}" for i in arch.planted_transcripts()}
    top = {r.name for r in rows[: len(planted)]}
    assert len(top & planted) / len(planted) >= 0.7


def test_two_sample_count_test_validation():
    with pytest.raises(ValueError, match="both conditions"):
        rnaseq.two_sample_count_test(np.ones((3, 2)), np.array([True, True]))
    with pytest.raises(ValueError, match="mask length"):
        rnaseq.two_sample_count_test(np.ones((3, 2)), np.array([True]))


def test_alignment_stats():
    arch = make_rnaseq_archive(n_reads=5000)
    stats_rows = rnaseq.alignment_stats(arch)
    assert len(stats_rows) == len(arch.samples)
    for row in stats_rows:
        assert row.n_reads == 5000
        assert 0.9 <= row.fraction_in_transcripts <= 1.0


def test_coverage_and_gene_body():
    arch = make_rnaseq_archive(n_reads=5000)
    ann = arch.annotation()
    hist, edges = rnaseq.coverage_histogram(arch.read_starts(0), ann)
    assert hist.sum() > 0 and len(edges) == len(hist) + 1
    profile = rnaseq.gene_body_coverage(arch, 0)
    assert profile.sum() > 0


# -- survival ---------------------------------------------------------------------


def test_km_no_censoring_simple():
    curve = survival.kaplan_meier(np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4, dtype=int))
    assert np.allclose(curve.survival, [0.75, 0.5, 0.25, 0.0])
    assert curve.median_survival == 2.0


def test_km_with_censoring():
    times = np.array([1.0, 2.0, 2.5, 3.0])
    events = np.array([1, 0, 1, 1])  # one censored at 2.0
    curve = survival.kaplan_meier(times, events)
    # survival never increases, stays within (0, 1]
    assert np.all(np.diff(curve.survival) <= 1e-12)
    assert curve.survival[0] == pytest.approx(0.75)


def test_km_validation():
    with pytest.raises(survival.SurvivalError):
        survival.kaplan_meier(np.array([]), np.array([]))
    with pytest.raises(survival.SurvivalError):
        survival.kaplan_meier(np.array([1.0]), np.array([2]))
    with pytest.raises(survival.SurvivalError):
        survival.kaplan_meier(np.array([-1.0]), np.array([1]))


def test_logrank_detects_hazard_difference():
    from repro.workloads import make_clinical_table

    times, events, groups = survival.parse_clinical_table(make_clinical_table())
    chi2, p = survival.logrank_test(times, events, groups)
    assert p < 0.01
    # identical groups: no signal
    same = np.concatenate([times[:20], times[:20]])
    same_e = np.concatenate([events[:20], events[:20]])
    chi2_0, p_0 = survival.logrank_test(same, same_e, ["A"] * 20 + ["B"] * 20)
    assert chi2_0 == pytest.approx(0.0, abs=1e-9)


def test_parse_clinical_table_errors():
    with pytest.raises(survival.SurvivalError):
        survival.parse_clinical_table(b"nope\n1\t1\tA\n")


# -- qc ----------------------------------------------------------------------------


def test_pca_separates_groups():
    arch = make_four_cel_archive()
    norm = normalize.rma(arch.intensities())
    res = qc.pca(norm)
    assert res.scores.shape == (4, 2)
    assert res.explained_variance_ratio[0] > res.explained_variance_ratio[1]
    pc1 = res.scores[:, 0]
    # the two groups land on opposite sides along some PC
    assert (pc1[:2].mean() - pc1[2:].mean()) != pytest.approx(0.0, abs=1e-6)


def test_array_qc_flags_outlier():
    rng = np.random.default_rng(8)
    m = rng.normal(8, 0.3, size=(300, 5))
    m[:, 4] += 5.0  # broken array
    rows = qc.array_qc(m, [f"s{i}" for i in range(5)])
    assert rows[4].outlier
    assert not any(r.outlier for r in rows[:4])


def test_ma_values_and_validation():
    m = np.random.default_rng(9).normal(size=(100, 3))
    diff, ave = qc.ma_values(m, 0, 1)
    assert diff.shape == ave.shape == (100,)
    with pytest.raises(ValueError):
        qc.ma_values(m, 0, 0)
    with pytest.raises(ValueError):
        qc.ma_values(m, 0, 9)


def test_variance_filter():
    m = np.vstack([np.zeros((5, 4)), np.random.default_rng(10).normal(size=(5, 4))])
    names = [f"p{i}" for i in range(10)]
    kept, kept_names = qc.variance_filter(m, names, min_var=1e-6)
    assert all(n.startswith("p") and int(n[1:]) >= 5 for n in kept_names)
    top2, top2_names = qc.variance_filter(m, names, top_n=2)
    assert len(top2_names) == 2


def test_correlation_test():
    x = np.arange(20.0)
    r, p = qc.correlation_test(x, 2 * x + 1)
    assert r == pytest.approx(1.0)
    r2, p2 = qc.correlation_test(x, -x, method="spearman")
    assert r2 == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        qc.correlation_test(x, x[:5])
    with pytest.raises(ValueError):
        qc.correlation_test(x, x, method="kendall")

"""The CRData engines against the slower implementations they replaced.

``quantile_normalize`` used to sort every column stably; it now sorts
with NumPy's default kind and sorts stably again only the columns with a
tie or a NaN.  The moderated and Welch top tables used to build one row
object per probe and ``list.sort`` them by p; they now keep columns in
the order of one stable argsort.  The moderated prior's bisection used
to run all 200 steps; it now stops at its fixed point.  The replaced
code lives on here as the reference, and Hypothesis draws matrices from
a small value set, so tied columns, duplicate rows (tied p), +-0.0,
+-inf and NaN are common.  Outputs must agree byte for byte.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special, stats

from repro.crdata.engines import diffexpr, normalize
from repro.crdata.engines.diffexpr import TOP_TABLE_HEADER, TopTableRow

# -- references ----------------------------------------------------------------


def reference_quantile_normalize(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    order = np.argsort(m, axis=0, kind="stable")
    ranks = np.empty_like(order)
    rows = np.arange(m.shape[0])[:, None]
    np.put_along_axis(ranks, order, rows, axis=0)
    sorted_vals = np.take_along_axis(m, order, axis=0)
    mean_dist = sorted_vals.mean(axis=1)
    return mean_dist[ranks]


def reference_prior(s2: np.ndarray, df: float) -> tuple[float, float]:
    s2 = np.maximum(s2, 1e-12)
    z = np.log(s2)
    e_z = z.mean()
    v_z = z.var(ddof=1) if z.size > 1 else 0.0
    rest = v_z - special.polygamma(1, df / 2.0)
    if rest <= 1e-8:
        return np.inf, float(np.exp(e_z))
    lo, hi = 1e-6, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if special.polygamma(1, mid) > rest:
            lo = mid
        else:
            hi = mid
    d0 = 2.0 * 0.5 * (lo + hi)
    s02 = np.exp(
        e_z + special.digamma(df / 2.0) - np.log(df / 2.0)
        - special.digamma(d0 / 2.0) + np.log(d0 / 2.0)
    )
    return float(d0), float(s02)


def reference_tsv(log_fc, ave, t, p) -> str:
    """One row object per probe, ``list.sort``-ed by p with NaN last."""
    adj = diffexpr.benjamini_hochberg(p)
    rows = [
        TopTableRow(f"row_{i}", float(log_fc[i]), float(ave[i]), float(t[i]),
                    float(p[i]), float(adj[i]))
        for i in range(len(p))
    ]
    rows.sort(key=lambda r: (math.isnan(r.p_value), r.p_value))
    return "\n".join([TOP_TABLE_HEADER] + [r.as_tsv() for r in rows]) + "\n"


def reference_moderated(m: np.ndarray, mask: np.ndarray) -> tuple[str, float, float]:
    n1, n2 = int((~mask).sum()), int(mask.sum())
    g1, g2 = m[:, ~mask], m[:, mask]
    log_fc = g2.mean(axis=1) - g1.mean(axis=1)
    df = n1 + n2 - 2
    pooled_var = (
        g1.var(axis=1, ddof=1) * (n1 - 1) + g2.var(axis=1, ddof=1) * (n2 - 1)
    ) / df
    d0, s02 = reference_prior(pooled_var, df)
    if np.isinf(d0):
        post_var = np.full_like(pooled_var, s02)
        df_total = np.inf
    else:
        post_var = (d0 * s02 + df * pooled_var) / (d0 + df)
        df_total = d0 + df
    t = log_fc / np.sqrt(post_var * (1.0 / n1 + 1.0 / n2))
    if np.isinf(df_total):
        p = 2.0 * stats.norm.sf(np.abs(t))
    else:
        p = 2.0 * stats.t.sf(np.abs(t), df_total)
    return reference_tsv(log_fc, m.mean(axis=1), t, p), d0, s02


def reference_welch(m: np.ndarray, mask: np.ndarray) -> str:
    g1, g2 = m[:, ~mask], m[:, mask]
    t, p = stats.ttest_ind(g2, g1, axis=1, equal_var=False)
    log_fc = g2.mean(axis=1) - g1.mean(axis=1)
    return reference_tsv(log_fc, m.mean(axis=1), t, p)


# -- strategies ----------------------------------------------------------------

SMALL = [-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0]
EDGE = SMALL + [np.inf, -np.inf, np.nan, -np.nan]  # two NaN bit patterns


@st.composite
def matrices(draw, values, min_cols=1, max_cols=6):
    """Up to 60 rows (past the small-array cut-offs of the sort kernels),
    half of them copies of a few pool rows, so tied p is common too."""
    cols = draw(st.integers(min_cols, max_cols))
    elements = st.sampled_from(values)
    pool = draw(hnp.arrays(np.float64, (draw(st.integers(1, 4)), cols), elements=elements))
    picks = draw(st.lists(st.integers(0, pool.shape[0] - 1), max_size=30))
    fresh = draw(hnp.arrays(np.float64, (draw(st.integers(1, 30)), cols), elements=elements))
    order = draw(st.permutations(range(len(picks) + fresh.shape[0])))
    return np.vstack([pool[picks], fresh])[order]


def halves(cols: int) -> np.ndarray:
    return np.arange(cols) >= cols // 2


# -- equivalence -----------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(matrices(EDGE))
def test_quantile_normalize_matches_the_stable_sort(m):
    assert normalize.quantile_normalize(m).tobytes() == (
        reference_quantile_normalize(m).tobytes()
    )


def test_nan_columns_without_ties_also_sort_stably():
    """Distinct values and NaNs of two bit patterns: no tie, so only the
    NaN check sends these columns to the stable sort, and the order of
    their NaNs shows in the rank means."""
    rng = np.random.default_rng(0)
    m = rng.permutation(80).reshape(40, 2).astype(float)
    for c in range(2):
        rows = rng.choice(40, size=12, replace=False)
        m[rows, c] = np.where(rng.random(12) < 0.5, np.nan, -np.nan)
    with np.errstate(invalid="ignore"):
        assert normalize.quantile_normalize(m).tobytes() == (
            reference_quantile_normalize(m).tobytes()
        )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(matrices(SMALL + [np.inf], min_cols=4))
def test_moderated_table_matches_the_row_sort(m):
    res = diffexpr.moderated_t_test(m, halves(m.shape[1]))
    tsv, d0, s02 = reference_moderated(m, halves(m.shape[1]))
    assert res.as_tsv() == tsv
    assert np.array([res.d0, res.s0_sq]).tobytes() == np.array([d0, s02]).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(matrices(EDGE, min_cols=4))
def test_welch_table_matches_the_row_sort(m):
    res = diffexpr.student_t_test(m, halves(m.shape[1]))
    assert res.as_tsv() == reference_welch(m, halves(m.shape[1]))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(1e-9, 1e9), min_size=2, max_size=40),
    st.integers(1, 80),
)
def test_prior_bisection_stops_at_its_fixed_point(s2, df):
    got = diffexpr._moment_match_prior(np.array(s2), df)
    assert np.array(got).tobytes() == np.array(reference_prior(np.array(s2), df)).tobytes()


@pytest.mark.parametrize("df,excess", [(2, 3e-8), (4, 1e-6), (6, 10.0), (2, 1e3)])
def test_prior_bisection_at_its_upper_bound_and_far_below(df, excess):
    """Log variances whose spread exceeds trigamma(df/2) by ``excess``:
    a tiny excess drives the bisection onto its upper bound (d0 = 2e6)."""
    a = np.sqrt((special.polygamma(1, df / 2.0) + excess) / 2.0)
    s2 = np.exp(np.array([a, -a]))
    got = diffexpr._moment_match_prior(s2, df)
    assert np.array(got).tobytes() == np.array(reference_prior(s2, df)).tobytes()
    assert (got[0] == 2e6) == (excess < 1e-5)


def test_rows_top_and_significant_read_the_same_table():
    m = np.random.default_rng(2).normal(8.0, 0.5, size=(300, 6))
    m[:20, 3:] += 2.0
    res = diffexpr.moderated_t_test(m, halves(6))
    rows = res.rows
    assert len(rows) == 300
    assert res.top(7) == rows[:7]
    assert res.top(-3) == rows[:-3]
    assert res.significant(0.05) == [r for r in rows if r.adj_p_value <= 0.05]
    assert res.as_tsv(7) == "\n".join(
        [TOP_TABLE_HEADER] + [r.as_tsv() for r in rows[:7]]
    ) + "\n"

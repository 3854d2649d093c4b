"""Differential expression: moderated t statistics with FDR control.

The engine behind ``affyDifferentialExpression.R`` — "conducts two-group
differential expression on Affymetrix CEL files ... and creates a 'top
table' of probe sets that are differentially expressed" (paper Sec. V-A).

Implements a limma-style empirical-Bayes moderated t-test (Smyth 2004):
per-gene variances are shrunk toward a pooled prior estimated by the
method of moments, improving power for small sample sizes (the use case
has 2 arrays per group), plus Benjamini-Hochberg FDR and one-way ANOVA
for multi-group designs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special, stats


@dataclass
class TopTableRow:
    name: str
    log_fc: float
    mean_expr: float
    t_stat: float
    p_value: float
    adj_p_value: float

    def as_tsv(self) -> str:
        return (
            f"{self.name}\t{self.log_fc:.4f}\t{self.mean_expr:.4f}"
            f"\t{self.t_stat:.4f}\t{self.p_value:.3e}\t{self.adj_p_value:.3e}"
        )


TOP_TABLE_HEADER = "probe\tlogFC\tAveExpr\tt\tP.Value\tadj.P.Val"


def benjamini_hochberg(p_values: np.ndarray) -> np.ndarray:
    """BH step-up FDR adjustment.

    A NaN p-value stays NaN and does not count towards n, as in R's
    ``p.adjust``: one untestable row (a constant probe in a Welch test)
    must not blank every other row's adjusted p.
    """
    p = np.asarray(p_values, dtype=float)
    tested = np.flatnonzero(~np.isnan(p))
    n = tested.size
    order = tested[np.argsort(p[tested])]
    ranked = p[order] * n / (np.arange(n) + 1)
    # enforce monotonicity from the largest p downwards
    ranked = np.minimum.accumulate(ranked[::-1])[::-1]
    out = np.full(p.shape, np.nan)
    out[order] = np.clip(ranked, 0.0, 1.0)
    return out


def _moment_match_prior(s2: np.ndarray, df: float) -> tuple[float, float]:
    """Estimate the inverse-chi-square prior (d0, s0^2) from sample variances.

    Method of moments on log variances, following limma's fitFDist.
    """
    s2 = np.maximum(s2, 1e-12)
    z = np.log(s2)
    e_z = z.mean()
    v_z = z.var(ddof=1) if z.size > 1 else 0.0
    # var(log s^2) = trigamma(df/2) + trigamma(d0/2)
    rest = v_z - special.polygamma(1, df / 2.0)
    if rest <= 1e-8:
        return np.inf, float(np.exp(e_z))  # variances essentially equal
    # invert trigamma by bisection, for at most 200 steps; a step that
    # moves neither bound leaves a state every later step repeats
    lo, hi = 1e-6, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if special.polygamma(1, mid) > rest:
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    d0 = 2.0 * 0.5 * (lo + hi)
    s02 = np.exp(
        e_z + special.digamma(df / 2.0) - np.log(df / 2.0)
        - special.digamma(d0 / 2.0) + np.log(d0 / 2.0)
    )
    return float(d0), float(s02)


@dataclass(eq=False)
class ModeratedTResult:
    """A top table kept as per-probe columns in table order: ascending p,
    ties in input order, NaN p last.  Row objects are built only for the
    rows a caller reads."""

    names: np.ndarray  # dtype object: the probe names
    log_fc: np.ndarray
    mean_expr: np.ndarray
    t_stat: np.ndarray
    p_value: np.ndarray
    adj_p_value: np.ndarray
    d0: float
    s0_sq: float

    def _rows(self, index) -> list[TopTableRow]:
        columns = (self.names, self.log_fc, self.mean_expr, self.t_stat,
                   self.p_value, self.adj_p_value)
        return [TopTableRow(*row) for row in zip(*(c[index].tolist() for c in columns))]

    @property
    def rows(self) -> list[TopTableRow]:
        return self._rows(slice(None))

    def top(self, n: int = 10) -> list[TopTableRow]:
        return self._rows(slice(n))

    def significant(self, fdr: float = 0.05) -> list[TopTableRow]:
        return self._rows(self.adj_p_value <= fdr)

    def as_tsv(self, n: int | None = None) -> str:
        rows = self._rows(slice(n))
        return "\n".join([TOP_TABLE_HEADER] + [r.as_tsv() for r in rows]) + "\n"


def _top_table(names, log_fc, ave, t, p, d0: float, s0_sq: float) -> ModeratedTResult:
    """Put the per-probe columns in table order by one stable argsort on p."""
    adj = benjamini_hochberg(p)
    order = np.argsort(p, kind="stable")
    return ModeratedTResult(
        names=np.asarray(names, dtype=object)[order],
        log_fc=log_fc[order],
        mean_expr=ave[order],
        t_stat=t[order],
        p_value=p[order],
        adj_p_value=adj[order],
        d0=d0,
        s0_sq=s0_sq,
    )


def moderated_t_test(
    values: np.ndarray,
    group_mask: np.ndarray,
    names: list[str] | None = None,
) -> ModeratedTResult:
    """Two-group moderated t-test on a log2 (probes × samples) matrix.

    ``group_mask`` is True for group-2 samples; logFC is group2 - group1.
    """
    m = np.asarray(values, dtype=float)
    mask = np.asarray(group_mask, dtype=bool)
    n2 = int(mask.sum())
    n1 = int((~mask).sum())
    if n1 < 2 or n2 < 2:
        raise ValueError("need at least two samples in each group")
    if names is None:
        names = [f"row_{i}" for i in range(m.shape[0])]
    g1, g2 = m[:, ~mask], m[:, mask]
    mean1, mean2 = g1.mean(axis=1), g2.mean(axis=1)
    log_fc = mean2 - mean1
    df = n1 + n2 - 2
    pooled_var = (
        g1.var(axis=1, ddof=1) * (n1 - 1) + g2.var(axis=1, ddof=1) * (n2 - 1)
    ) / df
    d0, s02 = _moment_match_prior(pooled_var, df)
    if np.isinf(d0):
        post_var = np.full_like(pooled_var, s02)
        df_total = np.inf
    else:
        post_var = (d0 * s02 + df * pooled_var) / (d0 + df)
        df_total = d0 + df
    se = np.sqrt(post_var * (1.0 / n1 + 1.0 / n2))
    t = log_fc / se
    if np.isinf(df_total):
        p = 2.0 * stats.norm.sf(np.abs(t))
    else:
        p = 2.0 * stats.t.sf(np.abs(t), df_total)
    return _top_table(names, log_fc, m.mean(axis=1), t, p, d0, s02)


def student_t_test(
    values: np.ndarray, group_mask: np.ndarray, names: list[str] | None = None
) -> ModeratedTResult:
    """Plain (unmoderated) Welch t-test, for the matrixTTest tool."""
    m = np.asarray(values, dtype=float)
    mask = np.asarray(group_mask, dtype=bool)
    if names is None:
        names = [f"row_{i}" for i in range(m.shape[0])]
    g1, g2 = m[:, ~mask], m[:, mask]
    t, p = stats.ttest_ind(g2, g1, axis=1, equal_var=False)
    log_fc = g2.mean(axis=1) - g1.mean(axis=1)
    return _top_table(names, log_fc, m.mean(axis=1), t, p, 0.0, 0.0)


def one_way_anova(
    values: np.ndarray, groups: list[str], names: list[str] | None = None
) -> list[tuple[str, float, float, float]]:
    """Per-row one-way ANOVA across >= 2 groups.

    Returns rows of (name, F, p, adj_p) sorted by p, NaN p last.
    """
    m = np.asarray(values, dtype=float)
    labels = list(dict.fromkeys(groups))
    if len(labels) < 2:
        raise ValueError("ANOVA needs at least two groups")
    masks = [np.array([g == lab for g in groups]) for lab in labels]
    if any(mask.sum() < 2 for mask in masks):
        raise ValueError("each group needs at least two samples")
    samples = [m[:, mask] for mask in masks]
    f, p = stats.f_oneway(*samples, axis=1)
    adj = benjamini_hochberg(p)
    if names is None:
        names = [f"row_{i}" for i in range(m.shape[0])]
    order = np.argsort(p, kind="stable")  # ties in input order, NaN p last
    return [
        (names[i], float(f[i]), float(p[i]), float(adj[i])) for i in order.tolist()
    ]


def fold_change(
    values: np.ndarray, group_mask: np.ndarray, names: list[str] | None = None
) -> list[tuple[str, float]]:
    """Per-row log2 fold change (group2 - group1), sorted by |FC| desc."""
    m = np.asarray(values, dtype=float)
    mask = np.asarray(group_mask, dtype=bool)
    fc = m[:, mask].mean(axis=1) - m[:, ~mask].mean(axis=1)
    if names is None:
        names = [f"row_{i}" for i in range(m.shape[0])]
    rows = [(names[i], float(fc[i])) for i in range(m.shape[0])]
    rows.sort(key=lambda r: -abs(r[1]))
    return rows

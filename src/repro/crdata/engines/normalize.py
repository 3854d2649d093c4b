"""Normalization: the RMA-style pipeline behind the Affy tools.

Implements the standard steps on probe intensity matrices:

* background correction (shifted-log stabilisation),
* quantile normalization (Bolstad et al. 2003) — every array gets the
  same empirical distribution,
* log2 transform and median-polish summarisation,
* library-size (CPM) normalization for count data.

All operations are vectorised over (probes × samples) matrices.
"""

from __future__ import annotations

import numpy as np


def background_correct(intensities: np.ndarray, offset: float = 16.0) -> np.ndarray:
    """Shifted-log background stabilisation of raw intensities."""
    if np.any(intensities < 0):
        raise ValueError("intensities must be non-negative")
    return intensities + offset


def quantile_normalize(matrix: np.ndarray) -> np.ndarray:
    """Force every column to the mean empirical distribution.

    Classic Bolstad quantile normalization: sort each column, average
    across columns rank-wise, then map values back through each column's
    rank order.  Ties inherit the value of their rank position in a
    stable sort.

    Columns sort with NumPy's default kind; only a column whose sorted
    values hold a tie (``-0.0 == 0.0`` counts) or a NaN is sorted again,
    stably.  A column of distinct values has one sorting permutation, so
    the result never depends on which algorithm the default kind runs.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("matrix must be 2-D")
    order = np.argsort(m, axis=0)
    sorted_vals = np.take_along_axis(m, order, axis=0)
    redo = (sorted_vals[1:] == sorted_vals[:-1]).any(axis=0)
    redo |= np.isnan(sorted_vals[-1:]).any(axis=0)  # NaN sorts last, equals nothing
    if redo.any():
        cols = np.flatnonzero(redo)
        order[:, cols] = np.argsort(m[:, cols], axis=0, kind="stable")
        sorted_vals[:, cols] = np.take_along_axis(m[:, cols], order[:, cols], axis=0)
    out = np.empty_like(sorted_vals)
    np.put_along_axis(out, order, sorted_vals.mean(axis=1)[:, None], axis=0)
    return out


def log2_transform(matrix: np.ndarray) -> np.ndarray:
    if np.any(matrix <= 0):
        raise ValueError("log2 requires positive values")
    return np.log2(matrix)


def median_polish(matrix: np.ndarray, max_iter: int = 10, tol: float = 1e-4):
    """Tukey median polish: decompose into overall + row + column effects.

    Returns ``(overall, row_effects, col_effects, residuals)``.  RMA uses
    the column effects as per-sample probe-set summaries.
    """
    resid = np.asarray(matrix, dtype=float).copy()
    overall = 0.0
    row_eff = np.zeros(resid.shape[0])
    col_eff = np.zeros(resid.shape[1])
    for _ in range(max_iter):
        row_med = np.median(resid, axis=1)
        resid -= row_med[:, None]
        row_eff += row_med
        col_med_of_row = np.median(row_eff)
        row_eff -= col_med_of_row
        overall += col_med_of_row

        col_med = np.median(resid, axis=0)
        resid -= col_med[None, :]
        col_eff += col_med
        row_med_of_col = np.median(col_eff)
        col_eff -= row_med_of_col
        overall += row_med_of_col
        if np.abs(row_med).max(initial=0.0) < tol and np.abs(col_med).max(initial=0.0) < tol:
            break
    return overall, row_eff, col_eff, resid


def rma(intensities: np.ndarray) -> np.ndarray:
    """RMA-style normalization of raw probe intensities.

    background-correct -> quantile-normalize -> log2.  Probe-to-probeset
    summarisation is identity here because the synthetic arrays are
    generated at probe-set resolution.
    """
    return log2_transform(quantile_normalize(background_correct(intensities)))


def cpm(counts: np.ndarray, log: bool = False, prior: float = 0.5) -> np.ndarray:
    """Counts-per-million library-size normalization."""
    counts = np.asarray(counts, dtype=float)
    libsize = counts.sum(axis=0, keepdims=True)
    if np.any(libsize == 0):
        raise ValueError("a sample has zero total counts")
    out = (counts + (prior if log else 0.0)) / (libsize + (2 * prior if log else 0.0)) * 1e6
    return np.log2(out) if log else out


def zscore(matrix: np.ndarray, axis: int = 1) -> np.ndarray:
    """Standardise along ``axis`` (default: per probe across samples)."""
    m = np.asarray(matrix, dtype=float)
    mean = m.mean(axis=axis, keepdims=True)
    sd = m.std(axis=axis, ddof=1, keepdims=True)
    sd[sd == 0] = 1.0
    return (m - mean) / sd

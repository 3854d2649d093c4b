"""Percentile edge cases, pinned against a sorted-list reference.

``obs.export._percentile`` used ``round(q*n + 0.5)`` and hit banker's
rounding on exact .5 products.  It is a nearest-rank definition: the
smallest value with at least ``q`` of the samples at or below it, q=0.0
meaning the minimum and q=1.0 the maximum.
"""

import math

from hypothesis import given, strategies as st

from repro.obs.export import _percentile

QS = [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0]


def ref_percentile(values, q):
    """Nearest-rank over a sorted list: ``values[max(1, ceil(q*n)) - 1]``."""
    if not values:
        return 0.0
    vs = sorted(values)
    rank = max(1, min(len(vs), math.ceil(q * len(vs))))
    return vs[rank - 1]


# -- _percentile ------------------------------------------------------------


def test_percentile_empty_is_zero():
    assert _percentile([], 0.0) == 0.0
    assert _percentile([], 0.95) == 0.0
    assert _percentile([], 1.0) == 0.0


def test_percentile_single_sample_for_every_q():
    for q in QS:
        assert _percentile([3.5], q) == 3.5


def test_percentile_p95_of_20_is_rank_19_not_20():
    # the banker's-rounding regression: round(0.95*20 + 0.5) picked 20
    values = [float(v) for v in range(1, 21)]
    assert _percentile(values, 0.95) == 19.0


@given(
    st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=60),
    st.sampled_from(QS),
)
def test_percentile_matches_sorted_list_reference(values, q):
    vs = sorted(values)
    assert _percentile(vs, q) == ref_percentile(values, q)


@given(st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=60))
def test_percentile_extremes_and_membership(values):
    vs = sorted(values)
    assert _percentile(vs, 0.0) == vs[0]
    assert _percentile(vs, 1.0) == vs[-1]
    for q in QS:
        assert _percentile(vs, q) in vs


@given(st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=60))
def test_percentile_is_monotone_in_q(values):
    vs = sorted(values)
    results = [_percentile(vs, q) for q in QS]
    assert results == sorted(results)

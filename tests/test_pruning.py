"""Tests for the §6.2 pruning kernels."""
import numpy as np
import pytest

from repro.core.pruning import (domain_prune_mask, domain_prune_rows,
                                tuple_filter, tuple_filter_rows)


def test_tuple_filter_formula():
    # two evidence columns, dom size 3, original value code 1
    cnt_vecs = [np.array([0.0, 8.0, 2.0]), np.array([1.0, 4.0, 0.0])]
    out = tuple_filter(1, cnt_vecs, [10.0, 8.0])
    assert out == pytest.approx((8 / 10 + 4 / 8) / 2)


def test_tuple_filter_missing_original():
    assert tuple_filter(-1, [np.ones(3)], [1.0]) == 0.0


def test_tuple_filter_no_evidence():
    assert tuple_filter(0, [], []) == 0.0


def test_tuple_filter_skips_zero_denominators():
    cnt_vecs = [np.array([5.0, 0.0]), np.array([3.0, 0.0])]
    out = tuple_filter(0, cnt_vecs, [0.0, 6.0])
    assert out == pytest.approx(3 / 6)  # first column ignored


def test_tuple_filter_clean_cell_scores_high():
    # a value co-occurring with every evidence value maximally
    cnt_vecs = [np.array([10.0, 0.0])] * 4
    assert tuple_filter(0, cnt_vecs, [10.0] * 4) == pytest.approx(1.0)


def test_domain_prune_no_blanket_keeps_all():
    keep = domain_prune_mask([], np.array([5.0, 1.0]), n_rows=10)
    assert keep.all()


def test_domain_prune_requires_context():
    # candidate 1 never co-occurs with any blanket evidence -> pruned
    vecs = [np.array([3.0, 0.0, 1.0])]
    keep = domain_prune_mask(vecs, np.array([5.0, 5.0, 5.0]), n_rows=100)
    assert keep[0] and keep[2] and not keep[1]


def test_domain_prune_top_k():
    n = 50
    vecs = [np.ones(n)]
    counts = np.arange(1, n + 1, dtype="float64")
    keep = domain_prune_mask(vecs, counts, n_rows=1000, top_k=5)
    assert keep.sum() <= 6  # ties at the kth score may keep a few extra
    # IDF: rarer values score higher -> the kept ones are the rarest
    assert keep[:5].all()


def test_domain_prune_idf_floor_keeps_frequent_context():
    # a value more frequent than n_rows would get negative IDF; the
    # floor keeps it eligible when it has context
    vecs = [np.array([2.0, 0.0])]
    keep = domain_prune_mask(vecs, np.array([500.0, 1.0]), n_rows=100)
    assert keep[0] and not keep[1]


def test_domain_prune_multiple_blanket_columns_sum_context():
    vecs = [np.array([1.0, 0.0]), np.array([1.0, 1.0])]
    counts = np.array([10.0, 10.0])
    keep = domain_prune_mask(vecs, counts, n_rows=100, top_k=1)
    assert keep[0] and not keep[1]  # context 2 beats context 1


def test_tuple_filter_rows_matches_per_cell():
    rng = np.random.default_rng(0)
    n, k = 400, 6
    cnt = rng.integers(0, 9, (n, k)).astype("float64")
    denom = rng.integers(0, 4, (n, k)) * rng.integers(1, 7, (n, k)) * 1.0
    present = rng.random((n, k)) < 0.7   # evidence column found for the cell
    present[::9] = False                 # cells with no evidence at all
    got = tuple_filter_rows(cnt, np.where(present, denom, 0.0))
    assert (denom[present] == 0).any()   # zero denominators are exercised
    for r in range(n):
        cols = np.flatnonzero(present[r])
        want = tuple_filter(0, [np.array([cnt[r, c]]) for c in cols],
                            list(denom[r, cols]))
        assert got[r] == want, r


def test_domain_prune_rows_matches_per_cell():
    rng = np.random.default_rng(1)
    n, dom, top_k = 300, 40, 6
    value_counts = rng.integers(0, 4, dom).astype("float64")  # many ties
    context = np.zeros((n, dom))
    has_blanket = np.zeros(n, dtype=bool)
    vecs = []
    for r in range(n):
        row = [rng.integers(0, 3, dom) * (rng.random(dom) < 0.4) * 1.0
               for _ in range(rng.integers(0, 4))]  # 0 = no blanket evidence
        for v in row:
            context[r] += v > 0
        has_blanket[r] = bool(row)
        vecs.append(row)
    keep = domain_prune_rows(context, has_blanket, value_counts,
                             n_rows=100, top_k=top_k)
    assert (keep.sum(axis=1) > top_k).any()   # ties kept at the K-th score
    assert not has_blanket.all()
    for r in range(n):
        want = domain_prune_mask(vecs[r], value_counts, n_rows=100,
                                 top_k=top_k)
        assert (keep[r] == want).all(), r

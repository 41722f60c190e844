"""Pruning strategies (paper §6.2) as pure numpy kernels.

Each strategy has a per-cell form, over the dense gather vectors of one
cell (used by the reference loop in ``inference.py``), and a row-wise
form over a batch of cells (used by the batched PI/PIP kernel). The
row-wise forms are checked against the per-cell ones in
``tests/test_pruning.py``:

* ``tuple_filter`` — Filter(T, A_i): the mean, over evidence
  attributes, of count(T[A_i], T[A_k]) / count(T[A_k]). Cells with
  Filter ≥ τ_clean are "relatively reliable" and skip inference.
* ``domain_prune_mask`` — TF-IDF candidate pruning over the
  sub-network: score(v) = context(v) · log(|D| / (1 + count(v, D))),
  where context(v) counts the blanket evidence values v co-occurs
  with; only the top-K positive-score candidates stay.

The row-wise forms are ``tuple_filter_rows`` and ``domain_prune_rows``.
"""
from __future__ import annotations

import numpy as np

__all__ = ["tuple_filter", "domain_prune_mask", "tuple_filter_rows",
           "domain_prune_rows"]


def tuple_filter(orig_code: int, cnt_vecs: list[np.ndarray],
                 evidence_counts: list[float]) -> float:
    """Filter(T, A_i) over the available (non-missing) evidence columns.

    ``cnt_vecs[k][c]`` is count(c, T[A_k]) over dom(A_i);
    ``evidence_counts[k]`` is count(T[A_k]). Returns 0 when there is no
    usable evidence (the cell then always qualifies for inference).
    """
    if orig_code < 0 or not cnt_vecs:
        return 0.0
    acc, used = 0.0, 0
    for vec, denom in zip(cnt_vecs, evidence_counts):
        if denom <= 0:
            continue
        acc += vec[orig_code] / denom
        used += 1
    return acc / used if used else 0.0


def domain_prune_mask(cnt_vecs_blanket: list[np.ndarray],
                      value_counts: np.ndarray, n_rows: int,
                      top_k: int = 32) -> np.ndarray:
    """Boolean keep-mask over the candidate domain (§6.2 domain pruning).

    With no blanket evidence every candidate survives (nothing to prune
    against). Otherwise candidates must co-occur with at least one
    blanket evidence value and rank in the top-K by TF-IDF.
    """
    dom = len(value_counts)
    if not cnt_vecs_blanket:
        return np.ones(dom, dtype=bool)
    context = np.zeros(dom, dtype="float64")
    for vec in cnt_vecs_blanket:
        context += (vec > 0).astype("float64")
    with np.errstate(divide="ignore"):
        idf = np.log(n_rows / (1.0 + value_counts))
    score = context * np.maximum(idf, 1e-9)  # keep IDF positive so
    # context alone decides candidacy even for very frequent values
    keep = score > 0
    if keep.sum() > top_k:
        kth = np.partition(score, dom - top_k)[dom - top_k]
        keep &= score >= kth
    return keep


def tuple_filter_rows(cnt_at_orig: np.ndarray,
                      evidence_counts: np.ndarray) -> np.ndarray:
    """``tuple_filter`` for many cells at once.

    Row r, column k holds count(orig_r, T_r[A_k]) and count(T_r[A_k])
    for the k-th evidence column, in the per-cell call's order. An
    evidence column the per-cell call would not receive, and a row
    whose original value is missing, carry a zero denominator: both are
    skipped, as ``tuple_filter`` skips zero denominators. The columns
    are summed left to right, in the per-cell order, so the result is
    bit-identical to ``tuple_filter``.
    """
    used = evidence_counts > 0
    ratio = np.divide(cnt_at_orig, evidence_counts,
                      out=np.zeros(cnt_at_orig.shape), where=used)
    acc = np.zeros(len(ratio))
    for k in range(ratio.shape[1]):
        acc += ratio[:, k]
    n_used = used.sum(axis=1)
    return np.divide(acc, n_used, out=np.zeros(len(acc)), where=n_used > 0)


def domain_prune_rows(context: np.ndarray, has_blanket: np.ndarray,
                      value_counts: np.ndarray, n_rows: int,
                      top_k: int = 32) -> np.ndarray:
    """``domain_prune_mask`` for many cells at once: a (rows, dom)
    keep-mask.

    ``context[r, c]`` counts the blanket evidence columns of row r whose
    value co-occurs with candidate c; ``has_blanket[r]`` is False when
    row r has no blanket evidence, and then every candidate survives.
    Ties at the K-th score are kept, as in ``domain_prune_mask``.
    """
    dom = len(value_counts)
    with np.errstate(divide="ignore"):
        idf = np.log(n_rows / (1.0 + value_counts))
    score = context * np.maximum(idf, 1e-9)
    keep = score > 0
    over = np.flatnonzero(keep.sum(axis=1) > top_k)
    if len(over):
        sub = score[over]
        kth = np.partition(sub, dom - top_k, axis=1)[:, dom - top_k]
        keep[over] &= sub >= kth[:, None]
    keep[~has_blanket] = True
    return keep

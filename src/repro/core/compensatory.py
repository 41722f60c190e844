"""Compensatory scoring model (paper §5, Algorithm 2).

Two distributed computations over the dirty DataFrame:

* ``tuple_confidence`` — Eq. 3: per-tuple confidence from UC checks,
  ``conf(T) = max(0, (#satisfied − λ·#violated) / m)``, evaluated as a
  vectorized pandas kernel per attribute inside ``mapInPandas``.
* ``corr_counts`` — Algorithm 2: for every ordered attribute pair
  (A_i, A_j) and value pair (c, e) co-occurring in some tuple,
  accumulate ``+1`` per confident tuple (conf ≥ τ) and ``−β`` per
  unconfident one, plus the raw co-occurrence count used by the pruning
  strategies (§6.2). The confidence pass keeps the attribute columns and
  adds each tuple's weight, and one grouping-sets aggregation
  (``cpt.cpt_counts``) counts all m(m−1)/2 unordered attribute pairs,
  so the O(n·m²) pair expansion runs in Spark, matching the paper's
  complexity analysis, with no melt and no join on tid. ``w`` and the
  count are symmetric, so each unordered pair is emitted once.

``Score_corr`` itself (Eq. 2) is evaluated at inference time from the
driver-assembled index (``build_corr_index``): for each ordered pair
(A_i → candidate attribute, A_j → evidence attribute), one
``model.SparseTable`` whose row for the code of evidence value e holds
the (candidate code, weight, raw count) entries; both orientations of a
pair are built from its one row set. The raw counts of a pair are also
the CPT of a node with a single parent (``CorrIndex.single_parent``),
and ``pair_majority`` reads them as the FD majority of every ordered
pair.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterator, Mapping, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import DoubleType, StringType, StructField, StructType

from .constraints import UC, uc_mask
from .cpt import cpt_counts, majority
from .model import SparseTable, value_codes

__all__ = ["tuple_confidence", "corr_counts", "pair_majority",
           "build_corr_index", "CorrIndex"]


def tuple_confidence(
    df: DataFrame,
    attrs: Sequence[str],
    ucs: dict[str, UC],
    *,
    lam: float = 1.0,
) -> DataFrame:
    """Eq. 3 — returns (tid, *attrs, conf) with conf ∈ [0, 1]; the
    attribute columns ride along for ``corr_counts``' aggregation."""
    attrs = list(attrs)
    m = len(attrs)
    schema = StructType([
        StructField("tid", StringType()),
        *[df.schema[a] for a in attrs],
        StructField("conf", DoubleType()),
    ])

    def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            ok = np.zeros(len(pdf), dtype="int64")
            for a in attrs:
                ok += uc_mask(ucs, a, pdf[a]).astype("int64")
            conf = np.maximum(0.0, (ok - lam * (m - ok)) / m)
            yield pdf.assign(tid=pdf["tid"].astype(str), conf=conf)

    return df.select("tid", *attrs).mapInPandas(kernel, schema=schema)


def corr_counts(
    df: DataFrame,
    attrs: Sequence[str],
    ucs: dict[str, UC],
    *,
    lam: float = 1.0,
    beta: float = 2.0,
    tau: float = 0.5,
) -> pd.DataFrame:
    """Algorithm 2 — returns pandas (attr_i, attr_j, c, e, w, cnt).

    ``w`` is Σ_T (1[conf≥τ] − β·1[conf<τ]) over tuples containing the
    value pair; ``cnt`` is the raw co-occurrence count. Missing values
    do not form pairs. Each unordered attribute pair is aggregated once,
    in one ``cpt.cpt_counts`` job, and emitted once, with ``attr_i``
    before ``attr_j`` in ``attrs`` order: ``w`` and ``cnt`` are
    symmetric, so the rows of (attr_j, attr_i) are the same rows with
    ``c`` and ``e`` swapped.
    """
    # positional column names, so that no attribute name (say 'w' or
    # 'conf') can clash with the columns the aggregation adds
    name = {f"_{k}": a for k, a in enumerate(attrs)}
    pos = list(name)
    weighted = tuple_confidence(
        df.select("tid", *[F.col(a).alias(p) for p, a in name.items()]),
        pos, {p: ucs[a] for p, a in name.items() if a in ucs}, lam=lam,
    ).withColumn("w", F.when(F.col("conf") >= tau, 1.0).otherwise(-beta))
    pairs = list(combinations(pos, 2))
    parts = [pd.DataFrame({"attr_i": name[a], "attr_j": name[b], "c": p[a],
                           "e": p[b], "w": p["w"], "cnt": p["cnt"]})
             for (a, b), p in zip(pairs, cpt_counts(weighted, pairs,
                                                    weight="w"))]
    if not parts:
        return pd.DataFrame(columns=["attr_i", "attr_j", "c", "e", "w", "cnt"])
    return pd.concat(parts, ignore_index=True)


_SWAP = {"attr_i": "attr_j", "attr_j": "attr_i", "c": "e", "e": "c"}


def pair_majority(corr_pdf: pd.DataFrame) -> pd.DataFrame:
    """The majority ``c`` per ``e`` of every ordered attribute pair of
    ``corr_counts``' output, in both orientations of each unordered
    pair: ``cpt.majority`` over ``[attr_i, attr_j, e]``, as
    ``[attr_i, attr_j, e, c, cnt, total]``: the forward orientation's
    rows, then the reverse one's. A tie at the maximum goes to the value
    that comes first in ``corr_counts``' row order, in either
    orientation. Each orientation is read off ``corr_pdf`` in place, so
    no reversed copy of it is made."""
    fwd = majority(corr_pdf, ["attr_i", "attr_j", "e"], "c")
    rev = majority(corr_pdf, ["attr_j", "attr_i", "c"], "e")
    return pd.concat([fwd, rev.rename(columns=_SWAP)], ignore_index=True)


class CorrIndex:
    """Driver-side index over the Algorithm-2 output.

    ``tables[(attr_i, attr_j)]`` is one ``SparseTable`` per ordered
    pair, keyed by the code of an evidence value e of ``attr_j``, with
    entries (code of a candidate c of ``attr_i`` co-occurring with e,
    summed confidence weight, raw count). ``lookup(attr_i, attr_j, e)``
    returns the row of evidence code ``e`` as ``(codes, w, cnt)``, or
    None if ``e`` (a negative code too) was never seen next to ``attr_i``.
    """

    def __init__(self, tables: dict, code: dict[str, dict[str, int]]):
        self.tables = tables
        self.code = code

    def single_parent(self, a: str, p: str):
        """``(cpt, childview, childtot)`` of a node ``a`` whose one parent
        is ``p``, as ``BClean`` stores them, read off the raw counts:
        ``cpt[a]`` is the count column of table (a, p), the child view
        of ``p`` that of table (p, a), and the total one row under key 0
        holding the count of each code of ``p``. All three are empty
        when the pair never co-occurs."""
        cpt, view = (self.tables.get(k) for k in ((a, p), (p, a)))
        if cpt is None:
            def empty(attr):
                return SparseTable([], [], [[]], len(self.code[attr]))
            return empty(a), empty(p), empty(p)
        cnt = view.vals[1]
        return (cpt.column(1), view.column(1),
                SparseTable(np.zeros(len(cnt), dtype=np.int64), view.codes,
                            [cnt], view.dom))

    def lookup(self, attr_i: str, attr_j: str, e: int):
        table = self.tables.get((attr_i, attr_j))
        return None if table is None else table.row(e)

    def cooccurrence(self, attr_i: str, row: Mapping[str, str],
                     attrs: Sequence[str]) -> np.ndarray:
        """Raw co-occurrence count of every candidate code of ``attr_i``
        with the tuple ``row`` (attribute → string value): the sum, over
        the other attributes of ``attrs`` in order, of the counts next
        to each non-missing ``row[k]``."""
        out = np.zeros(len(self.code[attr_i]))
        for k in attrs:
            if k == attr_i:
                continue
            entry = self.lookup(attr_i, k, self.code[k].get(row[k], -1))
            if entry is not None:
                np.add.at(out, entry[0], entry[2])
        return out


def build_corr_index(
    corr_pdf: pd.DataFrame,
    vocab_code: dict[str, dict[str, int]],
) -> CorrIndex:
    """Group the Algorithm-2 output into one table per ordered attribute
    pair: the rows of each unordered pair give both of its tables."""
    tables = {}
    for (ai, aj), grp in corr_pdf.groupby(["attr_i", "attr_j"], sort=False):
        c = value_codes(grp["c"], vocab_code[ai])
        e = value_codes(grp["e"], vocab_code[aj])
        vals = [grp["w"], grp["cnt"]]
        tables[(ai, aj)] = SparseTable(e, c, vals, len(vocab_code[ai]))
        tables[(aj, ai)] = SparseTable(c, e, vals, len(vocab_code[aj]))
    return CorrIndex(tables, vocab_code)

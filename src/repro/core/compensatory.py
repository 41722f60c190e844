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
  complexity analysis, with no melt and no join on tid.

``Score_corr`` itself (Eq. 2) is evaluated at inference time from the
driver-assembled index (``build_corr_index``): for each ordered pair
(A_i → candidate attribute, A_j → evidence attribute), one
``model.SparseTable`` whose row for the code of evidence value e holds
the (candidate code, weight, raw count) entries.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterator, Mapping, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import DoubleType, StringType, StructField, StructType

from .constraints import UC, uc_mask
from .cpt import cpt_counts
from .model import SparseTable, value_codes

__all__ = ["tuple_confidence", "corr_counts", "build_corr_index", "CorrIndex"]


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
    in one ``cpt.cpt_counts`` job; both ordered directions
    (attr_i ≠ attr_j) are emitted, since ``w`` and ``cnt`` are symmetric.
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
    parts = []
    for (a, b), p in zip(pairs, cpt_counts(weighted, pairs, weight="w")):
        for x, y in ((a, b), (b, a)):
            parts.append(pd.DataFrame({
                "attr_i": name[x], "attr_j": name[y], "c": p[x], "e": p[y],
                "w": p["w"], "cnt": p["cnt"]}))
    if not parts:
        return pd.DataFrame(columns=["attr_i", "attr_j", "c", "e", "w", "cnt"])
    return pd.concat(parts, ignore_index=True)


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
    """Group the Algorithm-2 output into one table per attribute pair."""
    tables = {}
    for (ai, aj), grp in corr_pdf.groupby(["attr_i", "attr_j"], sort=False):
        tables[(ai, aj)] = SparseTable(
            value_codes(grp["e"], vocab_code[aj]),
            value_codes(grp["c"], vocab_code[ai]),
            [grp["w"], grp["cnt"]], len(vocab_code[ai]))
    return CorrIndex(tables, vocab_code)

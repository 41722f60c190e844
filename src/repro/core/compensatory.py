"""Compensatory scoring model (paper §5, Algorithm 2).

Two distributed computations over the dirty DataFrame:

* ``tuple_confidence`` — Eq. 3: per-tuple confidence from UC checks,
  ``conf(T) = max(0, (#satisfied − λ·#violated) / m)``, evaluated as a
  vectorized pandas kernel per attribute inside ``mapInPandas``.
* ``corr_counts`` — Algorithm 2: for every ordered attribute pair
  (A_i, A_j) and value pair (c, e) co-occurring in some tuple,
  accumulate ``+1`` per confident tuple (conf ≥ τ) and ``−β`` per
  unconfident one, plus the raw co-occurrence count used by the pruning
  strategies (§6.2). Implemented as melt → self-join on tid → groupBy,
  so the heavy O(n·m²) pair expansion runs in Spark, matching the
  paper's complexity analysis.

``Score_corr`` itself (Eq. 2) is evaluated at inference time from the
driver-assembled index (``build_corr_index``): for each ordered pair
(A_i → candidate attribute, A_j → evidence attribute) and evidence
value e, a dense gather of (candidate code, weight, raw count) arrays.
"""
from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import DoubleType, StringType, StructField, StructType

from .constraints import UC, uc_mask
from .cpt import melt

__all__ = ["tuple_confidence", "corr_counts", "build_corr_index", "CorrIndex"]


def tuple_confidence(
    df: DataFrame,
    attrs: Sequence[str],
    ucs: dict[str, UC],
    *,
    lam: float = 1.0,
) -> DataFrame:
    """Eq. 3 — returns (tid, conf) with conf ∈ [0, 1]."""
    attrs = list(attrs)
    m = len(attrs)
    schema = StructType([
        StructField("tid", StringType()),
        StructField("conf", DoubleType()),
    ])

    def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            ok = np.zeros(len(pdf), dtype="int64")
            for a in attrs:
                ok += uc_mask(ucs, a, pdf[a]).astype("int64")
            conf = np.maximum(0.0, (ok - lam * (m - ok)) / m)
            yield pd.DataFrame({"tid": pdf["tid"].astype(str), "conf": conf})

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
    do not form pairs. Only ordered pairs with attr_i ≠ attr_j appear;
    both directions are materialized by the groupBy (the melt-join
    produces them symmetrically).
    """
    attrs = list(attrs)
    conf = tuple_confidence(df, attrs, ucs, lam=lam)
    weight = F.when(F.col("conf") >= tau, F.lit(1.0)).otherwise(F.lit(-beta))
    long = melt(df, attrs).where(F.col("value").isNotNull() & (F.col("value") != ""))
    left = long.select(
        F.col("tid"),
        F.col("attr").alias("attr_i"),
        F.col("value").alias("c"),
    )
    right = long.select(
        F.col("tid"),
        F.col("attr").alias("attr_j"),
        F.col("value").alias("e"),
    )
    pairs = (
        left.join(right, on="tid")
        .where(F.col("attr_i") != F.col("attr_j"))
        .join(conf, on="tid")
        .withColumn("w", weight)
    )
    out = (
        pairs.groupBy("attr_i", "attr_j", "c", "e")
        .agg(F.sum("w").alias("w"), F.count(F.lit(1)).alias("cnt"))
    )
    return out.toPandas()


class CorrIndex:
    """Driver-side gather index over the Algorithm-2 output.

    ``lookup(attr_i, attr_j, e)`` returns ``(codes, w, cnt)`` — for
    evidence value ``e`` of ``attr_j``, the candidate codes of
    ``attr_i`` co-occurring with it, their summed confidence weights,
    and raw counts — or None if ``e`` was never observed next to
    ``attr_i``. Codes index ``vocab[attr_i]``.
    """

    def __init__(self, index: dict):
        self._index = index

    def lookup(self, attr_i: str, attr_j: str, e: str):
        return self._index.get((attr_i, attr_j), {}).get(e)


def build_corr_index(
    corr_pdf: pd.DataFrame,
    vocab_code: dict[str, dict[str, int]],
) -> CorrIndex:
    """Group the Algorithm-2 output into per-(pair, evidence) arrays."""
    index: dict[tuple[str, str], dict[str, tuple]] = {}
    if len(corr_pdf):
        for (ai, aj), pair_grp in corr_pdf.groupby(["attr_i", "attr_j"], sort=False):
            code_map = vocab_code[ai]
            codes = pair_grp["c"].map(code_map)
            keep = codes.notna().to_numpy()
            if not keep.any():
                continue
            sub = pair_grp.loc[keep]
            codes_arr = codes.to_numpy()[keep].astype("int64")
            w_arr = sub["w"].to_numpy(dtype="float64")
            cnt_arr = sub["cnt"].to_numpy(dtype="float64")
            e_arr = sub["e"].to_numpy(dtype=object)
            order = np.argsort(e_arr, kind="stable")
            e_sorted = e_arr[order]
            bounds = np.flatnonzero(
                np.r_[True, e_sorted[1:] != e_sorted[:-1], True])
            per_e: dict[str, tuple] = {}
            for s, t in zip(bounds[:-1], bounds[1:]):
                sl = order[s:t]
                per_e[e_sorted[s]] = (codes_arr[sl], w_arr[sl], cnt_arr[sl])
            index[(ai, aj)] = per_e
    return CorrIndex(index)

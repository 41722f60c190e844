"""Conditional-probability-table statistics via Spark aggregations.

All BN parameters are plain `groupBy().count()` aggregations over the
dirty DataFrame ("our BN construction models errors as part of the
distribution", §4). Missing values (empty string) never contribute: a
row is excluded from a node's CPT when the node value or any parent
value is missing, and probabilities are Laplace-smoothed at lookup time
(``inference.py``), not here — this module only materializes counts.

``value_counts`` gives every attribute's value frequencies in one job;
they are the model's only marginal. ``cpt_counts`` is run once per
attribute that has parents.

Each function returns a *pandas* DataFrame: the outputs are model-sized
(bounded by the number of distinct value combinations), collected to
the driver to assemble the broadcastable ``FittedModel``. Every
aggregation here is oracle-checked against DuckDB SQL in
``tests/test_cpt.py``.
"""
from __future__ import annotations

from typing import Sequence

import pandas as pd
from pyspark.sql import DataFrame, functions as F

__all__ = ["cpt_counts", "value_counts", "melt"]


def _non_missing(c: str):
    col = F.col(c)
    return col.isNotNull() & (col != F.lit(""))


def cpt_counts(df: DataFrame, node: str,
               parents: Sequence[str] = ()) -> pd.DataFrame:
    """Counts for the CPT of ``node`` given ``parents``.

    Returns columns ``[*parents, node, cnt]``.
    """
    cols = [*parents, node]
    cond = None
    for c in cols:
        cond = _non_missing(c) if cond is None else cond & _non_missing(c)
    out = (
        df.where(cond)
        .groupBy(*cols)
        .agg(F.count(F.lit(1)).alias("cnt"))
    )
    return out.toPandas()


def value_counts(df: DataFrame, attrs: Sequence[str]) -> pd.DataFrame:
    """Non-missing value frequencies for every attribute, long format
    ``(attr, value, cnt)`` — the §3 "value frequency" statistic."""
    parts = []
    for a in attrs:
        parts.append(
            df.where(_non_missing(a))
            .groupBy(F.col(a).alias("value"))
            .agg(F.count(F.lit(1)).alias("cnt"))
            .withColumn("attr", F.lit(a))
        )
    out = parts[0]
    for p in parts[1:]:
        out = out.unionByName(p)
    return out.select("attr", "value", "cnt").toPandas()


def melt(df: DataFrame, attrs: Sequence[str], id_col: str = "tid") -> DataFrame:
    """Wide→long: one row per (tid, attr, value), via a stack expression."""
    pairs = ", ".join(f"'{a}', `{a}`" for a in attrs)
    return df.select(
        F.col(id_col),
        F.expr(f"stack({len(attrs)}, {pairs}) as (attr, value)"),
    )

"""Model statistics via one grouping-sets Spark aggregation.

All BN parameters are counts over the dirty DataFrame ("our BN
construction models errors as part of the distribution", §4). Missing
values (empty string or NULL) never contribute: a row is excluded from a
node's CPT when the node value or any parent value is missing, and
probabilities are Laplace-smoothed at lookup time (``inference.py``),
not here — this module only materializes counts.

``cpt_counts`` is the aggregation behind every statistic over the
string frame (§3's "statistics collection"): it counts the value
combinations of a list of column families in a single ``GROUPING SETS``
job (the data-cube operator of Gray et al., ICDE 1996) and splits the
result on the driver by ``grouping_id()``. A group with a missing key
is dropped after the aggregation, which equals filtering the rows
before it because the filter reads only the family's own columns. It
runs once over every ``[*parents, node]`` family with two or more
parents (a single-parent CPT is read off the Algorithm-2 pair counts,
which ``compensatory.corr_counts`` counts over int32 value codes),
``value_counts`` (the model's only marginal) runs it over the singleton
families, and the HoloClean baseline over its DCs. ``majority`` reads a
count frame as the majority consequent of X → Y per X-value, the FD
statistic behind the edge filter and the rule-based baselines.

The outputs are model-sized *pandas* DataFrames, oracle-checked against
DuckDB SQL in ``tests/test_cpt.py``.
"""
from __future__ import annotations

from typing import Sequence

import pandas as pd
from pyspark.sql import DataFrame, functions as F

__all__ = ["cpt_counts", "value_counts", "majority"]


def cpt_counts(df: DataFrame,
               families: Sequence[Sequence[str]]) -> list[pd.DataFrame]:
    """Row count of every value combination with no missing value of
    each family of columns, such as ``[*parents, node]``, in one Spark
    job.

    Returns one frame ``[*family, cnt]`` per family, in order. Families
    over the same column set share one grouping set.
    """
    families = [list(f) for f in families]
    if not families:
        return []
    cols = list(dict.fromkeys(c for f in families for c in f))
    sets = list(dict.fromkeys(frozenset(f) for f in families))
    # grouping_id() sets bit (n-1-i) when cols[i] is not grouped
    gid = {s: sum(1 << (len(cols) - 1 - i) for i, c in enumerate(cols)
                  if c not in s) for s in sets}
    out = (df.groupingSets([[c for c in cols if c in s] for s in sets], *cols)
           .agg(F.grouping_id().alias("_gid"), F.count(F.lit(1)).alias("cnt"))
           .toPandas())
    res = []
    for f in families:
        sub = out.loc[out["_gid"] == gid[frozenset(f)], [*f, "cnt"]]
        keep = (sub[f].notna() & (sub[f] != "")).all(axis=1)
        res.append(sub[keep].reset_index(drop=True))
    return res


def value_counts(df: DataFrame, attrs: Sequence[str]) -> pd.DataFrame:
    """Non-missing value frequencies for every attribute, long format
    ``(attr, value, cnt)`` — the §3 "value frequency" statistic."""
    parts = cpt_counts(df, [[a] for a in attrs])
    return pd.concat(
        [pd.DataFrame({"attr": a, "value": p[a], "cnt": p["cnt"]})
         for a, p in zip(attrs, parts)], ignore_index=True)


def majority(counts: pd.DataFrame, keys: Sequence[str],
             value: str) -> pd.DataFrame:
    """The majority ``value`` per ``keys`` configuration of a count frame
    ``[*keys, value, cnt]``, as ``[*keys, value, cnt, total]``: one row
    per configuration with its most frequent ``value``, that value's
    ``cnt`` and the configuration's ``total`` count, in order of first
    appearance. A tie at the maximum goes to the tied row that comes
    first in ``counts``."""
    keys = list(keys)
    groups = counts.groupby(keys, sort=False)["cnt"]
    top = counts["cnt"] == groups.transform("max")
    return (counts.loc[top, [*keys, value, "cnt"]]
            .assign(total=groups.transform("sum")[top])
            .drop_duplicates(keys).reset_index(drop=True))

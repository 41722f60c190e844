"""Model statistics read off the code matrix on the driver.

All BN parameters are counts over the dirty table ("our BN construction
models errors as part of the distribution", §4). Missing values never
contribute: a row is excluded from a node's CPT when the node value or
any parent value is missing, and probabilities are Laplace-smoothed at
lookup time (``inference.py``), not here — this module only
materializes counts.

The counts here are the O(n·m) statistics of §3's "statistics
collection": each is one pass over the int32 code matrix that
``value_counts`` encodes (``model.encode_frame``), with no Spark job.
``value_counts`` gives the model's marginals; ``cpt_counts`` counts the
value combinations of any column families, such as ``[*parents, node]``
for a node with two or more parents (a single-parent CPT is read off the
Algorithm-2 pair counts, whose O(n·m²) pair expansion
``compensatory.corr_counts`` runs in Spark) or a baseline's denial
constraints. ``majority`` reads a count frame as the majority
consequent of X → Y per X-value, the FD statistic behind the edge
filter and the rule-based baselines.

The outputs are model-sized, oracle-checked against DuckDB SQL in
``tests/test_cpt.py``.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd

from .model import encode_frame

__all__ = ["cpt_counts", "value_counts", "majority"]


def cpt_counts(codes: pd.DataFrame,
               families: Sequence[Sequence[str]]) -> list[pd.DataFrame]:
    """Row count of every combination of value codes with no missing
    (negative) code of each family of columns of the code frame
    ``codes``, such as ``[*parents, node]``.

    Returns one frame ``[*family, cnt]`` of int64 codes and counts per
    family, in order, its rows ordered by the family's codes.
    """
    out = []
    for f in map(list, families):
        x = codes[f].to_numpy(dtype=np.int64)
        x = x[(x >= 0).all(axis=1)]
        x = x[np.lexsort(x.T[::-1])]
        new = np.ones(len(x), dtype=bool)
        new[1:] = (x[1:] != x[:-1]).any(axis=1)
        first = np.flatnonzero(new)
        out.append(pd.DataFrame({
            **{c: x[first, k] for k, c in enumerate(f)},
            "cnt": np.diff(np.append(first, len(x)))}))
    return out


def value_counts(frame: pd.DataFrame, code: dict[str, dict[str, int]]):
    """The code frame of the normalized ``frame`` (``model.encode_frame``)
    and the §3 "value frequency" statistic read off it: each
    attribute's count vector over its vocabulary, the model's marginal."""
    codes = encode_frame(frame, code)
    counts = {}
    for a, c in code.items():
        v = codes[a].to_numpy()
        counts[a] = np.bincount(v[v >= 0], minlength=len(c)).astype(
            np.float64)
    return codes, counts


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

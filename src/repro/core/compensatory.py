"""Compensatory scoring model (paper §5, Algorithm 2).

One statistics pass over the table (§3), over int32 value codes:

* ``tuple_confidence`` — Eq. 3 on the driver: per-tuple confidence from
  UC checks, ``conf(T) = max(0, (#satisfied − λ·#violated) / m)``. A UC
  is evaluated once per vocabulary value (``uc_verdicts``, and once on
  the missing value ``""``), never per cell: a cell's verdict is read
  off its value code (``encode``).
* ``corr_counts`` — Algorithm 2: for every attribute pair (A_i, A_j)
  and value pair (c, e) co-occurring in some tuple, the summed weight
  ``w`` and the raw co-occurrence count used by the pruning strategies
  (§6.2). The driver encodes each attribute by ``model.build_vocab``'s
  rule, ships the m code columns and the weights to Spark in one
  ``createDataFrame``, and one job explodes every tuple into its
  m(m−1)/2 unordered code pairs and counts them, so the O(n·m²) pair
  expansion runs in Spark, matching the paper's complexity analysis,
  and only integers are grouped and collected. ``w`` and the count are
  symmetric, so each unordered pair is emitted once.

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
from typing import Mapping, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession, functions as F
from pyspark.sql.types import DoubleType, IntegerType, StructField, StructType

from .constraints import UC, uc_mask
from .cpt import majority
from .model import SparseTable, build_vocab, encode_frame

__all__ = ["encode", "uc_verdicts", "tuple_confidence", "corr_counts",
           "pair_majority", "build_corr_index", "CorrIndex"]


def encode(dirty: pd.DataFrame, attrs: Sequence[str]):
    """``model.build_vocab(dirty, attrs)``'s vocabularies and the
    rows × m int32 matrix of value codes (``model.encode_frame``), -1
    for a missing cell."""
    vocab, code = build_vocab(dirty, attrs)
    return vocab, encode_frame(dirty, code).to_numpy()


def uc_verdicts(ucs: dict[str, UC], attr: str,
                vocab: np.ndarray) -> np.ndarray:
    """The UC verdict on each value of ``attr``'s vocabulary, then on the
    missing value ``""``: indexed by a value code, with code -1 (missing)
    reading the last entry."""
    return uc_mask(ucs, attr, pd.Series([*vocab, ""], dtype="object"))


def tuple_confidence(codes: np.ndarray, verdicts: Sequence[np.ndarray], *,
                     lam: float) -> np.ndarray:
    """Eq. 3 — the confidence in [0, 1] of each row of ``codes`` (rows × m
    value codes, -1 for missing), where ``verdicts[k]`` is
    ``uc_verdicts`` of column k."""
    n, m = codes.shape
    ok = np.zeros(n, dtype="int64")
    for k, verdict in enumerate(verdicts):
        ok += verdict[codes[:, k]]
    return np.maximum(0.0, (ok - lam * (m - ok)) / m)


_CORR_COLUMNS = [("pair", np.int64), ("c", np.int64), ("e", np.int64),
                 ("w", np.float64), ("cnt", np.int64)]


def corr_counts(
    spark: SparkSession,
    dirty: pd.DataFrame,
    attrs: Sequence[str],
    ucs: dict[str, UC],
    *,
    lam: float = 1.0,
    beta: float = 2.0,
    tau: float = 0.5,
) -> pd.DataFrame:
    """Algorithm 2 over the normalized frame ``dirty`` — returns pandas
    (attr_i, attr_j, pair, c, e, w, cnt), with ``pair`` the index of
    (attr_i, attr_j) among the unordered pairs of ``attrs`` (in
    ``itertools.combinations`` order) and ``c`` and ``e`` the int64
    value codes of ``model.build_vocab(dirty, attrs)``.

    ``w`` is Σ_T (1[conf≥τ] − β·1[conf<τ]) over tuples containing the
    value pair; ``cnt`` is the raw co-occurrence count. Missing values
    do not form pairs. Each unordered attribute pair is emitted once,
    with ``attr_i`` before ``attr_j`` in ``attrs`` order: ``w`` and
    ``cnt`` are symmetric, so the rows of (attr_j, attr_i) are the same
    rows with ``c`` and ``e`` swapped. Rows are ordered by pair, then
    ``c``, then ``e``.
    """
    attrs = list(attrs)
    pairs = list(combinations(range(len(attrs)), 2))
    out = pd.DataFrame({k: [] for k in ["pair", "c", "e", "cnt", "w"]})
    if pairs:
        vocab, codes = encode(dirty, attrs)
        conf = tuple_confidence(
            codes, [uc_verdicts(ucs, a, vocab[a]) for a in attrs], lam=lam)
        w = np.where(conf >= tau, 1.0, -beta)
        # positional column names: no attribute name can clash with 'w';
        # a missing cell ships as code -1, not NULL, which createDataFrame
        # rejects in an integer column when Arrow is off
        cols = {f"_{k}": codes[:, k] for k in range(len(attrs))}
        sdf = spark.createDataFrame(
            pd.DataFrame({**cols, "w": w}),
            StructType([*(StructField(k, IntegerType(), False) for k in cols),
                        StructField("w", DoubleType(), False)]))
        # one SQL expression: a Column per pair would cost ~8 py4j calls
        each = ", ".join(f"struct({k} AS pair, _{i} AS c, _{j} AS e)"
                         for k, (i, j) in enumerate(pairs))
        out = (sdf.selectExpr(f"inline(array({each}))", "w")
               .where("c >= 0 AND e >= 0")
               .groupBy("pair", "c", "e")
               .agg(F.count(F.lit(1)).alias("cnt"), F.sum("w").alias("w"))
               .toPandas())
    order = np.lexsort([out[k].to_numpy() for k in ["e", "c", "pair"]])
    cols = {k: out[k].to_numpy(dtype=t)[order] for k, t in _CORR_COLUMNS}
    first, second = (np.array([attrs[pr[k]] for pr in pairs], dtype=object)
                     for k in (0, 1))
    return pd.DataFrame({"attr_i": first[cols["pair"]],
                         "attr_j": second[cols["pair"]], **cols}, copy=False)


_SWAP = {"attr_i": "attr_j", "attr_j": "attr_i", "c": "e", "e": "c"}


def pair_majority(corr_pdf: pd.DataFrame) -> pd.DataFrame:
    """The majority ``c`` per ``e`` of every ordered attribute pair of
    ``corr_counts``' output, in both orientations of each unordered
    pair: ``cpt.majority`` over ``[pair, e]``, as
    ``[attr_i, attr_j, e, c, cnt, total]``: the forward orientation's
    rows, then the reverse one's. A tie at the maximum goes to the
    smaller code, in either orientation, as ``corr_counts`` orders its
    rows by code. Each orientation is read off ``corr_pdf`` in place,
    grouping integers, so no reversed copy of it is made."""
    names = corr_pdf.drop_duplicates("pair").set_index("pair")[
        ["attr_i", "attr_j"]]
    fwd = majority(corr_pdf, ["pair", "e"], "c").join(names, on="pair")
    rev = majority(corr_pdf, ["pair", "c"], "e").rename(columns=_SWAP).join(
        names.rename(columns=_SWAP), on="pair")
    cols = ["attr_i", "attr_j", "e", "c", "cnt", "total"]
    return pd.concat([fwd[cols], rev[cols]], ignore_index=True)


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
    pair: the rows of each unordered ``pair`` give both of its tables,
    over the domains of ``vocab_code``. A row with a negative code is
    dropped."""
    tables = {}
    for _, grp in corr_pdf.groupby("pair", sort=False):
        ai, aj = grp["attr_i"].iat[0], grp["attr_j"].iat[0]
        c, e = grp["c"], grp["e"]
        vals = [grp["w"], grp["cnt"]]
        tables[(ai, aj)] = SparseTable(e, c, vals, len(vocab_code[ai]))
        tables[(aj, ai)] = SparseTable(c, e, vals, len(vocab_code[aj]))
    return CorrIndex(tables, vocab_code)

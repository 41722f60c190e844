"""Automatic BN skeleton construction (paper §4).

Pipeline (the FDX [65] recipe extended with similarity softening):

1. For each attribute, sort tuples by that attribute and pair each tuple
   with its sort-neighbor ("we first sort tuples according to each
   attribute, and only compute similarities and check equality within
   two adjacent tuples"). Each pair yields an m-dimensional observation:
   the per-attribute similarity between the two tuples.
2. Treat the observations as draws from a multivariate Gaussian and run
   the graphical lasso to obtain the precision matrix Θ.
3. Decompose Θ = (I − B) Ω (I − B)ᵀ by iteratively peeling sink nodes
   (Schur complements), recovering the autoregression matrix B — the
   weighted adjacency matrix of the BN skeleton.
4. Keep edges with |B[i, j]| above a weight threshold, capped to the
   ``max_parents`` strongest parents per node.

Step 1 reads a sample that depends only on the data: the
``struct_sample`` rows with the smallest 64-bit hash of ``tid``, ties
broken by ``tid`` (``structure_sample``). The table stays on the
driver, so the sample is drawn there: ``xxhash64`` is Spark's
``F.xxhash64`` (XXH64 with seed 42 over the UTF-8 bytes) in numpy, bit
for bit, and only the sampled rows become a Spark frame.
``similarity_observations`` collects that sample once and runs one
``mapInPandas`` task per core over a contiguous block of pivot
attributes; for each pivot a task sorts the sample by (pivot, tid) and
emits every adjacent pair, so the observation matrix has exactly
m·(n−1) rows, in pivot order, and no pair is dropped.
Steps 2–4 operate on an m×m matrix (m ≤ 15) on the driver.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import (DoubleType, StringType, StructField,
                               StructType)

from .glasso import empirical_covariance, graphical_lasso
from .similarity import similarity_series

__all__ = ["xxhash64", "structure_sample", "similarity_observations",
           "decompose_precision", "learn_skeleton", "edge_determinism"]

# XXH64's primes
_P1, _P2, _P3, _P4, _P5 = map(np.uint64, (
    0x9E3779B185EBCA87, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
    0x85EBCA77C2B2AE63, 0x27D4EB2F165667C5))


def _rotl(x: np.ndarray, r: int) -> np.ndarray:
    return (x << np.uint64(r)) | (x >> np.uint64(64 - r))


def _round(acc: np.ndarray, lane: np.ndarray) -> np.ndarray:
    return _rotl(acc + lane * _P2, 31) * _P1


def _xxh64_rows(b: np.ndarray, seed: int) -> np.ndarray:
    """XXH64 of each row of ``b`` (k × L bytes, one input per row), as
    uint64: the reference algorithm, with its branches taken once for
    the common length L."""
    k, n = b.shape

    def lane(o: int, width: int) -> np.ndarray:   # little-endian word
        word = np.ascontiguousarray(b[:, o:o + width]).view(f"<u{width}")
        return word[:, 0].astype(np.uint64)

    zero = np.zeros(k, dtype=np.uint64)
    h = np.full(k, seed, dtype=np.uint64)
    o = 0
    if n >= 32:   # four accumulators over 32-byte stripes
        v = [h + _P1 + _P2, h + _P2, h.copy(), h - _P1]
        while o + 32 <= n:
            v = [_round(v[i], lane(o + 8 * i, 8)) for i in range(4)]
            o += 32
        h = _rotl(v[0], 1) + _rotl(v[1], 7) + _rotl(v[2], 12) + _rotl(v[3], 18)
        for acc in v:
            h = (h ^ _round(zero, acc)) * _P1 + _P4
    else:
        h = h + _P5
    h = h + np.uint64(n)
    while o + 8 <= n:
        h = _rotl(h ^ _round(zero, lane(o, 8)), 27) * _P1 + _P4
        o += 8
    if o + 4 <= n:
        h = _rotl(h ^ (lane(o, 4) * _P1), 23) * _P2 + _P3
        o += 4
    while o < n:
        h = _rotl(h ^ (b[:, o].astype(np.uint64) * _P5), 11) * _P1
        o += 1
    h ^= h >> np.uint64(33)
    h *= _P2
    h ^= h >> np.uint64(29)
    h *= _P3
    return h ^ (h >> np.uint64(32))


def xxhash64(values: Iterable[str], seed: int = 42) -> np.ndarray:
    """Spark's ``F.xxhash64`` of each string, as int64: XXH64 of its UTF-8
    bytes with Spark's seed 42. The strings are hashed in one batch per
    byte length."""
    data = [v.encode("utf-8") for v in values]
    size = np.fromiter(map(len, data), dtype=np.int64, count=len(data))
    out = np.empty(len(data), dtype=np.uint64)
    for n in np.unique(size):
        rows = np.flatnonzero(size == n)
        b = np.frombuffer(b"".join([data[r] for r in rows]), dtype=np.uint8)
        out[rows] = _xxh64_rows(b.reshape(len(rows), n), seed)
    return out.view(np.int64)


def structure_sample(spark: SparkSession, frame: pd.DataFrame,
                     attrs: Sequence[str], n: int) -> DataFrame:
    """The structure sample of the normalized ``frame`` as a Spark frame
    of its string columns ``tid`` and ``attrs``: the ``n`` rows with the
    smallest ``xxhash64(tid)``, ties broken by ``tid``, in that order —
    the rows ``orderBy(F.xxhash64("tid"), "tid").limit(n)`` keeps. It
    depends on the data alone, not on the row order."""
    cols = ["tid", *attrs]
    h = xxhash64(frame["tid"])
    rows = np.argsort(h, kind="stable")
    if (h[rows[1:]] == h[rows[:-1]]).any():   # a tie: break it by tid
        rows = pd.DataFrame({"h": h, "tid": frame["tid"].to_numpy()}
                            ).sort_values(["h", "tid"]).index
    return spark.createDataFrame(
        frame[cols].iloc[rows[:n]],
        StructType([StructField(c, StringType()) for c in cols]))


def edge_determinism(major: pd.DataFrame, attrs: Sequence[str]
                     ) -> dict[tuple[str, str], tuple[float, float]]:
    """FD-ness of every candidate edge X → Y between two of ``attrs``,
    as ``{(X, Y): (det, support)}``, from the majority Y-value per
    X-value of the Algorithm-2 co-occurrence counts,
    ``compensatory.pair_majority(corr_pdf)``:
    ``det`` is the fraction of rows on which the majority would be
    correct (Σ cnt / Σ total, the confidence of the approximate FD
    X → Y), ``support`` the mean majority count; both are 0 for a pair
    that never co-occurs. The cleaner drops auto-learned edges that are
    not FD-like — the paper's structure learning explicitly targets
    (softened) FDs, so a high-entropy conditional is a lasso artifact,
    not a dependency worth a CPT."""
    out = {(x, y): (0.0, 0.0) for x in attrs for y in attrs if x != y}
    per_pair = major.groupby(["attr_i", "attr_j"], sort=False).agg(
        top=("cnt", "sum"), total=("total", "sum"), support=("cnt", "mean"))
    for (y, x), top, total, support in per_pair.itertuples():
        out[(x, y)] = (float(top / total), float(support))
    return out


def _pivot_pairs(sample: pd.DataFrame, attrs: Sequence[str], pivot: str,
                 numeric: set[str]) -> pd.DataFrame:
    """Similarity of every adjacent pair of ``sample`` sorted by
    (pivot, tid): one row per pair, one column per attribute."""
    s = sample.sort_values([pivot, "tid"])
    return pd.DataFrame({
        a: similarity_series(s[a].iloc[1:], s[a].iloc[:-1],
                             numeric=a in numeric)
        for a in attrs
    })


def similarity_observations(
    sample_sdf: DataFrame,
    attrs: Sequence[str],
    numeric_attrs: Iterable[str] = (),
) -> DataFrame:
    """Adjacent-pair similarity observations, one DataFrame row per pair.

    ``sample_sdf`` is the structure sample (n rows with a unique
    ``tid``); it is collected once. Returns a DataFrame with one double
    column per attribute and exactly m·(n−1) rows: for each pivot, in
    ``attrs`` order, the pairs of the sample sorted by (pivot, tid).
    """
    attrs = list(attrs)
    numeric = set(numeric_attrs)
    sample = sample_sdf.select("tid", *attrs).toPandas()
    schema = StructType([StructField(a, DoubleType()) for a in attrs])

    def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            for i in pdf["id"].tolist():
                yield _pivot_pairs(sample, attrs, attrs[i], numeric)

    # one task per core, each over a contiguous block of pivots: a task
    # costs more to launch than a pivot costs to pair
    spark = sample_sdf.sparkSession
    tasks = min(len(attrs), spark.sparkContext.defaultParallelism)
    pivots = spark.range(len(attrs), numPartitions=tasks)
    return pivots.mapInPandas(kernel, schema=schema)


def decompose_precision(theta: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Recover the autoregression matrix B from Θ = (I−B)Ω(I−B)ᵀ.

    Peels sink nodes greedily: for a sink s, Θ[s,s] = ω_s and
    B[i, s] = −Θ[i, s] / Θ[s, s]; eliminating s is the Schur complement
    of Θ on the remaining block. The sink heuristic picks the active
    node with the smallest diagonal (smallest conditional precision
    contribution, exact under homogeneous noise — observations are
    standardized upstream). Returns (B, topological order, sources
    first).
    """
    theta = np.asarray(theta, dtype="float64")
    m = theta.shape[0]
    B = np.zeros((m, m))
    active = list(range(m))
    T = theta.copy()
    reverse_order: list[int] = []
    while active:
        diag = np.array([T[v, v] for v in active])
        s_pos = int(np.argmin(diag))
        s = active[s_pos]
        rest = [v for v in active if v != s]
        tss = T[s, s]
        if tss <= 1e-12:
            tss = 1e-12
        for i in rest:
            B[i, s] = -T[i, s] / tss
        # Schur complement: eliminate s from the active block.
        for i in rest:
            for j in rest:
                T[i, j] = T[i, j] - T[i, s] * T[s, j] / tss
        reverse_order.append(s)
        active = rest
    return B, list(reversed(reverse_order))


def learn_skeleton(
    obs: np.ndarray,
    attrs: Sequence[str],
    *,
    rho: float = 0.05,
    weight_threshold: float = 0.12,
    max_parents: int = 3,
) -> tuple[dict[str, list[str]], np.ndarray, list[str]]:
    """Full driver-side skeleton learning from an observation matrix.

    Returns ``(parents, B, topo_order)`` where ``parents[a]`` lists the
    parent attributes of ``a`` (strongest-|weight| first, at most
    ``max_parents``), ``B`` is the thresholded weight matrix, and
    ``topo_order`` is a topological order of the attributes.
    """
    obs = np.asarray(obs, dtype="float64")
    if obs.shape[1] != len(attrs):
        raise ValueError("observation width must equal len(attrs)")
    m = len(attrs)
    if obs.shape[0] < 2:  # no pair to learn from (a 1-row frame)
        return {a: [] for a in attrs}, np.zeros((m, m)), list(attrs)
    # Standardize columns so the homogeneous-noise sink heuristic holds;
    # constant columns (no similarity signal) are left as-is and end up
    # isolated after thresholding.
    std = obs.std(axis=0)
    std = np.where(std < 1e-9, 1.0, std)
    obs = (obs - obs.mean(axis=0)) / std
    S = empirical_covariance(obs)
    _, theta = graphical_lasso(S, rho=rho)
    B, order = decompose_precision(theta)
    parents: dict[str, list[str]] = {a: [] for a in attrs}
    for j in range(m):
        weights = [(abs(B[i, j]), i) for i in range(m)
                   if i != j and abs(B[i, j]) >= weight_threshold]
        weights.sort(reverse=True)
        kept = [i for _, i in weights[:max_parents]]
        parents[attrs[j]] = [attrs[i] for i in kept]
        for i in range(m):
            if i != j and i not in kept:
                B[i, j] = 0.0
    return parents, B, [attrs[i] for i in order]

"""Tests for FDX-style structure learning (Spark observations + driver)."""
import numpy as np
import pandas as pd
import pytest

from pyspark.sql import functions as F

from repro.core.cpt import majority
from repro.core.model import normalize_missing
from repro.core.similarity import string_similarity
from repro.core.structure import (_pivot_pairs, decompose_precision,
                                  edge_determinism, learn_skeleton,
                                  similarity_observations, structure_sample,
                                  xxhash64)
from repro.datasets.registry import DATASETS


def _sem_obs(n=3000, seed=0):
    """Linear SEM x -> y, z independent — ground-truth edge (0, 1)."""
    g = np.random.default_rng(seed)
    x = g.normal(size=n)
    y = 0.9 * x + 0.3 * g.normal(size=n)
    z = g.normal(size=n)
    return np.column_stack([x, y, z])


def test_decompose_precision_shapes():
    theta = np.eye(4)
    B, order = decompose_precision(theta)
    assert B.shape == (4, 4)
    assert sorted(order) == [0, 1, 2, 3]
    assert np.abs(B).max() < 1e-9  # independent variables -> no edges


def test_decompose_recovers_sem_edge():
    obs = _sem_obs()
    from repro.core.glasso import empirical_covariance, graphical_lasso
    obs = (obs - obs.mean(0)) / obs.std(0)
    _, theta = graphical_lasso(empirical_covariance(obs), rho=0.02)
    B, order = decompose_precision(theta)
    # the x–y dependency must dominate everything touching z
    xy = max(abs(B[0, 1]), abs(B[1, 0]))
    assert xy > 5 * abs(B[0, 2]) and xy > 5 * abs(B[2, 1])


def test_learn_skeleton_finds_dependency():
    obs = _sem_obs(seed=3)
    parents, B, order = learn_skeleton(obs, ["x", "y", "z"],
                                       weight_threshold=0.2)
    linked = parents["y"] + parents["x"]
    assert ("x" in parents["y"]) or ("y" in parents["x"])
    assert "z" not in linked
    assert sorted(order) == ["x", "y", "z"]


def test_learn_skeleton_max_parents():
    g = np.random.default_rng(5)
    base = g.normal(size=(4000, 1))
    obs = np.hstack([base + 0.2 * g.normal(size=(4000, 1))
                     for _ in range(5)])
    parents, _, _ = learn_skeleton(obs, list("abcde"), max_parents=2)
    assert all(len(p) <= 2 for p in parents.values())


def test_learn_skeleton_is_dag():
    obs = _sem_obs(seed=7)
    from repro.core.network import BayesianNetwork
    parents, _, _ = learn_skeleton(obs, ["x", "y", "z"])
    BayesianNetwork.from_parents(parents).topo_order()  # raises on cycle


def test_learn_skeleton_width_mismatch():
    with pytest.raises(ValueError):
        learn_skeleton(np.zeros((10, 3)), ["a", "b"])


@pytest.mark.parametrize("rows", [0, 1])
def test_learn_skeleton_without_pairs_is_empty(rows):
    parents, B, order = learn_skeleton(np.zeros((rows, 3)), ["x", "y", "z"])
    assert parents == {"x": [], "y": [], "z": []}
    assert not B.any() and order == ["x", "y", "z"]


def test_learn_skeleton_constant_column_isolated():
    obs = _sem_obs(seed=9)
    obs[:, 2] = 1.0  # constant similarity — no signal
    parents, _, _ = learn_skeleton(obs, ["x", "y", "z"])
    assert parents["z"] == []
    assert all("z" not in p for p in parents.values())


# ---------------------------------------------------------------------------
# Spark observation builder
# ---------------------------------------------------------------------------

def _fd_frame(n=400, seed=1):
    g = np.random.default_rng(seed)
    k = g.integers(0, 20, n)
    return pd.DataFrame({
        "tid": np.arange(n).astype(str),
        "a": [f"key{v:02d}" for v in k],
        "b": [f"val{v:02d}" for v in k],          # FD a -> b
        "c": [f"r{v}" for v in g.integers(0, 50, n)],  # independent
    })


def test_similarity_observations_shape(spark):
    pdf = _fd_frame()
    sdf = spark.createDataFrame(pdf)
    obs = similarity_observations(sdf.repartition(4), ["a", "b", "c"])
    out = obs.toPandas()
    assert list(out.columns) == ["a", "b", "c"]
    # m sorts × n−1 adjacent pairs, none dropped, in pivot order
    n = len(pdf)
    assert len(out) == 3 * (n - 1)
    assert ((out >= 0) & (out <= 1)).all().all()
    # block i: the sample sorted by (pivot i, tid), scored pair by pair
    for i, pivot in enumerate(["a", "b", "c"]):
        s = pdf.sort_values([pivot, "tid"]).to_dict("records")
        expect = [[string_similarity(r[a], q[a]) for a in "abc"]
                  for q, r in zip(s, s[1:])]
        block = out.iloc[i * (n - 1):(i + 1) * (n - 1)].to_numpy()
        assert (block == np.array(expect)).all()


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "equal", "above"])
def test_similarity_observations_blocks_match_pivot_concat(spark, offset):
    """With m pivots below, equal to and above the default parallelism,
    the observations run in min(m, parallelism) tasks and equal the
    driver-side concat of ``_pivot_pairs`` over the pivots in order."""
    par = spark.sparkContext.defaultParallelism
    m = max(1, par + offset)
    g = np.random.default_rng(offset + 5)
    n = 30
    pdf = pd.DataFrame({"tid": np.arange(n).astype(str), **{
        f"a{k}": [f"v{v}" for v in g.integers(0, 6, n)] for k in range(m)}})
    attrs = list(pdf.columns[1:])
    pdf[attrs[0]] = [str(v) for v in g.integers(0, 50, n)]
    numeric = {attrs[0]}
    obs = similarity_observations(spark.createDataFrame(pdf), attrs, numeric)
    assert obs.rdd.getNumPartitions() == min(m, par)
    want = pd.concat([_pivot_pairs(pdf, attrs, p, numeric) for p in attrs],
                     ignore_index=True)
    pd.testing.assert_frame_equal(obs.toPandas(), want)


def test_similarity_observations_capture_fd(spark):
    pdf = _fd_frame()
    sdf = spark.createDataFrame(pdf)
    obs = similarity_observations(sdf, ["a", "b", "c"]).toPandas().to_numpy()
    corr = np.corrcoef(obs.T)
    # The FD pair must be strongly positively correlated. (Raw Pearson
    # correlation with the independent column is NOT guaranteed small —
    # the pair-source mixture induces spurious marginal correlation; the
    # glasso partial-correlation step downstream removes it, which
    # test_learned_skeleton_on_spark_data verifies end-to-end.)
    assert corr[0, 1] > 0.6


def test_learned_skeleton_on_spark_data(spark):
    pdf = _fd_frame(800, seed=2)
    sdf = spark.createDataFrame(pdf)
    obs = similarity_observations(sdf, ["a", "b", "c"]).toPandas().to_numpy()
    parents, _, _ = learn_skeleton(obs, ["a", "b", "c"])
    assert ("a" in parents["b"]) or ("b" in parents["a"])


# ---------------------------------------------------------------------------
# edge determinism
# ---------------------------------------------------------------------------

def _pair_counts(rows):
    return pd.DataFrame(rows, columns=["attr_i", "attr_j", "c", "e", "w",
                                       "cnt"])


def _major(pdf):
    return majority(pdf, ["attr_i", "attr_j", "e"], "c")


def test_edge_determinism_perfect_fd():
    pdf = _pair_counts([
        ("y", "x", "v1", "k1", 10.0, 10),
        ("y", "x", "v2", "k2", 20.0, 20),
    ])
    det, support = edge_determinism(_major(pdf), ["x", "y"])[("x", "y")]
    assert det == pytest.approx(1.0)
    assert support == pytest.approx(15.0)


def test_edge_determinism_noisy_fd():
    pdf = _pair_counts([
        ("y", "x", "v1", "k1", 9.0, 9),
        ("y", "x", "bad", "k1", 1.0, 1),
    ])
    det, _ = edge_determinism(_major(pdf), ["x", "y"])[("x", "y")]
    assert det == pytest.approx(0.9)


def test_edge_determinism_non_fd():
    rows = [("y", "x", f"v{i}", "k1", 1.0, 1) for i in range(10)]
    det, support = edge_determinism(_major(_pair_counts(rows)),
                                    ["x", "y"])[("x", "y")]
    assert det == pytest.approx(0.1)
    assert support == pytest.approx(1.0)


def test_edge_determinism_missing_pair():
    det, support = edge_determinism(_major(_pair_counts([])),
                                    ["x", "y"])[("x", "y")]
    assert det == 0.0 and support == 0.0


# ---------------------------------------------------------------------------
# the structure sample: Spark's xxhash64 rule, drawn on the driver
# ---------------------------------------------------------------------------

def _strings(n=2000, seed=0):
    """Strings of 0-100 characters, with multi-byte UTF-8 (2-4 bytes per
    character) and every byte length a 32-byte stripe, an 8-byte word,
    a 4-byte word and single bytes take."""
    g = np.random.default_rng(seed)
    alphabet = list("abcXYZ019 -_") + ["é", "ß", "€", "漢", "😀"]
    out = ["", "a", "abcd", "abcdefgh", "x" * 31, "x" * 32, "y" * 33,
           "z" * 64, "€" * 11]
    for _ in range(n):
        out.append("".join(g.choice(alphabet, g.integers(0, 101))))
    return out


def test_xxhash64_is_sparks(spark):
    values = _strings() + [str(k) for k in range(3000)]
    sizes = {len(v.encode()) for v in values}
    assert {0, 4, 8, 31, 32, 33, 64} <= sizes and max(sizes) > 128
    want = (spark.createDataFrame(pd.DataFrame({"s": values}))
            .select(F.xxhash64("s").alias("h")).toPandas()["h"])
    got = xxhash64(values)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()


def _spark_sample(spark, frame, attrs, n):
    """The sample rule run by Spark: ``orderBy(xxhash64(tid), tid)``."""
    return (spark.createDataFrame(frame[["tid", *attrs]])
            .orderBy(F.xxhash64("tid"), "tid").limit(n).toPandas())


@pytest.mark.parametrize("name", DATASETS)
def test_structure_sample_matches_spark_order_by(spark, task, name):
    """The driver's sample holds the rows, in the order, that Spark's
    ``orderBy(F.xxhash64("tid"), "tid").limit(n)`` keeps."""
    t = task(name)
    dirty = normalize_missing(t.dirty)
    n = len(dirty) // 3
    got = structure_sample(spark, dirty, t.attrs, n).toPandas()
    pd.testing.assert_frame_equal(got, _spark_sample(spark, dirty, t.attrs,
                                                     n))


def test_structure_sample_ignores_row_order_and_takes_any_tid(spark, task):
    """The same sample from a row-shuffled frame; Spark's rule for
    non-integer tids, multi-byte ones too, and for tied hashes; and
    every row of a frame smaller than the sample."""
    t = task("flights")
    dirty = normalize_missing(t.dirty)
    n = 500
    want = structure_sample(spark, dirty, t.attrs, n).toPandas()
    shuffled = dirty.sample(frac=1.0, random_state=3)
    pd.testing.assert_frame_equal(
        structure_sample(spark, shuffled, t.attrs, n).toPandas(), want)
    for tids in (["t-" + v for v in dirty["tid"]],
                 [f"{k * 0.5}é" for k in range(len(dirty))]):
        frame = dirty.assign(tid=tids)
        got = structure_sample(spark, frame, t.attrs, n).toPandas()
        pd.testing.assert_frame_equal(
            got, _spark_sample(spark, frame, t.attrs, n))
    small = structure_sample(spark, dirty.head(7), t.attrs, n).toPandas()
    assert sorted(small["tid"]) == sorted(dirty["tid"].head(7))
    # equal tids hash equally: the tie is broken by tid (the tied rows
    # here are copies, so their order among themselves cannot show)
    ties = pd.concat([dirty.head(300), dirty.head(100)], ignore_index=True)
    pd.testing.assert_frame_equal(
        structure_sample(spark, ties, t.attrs, 150).toPandas(),
        _spark_sample(spark, ties, t.attrs, 150))

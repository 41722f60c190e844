"""Oracle-checked tests for the Spark CPT / statistics aggregations.

Every aggregation used by model fitting is diffed against DuckDB SQL
through ``repro.oracle.assert_equivalent`` — a wrong groupBy or missing
filter fails loudly, not silently.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.compensatory import corr_counts, pair_majority
from repro.core.cpt import cpt_counts, majority, value_counts
from repro.core.model import build_vocab, normalize_missing
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def frame():
    g = np.random.default_rng(0)
    n = 300
    k = g.integers(0, 8, n)
    pdf = pd.DataFrame({
        "tid": np.arange(n).astype(str),
        "a": [f"k{v}" for v in k],
        "b": [f"v{v}" for v in (k // 2)],
        "c": [f"x{v}" for v in g.integers(0, 4, n)],
    })
    pdf.loc[5, "a"] = ""      # missing values must be excluded
    pdf.loc[7, "b"] = ""
    pdf.loc[9, "c"] = ""
    return pdf


@pytest.fixture(scope="module")
def sframe(spark, frame):
    return spark.createDataFrame(frame)


def test_cpt_counts_no_parents_oracle(spark, sframe, frame):
    [out] = cpt_counts(sframe, [["a"]])
    assert_equivalent(
        spark.createDataFrame(out),
        "SELECT a, COUNT(*)::BIGINT AS cnt FROM t WHERE a <> '' GROUP BY a",
        t=frame,
    )


def test_cpt_counts_one_parent_oracle(spark, sframe, frame):
    [out] = cpt_counts(sframe, [["a", "b"]])
    assert_equivalent(
        spark.createDataFrame(out),
        "SELECT a, b, COUNT(*)::BIGINT AS cnt FROM t "
        "WHERE a <> '' AND b <> '' GROUP BY a, b",
        t=frame,
    )


def test_cpt_counts_two_parents_oracle(spark, sframe, frame):
    [out] = cpt_counts(sframe, [["a", "b", "c"]])
    assert_equivalent(
        spark.createDataFrame(out),
        "SELECT a, b, c, COUNT(*)::BIGINT AS cnt FROM t "
        "WHERE a <> '' AND b <> '' AND c <> '' GROUP BY a, b, c",
        t=frame,
    )


def test_value_counts_oracle(spark, sframe, frame):
    out = value_counts(sframe, ["a", "b", "c"])
    assert_equivalent(
        spark.createDataFrame(out),
        """
        SELECT attr, value, COUNT(*)::BIGINT AS cnt FROM (
          SELECT 'a' AS attr, a AS value FROM t WHERE a <> ''
          UNION ALL SELECT 'b', b FROM t WHERE b <> ''
          UNION ALL SELECT 'c', c FROM t WHERE c <> ''
        ) GROUP BY attr, value
        """,
        t=frame,
    )


def test_cpt_counts_total_matches_nonmissing_rows(sframe, frame):
    [out] = cpt_counts(sframe, [["a"]])
    assert out["cnt"].sum() == (frame["a"] != "").sum()


def test_value_counts_covers_every_attr(sframe):
    out = value_counts(sframe, ["a", "b", "c"])
    assert set(out["attr"]) == {"a", "b", "c"}


@pytest.fixture(scope="module")
def mixed(frame):
    """``frame`` plus a fourth key column ``d``, real NULLs next to
    ``""`` keys, and a column ``z`` with no value at all."""
    g = np.random.default_rng(1)
    pdf = frame.copy()
    pdf["d"] = [f"d{v}" for v in g.integers(0, 3, len(pdf))]
    pdf["z"] = [None, ""] * (len(pdf) // 2)
    pdf.loc[[3, 11], "a"] = None
    pdf.loc[4, "d"] = None
    pdf.loc[8, "d"] = ""
    return pdf


def _family_sql(fam):
    cols = ", ".join(fam)
    where = " AND ".join(f"COALESCE({c}, '') <> ''" for c in fam)
    return (f"SELECT {cols}, COUNT(*)::BIGINT AS cnt FROM t "
            f"WHERE {where} GROUP BY {cols}")


def test_cpt_counts_families_oracle(spark, mixed):
    """One grouping-sets job equals one filtered GROUP BY per family:
    sizes 1-4, one column set in two orders (deduped, not counted
    twice), NULL keys told apart from ungrouped columns, and a family
    whose every key is missing."""
    fams = [["a"], ["d"], ["b", "a"], ["a", "b"], ["c", "a", "d"],
            ["a", "b", "c", "d"], ["d", "z"]]
    outs = cpt_counts(spark.createDataFrame(mixed), fams)
    assert len(outs) == len(fams)
    for fam, out in zip(fams[:-1], outs):
        assert list(out.columns) == [*fam, "cnt"]
        assert_equivalent(spark.createDataFrame(out), _family_sql(fam),
                          t=mixed)
    assert list(outs[-1].columns) == ["d", "z", "cnt"]
    assert outs[-1].empty


# ---------------------------------------------------------------------------
# majority: the FD-majority statistic read off a count frame
# ---------------------------------------------------------------------------

def test_majority_ties_and_singletons():
    """A tie at the maximum goes to the tied row that comes first; a
    group of one is its own majority; groups keep first-appearance
    order."""
    counts = pd.DataFrame({
        "x": ["k2", "k1", "k1", "k1", "k2", "k3"],
        "y": ["b", "p", "q", "r", "a", "z"],
        "cnt": [4, 2, 5, 5, 4, 1],
    })
    out = majority(counts, ["x"], "y")
    assert out.to_dict("list") == {
        "x": ["k2", "k1", "k3"], "y": ["b", "q", "z"],
        "cnt": [4, 5, 1], "total": [8, 12, 1]}


def test_majority_empty_frame():
    out = majority(pd.DataFrame(columns=["x", "y", "cnt"]), ["x"], "y")
    assert list(out.columns) == ["x", "y", "cnt", "total"]
    assert out.empty


@pytest.mark.parametrize("name", ["hospital", "flights"])
def test_majority_of_corr_counts_matches_cpt_counts(spark, task, name):
    """The majority Y-value per X-value read off the Algorithm-2 pair
    counts equals the one read off a dedicated ``cpt_counts`` of
    ``[X, Y]``, for every ordered pair: the same counts and totals on
    every group, and the same value wherever it is a strict majority
    (below that, a tie may break either way)."""
    t = task(name)
    dirty = normalize_missing(t.dirty)
    sdf = spark.createDataFrame(dirty)
    attrs = t.attrs
    vocab, _ = build_vocab(dirty, attrs)
    major = pair_majority(corr_counts(spark, dirty, attrs, {}))
    major["e"] = [vocab[x][k] for x, k in zip(major["attr_j"], major["e"])]
    major["c"] = [vocab[y][k] for y, k in zip(major["attr_i"], major["c"])]
    by_pair = dict(iter(major.groupby(["attr_i", "attr_j"])))
    pairs = [(x, y) for x in attrs for y in attrs if x != y]
    for (x, y), pdf in zip(pairs, cpt_counts(sdf, pairs)):
        ref = majority(pdf, [x], y).set_index(x).sort_index()
        assert len(ref), (x, y)
        got = by_pair[(y, x)].set_index("e").sort_index()
        assert got.index.tolist() == ref.index.tolist(), (x, y)
        assert got["cnt"].tolist() == ref["cnt"].tolist(), (x, y)
        assert got["total"].tolist() == ref["total"].tolist(), (x, y)
        strict = ref["cnt"] * 2 > ref["total"]
        assert got["c"][strict].tolist() == ref[y][strict].tolist(), (x, y)

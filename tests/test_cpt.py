"""Oracle-checked tests for the Spark CPT / statistics aggregations.

Every aggregation used by model fitting is diffed against DuckDB SQL
through ``repro.oracle.assert_equivalent`` — a wrong groupBy or missing
filter fails loudly, not silently.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.cpt import cpt_counts, melt, value_counts
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
    out = cpt_counts(sframe, "a", [])
    assert_equivalent(
        spark.createDataFrame(out),
        "SELECT a, COUNT(*)::BIGINT AS cnt FROM t WHERE a <> '' GROUP BY a",
        t=frame,
    )


def test_cpt_counts_one_parent_oracle(spark, sframe, frame):
    out = cpt_counts(sframe, "b", ["a"])
    assert_equivalent(
        spark.createDataFrame(out),
        "SELECT a, b, COUNT(*)::BIGINT AS cnt FROM t "
        "WHERE a <> '' AND b <> '' GROUP BY a, b",
        t=frame,
    )


def test_cpt_counts_two_parents_oracle(spark, sframe, frame):
    out = cpt_counts(sframe, "c", ["a", "b"])
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


def test_melt_oracle(spark, sframe, frame):
    out = melt(sframe, ["a", "b"])
    assert_equivalent(
        out,
        "SELECT tid, 'a' AS attr, a AS value FROM t "
        "UNION ALL SELECT tid, 'b', b FROM t",
        t=frame,
    )


def test_cpt_counts_total_matches_nonmissing_rows(sframe, frame):
    out = cpt_counts(sframe, "a", [])
    assert out["cnt"].sum() == (frame["a"] != "").sum()


def test_value_counts_covers_every_attr(sframe):
    out = value_counts(sframe, ["a", "b", "c"])
    assert set(out["attr"]) == {"a", "b", "c"}

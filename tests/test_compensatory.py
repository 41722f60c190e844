"""Tests for the compensatory scoring model (Eq. 3 + Algorithm 2)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.compensatory import (build_corr_index, corr_counts,
                                     tuple_confidence)
from repro.core.constraints import UC
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def frame():
    return pd.DataFrame({
        "tid": ["0", "1", "2", "3"],
        "a": ["x", "x", "bad!", "x"],
        "b": ["p", "p", "p", "q"],
        "c": ["1", "2", "", "1"],
    })


@pytest.fixture(scope="module")
def ucs():
    return {
        "a": UC(pattern=r"[a-z]+"),
        "b": UC(min_len=1),
        "c": UC(pattern=r"[0-9]+"),
    }


def test_tuple_confidence_eq3(spark, frame, ucs):
    out = tuple_confidence(spark.createDataFrame(frame), ["a", "b", "c"],
                           ucs, lam=1.0).toPandas().set_index("tid")
    # rows 0,1,3: all 3 UCs pass -> conf (3-0)/3 = 1
    assert out.loc["0", "conf"] == pytest.approx(1.0)
    assert out.loc["1", "conf"] == pytest.approx(1.0)
    assert out.loc["3", "conf"] == pytest.approx(1.0)
    # row 2: 'bad!' fails, '' fails -> (1 - 2)/3 < 0 -> clamped to 0
    assert out.loc["2", "conf"] == pytest.approx(0.0)


def test_tuple_confidence_lambda_scaling(spark, frame, ucs):
    out = tuple_confidence(spark.createDataFrame(frame), ["a", "b", "c"],
                           ucs, lam=0.0).toPandas().set_index("tid")
    # λ=0: violations cost nothing -> conf = ok/m = 1/3 for row 2
    assert out.loc["2", "conf"] == pytest.approx(1 / 3)


def test_tuple_confidence_no_ucs_is_one(spark, frame):
    out = tuple_confidence(spark.createDataFrame(frame), ["a", "b", "c"],
                           {}, lam=1.0).toPandas()
    assert (out["conf"] == 1.0).all()


def test_corr_counts_oracle_raw_counts(spark, frame, ucs):
    out = corr_counts(spark.createDataFrame(frame), ["a", "b", "c"], {},
                      lam=1.0, beta=2.0, tau=0.5)
    # with no UCs every tuple is confident: w == cnt; check cnt vs SQL
    assert (out["w"] == out["cnt"]).all()
    assert_equivalent(
        spark.createDataFrame(out[["attr_i", "attr_j", "c", "e", "cnt"]]),
        """
        WITH long AS (
          SELECT tid, 0 AS pos, 'a' AS attr, a AS value FROM t WHERE a <> ''
          UNION ALL SELECT tid, 1, 'b', b FROM t WHERE b <> ''
          UNION ALL SELECT tid, 2, 'c', c FROM t WHERE c <> ''
        )
        SELECT l.attr AS attr_i, r.attr AS attr_j,
               l.value AS c, r.value AS e, COUNT(*)::BIGINT AS cnt
        FROM long l JOIN long r ON l.tid = r.tid AND l.pos < r.pos
        GROUP BY 1, 2, 3, 4
        """,
        t=frame,
    )


def test_corr_counts_penalty_applied(spark, frame, ucs):
    out = corr_counts(spark.createDataFrame(frame), ["a", "b", "c"], ucs,
                      lam=1.0, beta=2.0, tau=0.5)
    # the pair (bad!, p) comes only from row 2 (conf 0 < τ) -> w = -β
    row = out[(out["attr_i"] == "a") & (out["attr_j"] == "b")
              & (out["c"] == "bad!") & (out["e"] == "p")]
    assert len(row) == 1
    assert row["w"].iloc[0] == pytest.approx(-2.0)
    assert row["cnt"].iloc[0] == 1
    # the pair (x, p) comes from confident rows 0 and 1 -> w = +2
    row = out[(out["attr_i"] == "a") & (out["attr_j"] == "b")
              & (out["c"] == "x") & (out["e"] == "p")]
    assert row["w"].iloc[0] == pytest.approx(2.0)


def test_corr_counts_one_row_set_per_unordered_pair(spark, frame, ucs):
    """Each unordered pair is emitted once, ``attr_i`` first in
    ``attrs`` order, and the index holds both orientations: table
    (b, a) is table (a, b) transposed, weights and counts alike."""
    attrs = ["c", "a", "b"]
    out = corr_counts(spark.createDataFrame(frame), attrs, ucs)
    pairs = out[["attr_i", "attr_j"]].drop_duplicates()
    assert list(map(tuple, pairs.to_numpy())) == [
        ("c", "a"), ("c", "b"), ("a", "b")]
    assert not out.duplicated(["attr_i", "attr_j", "c", "e"]).any()
    code = {"a": {"bad!": 0, "x": 1}, "b": {"p": 0, "q": 1},
            "c": {"1": 0, "2": 1}}
    idx = build_corr_index(out, code)
    assert set(idx.tables) == {(x, y) for x in attrs for y in attrs
                               if x != y}

    def entries(x, y):   # {(code of x, code of y): (w, cnt)}
        t = idx.tables[(x, y)]
        return {(int(c), int(t.keys[r])): tuple(t.vals[:, s].tolist())
                for r in range(len(t))
                for s, c in zip(range(t.start[r], t.start[r + 1]),
                                t.codes[t.start[r]:t.start[r + 1]])}
    for x, y in [("c", "a"), ("c", "b"), ("a", "b")]:
        fwd = entries(x, y)
        assert fwd == {(e, c): v for (c, e), v in entries(y, x).items()}
        assert idx.tables[(x, y)].dom == len(code[x])
        assert idx.tables[(y, x)].dom == len(code[y])
    assert entries("a", "b")[(0, 0)] == (-2.0, 1.0)   # (bad!, p), row 2
    assert entries("b", "a")[(0, 1)] == (2.0, 2.0)    # (p, x), rows 0, 1


def test_corr_counts_excludes_missing(spark, frame):
    out = corr_counts(spark.createDataFrame(frame), ["a", "b", "c"], {})
    assert not (out["c"] == "").any()
    assert not (out["e"] == "").any()


def test_build_corr_index_lookup(spark, frame):
    out = corr_counts(spark.createDataFrame(frame), ["a", "b", "c"], {})
    code = {"a": {"x": 0, "bad!": 1}, "b": {"p": 0, "q": 1},
            "c": {"1": 0, "2": 1}}
    idx = build_corr_index(out, code)
    entry = idx.lookup("a", "b", code["b"]["p"])
    assert entry is not None
    codes, w, cnt = entry
    got = dict(zip(codes.tolist(), cnt.tolist()))
    assert got[0] == 2.0  # (x, p) in rows 0 and 1
    assert got[1] == 1.0  # (bad!, p) once, in row 2
    assert idx.lookup("a", "b", -1) is None    # out of vocabulary
    assert idx.lookup("a", "b", -2) is None    # missing
    assert idx.lookup("a", "zz", 0) is None


def test_build_corr_index_skips_unknown_codes(spark, frame):
    out = corr_counts(spark.createDataFrame(frame), ["a", "b", "c"], {})
    code = {"a": {"x": 0}, "b": {"p": 0, "q": 1}, "c": {"1": 0, "2": 1}}
    idx = build_corr_index(out, code)
    entry = idx.lookup("a", "b", code["b"]["p"])
    codes, _, _ = entry
    assert set(codes.tolist()) == {0}  # 'bad!' dropped (not in vocab)


def test_build_corr_index_empty():
    idx = build_corr_index(
        pd.DataFrame(columns=["attr_i", "attr_j", "c", "e", "w", "cnt"]),
        {})
    assert idx.lookup("a", "b", 0) is None


def test_cooccurrence_sums_lookups_over_the_tuple(spark, frame):
    """``CorrIndex.cooccurrence`` adds, per candidate, the raw counts of
    every other non-missing value of the tuple, and skips the
    attribute itself, missing values and unseen evidence."""
    out = corr_counts(spark.createDataFrame(frame), ["a", "b", "c"], {})
    code = {"a": {"bad!": 0, "x": 1}, "b": {"p": 0, "q": 1},
            "c": {"1": 0, "2": 1}}
    idx = build_corr_index(out, code)
    cases = [
        ({"a": "x", "b": "p", "c": "1"}, [1.0, 4.0]),   # p: [1, 2], 1: [0, 2]
        ({"a": "", "b": "p", "c": "2"}, [1.0, 3.0]),    # p: [1, 2], 2: [0, 1]
        ({"a": "x", "b": "", "c": "1"}, [0.0, 2.0]),    # missing b skipped
        ({"a": "x", "b": "q", "c": "9"}, [0.0, 1.0]),   # unseen c skipped
    ]
    for row, want in cases:
        assert idx.cooccurrence("a", row, ["a", "b", "c"]).tolist() == want

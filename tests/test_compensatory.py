"""Tests for the compensatory scoring model (Eq. 3 + Algorithm 2)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.compensatory import (build_corr_index, corr_counts, encode,
                                     pair_majority, tuple_confidence,
                                     uc_verdicts)
from repro.core.constraints import UC, uc_mask
from repro.core.model import build_vocab, normalize_missing, value_codes
from repro.oracle import assert_equivalent

CORR_DTYPES = {"attr_i": object, "attr_j": object, "pair": np.int64,
               "c": np.int64, "e": np.int64, "w": np.float64,
               "cnt": np.int64}


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


def _conf(frame, attrs, ucs, lam):
    """Eq. 3 the way ``corr_counts`` computes it: UC verdicts per
    vocabulary value, read off each cell's code."""
    vocab, codes = encode(frame, attrs)
    return tuple_confidence(
        codes, [uc_verdicts(ucs, a, vocab[a]) for a in attrs], lam=lam)


def _per_cell_conf(raw, attrs, ucs, lam):
    """Eq. 3 with ``uc_mask`` evaluated on every raw cell."""
    m = len(attrs)
    ok = sum(uc_mask(ucs, a, raw[a]).astype("int64") for a in attrs)
    return np.maximum(0.0, (ok - lam * (m - ok)) / m)


def _decode(out, frame, attrs):
    """``corr_counts``' output with its codes decoded to strings by
    ``build_vocab``'s vocabularies of ``frame``."""
    vocab, _ = build_vocab(frame, attrs)
    return out.assign(
        c=[vocab[a][k] for a, k in zip(out["attr_i"], out["c"])],
        e=[vocab[a][k] for a, k in zip(out["attr_j"], out["e"])])


def test_tuple_confidence_eq3(frame, ucs):
    conf = _conf(frame, ["a", "b", "c"], ucs, lam=1.0)
    # rows 0,1,3: all 3 UCs pass -> conf (3-0)/3 = 1
    # row 2: 'bad!' fails, '' fails -> (1 - 2)/3 < 0 -> clamped to 0
    assert conf.tolist() == pytest.approx([1.0, 1.0, 0.0, 1.0])


def test_tuple_confidence_lambda_scaling(frame, ucs):
    conf = _conf(frame, ["a", "b", "c"], ucs, lam=0.0)
    # λ=0: violations cost nothing -> conf = ok/m = 1/3 for row 2
    assert conf[2] == pytest.approx(1 / 3)


def test_tuple_confidence_no_ucs_is_one(frame):
    assert (_conf(frame, ["a", "b", "c"], {}, lam=1.0) == 1.0).all()


@pytest.fixture(scope="module")
def raw():
    """Cells missing as ``""``, None and NaN: a pattern UC over a column
    with missing cells (a), ``not_null=False`` UCs that a missing cell
    passes (b) and fails for the length clause (d), and an all-missing
    column (c)."""
    return pd.DataFrame({
        "tid": [str(k) for k in range(7)],
        "a": ["ab", "", None, np.nan, "A1", "cd", "ab"],
        "b": ["1", "2", None, "", "1", np.nan, "2"],
        "c": ["", None, np.nan, "", "", None, ""],
        "d": ["u", "v", "u", None, "", "v", "u"],
    })


RAW_UCS = {"a": UC(pattern=r"[a-z]+"),
           "b": UC(not_null=False),
           "c": UC(min_len=1),
           "d": UC(not_null=False, max_len=1)}


@pytest.mark.parametrize("lam", [0.0, 1.0, 5.0])
def test_tuple_confidence_matches_per_cell_uc_mask(raw, lam):
    """The vocabulary-level Eq. 3 equals ``uc_mask`` on every raw cell,
    whether a cell is missing as "", None or NaN."""
    attrs = ["a", "b", "c", "d"]
    got = _conf(normalize_missing(raw), attrs, RAW_UCS, lam)
    want = _per_cell_conf(raw, attrs, RAW_UCS, lam)
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("lam,tau,tie", [(0.0, 0.5, True), (1.0, 0.5, True),
                                         (5.0, 0.5, False), (1.0, 0.0, True)])
def test_corr_counts_weights_match_per_cell_uc_mask(spark, raw, lam, tau,
                                                     tie):
    """``corr_counts``' ``w`` equals the sum, over the rows holding each
    value pair, of the weight read off a per-cell ``uc_mask`` Eq. 3;
    a row whose confidence equals τ (``tie``) counts as confident."""
    attrs = ["a", "b", "c", "d"]
    conf = _per_cell_conf(raw, attrs, RAW_UCS, lam)
    assert (conf == tau).any() == tie
    norm = normalize_missing(raw)
    w = np.where(conf >= tau, 1.0, -2.0)
    parts = [pd.DataFrame({"attr_i": x, "attr_j": y, "c": norm[x],
                           "e": norm[y], "w": w})
             for k, x in enumerate(attrs) for y in attrs[k + 1:]]
    long = pd.concat(parts, ignore_index=True)
    want = (long[(long["c"] != "") & (long["e"] != "")]
            .groupby(["attr_i", "attr_j", "c", "e"], as_index=False)["w"]
            .sum())
    out = _decode(corr_counts(spark, norm, attrs, RAW_UCS, lam=lam,
                              beta=2.0, tau=tau), norm, attrs)
    got = out[["attr_i", "attr_j", "c", "e", "w"]]
    pd.testing.assert_frame_equal(
        got.sort_values(["attr_i", "attr_j", "c", "e"], ignore_index=True),
        want.sort_values(["attr_i", "attr_j", "c", "e"], ignore_index=True))


def _oracle_sql(attrs):
    long = "\n          UNION ALL ".join(
        f"SELECT tid, {k} AS pos, '{a}' AS attr, {a} AS value FROM t "
        f"WHERE {a} <> ''" for k, a in enumerate(attrs))
    return f"""
        WITH long AS ({long})
        SELECT l.attr AS attr_i, r.attr AS attr_j,
               l.value AS c, r.value AS e, COUNT(*)::BIGINT AS cnt
        FROM long l JOIN long r ON l.tid = r.tid AND l.pos < r.pos
        GROUP BY 1, 2, 3, 4
        """


DEGENERATE = {
    "one-attr": pd.DataFrame({"tid": ["0", "1"], "a": ["x", "y"]}),
    "one-row": pd.DataFrame({"tid": ["7"], "a": ["x"], "b": ["p"],
                             "c": [""]}),
    "constant": pd.DataFrame({"tid": ["0", "1", "2"], "a": ["k", "k", "k"],
                              "b": ["p", "q", "p"]}),
    "all-missing": pd.DataFrame({"tid": ["0", "1", "2"], "a": ["", "", ""],
                                 "b": ["p", "q", "p"], "c": ["1", "", "1"]}),
    "non-int-tids": pd.DataFrame({"tid": ["t-b", "t-a", "x9"],
                                  "a": ["x", "y", "x"],
                                  "b": ["p", "p", "q"]}),
}


@pytest.mark.parametrize("case", ["three-attrs", *DEGENERATE])
def test_corr_counts_oracle_raw_counts(spark, frame, case):
    """Raw pair counts against DuckDB, on the fixture frame and on
    degenerate ones; with one attribute there is no pair, and the
    output is empty with the usual columns and dtypes."""
    t = frame if case == "three-attrs" else DEGENERATE[case]
    attrs = [c for c in t.columns if c != "tid"]
    out = corr_counts(spark, t, attrs, {}, lam=1.0, beta=2.0, tau=0.5)
    assert out.dtypes.to_dict() == CORR_DTYPES
    # with no UCs every tuple is confident: w == cnt; check cnt vs SQL
    assert (out["w"] == out["cnt"]).all()
    if case == "one-attr":
        assert out.empty
    assert_equivalent(
        spark.createDataFrame(
            _decode(out, t, attrs)[["attr_i", "attr_j", "c", "e", "cnt"]],
            "attr_i string, attr_j string, c string, e string, cnt long"),
        _oracle_sql(attrs), t=t)


def test_corr_counts_codes_are_build_vocab_codes(spark):
    """``c`` and ``e`` are the codes ``build_vocab`` gives the values,
    whatever order the values first appear in, and rows are ordered by
    pair, then ``c``, then ``e``."""
    t = pd.DataFrame({"tid": ["0", "1", "2", "3"],
                      "a": ["z", "y", "", "x"], "b": ["q", "p", "q", "r"]})
    _, code = build_vocab(t, ["a", "b"])
    pairs = pd.DataFrame({"c": value_codes(t["a"], code["a"]),
                          "e": value_codes(t["b"], code["b"])})
    want = (pairs[pairs["c"] >= 0].groupby(["c", "e"], as_index=False)
            .size().rename(columns={"size": "cnt"}))
    out = corr_counts(spark, t, ["a", "b"], {})
    assert out[["c", "e", "cnt"]].to_dict("list") == want.to_dict("list")
    vocab, codes = encode(t, ["a", "b"])
    assert codes.tolist() == pairs.to_numpy().tolist()
    assert vocab["a"].tolist() == ["x", "y", "z"]


def test_pair_majority_tie_goes_to_smallest_code(spark):
    """``k`` co-occurs twice with ``q`` and twice with ``p``: the tie
    goes to ``p``, the smaller code, whatever the row order."""
    t = pd.DataFrame({"tid": ["0", "1", "2", "3", "4"],
                      "a": ["k", "k", "k", "k", "j"],
                      "b": ["q", "q", "p", "p", "q"]})
    major = pair_majority(corr_counts(spark, t, ["a", "b"], {}))
    # the forward orientation's rows, then the reverse one's
    assert major[["attr_i", "attr_j"]].drop_duplicates().to_numpy(
        ).tolist() == [["a", "b"], ["b", "a"]]
    rev = major[major["attr_i"] == "b"].set_index("e")
    assert rev.loc[1, "c"] == 0                     # k -> p, not q
    assert rev.loc[1, ["cnt", "total"]].tolist() == [2, 4]


def test_corr_counts_penalty_applied(spark, frame, ucs):
    out = _decode(corr_counts(spark, frame, ["a", "b", "c"], ucs,
                              lam=1.0, beta=2.0, tau=0.5),
                  frame, ["a", "b", "c"])
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
    out = corr_counts(spark, frame, attrs, ucs)
    pairs = out[["attr_i", "attr_j", "pair"]].drop_duplicates()
    assert list(map(tuple, pairs.to_numpy())) == [
        ("c", "a", 0), ("c", "b", 1), ("a", "b", 2)]
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
    out = corr_counts(spark, frame, ["a", "b", "c"], {})
    assert (out[["c", "e"]] >= 0).all().all()
    dec = _decode(out, frame, ["a", "b", "c"])
    assert not (dec["c"] == "").any()
    assert not (dec["e"] == "").any()


def test_build_corr_index_lookup(spark, frame):
    out = corr_counts(spark, frame, ["a", "b", "c"], {})
    _, code = build_vocab(frame, ["a", "b", "c"])
    idx = build_corr_index(out, code)
    entry = idx.lookup("a", "b", code["b"]["p"])
    assert entry is not None
    codes, w, cnt = entry
    got = dict(zip(codes.tolist(), cnt.tolist()))
    assert got[code["a"]["x"]] == 2.0      # (x, p) in rows 0 and 1
    assert got[code["a"]["bad!"]] == 1.0   # (bad!, p) once, in row 2
    assert idx.lookup("a", "b", -1) is None    # missing
    assert idx.lookup("a", "b", -2) is None    # out of vocabulary
    assert idx.lookup("a", "zz", 0) is None


def test_build_corr_index_skips_unknown_codes():
    corr = pd.DataFrame({"attr_i": ["a", "a"], "attr_j": ["b", "b"],
                         "pair": [0, 0], "c": [0, -1], "e": [0, 0], "w": [2.0, 1.0],
                         "cnt": [2, 1]})
    idx = build_corr_index(corr, {"a": {"x": 0}, "b": {"p": 0}})
    codes, _, cnt = idx.lookup("a", "b", 0)
    assert codes.tolist() == [0] and cnt.tolist() == [2.0]   # -1 dropped
    codes, _, cnt = idx.lookup("b", "a", 0)
    assert codes.tolist() == [0] and cnt.tolist() == [2.0]


def test_build_corr_index_empty():
    idx = build_corr_index(
        pd.DataFrame(columns=list(CORR_DTYPES)),
        {})
    assert idx.lookup("a", "b", 0) is None


def test_cooccurrence_sums_lookups_over_the_tuple(spark, frame):
    """``CorrIndex.cooccurrence`` adds, per candidate, the raw counts of
    every other non-missing value of the tuple, and skips the
    attribute itself, missing values and unseen evidence."""
    out = corr_counts(spark, frame, ["a", "b", "c"], {})
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

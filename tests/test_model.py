"""Tests for vocabulary / CPT-table / child-view assembly: every count
table is a ``SparseTable``, built from value codes and checked against
a pandas ``groupby`` of the same input as strings."""
import pickle

import numpy as np
import pandas as pd
import pytest

from repro.core.model import (MISSING, UNKNOWN, SparseTable,
                              build_child_views, build_cpt_table, build_vocab,
                              config_key, config_keys, encode_frame,
                              normalize_missing, value_codes)


def _key(code, cols, vals):
    """The row key of one configuration ``vals`` of string values."""
    row = pd.DataFrame({c: value_codes(pd.Series([v]), code[c])
                        for c, v in zip(cols, vals)})
    return int(config_keys(row, cols, code)[0])


@pytest.fixture()
def frame():
    return pd.DataFrame({
        "tid": ["0", "1", "2", "3", "4"],
        "x": ["a", "a", "b", "b", "a"],
        "y": ["p", "p", "q", "q", "r"],
        "z": ["1", "2", "1", "", "1"],
    })


def test_build_vocab_sorted_and_excludes_missing(frame):
    vocab, code = build_vocab(frame, ["x", "y", "z"])
    assert list(vocab["x"]) == ["a", "b"]
    assert list(vocab["z"]) == ["1", "2"]       # "" excluded
    assert code["y"] == {"p": 0, "q": 1, "r": 2}


def test_normalize_missing_maps_none_and_nan_to_empty():
    df = pd.DataFrame({"a": ["x", None, "y"], "b": [1.5, np.nan, 2.0]})
    out = normalize_missing(df)
    assert out["a"].tolist() == ["x", "", "y"]
    assert out["b"].tolist() == ["1.5", "", "2.0"]
    vocab, _ = build_vocab(out, ["a", "b"])
    assert list(vocab["a"]) == ["x", "y"]


def test_encode_frame_codes_missing_and_unknown_values(frame):
    """One convention for every code frame: ``""`` is ``MISSING`` (-1),
    a value outside the vocabulary ``UNKNOWN`` (-2), any other cell its
    vocabulary code; int32 columns in vocabulary order, indexed by tid
    as ``str``."""
    _, code = build_vocab(frame, ["x", "y", "z"])
    batch = frame.assign(tid=range(5), x=["a", "GHOST", "b", "", "a"])
    codes = encode_frame(batch, code)
    assert (MISSING, UNKNOWN) == (-1, -2)
    assert codes.index.tolist() == ["0", "1", "2", "3", "4"]
    assert list(codes.columns) == ["x", "y", "z"]
    assert (codes.dtypes == np.int32).all()
    assert codes["x"].tolist() == [0, UNKNOWN, 1, MISSING, 0]
    assert codes["z"].tolist() == [0, 1, 0, MISSING, 0]


def _counts(rows, cols):
    return pd.DataFrame(rows, columns=cols)


def _coded(pdf, code):
    """A count frame of strings with its values as value codes (-1
    outside the vocabulary), the form ``cpt.cpt_counts`` gives."""
    return pdf.assign(**{c: value_codes(pdf[c], code[c])
                         for c in pdf.columns if c != "cnt"})


def _as_dict(table: SparseTable, code, cols, n_vals=1):
    """{(config values..., entry value): value(s)} of every entry."""
    inv = {c: {i: v for v, i in code[c].items()} for c in cols}
    dims = [len(code[c]) for c in cols[:-1]]
    out = {}
    for r, key in enumerate(table.keys):
        cfg = np.unravel_index(key, dims) if dims else ()
        vals = tuple(inv[c][int(i)] for c, i in zip(cols, cfg))
        for e in range(table.start[r], table.start[r + 1]):
            v = tuple(float(table.vals[i][e]) for i in range(n_vals))
            out[vals + (inv[cols[-1]][int(table.codes[e])],)] = (
                v if n_vals > 1 else v[0])
    return out


def _groupby(pdf, cols, code):
    """The same counts by pandas: rows with a value outside the
    vocabulary dropped, duplicates summed."""
    known = np.logical_and.reduce([pdf[c].isin(list(code[c])) for c in cols])
    sums = pdf[known].groupby(cols)["cnt"].sum()
    return {(k if isinstance(k, tuple) else (k,)): float(v)
            for k, v in sums.items()}


def _check_layout(table: SparseTable):
    assert (np.diff(table.keys) > 0).all()
    for r in range(len(table)):
        assert (np.diff(table.codes[table.start[r]:table.start[r + 1]])
                > 0).all()


def test_build_cpt_table_no_parents(frame):
    vocab, code = build_vocab(frame, ["x", "y", "z"])
    pdf = _counts([("a", 3), ("b", 2)], ["x", "cnt"])
    table = build_cpt_table(_coded(pdf, code), "x", [], code)
    assert table.keys.tolist() == [0]      # every entry under key 0
    assert _as_dict(table, code, ["x"]) == _groupby(pdf, ["x"], code)
    codes, counts = table.row(0)
    assert counts.sum() == 5.0


def test_build_cpt_table_one_parent(frame):
    vocab, code = build_vocab(frame, ["x", "y", "z"])
    pdf = _counts([("a", "p", 2), ("a", "r", 1), ("b", "q", 2)],
                  ["x", "y", "cnt"])
    table = build_cpt_table(_coded(pdf, code), "y", ["x"], code)
    _check_layout(table)
    assert _as_dict(table, code, ["x", "y"]) == _groupby(pdf, ["x", "y"],
                                                         code)
    codes, counts = table.row(_key(code, ["x"], ["a"]))
    assert dict(zip(codes.tolist(), counts.tolist())) == {
        code["y"]["p"]: 2.0, code["y"]["r"]: 1.0}
    assert table.row(_key(code, ["x"], ["zzz"])) is None
    assert table.row(_key(code, ["x"], [""])) is None


def test_build_cpt_table_two_parents(frame):
    vocab, code = build_vocab(frame, ["x", "y", "z"])
    pdf = _counts([("a", "p", "1", 1), ("a", "p", "2", 1),
                   ("b", "q", "1", 1), ("a", "p", "1", 2)],   # a repeat
                  ["x", "y", "z", "cnt"])
    table = build_cpt_table(_coded(pdf, code), "z", ["x", "y"], code)
    _check_layout(table)
    got = _as_dict(table, code, ["x", "y", "z"])
    assert got == _groupby(pdf, ["x", "y", "z"], code)
    assert got[("a", "p", "1")] == 3.0     # duplicate entries summed
    key = _key(code, ["x", "y"], ["a", "p"])
    assert key == code["x"]["a"] * len(code["y"]) + code["y"]["p"]


def test_build_cpt_table_skips_unknown_node_values(frame):
    vocab, code = build_vocab(frame, ["x", "y", "z"])
    pdf = _counts([("a", 3), ("GHOST", 2)], ["x", "cnt"])
    table = build_cpt_table(_coded(pdf, code), "x", [], code)
    assert _as_dict(table, code, ["x"]) == {("a",): 3.0}
    assert _groupby(pdf, ["x"], code) == {("a",): 3.0}


def test_build_cpt_table_empty(frame):
    vocab, code = build_vocab(frame, ["x", "y", "z"])
    table = build_cpt_table(_coded(_counts([], ["x", "y", "cnt"]), code),
                            "y", ["x"], code)
    assert len(table) == 0 and not table
    assert table.row(0) is None
    assert table.find(np.array([0, -1])).tolist() == [-1, -1]
    assert table.dense(np.array([-1])).shape == (1, len(code["y"]))


def test_build_child_views_single_parent(frame):
    vocab, code = build_vocab(frame, ["x", "y", "z"])
    pdf = _counts([("a", "p", 2), ("a", "r", 1), ("b", "q", 2)],
                  ["x", "y", "cnt"])
    views, tots = build_child_views(_coded(pdf, code), "y", ["x"], code)
    # view: key (child value) -> counts over dom(x)
    assert _as_dict(views["x"], code, ["y", "x"]) == _groupby(
        pdf, ["y", "x"], code)
    codes, counts = views["x"].row(_key(code, ["y"], ["p"]))
    assert dict(zip(codes.tolist(), counts.tolist())) == {code["x"]["a"]: 2.0}
    # tot: no co-parents, so one row under key 0
    assert _as_dict(tots["x"], code, ["x"]) == _groupby(pdf, ["x"], code)
    assert tots["x"].keys.tolist() == [0]


def test_build_child_views_coparents(frame):
    vocab, code = build_vocab(frame, ["x", "y", "z"])
    pdf = _counts([("a", "p", "1", 2), ("a", "r", "1", 1),
                   ("b", "q", "2", 2), ("a", "p", "2", 1)],
                  ["x", "y", "z", "cnt"])
    views, tots = build_child_views(_coded(pdf, code), "z", ["x", "y"], code)
    for p, copa in (("x", "y"), ("y", "x")):
        _check_layout(views[p])
        assert _as_dict(views[p], code, [copa, "z", p]) == _groupby(
            pdf, [copa, "z", p], code)
        assert _as_dict(tots[p], code, [copa, p]) == _groupby(
            pdf, [copa, p], code)
    # the parent-x total over co-parent y = p sums both child values
    codes, totals = tots["x"].row(_key(code, ["y"], ["p"]))
    assert dict(zip(codes.tolist(), totals.tolist())) == {code["x"]["a"]: 3.0}


def test_build_child_views_empty(frame):
    vocab, code = build_vocab(frame, ["x", "y", "z"])
    views, tots = build_child_views(
        _coded(_counts([], ["x", "y", "cnt"]), code), "y", ["x"], code)
    assert not views["x"] and not tots["x"]


def test_table_gathers_match_rows():
    table = SparseTable([5, 2, 5, 5, 9], [1, 0, 3, 1, 2],
                        [[1.0, 2.0, 3.0, 4.0, 5.0]], dom=4)
    assert table.keys.tolist() == [2, 5, 9]
    codes, vals = table.row(5)
    assert codes.tolist() == [1, 3] and vals.tolist() == [5.0, 3.0]
    rows = table.find(np.array([9, 5, 7, -1]))
    assert rows.tolist() == [2, 1, -1, -1]
    assert table.at(rows, np.array([2, 3, 0, 0])).tolist() == [[5.0, 3.0,
                                                                 0.0, 0.0]]
    dense = table.dense(rows)
    assert dense.tolist() == [[0, 0, 5, 0], [0, 5, 0, 3], [0] * 4, [0] * 4]
    # a broadcast model is unpickled: same arrays, canonical dtypes (the
    # ones ufunc.at has its fast path for)
    back = pickle.loads(pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL))
    assert back.vals.dtype is np.dtype(np.float64)
    assert back.codes.dtype is np.dtype(np.int64)
    assert back.vals.tolist() == table.vals.tolist()
    assert back.keys.tolist() == table.keys.tolist()


@pytest.mark.parametrize("n", [
    100,    # few lookups: each is found among the entries
    4000,   # many lookups: the whole table is made dense
])
def test_table_at_matches_dense(n):
    rng = np.random.default_rng(n)
    keys, codes = rng.integers(0, 50, 600), rng.integers(0, 40, 600)
    table = SparseTable(keys, codes, [rng.random(600), np.ones(600)], dom=40)
    rows = table.find(rng.integers(-5, 60, n))   # some -1 rows
    assert (rows < 0).any()
    cand = rng.integers(0, 40, n)
    got = table.at(rows, cand)
    for i in range(2):
        assert got[i].tolist() == table.dense(rows, i)[np.arange(n),
                                                       cand].tolist()


def test_config_key_marks_missing_and_rejects_overflow():
    key = config_key(np.array([[1, 2], [0, -1], [-2, 0]]), [3, 4])
    assert key.tolist() == [1 * 4 + 2, -1, -1]
    assert config_key(np.zeros((2, 0), dtype=np.int64), []).tolist() == [0, 0]
    with pytest.raises(ValueError):
        config_key(np.array([[1, 1, 1]]), [2**31, 2**31, 2**31])

"""Oracle-checked tests for the CPT / statistics counts.

Every count used by model fitting is diffed against DuckDB SQL through
``repro.oracle.assert_equivalent``, with its value codes decoded to
strings first — a wrong grouping or missing filter fails loudly, not
silently.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.compensatory import corr_counts, pair_majority
from repro.core.cpt import cpt_counts, majority, value_counts
from repro.core.model import build_vocab, encode_frame, normalize_missing
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


def _coded(frame):
    """``frame``'s vocabularies and its code frame."""
    frame = normalize_missing(frame)
    vocab, code = build_vocab(frame, [c for c in frame if c != "tid"])
    return vocab, encode_frame(frame, code)


def decoded(out, vocab):
    """A count frame ``[*family, cnt]`` with its codes decoded to
    strings."""
    return out.assign(**{c: vocab[c][out[c].to_numpy()]
                         for c in out.columns if c != "cnt"})


@pytest.fixture(scope="module")
def coded(frame):
    return _coded(frame)


def test_cpt_counts_no_parents_oracle(coded, frame):
    vocab, codes = coded
    [out] = cpt_counts(codes, [["a"]])
    assert_equivalent(
        decoded(out, vocab),
        "SELECT a, COUNT(*)::BIGINT AS cnt FROM t WHERE a <> '' GROUP BY a",
        t=frame,
    )


def test_cpt_counts_one_parent_oracle(coded, frame):
    vocab, codes = coded
    [out] = cpt_counts(codes, [["a", "b"]])
    assert_equivalent(
        decoded(out, vocab),
        "SELECT a, b, COUNT(*)::BIGINT AS cnt FROM t "
        "WHERE a <> '' AND b <> '' GROUP BY a, b",
        t=frame,
    )


def test_cpt_counts_two_parents_oracle(coded, frame):
    vocab, codes = coded
    [out] = cpt_counts(codes, [["a", "b", "c"]])
    assert_equivalent(
        decoded(out, vocab),
        "SELECT a, b, c, COUNT(*)::BIGINT AS cnt FROM t "
        "WHERE a <> '' AND b <> '' AND c <> '' GROUP BY a, b, c",
        t=frame,
    )


def long_counts(counts, vocab):
    """``value_counts``' marginals as (attr, value, cnt) rows."""
    return pd.concat([pd.DataFrame({"attr": a, "value": vocab[a],
                                    "cnt": c.astype(np.int64)})
                      for a, c in counts.items()], ignore_index=True)


def test_value_counts_oracle(frame):
    vocab, code = build_vocab(frame, ["a", "b", "c"])
    codes, counts = value_counts(frame, code)
    assert codes.equals(encode_frame(frame, code))
    assert_equivalent(
        long_counts(counts, vocab),
        """
        SELECT attr, value, COUNT(*)::BIGINT AS cnt FROM (
          SELECT 'a' AS attr, a AS value FROM t WHERE a <> ''
          UNION ALL SELECT 'b', b FROM t WHERE b <> ''
          UNION ALL SELECT 'c', c FROM t WHERE c <> ''
        ) GROUP BY attr, value
        """,
        t=frame,
    )


def test_cpt_counts_total_matches_nonmissing_rows(coded, frame):
    [out] = cpt_counts(coded[1], [["a"]])
    assert out["cnt"].sum() == (frame["a"] != "").sum()


def test_value_counts_covers_every_attr(frame):
    _, code = build_vocab(frame, ["a", "b", "c"])
    codes, counts = value_counts(frame, code)
    assert list(counts) == list(codes.columns) == ["a", "b", "c"]
    assert codes.index.tolist() == frame["tid"].tolist()
    assert all(c.dtype == np.float64 and c.min() > 0
               for c in counts.values())


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


def test_cpt_counts_families_oracle(mixed):
    """Each family's counts equal one filtered GROUP BY: sizes 1-4, one
    column set in two orders, NULL keys next to ``""`` keys, and a
    family whose every key is missing; rows are ordered by code."""
    fams = [["a"], ["d"], ["b", "a"], ["a", "b"], ["c", "a", "d"],
            ["a", "b", "c", "d"], ["d", "z"]]
    vocab, codes = _coded(mixed)
    outs = cpt_counts(codes, fams)
    assert len(outs) == len(fams)
    for fam, out in zip(fams[:-1], outs):
        assert list(out.columns) == [*fam, "cnt"]
        assert (out.dtypes == np.int64).all()
        assert out[fam].equals(out[fam].sort_values(fam, ignore_index=True))
        assert_equivalent(decoded(out, vocab), _family_sql(fam), t=mixed)
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
    attrs = t.attrs
    vocab, code = build_vocab(dirty, attrs)
    major = pair_majority(corr_counts(spark, dirty, attrs, {}))
    major["e"] = [vocab[x][k] for x, k in zip(major["attr_j"], major["e"])]
    major["c"] = [vocab[y][k] for y, k in zip(major["attr_i"], major["c"])]
    by_pair = dict(iter(major.groupby(["attr_i", "attr_j"])))
    pairs = [(x, y) for x in attrs for y in attrs if x != y]
    for (x, y), pdf in zip(pairs, cpt_counts(encode_frame(dirty, code),
                                             pairs)):
        ref = majority(decoded(pdf, vocab), [x], y).set_index(x).sort_index()
        assert len(ref), (x, y)
        got = by_pair[(y, x)].set_index("e").sort_index()
        assert got.index.tolist() == ref.index.tolist(), (x, y)
        assert got["cnt"].tolist() == ref["cnt"].tolist(), (x, y)
        assert got["total"].tolist() == ref["total"].tolist(), (x, y)
        strict = ref["cnt"] * 2 > ref["total"]
        assert got["c"][strict].tolist() == ref[y][strict].tolist(), (x, y)

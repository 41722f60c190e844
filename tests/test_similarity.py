"""Unit tests for the similarity kernels (paper §4 formulas)."""
import math

import numpy as np
import pandas as pd
import pytest

from repro.core.similarity import (edit_distance, numeric_similarity,
                                   similarity_series, string_similarity)


@pytest.mark.parametrize("a,b,d", [
    ("", "", 0),
    ("a", "", 1),
    ("", "abc", 3),
    ("abc", "abc", 0),
    ("abc", "abd", 1),
    ("abc", "acb", 2),
    ("kitten", "sitting", 3),
    ("flaw", "lawn", 2),
    ("315 w hickory st", "315 w hicky st", 2),
    ("sunday", "saturday", 3),
    ("abcd", "dcba", 4),
    ("a", "b", 1),
    ("ab", "ba", 2),
    ("25676000", "25676x00", 1),
])
def test_edit_distance(a, b, d):
    assert edit_distance(a, b) == d
    assert edit_distance(b, a) == d  # symmetric


@pytest.mark.parametrize("a,b", [("abc", "xbc"), ("x", "xyz"), ("q", "q")])
def test_edit_distance_triangle_vs_identity(a, b):
    assert edit_distance(a, a) == 0
    assert edit_distance(a, b) <= len(a) + len(b)


def test_string_similarity_identical():
    assert string_similarity("hello", "hello") == 1.0


def test_string_similarity_paper_example():
    # §4: "315 w hickory st" vs "315 w hicky st" reports ~0.86 softness
    sim = string_similarity("315 w hickory st", "315 w hicky st")
    assert 0.75 < sim < 0.95


def test_string_similarity_formula():
    a, b = "abcd", "abxd"
    expected = 1 - 2 * edit_distance(a, b) / (len(a) + len(b))
    assert string_similarity(a, b) == pytest.approx(expected)


@pytest.mark.parametrize("a,b", [
    (None, "x"), ("x", None), (None, None), ("", "x"), ("x", ""),
    (float("nan"), "x"),
])
def test_string_similarity_missing_is_zero(a, b):
    assert string_similarity(a, b) == 0.0


def test_string_similarity_clipped_at_zero():
    # Very different strings would go negative under the raw formula.
    assert string_similarity("aaaa", "zzzzzzzzzzzzzzzz") == 0.0


@pytest.mark.parametrize("x,y,expected", [
    (10.0, 10.0, 1.0),
    (0.0, 0.0, 1.0),
    (10.0, 0.0, 0.0),      # |10-0|/5 = 2 -> clipped
    (10.0, 9.0, 1 - 1 / 9.5),
    (-5.0, 5.0, 0.0),
    ("12", "12", 1.0),
    ("12", "nope", 0.0),
    (None, 5.0, 0.0),
])
def test_numeric_similarity(x, y, expected):
    assert numeric_similarity(x, y) == pytest.approx(expected)


def test_numeric_similarity_symmetric():
    assert numeric_similarity(3, 7) == pytest.approx(numeric_similarity(7, 3))


def test_similarity_series_string_matches_scalar():
    a = pd.Series(["abc", "hello", None, "x"])
    b = pd.Series(["abd", "hello", "y", ""])
    out = similarity_series(a, b, numeric=False)
    for i in range(len(a)):
        assert out[i] == pytest.approx(string_similarity(a[i], b[i]))


def test_similarity_series_numeric_matches_scalar():
    a = pd.Series(["10", "0", "5", None])
    b = pd.Series(["9", "0", "bad", "3"])
    out = similarity_series(a, b, numeric=True)
    for i in range(len(a)):
        assert out[i] == pytest.approx(numeric_similarity(a[i], b[i]))


def test_similarity_series_range():
    rng = np.random.default_rng(0)
    a = pd.Series([str(x) for x in rng.integers(0, 100, 50)])
    b = pd.Series([str(x) for x in rng.integers(0, 100, 50)])
    for numeric in (True, False):
        out = similarity_series(a, b, numeric=numeric)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_similarity_series_empty():
    out = similarity_series(pd.Series([], dtype=object),
                            pd.Series([], dtype=object), numeric=False)
    assert len(out) == 0


def _near_pairs(rng, n):
    """``n`` (a, b) string pairs drawn from a small pool (so pairs repeat):
    equal pairs, a few random edits apart, and unrelated; lengths from 0
    to 150 characters (past one 64-bit word), non-ASCII included."""
    alphabet = list("abcxyz 09éß中🙂")

    def word():
        size = rng.choice([0, 1, 2, 5, 13, 40, 63, 64, 65, 90, 150])
        return "".join(rng.choice(alphabet, size))

    def edit(s):
        s = list(s)
        for _ in range(rng.integers(1, 4)):
            i = int(rng.integers(0, len(s) + 1))
            op = rng.integers(0, 3)
            if op == 0 or not s:
                s.insert(i, rng.choice(alphabet))
            elif op == 1:
                del s[min(i, len(s) - 1)]
            else:
                s[min(i, len(s) - 1)] = rng.choice(alphabet)
        return "".join(s)

    pool = [word() for _ in range(40)]
    pairs = []
    for x in pool:
        pairs += [(x, x), (x, edit(x)), (edit(x), x), (x, word())]
    pairs += [(None, "a"), ("", ""), ("abc", float("nan"))]
    idx = rng.integers(0, len(pairs), n)
    return [pairs[i][0] for i in idx], [pairs[i][1] for i in idx]


def test_similarity_series_string_matches_scalar_on_random_pairs():
    rng = np.random.default_rng(2024)
    a, b = _near_pairs(rng, 2000)
    out = similarity_series(pd.Series(a, dtype=object),
                            pd.Series(b, dtype=object), numeric=False)
    expect = [string_similarity(x, y) for x, y in zip(a, b)]
    mismatches = [(x, y, o, e) for x, y, o, e in zip(a, b, out, expect)
                  if o != e]
    assert not mismatches, mismatches[:3]
    # the pool covers what the kernel must get right
    assert len({(x, y) for x, y in zip(a, b)}) < len(a)
    assert 0 < (out == 1.0).mean() < 1 and ((out > 0) & (out < 1)).any()
    assert any(len(x) > 64 and 0 < s < 1
               for x, s in zip(a, out) if isinstance(x, str))

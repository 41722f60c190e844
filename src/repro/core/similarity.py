"""Similarity kernels used by BClean's softened-FD structure learning (§4).

The paper replaces strict FD equality with a similarity in [0, 1]:

* strings — unit-cost edit (Levenshtein) distance normalized by lengths:
  ``Sim(a, b) = 1 - 2 * ED(a, b) / (len(a) + len(b))`` (clipped at 0);
* numbers — relative difference: ``Sim(x, y) = 1 - |x - y| / ((|x|+|y|)/2)``
  (clipped at 0, and 1 when both are 0).

Both kernels treat missing values (None / NaN / empty string) as
maximally dissimilar (similarity 0) to any value, and 0-similar to
another missing value: a missing observation carries no evidence of an
FD holding.

``edit_distance`` and ``string_similarity`` are the scalar definitions
and the test oracle. ``similarity_series`` scores each distinct
(a, b) pair of a column once, with Myers' bit-parallel edit distance
(Myers, JACM 1999, in Hyyrö's 2003 formulation) on Python ints, so
strings of any length fit one bit vector.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd

__all__ = [
    "edit_distance",
    "string_similarity",
    "numeric_similarity",
    "similarity_series",
]


def edit_distance(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance via the classic two-row DP."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    if la < lb:  # iterate over the shorter string's rows
        a, b, la, lb = b, a, lb, la
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        ca = a[i - 1]
        for j in range(1, lb + 1):
            cost = 0 if ca == b[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        prev = cur
    return prev[lb]


def _bit_parallel_distance(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance, one column of the DP matrix per
    bit vector: ``vp``/``vn`` mark the +1/−1 vertical deltas of the
    current column, and each character of the shorter string advances
    the column with a handful of int operations."""
    if a == b:
        return 0
    i, n = 0, min(len(a), len(b))
    while i < n and a[i] == b[i]:  # common affixes cost nothing
        i += 1
    j = 0
    while j < n - i and a[-1 - j] == b[-1 - j]:
        j += 1
    a, b = a[i:len(a) - j], b[i:len(b) - j]
    if len(a) < len(b):
        a, b = b, a              # pattern: the longer string
    if not b:
        return len(a)
    peq: dict[str, int] = {}     # char -> bit mask of its positions in a
    bit = 1
    for ch in a:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask, high = bit - 1, bit >> 1
    vp, vn, dist = mask, 0, len(a)
    for ch in b:
        x = peq.get(ch, 0) | vn
        d0 = (((x & vp) + vp) ^ vp) | x
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        if hp & high:
            dist += 1
        elif hn & high:
            dist -= 1
        x = (hp << 1) | 1        # row 0 of the DP grows by 1 per column
        vn = x & d0 & mask
        vp = ((hn << 1) | ~(x | d0)) & mask
    return dist


def _is_missing(v) -> bool:
    if v is None:
        return True
    if isinstance(v, float) and math.isnan(v):
        return True
    if isinstance(v, str) and v == "":
        return True
    return v is pd.NA


def string_similarity(a, b) -> float:
    """Normalized edit similarity per §4; 0 if either side is missing."""
    if _is_missing(a) or _is_missing(b):
        return 0.0
    a, b = str(a), str(b)
    denom = len(a) + len(b)
    if denom == 0:
        return 0.0
    sim = 1.0 - 2.0 * edit_distance(a, b) / denom
    return max(0.0, sim)


def numeric_similarity(x, y) -> float:
    """Relative-difference similarity per §4; 0 if either side is missing."""
    if _is_missing(x) or _is_missing(y):
        return 0.0
    try:
        x, y = float(x), float(y)
    except (TypeError, ValueError):
        return 0.0
    if math.isnan(x) or math.isnan(y):
        return 0.0
    denom = (abs(x) + abs(y)) / 2.0
    if denom == 0.0:
        return 1.0  # both exactly zero
    return max(0.0, 1.0 - abs(x - y) / denom)


def similarity_series(a: pd.Series, b: pd.Series, *, numeric: bool) -> np.ndarray:
    """Vectorized pairwise similarity of two aligned pandas Series.

    This is the kernel run inside the structure-learning pandas UDF: one
    call per (pivot, attribute), producing one observation feature.
    String values are compared as their ``str``; equal to
    ``string_similarity`` per pair.
    """
    if numeric:
        x = pd.to_numeric(a, errors="coerce").to_numpy(dtype="float64")
        y = pd.to_numeric(b, errors="coerce").to_numpy(dtype="float64")
        denom = (np.abs(x) + np.abs(y)) / 2.0
        with np.errstate(invalid="ignore", divide="ignore"):
            sim = 1.0 - np.abs(x - y) / denom
        sim = np.where(denom == 0.0, 1.0, sim)  # both zero -> identical
        sim = np.where(np.isnan(x) | np.isnan(y), 0.0, sim)
        return np.clip(sim, 0.0, 1.0)
    # one code space for both sides; a pair and its mirror share a key
    codes, text = pd.factorize(np.concatenate([_text(a), _text(b)]))
    ca, cb = codes[:len(a)].astype(np.int64), codes[len(a):]
    lo, hi = np.minimum(ca, cb), np.maximum(ca, cb)
    pair, distinct = pd.factorize(lo * len(text) + hi)
    sims = np.fromiter(
        (_text_similarity(text[k // len(text)], text[k % len(text)])
         for k in distinct.tolist()),
        dtype="float64", count=len(distinct))
    return sims[pair]


def _text(s: pd.Series) -> np.ndarray:
    """Each value as its ``str``; missing values as ``""``."""
    text = s.astype(str).to_numpy(dtype=object)
    text[s.isna().to_numpy()] = ""
    return text


def _text_similarity(a: str, b: str) -> float:
    """``string_similarity`` of two ``str`` values ("" missing), with the
    bit-parallel distance."""
    if a == "" or b == "":
        return 0.0
    sim = 1.0 - 2.0 * _bit_parallel_distance(a, b) / (len(a) + len(b))
    return max(0.0, sim)

"""The fitted, broadcastable BClean model.

``FittedModel`` packages everything the distributed inference kernel
needs: per-attribute vocabularies and value codes, each attribute's
parents and children, one marginal per attribute (value counts over its
vocabulary), the count tables and UC masks. It is pickled once into a
Spark broadcast variable.

Every count table is one ``SparseTable``: int64 row keys, each row a run
of (code, value...) entries sorted by code. A row key is a value code or
the mixed-radix code of a configuration (``config_key``); a missing or
out-of-vocabulary value never forms one. ``cpt[a]`` is keyed by ``a``'s
parents (empty without parents: the marginal is ``counts[a]``);
``childview[(child, p)]`` by (co-parents, child value) with entries over
dom(p), so ``Pr[t_child | c, co-parents]`` over candidates c of ``p`` is
one scatter; ``childtot[(child, p)]`` by co-parents; ``corr`` is
``compensatory.CorrIndex``. Probabilities are Laplace-smoothed at
evaluation time: ``P = (count + α) / (total + α·|dom|)``.

One missing-value convention holds throughout: ``""``.
``normalize_missing`` maps ``None``/``NaN`` cells to it and every other
cell to ``str``; ``BClean.fit`` and every baseline apply it at entry.
As a value code (``encode_frame``), a missing cell is ``MISSING`` (-1)
and a value outside the vocabulary ``UNKNOWN`` (-2); neither ever forms
a row key or an entry.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np
import pandas as pd

if TYPE_CHECKING:
    from .compensatory import CorrIndex

__all__ = ["FittedModel", "SparseTable", "config_key", "config_keys",
           "value_codes", "encode_frame", "normalize_missing", "build_vocab",
           "build_cpt_table", "build_child_views", "MISSING", "UNKNOWN"]

MISSING, UNKNOWN = -1, -2   # codes of a missing cell, of an unseen value

_NO_KEY = np.iinfo(np.int64).min   # sentinel past the last row key


class SparseTable:
    """Sparse rows of (code, value...) entries under int64 row keys.

    ``keys`` holds the distinct row keys in ascending order; row r (its
    index in ``keys``) holds entries ``start[r]:start[r + 1]`` of
    ``codes`` (ascending, over a domain of size ``dom``) and of ``vals[i]``.
    """

    def __init__(self, keys, codes, vals: Sequence, dom: int):
        """Build from unordered entries; a negative key or code drops an
        entry, and duplicate (row key, code) entries are summed."""
        keys = np.asarray(keys, dtype=np.int64)
        codes = np.asarray(codes, dtype=np.int64)
        ok = np.flatnonzero((keys >= 0) & (codes >= 0))
        ok = ok[np.lexsort((codes[ok], keys[ok]))]  # stable: sums keep order
        k, c = keys[ok], codes[ok]
        new_key = np.ones(len(k), dtype=bool)   # run starts, sorted order
        new_key[1:] = k[1:] != k[:-1]
        new_pair = new_key.copy()
        new_pair[1:] |= c[1:] != c[:-1]
        n_pairs = int(new_pair.sum())
        pair = np.cumsum(new_pair) - 1
        self.vals = np.array([
            np.bincount(pair, np.asarray(v, dtype=np.float64)[ok],
                        minlength=n_pairs) for v in vals])
        first = np.flatnonzero(new_key[new_pair])
        self.keys = k[new_pair][first]
        self.start = np.append(first, n_pairs)
        self.codes = c[new_pair]
        self.dom = dom
        self._flat = None   # ``at``'s entry keys, made on first use

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_flat"}

    def __setstate__(self, state):
        # an unpickled (broadcast) array has an equal but distinct dtype
        # object, on which ufunc.at runs ~30x slower: restore the canonical
        self.__dict__ = {k: v.view(v.dtype.type) if isinstance(v, np.ndarray)
                         else v for k, v in state.items()}
        self._flat = None

    def __len__(self) -> int:
        return len(self.keys)

    def column(self, i: int) -> "SparseTable":
        """The table of value ``i`` alone, sharing this table's row keys
        and codes (one copy of them when both are pickled)."""
        out = object.__new__(SparseTable)
        out.__dict__.update(self.__dict__, vals=self.vals[i:i + 1],
                            _flat=None)
        return out

    def find(self, keys):
        """Row index of each key; -1 where the table has no such row."""
        pos = np.searchsorted(self.keys, keys)
        return np.where(np.append(self.keys, _NO_KEY)[pos] == keys, pos, -1)

    def row(self, key: int):
        """``(codes, *vals)`` of the row with key ``key``, or None."""
        r = int(self.find(key))
        if r < 0:
            return None
        s, t = self.start[r], self.start[r + 1]
        return (self.codes[s:t], *self.vals[:, s:t])

    def expand(self, rows):
        """Every entry of rows ``rows`` (row indices, -1 for none), as
        (position in ``rows``, index into ``codes``/``vals``)."""
        rows = np.asarray(rows)
        ln = np.where(rows >= 0, self.start[rows + 1] - self.start[rows], 0)
        pos = np.repeat(np.arange(len(ln)), ln)
        first = np.repeat(self.start[rows] - np.cumsum(ln) + ln, ln)
        return pos, first + np.arange(len(pos))

    def dense(self, rows, i: int = 0) -> np.ndarray:
        """(len(rows), dom) matrix of value ``i``: row u holds row
        ``rows[u]`` scattered at its codes (all zeros for -1)."""
        out = np.zeros((len(rows), self.dom))
        pos, src = self.expand(rows)
        out[pos, self.codes[src]] = self.vals[i][src]
        return out

    def at(self, rows: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """(len(vals), len(rows)) matrix: every value at (row ``rows[i]``,
        ``codes[i]``) for every i; 0 where the row is -1 or has no such
        code. When the table made dense has at most 4× as many cells as
        there are lookups, they read a dense copy (at most 4× the size of
        the result); else each is binary-searched among the entries."""
        if self._flat is None:   # every entry as row * dom + code, ascending
            self._flat = np.append(
                np.repeat(np.arange(len(self.keys)), np.diff(self.start))
                * self.dom + self.codes, _NO_KEY)
        flat = self._flat[:-1]
        q = np.where(rows >= 0, rows * self.dom + codes, -1)
        if len(self.keys) * self.dom <= 4 * len(q):
            dense = np.zeros((len(self.vals), len(self.keys) * self.dom + 1))
            dense[:, flat] = self.vals
            return dense[:, q]   # q = -1 reads the last column, which is 0
        i = np.searchsorted(flat, q)
        hit = self._flat[i] == q
        out = np.zeros((len(self.vals), len(q)))
        out[:, hit] = self.vals[:, i[hit]]
        return out


def config_key(codes: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """Mixed-radix key of each row of ``codes`` (rows × len(dims)), a
    configuration of value codes over domains of sizes ``dims``; -1 for
    a row with a negative (missing or unknown) code. Raises ValueError
    (``np.ravel_multi_index``) when the product of ``dims`` overflows."""
    ok = (codes >= 0).all(axis=1)
    key = np.full(len(codes), -1, dtype=np.int64)
    key[ok] = np.ravel_multi_index(tuple(codes[ok].T), tuple(dims))
    return key


def config_keys(codes: pd.DataFrame, cols: Sequence[str],
                code: dict[str, dict[str, int]]) -> np.ndarray:
    """``config_key`` of every row of a frame of value codes, over its
    columns ``cols``."""
    return config_key(codes[list(cols)].to_numpy(dtype=np.int64),
                      [len(code[c]) for c in cols])


def value_codes(values: pd.Series, code: dict[str, int]) -> np.ndarray:
    """Code of each value; -1 outside the vocabulary."""
    return values.map(code).fillna(-1).to_numpy(dtype=np.int64)


def encode_frame(frame: pd.DataFrame,
                 code: dict[str, dict[str, int]]) -> pd.DataFrame:
    """The int32 value code of every cell of a normalized ``frame``, one
    column per attribute of ``code`` (in its order), indexed by ``tid``
    (as ``str``): ``MISSING`` for ``""``, ``UNKNOWN`` for a value outside
    the vocabulary."""
    cols = {}
    for a, c in code.items():
        v = value_codes(frame[a], c)
        v[(v < 0) & (frame[a] != "").to_numpy()] = UNKNOWN
        cols[a] = v.astype(np.int32)
    return pd.DataFrame(cols, index=frame["tid"].astype(str).to_numpy())


@dataclass
class FittedModel:
    attrs: list[str]
    vocab: dict[str, np.ndarray]           # attr -> array of domain values
    code: dict[str, dict[str, int]]        # attr -> value -> code
    cpt: dict[str, SparseTable]            # attr -> parents cfg -> (attr code, count)
    childview: dict[tuple, SparseTable]    # (child, parent) -> (copa, e) -> (parent code, count)
    childtot: dict[tuple, SparseTable]     # (child, parent) -> copa -> (parent code, total)
    corr: CorrIndex
    counts: dict[str, np.ndarray]          # attr -> count vector over vocab
    uc_ok: dict[str, np.ndarray]           # attr -> bool vector over vocab
    n_rows: int
    alpha: float = 0.1
    parents: dict[str, list[str]] = field(default_factory=dict)
    children: dict[str, list[str]] = field(default_factory=dict)

    def dom_size(self, attr: str) -> int:
        return len(self.vocab[attr])


def normalize_missing(df: pd.DataFrame) -> pd.DataFrame:
    """Every cell as ``str``, with ``None``/``NaN`` cells as ``""`` — the
    one missing-value convention of the whole system."""
    return df.astype(object).where(df.notna(), "").astype(str)


def build_vocab(dirty: pd.DataFrame, attrs: list[str]):
    """Per-attribute candidate domains: the distinct non-missing values
    observed in the (normalized) dirty data (§2: candidates come from
    dom(A_j))."""
    vocab: dict[str, np.ndarray] = {}
    code: dict[str, dict[str, int]] = {}
    for a in attrs:
        vals = sorted(v for v in dirty[a].unique() if v != "")
        vocab[a] = np.asarray(vals, dtype=object)
        code[a] = {v: i for i, v in enumerate(vals)}
    return vocab, code


def build_cpt_table(cpt_pdf: pd.DataFrame, node: str, parents: list[str],
                    code: dict[str, dict[str, int]]) -> SparseTable:
    """CPT counts ``[*parents, node, cnt]`` over value codes
    (``cpt.cpt_counts``) → a table keyed by the parents' configuration,
    with (node code, count) entries. Without parents every entry is
    under key 0."""
    return SparseTable(config_keys(cpt_pdf, parents, code), cpt_pdf[node],
                       [cpt_pdf["cnt"]], len(code[node]))


def build_child_views(cpt_pdf: pd.DataFrame, child: str, parents: list[str],
                      code: dict[str, dict[str, int]]):
    """Re-index a child's CPT counts over value codes by each of its
    parents.

    For parent p, with co-parents the other parents, builds
      view: key (co-parents, child value) -> (code of p, count)
      tot:  key (co-parents)              -> (code of p, total)
    so the child factor of an inferred parent is two scatters.
    Returns ({parent: view}, {parent: tot}).
    """
    cnt = [cpt_pdf["cnt"]]
    views: dict[str, SparseTable] = {}
    tots: dict[str, SparseTable] = {}
    for p in parents:
        copa = [c for c in parents if c != p]
        dom = len(code[p])
        views[p] = SparseTable(config_keys(cpt_pdf, copa + [child], code),
                               cpt_pdf[p], cnt, dom)
        tots[p] = SparseTable(config_keys(cpt_pdf, copa, code), cpt_pdf[p],
                              cnt, dom)
    return views, tots

"""The fitted, broadcastable BClean model.

``FittedModel`` packages everything the distributed inference kernel
needs: per-attribute vocabularies and value codes, the BN structure,
one marginal per attribute (the dense value-count vector over its
vocabulary), one CPT count table per attribute that has parents, "child
views" (a child's CPT re-indexed by the inferred parent so the factor
``Pr[t_child | c, co-parents]`` is one dense scatter over the candidate
domain), the compensatory-score index, and UC masks. A parentless
attribute has an empty CPT; wherever a marginal is needed, it is read
from ``counts``. The whole object is pickled once into a Spark
broadcast variable.

All probability lookups are Laplace-smoothed at evaluation time:
``P = (count + α) / (total + α·|dom|)``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from .compensatory import CorrIndex
from .network import BayesianNetwork

__all__ = ["FittedModel", "build_vocab", "build_cpt_table", "build_child_views"]


@dataclass
class FittedModel:
    attrs: list[str]
    vocab: dict[str, np.ndarray]           # attr -> array of domain values
    code: dict[str, dict[str, int]]        # attr -> value -> code
    network: BayesianNetwork
    cpt: dict[str, dict]                   # attr -> {pa_cfg: (codes, counts, total)}
    childview: dict[tuple, dict]           # (child, parent) -> {(copa, e): (codes, counts)}
    childtot: dict[tuple, dict]            # (child, parent) -> {copa: (codes, totals)}
    corr: CorrIndex
    counts: dict[str, np.ndarray]          # attr -> count vector over vocab
    uc_ok: dict[str, np.ndarray]           # attr -> bool vector over vocab
    n_rows: int
    alpha: float = 0.1
    parents: dict[str, list[str]] = field(default_factory=dict)
    children: dict[str, list[str]] = field(default_factory=dict)

    def dom_size(self, attr: str) -> int:
        return len(self.vocab[attr])


def build_vocab(dirty: pd.DataFrame, attrs: list[str]):
    """Per-attribute candidate domains: the distinct non-missing values
    observed in the dirty data (§2: candidates come from dom(A_j))."""
    vocab: dict[str, np.ndarray] = {}
    code: dict[str, dict[str, int]] = {}
    for a in attrs:
        vals = sorted(v for v in dirty[a].astype(str).unique() if v != "")
        vocab[a] = np.asarray(vals, dtype=object)
        code[a] = {v: i for i, v in enumerate(vals)}
    return vocab, code


def build_cpt_table(cpt_pdf: pd.DataFrame, node: str, parents: list[str],
                    code: dict[str, dict[str, int]]) -> dict:
    """Spark CPT counts → {parent_cfg_tuple: (codes, counts, total)}.

    The empty tuple is the config for parentless nodes.
    """
    table: dict[tuple, tuple] = {}
    if not len(cpt_pdf):
        return table
    node_codes = cpt_pdf[node].map(code[node]).to_numpy(dtype="float64")
    keep = ~np.isnan(node_codes)
    cpt_pdf = cpt_pdf.loc[keep]
    node_codes = node_codes[keep].astype("int64")
    cnts = cpt_pdf["cnt"].to_numpy(dtype="float64")
    if not parents:
        table[()] = (node_codes, cnts, float(cnts.sum()))
        return table
    keys = list(zip(*(cpt_pdf[p].astype(str) for p in parents)))
    key_arr = pd.Series(keys)
    for cfg, idx in key_arr.groupby(key_arr).groups.items():
        loc = np.asarray(idx, dtype="int64")
        c = node_codes[loc]
        n = cnts[loc]
        table[cfg] = (c, n, float(n.sum()))
    return table


def build_child_views(cpt_pdf: pd.DataFrame, child: str, parents: list[str],
                      code: dict[str, dict[str, int]]):
    """Re-index a child's CPT by each of its parents.

    For parent p at position q, builds
      view[(copa_cfg, e_child)] -> (codes over dom(p), counts)
      tot[copa_cfg]            -> (codes over dom(p), totals)
    so the child factor of an inferred parent is two scatters.
    Returns ({parent: view}, {parent: tot}).
    """
    views: dict[str, dict] = {}
    tots: dict[str, dict] = {}
    if not len(cpt_pdf):
        return {p: {} for p in parents}, {p: {} for p in parents}
    for q, p in enumerate(parents):
        pcodes = cpt_pdf[p].map(code[p]).to_numpy(dtype="float64")
        keep = ~np.isnan(pcodes)
        sub = cpt_pdf.loc[keep]
        pc = pcodes[keep].astype("int64")
        cnt = sub["cnt"].to_numpy(dtype="float64")
        copa_cols = [parents[r] for r in range(len(parents)) if r != q]
        copa = (list(zip(*(sub[c].astype(str) for c in copa_cols)))
                if copa_cols else [()] * len(sub))
        evals = sub[child].astype(str).to_numpy(dtype=object)
        view: dict[tuple, tuple] = {}
        tot: dict[tuple, tuple] = {}
        buck_v: dict[tuple, list] = {}
        buck_t: dict[tuple, dict] = {}
        for i in range(len(sub)):
            kv = (copa[i], evals[i])
            buck_v.setdefault(kv, []).append(i)
            buck_t.setdefault(copa[i], {}).setdefault(pc[i], 0.0)
            buck_t[copa[i]][pc[i]] += cnt[i]
        for kv, rows in buck_v.items():
            loc = np.asarray(rows, dtype="int64")
            view[kv] = (pc[loc], cnt[loc])
        for cfg, d in buck_t.items():
            codes = np.fromiter(d.keys(), dtype="int64", count=len(d))
            totals = np.fromiter(d.values(), dtype="float64", count=len(d))
            tot[cfg] = (codes, totals)
        views[p] = view
        tots[p] = tot
    return views, tots

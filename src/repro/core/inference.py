"""Bayesian inference with compensatory score (paper §5–§6, Algorithm 1).

For every cell (tuple T, attribute A_j) the kernel scores every
candidate c ∈ dom(A_j) as

    p(c) = log Pr_BN[c | evidence] + CS(Score_corr(c, t, A_j))

and repairs the cell to the argmax if it beats the original value's
score by ``margin`` (Alg. 1 uses strict >; the margin generalizes it).
The BN term depends on the variant:

* ``PI`` / ``PIP`` — partitioned inference (§6.1): only the one-hop
  sub-network A_parent ∪ {A_j} ∪ A_child participates:
  ``Pr[A_j | A_connected] = Pr[A_j | A_parent] · Pr[A_child | A_j]``.
* ``base`` — naive full-network evaluation: every node's factor is
  evaluated for the tuple (the candidate-constant ones too), mirroring
  the unpartitioned variable-elimination cost of the unoptimized
  system.

``PIP`` additionally applies tuple pruning (skip cells with
Filter ≥ τ_clean) and TF-IDF domain pruning (§6.2). ``use_ucs=False``
is the BClean_-UC ablation.

Two numerical choices beyond the paper's pseudocode (DESIGN.md §1):

* **Leave-one-out BN factors** — CPT counts include the tuple being
  cleaned, so a singleton error self-supports its own (erroneous value,
  evidence) combinations in the network factors; those are LOO-adjusted
  at the original value's code. The corr score is deliberately *not*
  LOO-adjusted: its self-support is what protects rare-but-clean values
  (the paper's "clean data … exhibit dependency and correlation"
  argument cuts both ways for quasi-unique attributes).
* **UC-violating originals lose up front** — §7.3.1: "when a pattern is
  present, Pr[g₁] is set to 0 prior to inference"; an original value
  that fails its UC gets score −∞, forcing a repair when any valid
  candidate exists.
* **Uniform factor for unobserved parents** — parentless inferred
  nodes, and configs with missing/unseen parent evidence, contribute a
  uniform (constant) factor per §6.1's isolated-node rule, so value
  frequency alone never overwrites a rare clean value.
* **Smoothed CS term** — Alg. 1 takes log(CS(c)) but Score_corr can be
  ≤ 0 (β-penalties); we use ``log1p(max(w, 0)) + penalty·min(w, 0)``
  over the raw weight sum w, which preserves the ordering semantics
  without an unbounded cliff at 0.

The kernel is a pure pandas→pandas function (``clean_batch``), run
distributed via ``mapInPandas`` with the fitted model in a Spark
broadcast. It has two implementations:

* ``base`` runs ``_clean_loop``, the literal per-cell loop over rows ×
  attributes. It is also the reference the batched kernel is tested
  against (``tests/test_inference.py``), for every variant.
* ``PI`` / ``PIP`` run one batched numpy kernel. The batch is encoded
  once (each column factorized into its distinct values and their
  model codes; missing and out-of-vocabulary values get distinct
  negative codes). Then, per target attribute, every factor is built
  once per distinct value or configuration in the batch — one
  ``model.corr`` lookup per distinct evidence value, one parent vector
  per parent config, one child vector per (co-parents, child value),
  all with the loop's own formulas — and gathered into blocks of rows
  that are scored as (rows × dom) matrices, accumulated in the loop's
  order. PIP computes
  the tuple filter for every row first, from scalar gathers at the
  original code, so skipped cells are never scored, and masks the
  remaining rows with the row-wise domain-pruning helper. Repairs are
  bit-identical to the loop's.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from .model import FittedModel
from .pruning import (domain_prune_mask, domain_prune_rows, tuple_filter,
                      tuple_filter_rows)

__all__ = ["InferenceParams", "clean_batch", "run_inference"]

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class InferenceParams:
    variant: str = "PI"          # "base" | "PI" | "PIP"
    use_ucs: bool = True
    cs_penalty: float = 0.1      # slope of the negative-weight CS branch
    cs_cap: float = 5.0          # floor (in weight units) of that branch
    tau_clean: float = 0.35      # tuple-pruning threshold (PIP)
    top_k: int = 32              # domain-pruning candidate budget (PIP)
    margin: float = 3.0          # min score advantage to overwrite

    def __post_init__(self):
        if self.variant not in ("base", "PI", "PIP"):
            raise ValueError(f"unknown variant {self.variant!r}")


class _Caches:
    """Per-partition gather caches (evidence values repeat heavily)."""

    def __init__(self):
        self.parent: dict = {}
        self.child: dict = {}
        self.corr: dict = {}
        self.scalar: dict = {}


def _smoothed_log_vec(dom: int, codes, counts, total, alpha: float) -> np.ndarray:
    numer = np.full(dom, alpha)
    if codes is not None and len(codes):
        np.add.at(numer, codes, counts)
    return np.log(numer) - np.log(total + alpha * dom)


def _count_at(codes: np.ndarray, counts: np.ndarray, code: int) -> float:
    hit = np.flatnonzero(codes == code)
    return float(counts[hit[0]]) if len(hit) else 0.0


def _loo_log(count: float, total: float, dom: int, alpha: float) -> float:
    c = max(count - 1.0, 0.0)
    t = max(total - 1.0, 0.0)
    return float(np.log(c + alpha) - np.log(t + alpha * dom))


def _parent_factor(model: FittedModel, caches: _Caches, j: str,
                   row_val: dict):
    """(log Pr[c | parents(A_j)] vector, (codes, counts, total) entry)
    or None when the factor is uniform: parentless node, a missing
    parent value, or an unseen parent configuration (§6.1's
    isolated-node rule — the sub-network carries no evidence)."""
    pars = model.parents[j]
    if not pars:
        return None
    vals = tuple(row_val[p] for p in pars)
    if any(v == "" for v in vals):
        return None
    key = (j, vals)
    hit = caches.parent.get(key, False)
    if hit is not False:
        return hit
    entry = model.cpt[j].get(vals)
    if entry is None:
        caches.parent[key] = None
        return None
    codes, counts, total = entry
    vec = _smoothed_log_vec(model.dom_size(j), codes, counts, total,
                            model.alpha)
    out = (vec, entry)
    caches.parent[key] = out
    return out


def _child_factor(model: FittedModel, caches: _Caches, j: str, ch: str,
                  row_val: dict):
    """(log Pr[t_child | c, co-parents] vector over candidates c,
    numer entry, denom entry) or None when the factor is uninformative."""
    e = row_val[ch]
    if e == "":
        return None
    copa_cols = [p for p in model.parents[ch] if p != j]
    copa = tuple(row_val[p] for p in copa_cols)
    if any(v == "" for v in copa):
        return None
    key = (j, ch, copa, e)
    hit = caches.child.get(key, False)
    if hit is not False:
        return hit
    tot_entry = model.childtot[(ch, j)].get(copa)
    if tot_entry is None:
        caches.child[key] = None  # no observations at all: uniform, skip
        return None
    dom = model.dom_size(j)
    dom_ch = model.dom_size(ch)
    alpha = model.alpha
    t_codes, t_totals = tot_entry
    denom = np.full(dom, alpha * dom_ch)
    np.add.at(denom, t_codes, t_totals)
    numer = np.full(dom, alpha)
    v_entry = model.childview[(ch, j)].get((copa, e))
    if v_entry is not None:
        v_codes, v_counts = v_entry
        np.add.at(numer, v_codes, v_counts)
    vec = np.log(numer) - np.log(denom)
    out = (vec, v_entry, tot_entry)
    caches.child[key] = out
    return out


def _node_scalar(model: FittedModel, caches: _Caches, v: str,
                 row_val: dict) -> float:
    """log Pr[t_v | parents(v)] — a candidate-independent factor, used
    only by the naive full-network ("base") variant. A parentless node,
    or a missing or unseen parent config, falls back to the marginal
    ``counts[v]``."""
    tv = row_val[v]
    if tv == "":
        return 0.0
    code = model.code[v].get(tv)
    if code is None:
        return 0.0
    vals = tuple(row_val[p] for p in model.parents[v])
    cfg = None if "" in vals else vals
    key = (v, cfg, tv)
    hit = caches.scalar.get(key)
    if hit is not None:
        return hit
    dom = model.dom_size(v)
    entry = model.cpt[v].get(cfg) if cfg is not None else None
    # naive evaluation: materialize the whole smoothed vector, then index
    if entry is None:
        counts = model.counts[v]
        vec = (np.log(counts + model.alpha)
               - np.log(counts.sum() + model.alpha * dom))
    else:
        codes, counts, total = entry
        vec = _smoothed_log_vec(dom, codes, counts, total, model.alpha)
    out = float(vec[code])
    caches.scalar[key] = out
    return out


def _corr_gather(model: FittedModel, caches: _Caches, j: str, k: str,
                 e: str):
    """Dense (weight, raw-count) vectors over dom(A_j) for evidence
    value e of A_k, or None when (·, e) was never observed."""
    key = (j, k, e)
    hit = caches.corr.get(key, False)
    if hit is not False:
        return hit
    entry = model.corr.lookup(j, k, e)
    if entry is None:
        caches.corr[key] = None
        return None
    codes, w, cnt = entry
    dom = model.dom_size(j)
    wd = np.zeros(dom)
    cd = np.zeros(dom)
    np.add.at(wd, codes, w)
    np.add.at(cd, codes, cnt)
    out = (wd, cd)
    caches.corr[key] = out
    return out


def _cs_term(w: np.ndarray, cnt: np.ndarray, penalty: float,
             cap: float) -> np.ndarray:
    """Smoothed compensatory score.

    Two components, mirroring the paper's derivation of Score_corr from
    BayesWipe's count(c, t): a τ-independent raw co-occurrence part
    (``cnt``) and the confidence-weighted part (``w``, Algorithm 2).
    The negative branch of the weighted part is capped: when τ is
    strict enough that most tuples are penalized, every weight sum goes
    negative and an unbounded penalty would *invert* the score
    (frequent co-occurrence = more accumulated −β). The blend keeps the
    Tables-8–10 parameter stability the paper reports.
    """
    return (0.5 * np.log1p(np.maximum(w, 0.0))
            + 0.5 * np.log1p(cnt)
            + penalty * np.maximum(np.minimum(w, 0.0), -cap))


def _clean_loop(pdf: pd.DataFrame, model: FittedModel,
                params: InferenceParams) -> pd.DataFrame:
    """Literal Algorithm 1, one cell at a time: the ``base`` variant, and
    the reference the batched PI/PIP kernel is tested against."""
    attrs = model.attrs
    caches = _Caches()
    cols = {a: pdf[a].astype(str).fillna("").to_numpy(dtype=object)
            for a in attrs}
    n = len(pdf)
    out = {a: cols[a].copy() for a in attrs}
    children = model.children
    alpha = model.alpha
    naive = params.variant == "base"
    for i in range(n):
        row_val = {a: cols[a][i] for a in attrs}
        for j in attrs:
            if naive:
                # Naive full-network variable elimination recomputes
                # every factor per cell — no reuse across cells or
                # tuples. Partitioned inference (§6.1) is what makes the
                # sub-network factor caches sound and shared; the
                # unoptimized system pays the recomputation cost the
                # paper's Table 7 reports.
                caches = _Caches()
            dom = model.dom_size(j)
            if dom == 0:
                continue
            orig = row_val[j]
            orig_code = model.code[j].get(orig, -1) if orig != "" else -1

            # --- compensatory gathers (Eq. 2), over all other attrs ---
            w_sum = np.zeros(dom)
            cnt_vecs: list[np.ndarray] = []
            evid_counts: list[float] = []
            blanket = model.network.subnetwork(j) - {j}
            blanket_cnt_vecs: list[np.ndarray] = []
            n_pairs = 0
            for k in attrs:
                if k == j:
                    continue
                e = row_val[k]
                if e == "":
                    continue
                g = _corr_gather(model, caches, j, k, e)
                if g is None:
                    continue
                wd, cd = g
                w_sum = w_sum + wd
                n_pairs += 1
                cnt_vecs.append(cd)
                ecode = model.code[k].get(e, -1)
                evid_counts.append(
                    float(model.counts[k][ecode]) if ecode >= 0 else 0.0)
                if k in blanket:
                    blanket_cnt_vecs.append(cd)

            # --- tuple pruning (PIP): skip reliable cells -------------
            if params.variant == "PIP" and orig_code >= 0:
                f = tuple_filter(orig_code, cnt_vecs, evid_counts)
                if f >= params.tau_clean:
                    continue

            # --- BN term ---------------------------------------------
            pres = _parent_factor(model, caches, j, row_val)
            loo_delta = 0.0
            if pres is None:
                score = np.zeros(dom)
            else:
                pvec, pentry = pres
                score = pvec.copy()
                if orig_code >= 0:
                    codes, counts, total = pentry
                    cnt = _count_at(codes, counts, orig_code)
                    if cnt > 0:
                        loo_delta += (_loo_log(cnt, total, dom, alpha)
                                      - pvec[orig_code])
            for ch in children[j]:
                res = _child_factor(model, caches, j, ch, row_val)
                if res is None:
                    continue
                cvec, ventry, tentry = res
                score += cvec
                if orig_code >= 0:
                    vcnt = (_count_at(ventry[0], ventry[1], orig_code)
                            if ventry is not None else 0.0)
                    tcnt = _count_at(tentry[0], tentry[1], orig_code)
                    if vcnt > 0:  # own row present in this numerator
                        dom_ch = model.dom_size(ch)
                        adj = (np.log(max(vcnt - 1.0, 0.0) + alpha)
                               - np.log(max(tcnt - 1.0, 0.0)
                                        + alpha * dom_ch))
                        loo_delta += adj - cvec[orig_code]
            if naive:
                # naive full-network evaluation: add every remaining
                # node's (candidate-constant) factor as well.
                involved = {j} | set(children[j])
                const = 0.0
                for v in attrs:
                    if v not in involved:
                        const += _node_scalar(model, caches, v, row_val)
                score = score + const

            # --- compensatory term -----------------------------------
            cnt_sum = (np.sum(cnt_vecs, axis=0) if cnt_vecs
                       else np.zeros(dom))
            cs_vec = _cs_term(w_sum, cnt_sum, params.cs_penalty,
                              params.cs_cap)
            if naive:
                # Literal Algorithm 1, line 5: score each candidate
                # c ∈ dom(A_j) one at a time. The optimized variants
                # vectorize this loop over the (partitioned, pruned)
                # candidate space; the unoptimized system cannot, which
                # is the other half of its Table-7 cost.
                total = np.empty(dom)
                for c in range(dom):
                    total[c] = score[c] + cs_vec[c]
                score = total
            else:
                score = score + cs_vec

            if orig_code < 0:
                p_orig = _NEG_INF
            elif params.use_ucs and not model.uc_ok[j][orig_code]:
                # §7.3.1: a pattern-violating value is zeroed out prior
                # to inference — the original cannot win.
                p_orig = _NEG_INF
            else:
                p_orig = score[orig_code] + loo_delta

            # --- candidate masking -----------------------------------
            cand = score
            if params.use_ucs:
                cand = np.where(model.uc_ok[j], cand, _NEG_INF)
            if params.variant == "PIP":
                keep = domain_prune_mask(
                    blanket_cnt_vecs, model.counts[j], model.n_rows,
                    top_k=params.top_k)
                cand = np.where(keep, cand, _NEG_INF)

            best = int(np.argmax(cand))
            if best == orig_code:
                continue
            if cand[best] > p_orig + params.margin and cand[best] > _NEG_INF:
                out[j][i] = model.vocab[j][best]
    res = pd.DataFrame(out)
    res.insert(0, "tid", pdf["tid"].astype(str).to_numpy())
    return res


_BLOCK = 256     # rows scored at once: on a 5000-row soccer batch, 256
                 # beat 128, 1024 and 5000
_OOV, _MISSING = -1, -2


def _encode(col: np.ndarray, code: dict[str, int]):
    """One batch column as (row → index of its distinct value, the
    distinct values, their model codes). A missing value gets code -2,
    a value outside the vocabulary -1."""
    inv, uniq = pd.factorize(col)
    ucode = np.array([_MISSING if v == "" else code.get(v, _OOV)
                      for v in uniq], dtype=np.int64)
    return inv, uniq, ucode


def _groups(enc: dict, cols: list[str]):
    """(row → group, one representative row per group) over the distinct
    value combinations of ``cols`` in the batch."""
    gid = enc[cols[0]][0]
    for c in cols[1:]:
        inv, uniq, _ = enc[c]
        gid = pd.factorize(gid * len(uniq) + inv)[0]
    rep = np.empty(gid.max(initial=-1) + 1, dtype=np.int64)
    rep[gid[::-1]] = np.arange(len(gid))[::-1]   # first row of each group
    return gid, rep


class _Rows:
    """Sparse rows over a domain of size ``dom``, sorted by (row, code).

    Row s ≥ 1 holds entry s−1 of ``entries`` — a tuple of a code array
    and ``n_vals`` value arrays, or None for an empty row; row 0 is
    empty. Where a row repeats a code, ``at`` reads its first value, as
    ``_count_at`` does."""

    def __init__(self, entries: list, dom: int, n_vals: int = 1):
        none = (np.zeros(0, dtype=np.int64),) + (np.zeros(0),) * n_vals
        entries = [none] + [none if e is None else e for e in entries]
        self.dom = dom
        self.length = np.array([len(e[0]) for e in entries])
        self.start = np.cumsum(self.length) - self.length
        codes = np.concatenate([e[0] for e in entries]).astype(np.int64)
        keys = np.repeat(np.arange(len(entries)), self.length) * dom + codes
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.codes = codes[order]
        self.vals = [np.concatenate([e[1 + i] for e in entries])[order]
                     for i in range(n_vals)]

    def at(self, slots: np.ndarray, codes: np.ndarray, i: int = 0):
        """Value ``i`` at (row ``slots[r]``, ``codes[r]``) per r; 0 where
        the row has no such code."""
        if not len(self.keys):
            return np.zeros(len(slots))
        q = slots * self.dom + codes
        pos = np.minimum(np.searchsorted(self.keys, q), len(self.keys) - 1)
        return np.where(self.keys[pos] == q, self.vals[i][pos], 0.0)

    def expand(self, slots: np.ndarray):
        """Every entry of rows ``slots``, as (position in ``slots``,
        index into ``codes``/``vals``)."""
        ln = self.length[slots]
        pos = np.repeat(np.arange(len(slots)), ln)
        first = np.repeat(self.start[slots] - np.cumsum(ln) + ln, ln)
        return pos, first + np.arange(len(pos))


def _corr_rows(model: FittedModel, j: str, k: str, uniq: np.ndarray):
    """(row of each distinct value e of A_k in the batch, ``_Rows`` of
    (candidate code of A_j, corr weight, raw count)), with one
    ``model.corr.lookup`` per distinct e; row 0 means missing or
    never-observed evidence. None when no value of A_k has an entry."""
    slot = np.zeros(len(uniq), dtype=np.int64)
    entries = []
    for u, e in enumerate(uniq):
        if e == "":
            continue
        entry = model.corr.lookup(j, k, e)
        if entry is not None:
            entries.append(entry)
            slot[u] = len(entries)
    if not entries:
        return None
    return slot, _Rows(entries, model.dom_size(j), n_vals=2)


def _loo_adjust(cnt, total, dom_f, alpha, vec_at_orig) -> np.ndarray:
    """Row-wise form of the loop's leave-one-out correction at the
    original code: log((cnt−1)+α) − log((total−1)+α·dom_f) − vec[orig]."""
    return (np.log(np.maximum(cnt - 1.0, 0.0) + alpha)
            - np.log(np.maximum(total - 1.0, 0.0) + alpha * dom_f)
            - vec_at_orig)


def _bn_factors(model: FittedModel, cols: dict, enc: dict, j: str,
                oc0: np.ndarray, has_orig: np.ndarray):
    """The BN term of ``j`` for every row of the batch: the parent-factor
    table and each row's row in it, the same for every child, and each
    row's leave-one-out delta at its original code (parent first, then
    children in order, as the loop adds them)."""
    dom = model.dom_size(j)
    alpha = model.alpha
    n = len(oc0)
    caches = _Caches()
    prow = np.zeros(n, dtype=np.int64)
    ptab = np.zeros((1, dom))
    delta = np.zeros(n)
    pars = model.parents[j]
    if pars:
        gid, rep = _groups(enc, pars)
        slot = np.zeros(len(rep), dtype=np.int64)
        vecs, entries = [np.zeros(dom)], []
        for g, r in enumerate(rep):
            res = _parent_factor(model, caches, j,
                                 {p: cols[p][r] for p in pars})
            if res is not None:
                vecs.append(res[0])
                entries.append(res[1])
                slot[g] = len(entries)
        prow = slot[gid]
        ptab = np.vstack(vecs)
        total = np.array([0.0] + [e[2] for e in entries])[prow]
        cnt = _Rows(entries, dom).at(prow, oc0)
        adj = _loo_adjust(cnt, total, dom, alpha, ptab[prow, oc0])
        delta = delta + np.where(has_orig & (cnt > 0), adj, 0.0)
    kids = []   # (row per batch row, child-factor table)
    for ch in model.children[j]:
        keycols = [p for p in model.parents[ch] if p != j] + [ch]
        gid, rep = _groups(enc, keycols)
        slot = np.zeros(len(rep), dtype=np.int64)
        vecs, ventries = [np.zeros(dom)], []
        tots, tot_row, tslot = [], {}, [0]   # totals once per co-parent config
        for g, r in enumerate(rep):
            row_val = {c: cols[c][r] for c in keycols}
            res = _child_factor(model, caches, j, ch, row_val)
            if res is not None:
                vecs.append(res[0])
                ventries.append(res[1])
                copa = tuple(row_val[c] for c in keycols[:-1])
                if copa not in tot_row:
                    tots.append(res[2])
                    tot_row[copa] = len(tots)
                tslot.append(tot_row[copa])
                slot[g] = len(vecs) - 1
        crow = slot[gid]
        ctab = np.vstack(vecs)
        vcnt = _Rows(ventries, dom).at(crow, oc0)
        tcnt = _Rows(tots, dom).at(np.array(tslot)[crow], oc0)
        adj = _loo_adjust(vcnt, tcnt, model.dom_size(ch), alpha,
                          ctab[crow, oc0])
        delta = delta + np.where(has_orig & (vcnt > 0), adj, 0.0)
        kids.append((crow, ctab))
    return prow, ptab, kids, delta


def _repair_attr(model: FittedModel, params: InferenceParams,
                 cols: dict, enc: dict, j: str, out_j: np.ndarray) -> None:
    """Score and repair every cell of attribute ``j`` in the batch.

    Factors are built once per distinct value or configuration, then
    rows are scored in blocks of ``_BLOCK`` as (rows × dom) matrices,
    accumulated in the loop's order — corr weights over ``attrs``,
    parent, children, CS term — so scores, and hence repairs, are
    bit-identical to ``_clean_loop``."""
    dom = model.dom_size(j)
    n = len(out_j)
    oc = enc[j][2][enc[j][0]]
    has_orig = oc >= 0
    oc0 = np.where(has_orig, oc, 0)

    # --- compensatory entries (Eq. 2), one set per evidence attribute -
    corr = []   # (k, row per batch row, _Rows of (code, w, cnt))
    for k in model.attrs:
        if k != j:
            res = _corr_rows(model, j, k, enc[k][1])
            if res is not None:
                corr.append((k, res[0][enc[k][0]], res[1]))

    prow, ptab, kids, delta = _bn_factors(model, cols, enc, j, oc0, has_orig)

    # --- PIP: tuple filter for every row, before any scoring ----------
    pip = params.variant == "PIP"
    active = np.arange(n)
    blanket = model.network.subnetwork(j) - {j} if pip else set()
    if pip:
        cnt_at = np.zeros((n, len(corr)))
        denom = np.zeros((n, len(corr)))
        has_blanket = np.zeros(n, dtype=bool)
        for i, (k, krow, rows) in enumerate(corr):
            ecode = enc[k][2][enc[k][0]]
            found = has_orig & (krow > 0) & (ecode >= 0)
            cnt_at[:, i] = rows.at(krow, oc0, 1)
            denom[:, i] = np.where(
                found, model.counts[k][np.maximum(ecode, 0)], 0.0)
            if k in blanket:
                has_blanket |= krow > 0
        f = tuple_filter_rows(cnt_at, denom)
        active = np.flatnonzero(~has_orig | (f < params.tau_clean))

    # --- score the remaining rows block by block ----------------------
    uc = model.uc_ok[j]
    for s in range(0, len(active), _BLOCK):
        r = active[s:s + _BLOCK]
        b = np.arange(len(r))
        w_sum = np.zeros(len(r) * dom)
        cnt_sum = np.zeros(len(r) * dom)
        ctx = np.zeros(len(r) * dom) if pip else None
        for k, krow, rows in corr:
            pos, src = rows.expand(krow[r])
            at = pos * dom + rows.codes[src]
            cnt = rows.vals[1][src]
            np.add.at(w_sum, at, rows.vals[0][src])
            np.add.at(cnt_sum, at, cnt)
            if k in blanket:
                # a float operand: ufunc.at is ~25x slower on a bool one
                np.add.at(ctx, at, (cnt > 0).astype(np.float64))
        score = ptab[prow[r]]
        for crow, ctab in kids:
            score += ctab[crow[r]]
        score += _cs_term(w_sum, cnt_sum, params.cs_penalty,
                          params.cs_cap).reshape(len(r), dom)

        o, o0 = oc[r], oc0[r]
        ok = o >= 0
        if params.use_ucs:
            # §7.3.1: a pattern-violating original cannot win
            ok &= uc[o0]
        p_orig = np.where(ok, score[b, o0] + delta[r], _NEG_INF)
        cand = np.where(uc, score, _NEG_INF) if params.use_ucs else score
        if pip:
            keep = domain_prune_rows(ctx.reshape(len(r), dom),
                                     has_blanket[r], model.counts[j],
                                     model.n_rows, top_k=params.top_k)
            cand = np.where(keep, cand, _NEG_INF)
        best = cand.argmax(axis=1)
        top = cand[b, best]
        fix = (best != o) & (top > p_orig + params.margin) & (top > _NEG_INF)
        out_j[r[fix]] = model.vocab[j][best[fix]]


def clean_batch(pdf: pd.DataFrame, model: FittedModel,
                params: InferenceParams) -> pd.DataFrame:
    """Algorithm 1 over one batch of tuples. Returns the repaired batch."""
    if params.variant == "base":
        return _clean_loop(pdf, model, params)
    attrs = model.attrs
    cols = {a: pdf[a].astype(str).fillna("").to_numpy(dtype=object)
            for a in attrs}
    enc = {a: _encode(cols[a], model.code[a]) for a in attrs}
    out = {a: cols[a].copy() for a in attrs}
    for j in attrs:
        if model.dom_size(j):
            _repair_attr(model, params, cols, enc, j, out[j])
    res = pd.DataFrame(out)
    res.insert(0, "tid", pdf["tid"].astype(str).to_numpy())
    return res


def run_inference(spark: SparkSession, dirty: DataFrame, model: FittedModel,
                  params: InferenceParams) -> pd.DataFrame:
    """Distribute Algorithm 1 over the cluster via mapInPandas."""
    bc = spark.sparkContext.broadcast(model)
    schema = dirty.select("tid", *model.attrs).schema

    def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        m = bc.value
        for pdf in batches:
            yield clean_batch(pdf, m, params)

    n_parts = max(2, spark.sparkContext.defaultParallelism)
    out = (
        dirty.select("tid", *model.attrs)
        .repartition(n_parts)
        .mapInPandas(kernel, schema=schema)
        .toPandas()
    )
    bc.unpersist()
    numeric = out["tid"].str.fullmatch(r"[+-]?\d+").all()
    key = (lambda s: s.astype(int)) if numeric else None
    return out.sort_values("tid", key=key).reset_index(drop=True)

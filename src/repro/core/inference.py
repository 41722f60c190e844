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

Numerical choices beyond the paper's pseudocode (DESIGN.md §1):

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

The kernel reads a batch of value codes (``model.encode_frame``) and
returns its change list, one (tid, attr, new value code) row per
repaired cell; the driver decodes the changes (``apply_repairs``).
``run_inference`` distributes it: the code frame ``BClean.fit`` keeps
travels in the same Spark broadcast as the fitted model, and one
``mapInPandas`` task per core scores one block of its rows.
``repairs`` encodes a batch of strings and runs the same kernel on the
driver. Both implementations share the factor formulas:

* ``base`` runs ``_clean_loop``, the literal per-cell loop over rows ×
  attributes. It is also the reference the batched kernel is tested
  against (``tests/test_inference.py``), for every variant.
* ``PI`` / ``PIP`` run ``_clean_kernel``, one batched numpy kernel. Per
  target attribute, each factor vector is built once per distinct table
  row the batch reads, and factors are summed in the loop's order, so
  repairs are bit-identical to the loop's. PI scores rows in blocks as
  (rows × dom) matrices. PIP computes the tuple filter for every row
  first, so skipped cells are never scored, and then scores only the
  candidates domain pruning keeps: for a cell with blanket evidence,
  the kept candidates come straight from its blanket corr rows, and it
  is scored at those and at its original value; a cell without blanket
  evidence keeps its whole domain and is scored as in PI.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from .model import FittedModel, MISSING, config_key, config_keys, encode_frame
from .pruning import (domain_prune_mask, domain_prune_pairs, tuple_filter,
                      tuple_filter_rows)

__all__ = ["InferenceParams", "repairs", "apply_repairs", "clean_batch",
           "run_inference"]

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class InferenceParams:
    variant: str = "PI"          # "base" | "PI" | "PIP"
    use_ucs: bool = True
    tau_clean: float = 0.35      # tuple-pruning threshold (PIP)
    top_k: int = 32              # domain-pruning candidate budget (PIP)
    margin: float = 3.0          # min score advantage to overwrite

    def __post_init__(self):
        if self.variant not in ("base", "PI", "PIP"):
            raise ValueError(f"unknown variant {self.variant!r}")


class _Caches:
    """Per-partition gather caches, keyed by value codes."""

    def __init__(self):
        self.parent: dict = {}
        self.child: dict = {}
        self.corr: dict = {}
        self.scalar: dict = {}


def _log_ratio(num, den, alpha: float, dom_f: int) -> np.ndarray:
    """A smoothed log factor: log(num + α) − log(den + α·dom_f)."""
    return np.log(num + alpha) - np.log(den + alpha * dom_f)


def _loo_adjust(cnt, total, dom_f, alpha, vec_at_orig) -> np.ndarray:
    """The leave-one-out correction at the original code, one cell or a
    row per cell: log((cnt−1)+α) − log((total−1)+α·dom_f) − vec[orig]."""
    return (np.log(np.maximum(cnt - 1.0, 0.0) + alpha)
            - np.log(np.maximum(total - 1.0, 0.0) + alpha * dom_f)
            - vec_at_orig)


def _key(model: FittedModel, cols: list[str], row: dict) -> int:
    """``config_key`` of the codes ``row`` holds for ``cols``."""
    return int(config_key(np.array([[row[c] for c in cols]], dtype=np.int64),
                          [model.dom_size(c) for c in cols])[0])


def _parent_factor(model: FittedModel, caches: _Caches, j: str, row: dict):
    """(log Pr[c | parents(A_j)] vector, count vector, total) or None
    when the factor is uniform: parentless node, a missing or unknown
    parent value, or an unseen parent configuration (§6.1's
    isolated-node rule — the sub-network carries no evidence). ``row``
    maps each attribute to the tuple's value code."""
    pars = model.parents[j]
    if not pars:
        return None
    key = (j, tuple(row[p] for p in pars))
    if key not in caches.parent:
        table = model.cpt[j]
        r = table.find(_key(model, pars, row))
        out = None
        if r >= 0:
            cnt = table.dense([r])[0]
            total = cnt.sum()
            out = (_log_ratio(cnt, total, model.alpha, len(cnt)), cnt, total)
        caches.parent[key] = out
    return caches.parent[key]


def _child_factor(model: FittedModel, caches: _Caches, j: str, ch: str,
                  row: dict):
    """(log Pr[t_child | c, co-parents] vector over candidates c, view
    counts, co-parent totals) or None when the factor is uninformative."""
    if row[ch] == MISSING:
        return None
    copa = [p for p in model.parents[ch] if p != j]
    key = (j, ch, tuple(row[p] for p in copa), row[ch])
    if key not in caches.child:
        view, tot = model.childview[(ch, j)], model.childtot[(ch, j)]
        tr = tot.find(_key(model, copa, row))
        out = None   # no observations at all: uniform, skip
        if tr >= 0:
            vr = view.find(_key(model, copa + [ch], row))
            vcnt, tcnt = view.dense([vr])[0], tot.dense([tr])[0]
            out = (_log_ratio(vcnt, tcnt, model.alpha, model.dom_size(ch)),
                   vcnt, tcnt)
        caches.child[key] = out
    return caches.child[key]


def _node_scalar(model: FittedModel, caches: _Caches, v: str,
                 row: dict) -> float:
    """log Pr[t_v | parents(v)] — a candidate-independent factor, used
    only by the naive full-network ("base") variant. A parentless node,
    or a missing or unseen parent config, falls back to the marginal
    ``counts[v]``."""
    tv = row[v]
    if tv < 0:
        return 0.0
    pars = model.parents[v]
    key = (v, tuple(row[p] for p in pars), tv)
    if key not in caches.scalar:
        r = model.cpt[v].find(_key(model, pars, row))
        cnt = model.counts[v] if r < 0 else model.cpt[v].dense([r])[0]
        # naive: materialize the whole smoothed vector, then index it
        caches.scalar[key] = float(
            _log_ratio(cnt, cnt.sum(), model.alpha, len(cnt))[tv])
    return caches.scalar[key]


def _corr_gather(model: FittedModel, caches: _Caches, j: str, k: str,
                 e: int):
    """Dense (weight, raw-count) vectors over dom(A_j) for evidence
    value code e of A_k, or None when (·, e) was never observed."""
    key = (j, k, e)
    if key not in caches.corr:
        entry = model.corr.lookup(j, k, e)   # (codes, w, cnt), codes unique
        caches.corr[key] = None if entry is None else tuple(
            np.bincount(entry[0], v, model.dom_size(j)) for v in entry[1:])
    return caches.corr[key]


_CS_PENALTY = 0.1   # slope of the negative-weight CS branch
_CS_CAP = 5.0       # floor (in weight units) of that branch


def _cs_term(w: np.ndarray, cnt: np.ndarray) -> np.ndarray:
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
            + _CS_PENALTY * np.maximum(np.minimum(w, 0.0), -_CS_CAP))


def _clean_loop(codes: pd.DataFrame, model: FittedModel,
                params: InferenceParams) -> list:
    """Literal Algorithm 1, one cell at a time, over a batch of value
    codes (``model.encode_frame``): the ``base`` variant, and the
    reference the batched PI/PIP kernel is tested against. Returns its
    repairs as (tid, attr, code) triples."""
    attrs = model.attrs
    caches = _Caches()
    children = model.children
    alpha = model.alpha
    naive = params.variant == "base"
    fixed = []
    for tid, vals in zip(codes.index, codes[attrs].to_numpy().tolist()):
        row = dict(zip(attrs, vals))
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
            orig_code = row[j]

            # --- compensatory gathers (Eq. 2), over all other attrs ---
            w_sum = np.zeros(dom)
            cnt_vecs: list[np.ndarray] = []
            evid_counts: list[float] = []
            blanket = set(model.parents[j]) | set(children[j])
            blanket_cnt_vecs: list[np.ndarray] = []
            for k in attrs:
                if k == j:
                    continue
                e = row[k]
                g = None if e < 0 else _corr_gather(model, caches, j, k, e)
                if g is None:
                    continue
                wd, cd = g
                w_sum = w_sum + wd
                cnt_vecs.append(cd)
                evid_counts.append(float(model.counts[k][e]))
                if k in blanket:
                    blanket_cnt_vecs.append(cd)

            # --- tuple pruning (PIP): skip reliable cells -------------
            if params.variant == "PIP" and orig_code >= 0:
                f = tuple_filter(orig_code, cnt_vecs, evid_counts)
                if f >= params.tau_clean:
                    continue

            # --- BN term ---------------------------------------------
            pres = _parent_factor(model, caches, j, row)
            loo_delta = 0.0
            if pres is None:
                score = np.zeros(dom)
            else:
                pvec, pcnt, total = pres
                score = pvec.copy()
                if orig_code >= 0:
                    cnt = pcnt[orig_code]
                    if cnt > 0:
                        loo_delta += _loo_adjust(cnt, total, dom, alpha,
                                                 pvec[orig_code])
            for ch in children[j]:
                res = _child_factor(model, caches, j, ch, row)
                if res is None:
                    continue
                cvec, vcnts, tcnts = res
                score += cvec
                # own row present in this numerator
                if orig_code >= 0 and vcnts[orig_code] > 0:
                    loo_delta += _loo_adjust(
                        vcnts[orig_code], tcnts[orig_code],
                        model.dom_size(ch), alpha, cvec[orig_code])
            if naive:
                # naive full-network evaluation: add every remaining
                # node's (candidate-constant) factor as well.
                involved = {j} | set(children[j])
                const = 0.0
                for v in attrs:
                    if v not in involved:
                        const += _node_scalar(model, caches, v, row)
                score = score + const

            # --- compensatory term -----------------------------------
            cnt_sum = (np.sum(cnt_vecs, axis=0) if cnt_vecs
                       else np.zeros(dom))
            cs_vec = _cs_term(w_sum, cnt_sum)
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
                fixed.append((tid, j, best))
    return fixed


_BLOCK = 256     # rows scored at once: on a 5000-row soccer batch, 256
                 # beat 128, 1024 and 5000


def _bn_factors(model: FittedModel, codes: pd.DataFrame, j: str,
                oc0: np.ndarray, has_orig: np.ndarray):
    """The BN term of ``j`` for every row of the batch: the parent-factor
    table (one row per distinct model-table row read; zeros where the
    factor is uniform) and each row's row in it, the same for every
    child, and each row's leave-one-out delta, summed in the loop's order."""
    dom = model.dom_size(j)
    alpha = model.alpha
    n = len(oc0)
    prow = np.zeros(n, dtype=np.int64)
    ptab = np.zeros((1, dom))
    delta = np.zeros(n)
    pars = model.parents[j]
    if pars:
        table = model.cpt[j]
        rows, prow = np.unique(
            table.find(config_keys(codes, pars, model.code)),
            return_inverse=True)
        cnt = table.dense(rows)
        total = cnt.sum(axis=1, keepdims=True)
        ptab = _log_ratio(cnt, total, alpha, dom)
        ptab[rows < 0] = 0.0
        c = cnt[prow, oc0]
        adj = _loo_adjust(c, total[prow, 0], dom, alpha, ptab[prow, oc0])
        delta += np.where(has_orig & (c > 0), adj, 0.0)
    kids = []   # (row per batch row, child-factor table)
    for ch in model.children[j]:
        copa = [p for p in model.parents[ch] if p != j]
        view, tot = model.childview[(ch, j)], model.childtot[(ch, j)]
        trow = np.where(codes[ch].to_numpy() == MISSING, -1,
                        tot.find(config_keys(codes, copa, model.code)))
        vrow = view.find(config_keys(codes, copa + [ch], model.code))
        # one factor per distinct (co-parent row, view row); -1: none
        width = len(view) + 1
        pair = np.where(trow >= 0, trow * width + vrow + 1, -1)
        pairs, crow = np.unique(pair, return_inverse=True)
        trows = np.where(pairs >= 0, pairs // width, -1)
        vrows = np.where(pairs >= 0, pairs % width - 1, -1)
        vcnt, tcnt = view.dense(vrows), tot.dense(trows)
        vc, tc = vcnt[crow, oc0], tcnt[crow, oc0]
        dom_ch = model.dom_size(ch)
        ctab = _log_ratio(vcnt, tcnt, alpha, dom_ch)
        ctab[trows < 0] = 0.0
        adj = _loo_adjust(vc, tc, dom_ch, alpha, ctab[crow, oc0])
        delta += np.where(has_orig & (vc > 0), adj, 0.0)
        kids.append((crow, ctab))
    return prow, ptab, kids, delta


def _pair_scores(ptab, prow, kids, corr, rows, cand) -> np.ndarray:
    """Score of candidate code ``cand[i]`` for batch row ``rows[i]``: the
    parent factor, then each child's, then the CS term over the corr
    weights summed over ``attrs`` — the loop's order, so each score is
    bit-identical to its entry of the dense (rows × dom) matrix (an
    absent corr entry adds 0.0, which is exact)."""
    score = ptab[prow[rows], cand]
    for crow, ctab in kids:
        score += ctab[crow[rows], cand]
    w_sum = np.zeros(len(rows))
    cnt_sum = np.zeros(len(rows))
    for _, table, krow in corr:
        w, cnt = table.at(krow[rows], cand)
        w_sum += w
        cnt_sum += cnt
    return score + _cs_term(w_sum, cnt_sum)


def _kept_candidates(model: FittedModel, j: str, top_k: int,
                     blanket: list, rows: np.ndarray):
    """§6.2 domain pruning of ``j`` for batch rows ``rows`` with blanket
    evidence, whose corr rows are ``blanket`` [(table, row per batch
    row)]: the surviving (position in ``rows``, candidate code) pairs,
    sorted. A candidate's context is the number of those corr rows in
    which it has a positive count."""
    dom = model.dom_size(j)
    keys = []
    for table, krow in blanket:
        pos, src = table.expand(krow[rows])
        seen = table.vals[1][src] > 0
        keys.append(pos[seen] * dom + table.codes[src][seen])
    key = np.sort(np.concatenate(keys))
    first = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
    context = np.diff(np.append(first, len(key)))
    pos, cand = np.divmod(key[first], dom)
    keep = domain_prune_pairs(pos, cand, context, model.counts[j],
                              model.n_rows, top_k=top_k)
    return pos[keep], cand[keep]


def _repair_attr(model: FittedModel, params: InferenceParams,
                 codes: pd.DataFrame, j: str, fixed: list) -> None:
    """Score every cell of attribute ``j`` in the batch, and add its
    repairs to ``fixed`` as (tid, ``j``, code).

    PI rows, and PIP rows without blanket evidence (domain pruning keeps
    their whole domain), are scored in blocks of ``_BLOCK`` rows as
    (rows × dom) matrices, accumulated in the loop's order: parent,
    children, then the CS term over corr weights summed over ``attrs``.
    PIP rows with blanket evidence are scored only at their kept
    candidates and their original value, in the same order
    (``_pair_scores``). Either way repairs are bit-identical to
    ``_clean_loop``."""
    dom = model.dom_size(j)
    n = len(codes)
    oc = codes[j].to_numpy()
    has_orig = oc >= 0
    oc0 = np.where(has_orig, oc, 0)

    # --- compensatory rows (Eq. 2), one table per evidence attribute --
    corr = []   # (k, table of (code, w, cnt) entries, row per batch row)
    for k in model.attrs:
        table = model.corr.tables.get((j, k))
        if k != j and table is not None:
            corr.append((k, table, table.find(codes[k].to_numpy())))

    prow, ptab, kids, delta = _bn_factors(model, codes, j, oc0, has_orig)

    # --- PIP: tuple filter for every row, before any scoring ----------
    dense = np.arange(n)     # rows scored over the whole domain
    pruned = dense[:0]       # rows scored over their kept candidates
    if params.variant == "PIP":
        blanket = set(model.parents[j]) | set(model.children[j])
        cnt_at = np.zeros((n, len(corr)))
        denom = np.zeros((n, len(corr)))
        has_blanket = np.zeros(n, dtype=bool)
        for i, (k, table, krow) in enumerate(corr):
            ecode = np.maximum(codes[k].to_numpy(), 0)
            cnt_at[:, i] = table.at(krow, oc0)[1]
            denom[:, i] = np.where(has_orig & (krow >= 0),
                                   model.counts[k][ecode], 0.0)
            if k in blanket:
                has_blanket |= krow >= 0
        f = tuple_filter_rows(cnt_at, denom)
        active = ~has_orig | (f < params.tau_clean)
        dense = np.flatnonzero(active & ~has_blanket)
        pruned = np.flatnonzero(active & has_blanket)

    uc = model.uc_ok[j] if params.use_ucs else np.ones(dom, dtype=bool)

    def orig_score(r, score_at_orig):
        # §7.3.1: a pattern-violating original cannot win
        return np.where(has_orig[r] & uc[oc0[r]], score_at_orig + delta[r],
                        _NEG_INF)

    def repair(r, best, top, p_orig):
        fix = ((best != oc[r]) & (top > p_orig + params.margin)
               & (top > _NEG_INF))
        fixed.extend(zip(codes.index[r[fix]], [j] * fix.sum(), best[fix]))

    # --- whole domain, block by block ---------------------------------
    for s in range(0, len(dense), _BLOCK):
        r = dense[s:s + _BLOCK]
        b = np.arange(len(r))
        w_sum = np.zeros(len(r) * dom)
        cnt_sum = np.zeros(len(r) * dom)
        for _, table, krow in corr:
            pos, src = table.expand(krow[r])
            at = pos * dom + table.codes[src]
            np.add.at(w_sum, at, table.vals[0][src])
            np.add.at(cnt_sum, at, table.vals[1][src])
        score = ptab[prow[r]]
        for crow, ctab in kids:
            score += ctab[crow[r]]
        score += _cs_term(w_sum, cnt_sum).reshape(len(r), dom)
        cand = np.where(uc, score, _NEG_INF)
        best = cand.argmax(axis=1)
        repair(r, best, cand[b, best], orig_score(r, score[b, oc0[r]]))

    # --- kept candidates only -----------------------------------------
    if len(pruned):
        pos, cand = _kept_candidates(
            model, j, params.top_k,
            [(table, krow) for k, table, krow in corr if k in blanket],
            pruned)
        # the kept candidates, then every row's original value
        score = _pair_scores(ptab, prow, kids, corr,
                             np.concatenate([pruned[pos], pruned]),
                             np.concatenate([cand, oc0[pruned]]))
        at_orig = score[len(pos):]
        score = np.where(uc[cand], score[:len(pos)], _NEG_INF)
        # per row, the best score and the lowest code reaching it (the
        # dense argmax's tie rule)
        rows, first, size = np.unique(pos, return_index=True,
                                      return_counts=True)
        top = np.maximum.reduceat(score, first)
        at_top = score == np.repeat(top, size)
        best = np.minimum.reduceat(np.where(at_top, cand, dom), first)
        r = pruned[rows]
        repair(r, best, top, orig_score(r, at_orig[rows]))


def _clean_kernel(codes: pd.DataFrame, model: FittedModel,
                  params: InferenceParams) -> list:
    """The batched PI/PIP kernel: ``_clean_loop``'s repairs."""
    fixed = []
    for j in model.attrs:
        if model.dom_size(j):
            _repair_attr(model, params, codes, j, fixed)
    return fixed


def _changes(codes: pd.DataFrame, model: FittedModel,
             params: InferenceParams) -> pd.DataFrame:
    """The change list of a batch of value codes indexed by tid."""
    clean = _clean_loop if params.variant == "base" else _clean_kernel
    out = pd.DataFrame(clean(codes, model, params),
                       columns=["tid", "attr", "code"])
    return out.astype({"code": np.int64})


def repairs(pdf: pd.DataFrame, model: FittedModel,
            params: InferenceParams) -> pd.DataFrame:
    """Algorithm 1 over one batch of tuples whose cells are strings, ""
    for missing (``model.normalize_missing``, as ``BClean.fit`` leaves
    them): the change list, one (``tid`` as ``str``, ``attr``, ``code``
    of the new value in ``model.vocab[attr]``) row per repaired cell."""
    return _changes(encode_frame(pdf, model.code), model, params)


def apply_repairs(frame: pd.DataFrame, changes: pd.DataFrame,
                  vocab: dict[str, np.ndarray]) -> pd.DataFrame:
    """``frame`` (unique ``str`` tids, string cells) with the ``repairs``
    change list decoded into a copy of it, indexed from 0."""
    out = frame.reset_index(drop=True)
    at = pd.Index(out["tid"]).get_indexer(changes["tid"])
    code = changes["code"].to_numpy()
    for a, i in changes.groupby("attr", sort=False).indices.items():
        col = out[a].to_numpy(dtype=object, copy=True)
        col[at[i]] = vocab[a][code[i]]
        out[a] = col
    return out


def clean_batch(pdf: pd.DataFrame, model: FittedModel,
                params: InferenceParams) -> pd.DataFrame:
    """The repaired batch: ``repairs`` applied to ``pdf``'s tids (as
    ``str``) and attributes."""
    frame = pdf[["tid", *model.attrs]].astype(object).astype({"tid": str})
    return apply_repairs(frame, repairs(pdf, model, params), model.vocab)


def run_inference(spark: SparkSession, codes: pd.DataFrame,
                  model: FittedModel, params: InferenceParams) -> pd.DataFrame:
    """Distribute Algorithm 1 over the cluster via mapInPandas: the change
    list of every row of ``codes`` (``model.encode_frame`` of the dirty
    frame, as ``BClean.fit`` keeps it), in no particular order. The code
    frame travels in the model's broadcast, and each of one task per core
    scores one contiguous block of its rows."""
    bc = spark.sparkContext.broadcast((model, codes))
    tasks = spark.sparkContext.defaultParallelism

    def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        m, frame = bc.value
        n = len(frame)
        for pdf in batches:
            for i in pdf["id"].tolist():
                yield _changes(frame.iloc[i * n // tasks:(i + 1) * n // tasks],
                               m, params)

    try:
        schema = "tid string, attr string, code long"
        return (spark.range(tasks, numPartitions=tasks)
                .mapInPandas(kernel, schema=schema).toPandas())
    finally:
        # also deletes the driver's pickled copy, which unpersist keeps
        bc.destroy()

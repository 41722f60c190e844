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
broadcast. All per-candidate math is dense numpy over the attribute
domain; repeated evidence values hit per-partition gather caches.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from .model import FittedModel
from .pruning import domain_prune_mask, tuple_filter

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


def clean_batch(pdf: pd.DataFrame, model: FittedModel,
                params: InferenceParams) -> pd.DataFrame:
    """Algorithm 1 over one batch of tuples. Returns the repaired batch."""
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
    return out.sort_values("tid", key=lambda s: s.astype(int)).reset_index(drop=True)

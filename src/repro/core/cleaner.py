"""BClean facade: construction stage + inference stage (paper §3).

Usage::

    bc = BClean(variant="PI")                  # or "base", "PIP"
    bc.fit(spark, task.dirty, ucs=task.ucs,
           numeric_attrs=task.numeric_attrs, bn_edits=task.bn_edits)
    repaired = bc.clean()                      # pandas, same schema

Construction stage: FDX-style structure learning over Spark-built
similarity observations (§4), optional user edits on the learned
network (add/remove edge — §4/§7.3.2), CPT estimation and the
compensatory-score statistics (Algorithm 2) via Spark aggregations.

Inference stage: Algorithm 1 distributed with ``mapInPandas``
(``inference.py``), in one of the paper's variants:

* ``variant="base"``  — BClean (unoptimized full-network inference)
* ``variant="PI"``    — BClean_PI (partitioned inference)
* ``variant="PIP"``   — BClean_PIP (partitioning + tuple/domain pruning)
* ``use_ucs=False``   — BClean_-UC (no user constraints anywhere)
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from .compensatory import build_corr_index, corr_counts
from .constraints import UC
from .cpt import cpt_counts, value_counts
from .inference import InferenceParams, run_inference
from .model import (FittedModel, build_child_views, build_cpt_table,
                    build_vocab)
from .network import BayesianNetwork, CycleError
from .structure import (edge_determinism, learn_skeleton,
                        similarity_observations)

__all__ = ["BClean"]


class BClean:
    """The BClean data cleaning system (automatic BN + compensatory score)."""

    def __init__(
        self,
        variant: str = "PI",
        *,
        use_ucs: bool = True,
        lam: float = 1.0,
        beta: float = 2.0,
        tau: float = 0.5,
        alpha: float = 0.1,
        rho: float = 0.05,
        weight_threshold: float = 0.12,
        max_parents: int = 3,
        tau_clean: float = 0.35,
        top_k: int = 32,
        margin: float = 3.0,
        struct_sample: int = 4000,
        det_threshold: float = 0.5,
        min_support: float = 2.0,
    ):
        self.params = InferenceParams(
            variant=variant, use_ucs=use_ucs, tau_clean=tau_clean,
            top_k=top_k, margin=margin)
        self.lam, self.beta, self.tau = lam, beta, tau
        self.alpha = alpha
        self.rho = rho
        self.weight_threshold = weight_threshold
        self.max_parents = max_parents
        self.struct_sample = struct_sample
        self.det_threshold = det_threshold
        self.min_support = min_support
        self.model: FittedModel | None = None
        self.network: BayesianNetwork | None = None
        self._spark: SparkSession | None = None
        self._dirty_sdf = None

    # ------------------------------------------------------------------
    def fit(
        self,
        spark: SparkSession,
        dirty: pd.DataFrame,
        *,
        ucs: dict[str, UC] | None = None,
        numeric_attrs: set[str] | frozenset[str] = frozenset(),
        bn_edits: list[tuple] | None = None,
        network: BayesianNetwork | None = None,
    ) -> "BClean":
        if "tid" not in dirty.columns:
            raise ValueError("the dirty frame needs a 'tid' column that "
                             "identifies each tuple")
        dup = dirty["tid"].astype(str).duplicated()
        if dup.any():
            raise ValueError("duplicate tid values, e.g. "
                             f"{dirty['tid'][dup].iloc[0]!r}")
        ucs = dict(ucs or {})
        if not self.params.use_ucs:
            ucs = {}
        attrs = [c for c in dirty.columns if c != "tid"]
        self._spark = spark
        sdf = spark.createDataFrame(dirty).cache()
        self._dirty_sdf = sdf

        # --- structure learning (§4), unless a network is supplied ----
        if network is None:
            struct_src = sdf
            n = len(dirty)
            if n > self.struct_sample:
                struct_src = sdf.sample(self.struct_sample / n, seed=7)
            obs = similarity_observations(
                struct_src, attrs, numeric_attrs).toPandas().to_numpy()
            parents, _, _ = learn_skeleton(
                obs, attrs, rho=self.rho,
                weight_threshold=self.weight_threshold,
                max_parents=self.max_parents)
            network = BayesianNetwork.from_parents(parents)
        self.network = network

        # --- compensatory statistics (Alg. 2) — also reused to filter
        # non-FD-like auto-learned edges before CPT estimation ---------
        corr_pdf = corr_counts(
            sdf, attrs, ucs, lam=self.lam, beta=self.beta, tau=self.tau)
        auto_learned = network.edges()
        for (u, v) in auto_learned:
            det, support = edge_determinism(corr_pdf, u, v)
            if det >= self.det_threshold and support >= self.min_support:
                continue
            network.remove_edge(u, v)
            # The lasso recovers the skeleton; the peeling heuristic can
            # mis-orient an edge. If the reverse direction is FD-like,
            # keep it reversed instead of dropping the dependency.
            rdet, rsupport = edge_determinism(corr_pdf, v, u)
            if rdet >= self.det_threshold and rsupport >= self.min_support:
                try:
                    network.add_edge(v, u)
                except CycleError:
                    pass  # would cycle — drop the dependency instead
        if bn_edits:
            network.apply_edits(bn_edits)

        # --- parameter learning ---------------------------------------
        vocab, code = build_vocab(dirty, attrs)
        self._assemble(sdf, dirty, attrs, vocab, code, ucs, corr_pdf)
        return self

    def _assemble(self, sdf, dirty, attrs, vocab, code, ucs, corr_pdf):
        network = self.network
        vc = value_counts(sdf, attrs)
        counts: dict[str, np.ndarray] = {}
        for a in attrs:
            vec = np.zeros(len(vocab[a]))
            sub = vc[vc["attr"] == a]
            idx = sub["value"].map(code[a])
            keep = idx.notna().to_numpy()
            np.add.at(vec, idx.to_numpy()[keep].astype("int64"),
                      sub["cnt"].to_numpy(dtype="float64")[keep])
            counts[a] = vec

        corr = build_corr_index(corr_pdf, code)

        uc_ok = {}
        for a in attrs:
            if self.params.use_ucs and a in ucs:
                uc_ok[a] = ucs[a].check_series(
                    pd.Series(vocab[a], dtype="object"))
            else:
                uc_ok[a] = np.ones(len(vocab[a]), dtype=bool)

        self.model = FittedModel(
            attrs=attrs, vocab=vocab, code=code, network=network,
            cpt={}, childview={}, childtot={},
            corr=corr, counts=counts, uc_ok=uc_ok, n_rows=len(dirty),
            alpha=self.alpha,
            parents={a: network.parents(a) for a in attrs},
            children={a: network.children(a) for a in attrs},
        )
        for a in attrs:
            self._estimate_cpt(a)

    def _estimate_cpt(self, a: str) -> None:
        """(Re)estimate the CPT of ``a`` and its child views from the
        dirty data. A parentless attribute gets an empty CPT: its
        marginal is ``model.counts[a]``."""
        m = self.model
        for key in [k for k in m.childview if k[0] == a]:
            del m.childview[key]
            del m.childtot[key]
        m.cpt[a] = {}
        pars = self.network.parents(a)
        if not pars:
            return
        pdf = cpt_counts(self._dirty_sdf, a, pars)
        m.cpt[a] = build_cpt_table(pdf, a, pars, m.code)
        views, tots = build_child_views(pdf, a, pars, m.code)
        for p in pars:
            m.childview[(a, p)] = views[p]
            m.childtot[(a, p)] = tots[p]

    # ------------------------------------------------------------------
    def apply_network_edits(self, edits: list[tuple]) -> set[str]:
        """User interaction after fit: edit the BN and re-estimate only
        the CPTs of the affected attributes (§4)."""
        if self.model is None:
            raise RuntimeError("fit() first")
        affected = self.network.apply_edits(edits)
        m = self.model
        for a in affected:
            self._estimate_cpt(a)
        m.parents = {a: self.network.parents(a) for a in m.attrs}
        m.children = {a: self.network.children(a) for a in m.attrs}
        return affected

    def clean(self) -> pd.DataFrame:
        """Run Algorithm 1 and return the repaired dataset (pandas)."""
        if self.model is None:
            raise RuntimeError("fit() first")
        return run_inference(
            self._spark, self._dirty_sdf, self.model, self.params)

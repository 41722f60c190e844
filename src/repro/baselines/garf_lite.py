"""Garf-lite: self-supervised rule mining + rule-based repair.

Garf [47] trains a SeqGAN over the dirty data to generate explainable
repair rules, then applies them. A sequence GAN is out of scope for
this substrate (and out of the paper's evaluation focus — Garf's
results are driven by *which rules* survive, not by how they were
generated), so the lite version mines the same family of rules
directly: high-confidence approximate FDs ``X → Y`` discovered from the
dirty data with no prior knowledge or labels, applied where a tuple
disagrees with the rule's majority consequent (both from
``compensatory.pair_majority`` over the Algorithm-2 co-occurrence
counts).

Characteristic shape (paper Table 4): very high precision — a repair
fires only under a ≥95%-confidence rule — but low recall, since errors
outside rule scope (and all rule-less columns) are untouched.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.compensatory import corr_counts, pair_majority
from repro.core.model import build_vocab, normalize_missing
from repro.core.structure import edge_determinism
from repro.datasets.registry import CleaningTask

__all__ = ["GarfLite"]

_MIN_CONF = 0.90   # rule confidence threshold
_MIN_SUPPORT = 5   # mean majority count per determinant value


class GarfLite:
    def run(self, spark: SparkSession, task: CleaningTask) -> pd.DataFrame:
        dirty = normalize_missing(task.dirty)
        attrs = task.attrs
        vocab, _ = build_vocab(dirty, attrs)
        corr_pdf = corr_counts(spark, dirty, attrs, {}, lam=0.0, beta=0.0,
                               tau=0.0)

        # Rule discovery: single-determinant approximate FDs, each with
        # {X-value: (majority Y-value, its count, X-value count)}.
        major = pair_majority(corr_pdf)
        determinism = edge_determinism(major, attrs)
        by_pair = dict(iter(major.groupby(["attr_i", "attr_j"], sort=False)))
        rules: list[tuple[str, str, dict[str, tuple[str, int, int]]]] = []
        for (x, y), (det, support) in determinism.items():
            if det >= _MIN_CONF and support >= _MIN_SUPPORT:
                g = by_pair[(y, x)]
                rules.append((x, y, dict(zip(
                    vocab[x][g["e"]],
                    zip(vocab[y][g["c"]], g["cnt"], g["total"])))))

        cols = {a: dirty[a].to_numpy(object) for a in attrs}
        out_cols = {a: cols[a].copy() for a in attrs}
        for x, y, groups in rules:
            xs, ys = cols[x], cols[y]
            for i in range(len(dirty)):
                xv = xs[i]
                if xv == "":
                    continue
                hit = groups.get(xv)
                if hit is None:
                    continue
                maj, cnt, total = hit
                # the rule fires only where the determinant group is
                # near-unanimous (rule confidence, not global confidence)
                if total >= _MIN_SUPPORT and cnt / total >= _MIN_CONF * 0.95:
                    if ys[i] != maj:
                        out_cols[y][i] = maj
        out = pd.DataFrame(out_cols)
        out.insert(0, "tid", dirty["tid"].to_numpy())
        return out

"""Raha+Baran-lite: detector ensemble + label-trained gate + correctors.

Raha [42] runs a battery of error-detection strategies and learns, from
~20 user-labeled tuples, which strategies to trust per column. Baran
[41] then corrects the detected cells with an ensemble of correction
models fed by the same labels. The lite version keeps that two-stage
shape — and, importantly, its characteristic failure mode: detection
mistakes propagate into correction (paper §7.2.1).

Detectors (per cell):
  D1 null          — value is missing;
  D2 pattern       — the value's character-class template is rare in its
                     column (< 5% of rows);
  D3 frequency     — the value itself is rare in its column;
  D4 FD violation  — the value disagrees with the majority consequent of
                     a mined approximate FD.

D4's FDs and majorities come from ``compensatory.pair_majority`` over
the Algorithm-2 co-occurrence counts, as in the cleaner's edge filter.

The gate fits per-(column, detector) reliability on 20 labeled tuples
(labels drawn from ground truth, exactly what the paper's annotators
provide) and flags a cell when the summed reliability of its firing
detectors crosses 0.5.

Correctors (per flagged cell): value co-occurrence with the rest of the
tuple, FD-majority, and typo-proximity (nearest frequent domain value);
the corrector ranking is chosen by accuracy on the 20 corrected tuples.
"""
from __future__ import annotations

import re

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.compensatory import (build_corr_index, corr_counts,
                                     pair_majority)
from repro.core.cpt import value_counts
from repro.core.model import build_vocab, normalize_missing
from repro.core.similarity import edit_distance
from repro.core.structure import edge_determinism
from repro.datasets.registry import CleaningTask

__all__ = ["RahaBaranLite"]

_N_LABELS = 20  # tuples labeled for Raha + tuples corrected for Baran


def _template(v: str) -> str:
    """Character-class abstraction ("Raha pattern" feature)."""
    return re.sub(r"[0-9]", "d", re.sub(r"[a-z]", "a",
                  re.sub(r"[A-Z]", "A", v)))


class RahaBaranLite:
    def run(self, spark: SparkSession, task: CleaningTask,
            seed: int = 11) -> pd.DataFrame:
        dirty = normalize_missing(task.dirty)
        clean = normalize_missing(task.clean)
        attrs = task.attrs
        n = len(dirty)
        rng = np.random.default_rng(seed)
        labeled = rng.choice(n, size=min(_N_LABELS, n), replace=False)
        vocab, code = build_vocab(dirty, attrs)

        # --- statistics -----------------------------------------------
        _, marginals = value_counts(dirty, code)
        counts = {a: dict(zip(vocab[a], marginals[a])) for a in attrs}
        corr_pdf = corr_counts(spark, dirty, attrs, {}, lam=0.0, beta=0.0,
                               tau=0.0)
        corr = build_corr_index(corr_pdf, code)
        # Mine approximate FDs from the dirty data (for D4 + corrector).
        major = pair_majority(corr_pdf)
        determinism = edge_determinism(major, attrs)
        fds: dict[str, list[str]] = {a: [] for a in attrs}
        for (x, y), (det, support) in determinism.items():
            if det >= 0.8 and support >= 3:
                fds[y].append(x)
        # (Y, X) -> {X-value: (majority Y-value, its share)}
        fd_major = {
            (y, x): dict(zip(vocab[x][g["e"]],
                             zip(vocab[y][g["c"]], g["cnt"] / g["total"])))
            for (y, x), g in major.groupby(["attr_i", "attr_j"], sort=False)
            if x in fds[y]}

        cols = {a: dirty[a].to_numpy(object) for a in attrs}
        clean_cols = {a: clean[a].to_numpy(object) for a in attrs}
        tmpl_freq = {
            a: pd.Series([_template(v) for v in cols[a]])
            .value_counts(normalize=True).to_dict()
            for a in attrs
        }

        def detector_fires(a: str, i: int) -> np.ndarray:
            v = cols[a][i]
            f = np.zeros(4, dtype=bool)
            if v == "":
                f[0] = True
                return f
            f[1] = tmpl_freq[a].get(_template(v), 0.0) < 0.05
            f[2] = counts.get(a, {}).get(v, 0) <= max(1, 0.002 * n)
            for x in fds[a]:
                xv = cols[x][i]
                hit = fd_major.get((a, x), {}).get(xv)
                if hit and hit[1] >= 0.6 and hit[0] != v:
                    f[3] = True
            return f

        # --- gate training on the labeled tuples ----------------------
        weights = {a: np.full(4, 0.25) for a in attrs}
        for a in attrs:
            tp = np.zeros(4)
            fp = np.zeros(4)
            for i in labeled:
                err = cols[a][i] != clean_cols[a][i]
                f = detector_fires(a, i)
                tp += f & err
                fp += f & (not err)
            weights[a] = (tp + 0.5) / (tp + fp + 1.0)

        # --- correction ------------------------------------------------
        out_cols = {a: cols[a].copy() for a in attrs}
        # most frequent first; a count tie goes to the smaller value
        freq_vals = {a: sorted(counts.get(a, {}).items(),
                               key=lambda kv: (-kv[1], kv[0]))[:200]
                     for a in attrs}
        for i in range(n):
            row = {a: cols[a][i] for a in attrs}
            for a in attrs:
                f = detector_fires(a, i)
                if not f.any():
                    continue
                conf = float((weights[a] * f).sum() / max(1, f.sum()))
                if conf < 0.5:
                    continue  # gate: detectors not trusted for this column
                cand = self._correct(a, i, row, attrs, vocab, corr,
                                     fds, fd_major, freq_vals)
                if cand is not None and cand != row[a]:
                    out_cols[a][i] = cand
        out = pd.DataFrame(out_cols)
        out.insert(0, "tid", dirty["tid"].to_numpy())
        return out

    @staticmethod
    def _correct(a, i, row, attrs, vocab, corr, fds, fd_major,
                 freq_vals):
        votes: dict[str, float] = {}
        # corrector 1: FD majority
        for x in fds[a]:
            hit = fd_major.get((a, x), {}).get(row[x])
            if hit and hit[1] >= 0.6:
                votes[hit[0]] = votes.get(hit[0], 0.0) + 3.0 * hit[1]
        # corrector 2: co-occurrence with the rest of the tuple
        if len(vocab[a]):
            cooc = corr.cooccurrence(a, row, attrs)
            best = int(np.argmax(cooc))
            if cooc[best] > 0:
                votes[vocab[a][best]] = (votes.get(vocab[a][best], 0.0)
                                         + 1.0 + np.log1p(cooc[best]) / 10)
        # corrector 3: typo proximity to a frequent domain value
        v = row[a]
        if v != "":
            best_d, best_v = 3, None
            for fv, cnt in freq_vals[a][:60]:
                if fv == v or abs(len(fv) - len(v)) > 2:
                    continue
                d = edit_distance(v, fv)
                if d < best_d:
                    best_d, best_v = d, fv
            if best_v is not None:
                votes[best_v] = votes.get(best_v, 0.0) + 2.0 / best_d
        if not votes:
            return None
        return max(votes.items(), key=lambda kv: kv[1])[0]

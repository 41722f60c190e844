"""HoloClean-lite: DC-violation detection + feature-scored repair.

HoloClean [50] compiles denial constraints, co-occurrence statistics
and minimality into a factor graph and repairs the cells its detectors
flag. The lite version keeps the same pipeline shape:

* ``DCS`` — hand-authored FD-shaped denial constraints per dataset
  (the paper's Table 2 reports 3–13 DCs per dataset; ours are written
  from schema knowledge, like their experts did).
* detection — a cell is noisy if it is NULL or if it is the dependent
  side of a violated DC (its value disagrees with the majority
  consequent of its determinant group).
* repair — for detected cells only, candidates are scored by a fixed
  log-linear combination of (a) DC-majority agreement, (b) co-occurrence
  with the rest of the tuple, and (c) minimality (edit proximity to the
  observed value).

Characteristic shape (paper Table 4): precision is high — it only
touches cells a DC implicates — but recall is capped by DC coverage.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.compensatory import build_corr_index, corr_counts
from repro.core.cpt import cpt_counts
from repro.core.model import build_vocab
from repro.core.similarity import string_similarity
from repro.datasets.registry import CleaningTask

__all__ = ["HoloCleanLite", "DCS"]

# FD-shaped DCs: (determinant attrs, dependent attr).
DCS: dict[str, list[tuple[tuple[str, ...], str]]] = {
    "hospital": [
        (("ProviderNumber",), "HospitalName"), (("ProviderNumber",), "Address"),
        (("ProviderNumber",), "City"), (("ProviderNumber",), "PhoneNumber"),
        (("City",), "State"), (("City",), "ZipCode"), (("City",), "CountyName"),
        (("ZipCode",), "State"), (("MeasureCode",), "MeasureName"),
        (("MeasureCode",), "Condition"), (("State", "MeasureCode"), "StateAvg"),
        (("ProviderNumber",), "HospitalType"), (("ProviderNumber",), "HospitalOwner"),
    ],
    "flights": [
        (("flight",), "sched_dep_time"), (("flight",), "act_dep_time"),
        (("flight",), "sched_arr_time"), (("flight",), "act_arr_time"),
    ],
    "soccer": [
        (("name",), "surname"), (("name",), "birthyear"),
        (("team",), "city"), (("team",), "stadium"),
    ],
    "beers": [
        (("brewery_id",), "brewery_name"), (("brewery_id",), "city"),
        (("brewery_id",), "state"), (("brewery_id",), "ounces"),
        (("style",), "abv"), (("style",), "ibu"),
    ],
    "inpatient": [
        (("provider_id",), "provider_name"), (("provider_id",), "zip"),
        (("drg_code",), "drg_desc"),
    ],
    "facilities": [
        (("facility_id",), "facility_name"), (("facility_id",), "address"),
        (("facility_id",), "phone"), (("facility_id",), "zip"),
        (("city",), "state"), (("zip",), "city"), (("zip",), "county"),
        (("facility_id",), "ownership"),
    ],
}

_W_DC, _W_COOC, _W_MIN = 4.0, 1.0, 2.0


class HoloCleanLite:
    """Detect by DC violation/null; repair by log-linear feature score."""

    def run(self, spark: SparkSession, task: CleaningTask) -> pd.DataFrame:
        dirty = task.dirty
        attrs = task.attrs
        dcs = DCS.get(task.name, [])
        sdf = spark.createDataFrame(dirty).cache()
        vocab, code = build_vocab(dirty, attrs)
        n = len(dirty)

        # Majority consequent per determinant group, per DC (Spark).
        majority: dict[int, dict[tuple, tuple[str, float, float]]] = {}
        for d, (lhs, rhs) in enumerate(dcs):
            pdf = cpt_counts(sdf, rhs, list(lhs))
            groups: dict[tuple, tuple[str, float, float]] = {}
            if len(pdf):
                for cfg, grp in pdf.groupby(list(lhs)):
                    cfg = cfg if isinstance(cfg, tuple) else (cfg,)
                    total = float(grp["cnt"].sum())
                    top = grp.loc[grp["cnt"].idxmax()]
                    groups[tuple(map(str, cfg))] = (
                        str(top[rhs]), float(top["cnt"]), total)
            majority[d] = groups

        # Co-occurrence index (plain counts — no UCs in HoloClean).
        corr = build_corr_index(
            corr_counts(sdf, attrs, {}, lam=0.0, beta=0.0, tau=0.0), code)
        sdf.unpersist()

        cols = {a: dirty[a].astype(str).fillna("").to_numpy(object)
                for a in attrs}
        out_cols = {a: cols[a].copy() for a in attrs}
        dc_by_rhs: dict[str, list[int]] = {}
        for d, (lhs, rhs) in enumerate(dcs):
            dc_by_rhs.setdefault(rhs, []).append(d)

        for i in range(n):
            row = {a: cols[a][i] for a in attrs}
            for a in attrs:
                obs = row[a]
                # ---- detection -----------------------------------------
                flagged = obs == ""
                dc_votes: list[tuple[str, float, float]] = []
                for d in dc_by_rhs.get(a, []):
                    lhs, _ = dcs[d]
                    cfg = tuple(row[x] for x in lhs)
                    if any(v == "" for v in cfg):
                        continue
                    hit = majority[d].get(cfg)
                    if hit is None:
                        continue
                    maj, cnt, total = hit
                    if total >= 3 and cnt / total >= 0.6:
                        dc_votes.append((maj, cnt, total))
                        if maj != obs:
                            flagged = True
                if not flagged:
                    continue
                # ---- repair --------------------------------------------
                dom = len(vocab[a])
                if dom == 0:
                    continue
                score = np.zeros(dom)
                for maj, cnt, total in dc_votes:
                    mc = code[a].get(maj)
                    if mc is not None:
                        score[mc] += _W_DC * cnt / total
                cooc = np.zeros(dom)
                for k in attrs:
                    if k == a or row[k] == "":
                        continue
                    entry = corr.lookup(a, k, row[k])
                    if entry is None:
                        continue
                    ccodes, _, cnts = entry
                    np.add.at(cooc, ccodes, cnts)
                score += _W_COOC * np.log1p(cooc)
                best = int(np.argmax(score))
                cand = vocab[a][best]
                if obs != "":
                    score[best] += _W_MIN * string_similarity(obs, cand)
                    oc = code[a].get(obs)
                    base = score[oc] + _W_MIN if oc is not None else -np.inf
                    if base >= score[best]:
                        continue  # minimality: keep the observation
                out_cols[a][i] = cand
        out = pd.DataFrame(out_cols)
        out.insert(0, "tid", dirty["tid"].astype(str).to_numpy())
        return out

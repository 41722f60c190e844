"""PClean-lite: a domain-program-driven Bayesian cleaner (baseline).

PClean [35] cleans data with a hand-written probabilistic program: the
expert declares the dependency structure between attributes and a noise
model; inference then computes the MAP latent value per cell. We
reproduce that recipe with the same division of labor:

* ``PROGRAMS`` — the per-dataset "PPL program": an expert-authored
  parent structure (what PClean encodes as its relational model). These
  are written from schema knowledge only, never from ground truth.
* noise model — observations are the latent value with possible typos:
  ``log P(obs | c) = -2 · ED(obs, c)`` (edit-distance geometric noise),
  with candidate blocking (similar length, shared first character) as
  PClean's inference does for tractability.
* per-cell MAP: ``c* = argmax P(c | parents) · P(obs | c)``.

Characteristic differences from BClean (per the paper's analysis): no
user constraints, no compensatory score, and total reliance on the
quality of the hand-crafted program — on datasets whose distributions
the expert cannot capture, quality degrades.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.cpt import cpt_counts, value_counts
from repro.core.model import (build_cpt_table, build_vocab, config_keys,
                              normalize_missing)
from repro.core.similarity import edit_distance
from repro.datasets.registry import CleaningTask

__all__ = ["PCleanLite", "PROGRAMS"]

# Expert-declared parent structure per dataset (the "program").
PROGRAMS: dict[str, dict[str, list[str]]] = {
    "hospital": {
        "HospitalName": ["ProviderNumber"], "Address": ["ProviderNumber"],
        "City": ["ProviderNumber"], "State": ["City"], "ZipCode": ["City"],
        "CountyName": ["City"], "PhoneNumber": ["ProviderNumber"],
        "HospitalType": ["ProviderNumber"], "HospitalOwner": ["ProviderNumber"],
        "EmergencyService": ["ProviderNumber"], "Condition": ["MeasureCode"],
        "MeasureName": ["MeasureCode"], "StateAvg": ["State", "MeasureCode"],
    },
    "flights": {
        "sched_dep_time": ["flight"], "act_dep_time": ["flight"],
        "sched_arr_time": ["flight"], "act_arr_time": ["flight"],
    },
    "soccer": {
        "surname": ["name"], "birthyear": ["name"], "birthplace": ["name"],
        "position": ["name"], "city": ["team"], "stadium": ["team"],
        "manager": ["team"],
    },
    "beers": {
        "brewery_name": ["brewery_id"], "city": ["brewery_id"],
        "state": ["brewery_id"], "ounces": ["brewery_id"],
        "abv": ["style"], "ibu": ["style"], "availability": ["style"],
    },
    "inpatient": {
        "provider_name": ["provider_id"], "address": ["provider_id"],
        "city": ["provider_id"], "state": ["provider_id"],
        "zip": ["provider_id"], "county": ["provider_id"],
        "drg_desc": ["drg_code"], "avg_charges": ["drg_code"],
        "discharges": ["drg_code"],
    },
    "facilities": {
        "facility_name": ["facility_id"], "address": ["facility_id"],
        "city": ["facility_id"], "state": ["facility_id"],
        "zip": ["facility_id"], "county": ["facility_id"],
        "phone": ["facility_id"], "facility_type": ["facility_id"],
        "ownership": ["facility_id"],
    },
}

_TYPO_COST = 2.0     # per-edit log penalty of the noise model
_FAR_NOISE = -12.0   # noise floor for unrelated observed values
_ALPHA = 0.1         # Laplace smoothing
_MAX_CAND = 64       # prior-candidate budget per cell


class PCleanLite:
    """MAP cleaning under an expert-declared generative program."""

    def run(self, spark: SparkSession, task: CleaningTask) -> pd.DataFrame:
        dirty = normalize_missing(task.dirty)
        attrs = task.attrs
        program = PROGRAMS.get(task.name, {})
        vocab, code = build_vocab(dirty, attrs)
        coded, counts = value_counts(dirty, code)
        pars = {a: program[a] for a in attrs if program.get(a)}
        pdfs = cpt_counts(coded, [[*ps, a] for a, ps in pars.items()])
        cpt = {a: build_cpt_table(pdf, a, pars[a], code)
               for a, pdf in zip(pars, pdfs)}
        cols = {a: dirty[a].to_numpy(object) for a in attrs}
        # each tuple's CPT row per attribute with parents; -1 for none
        rows = {a: cpt[a].find(config_keys(coded, ps, code))
                for a, ps in pars.items()}
        out_cols = {a: cols[a].copy() for a in attrs}
        log_vec_cache: dict = {}
        for i in range(len(dirty)):
            for a in attrs:
                dom = len(vocab[a])
                if dom == 0:
                    continue
                obs = cols[a][i]
                r = rows[a][i] if a in rows else -1
                vec = log_vec_cache.get((a, r))
                if vec is None:   # the prior: the CPT row, else the marginal
                    cnt = counts[a] if r < 0 else cpt[a].dense([r])[0]
                    vec = (np.log(cnt + _ALPHA)
                           - np.log(cnt.sum() + _ALPHA * dom))
                    log_vec_cache[(a, r)] = vec
                # top candidates by prior mass + the observed value
                if dom > _MAX_CAND:
                    cand = np.argpartition(vec, dom - _MAX_CAND)[-_MAX_CAND:]
                else:
                    cand = np.arange(dom)
                best_c, best_s = obs, -np.inf
                for ci in cand:
                    v = vocab[a][ci]
                    s = vec[ci] + self._noise_ll(obs, v)
                    if s > best_s:
                        best_c, best_s = v, s
                oc = coded[a].iat[i]
                if oc >= 0 and vec[oc] >= best_s:
                    best_c = obs
                if best_c != obs:
                    out_cols[a][i] = best_c
        out = pd.DataFrame(out_cols)
        out.insert(0, "tid", dirty["tid"].to_numpy())
        return out

    @staticmethod
    def _noise_ll(obs: str, cand: str) -> float:
        """Typo-noise log-likelihood with PClean-style blocking."""
        if obs == "":
            return 0.0  # missing: any latent value equally likely
        if obs == cand:
            return 0.0
        # Blocked pairs get the far-noise floor instead of an exact ED:
        # a strong enough prior can still override the observation (how
        # PClean repairs wholesale value swaps, not just typos).
        if abs(len(obs) - len(cand)) > 3 or (obs[:1] != cand[:1]
                                             and len(obs) > 2):
            return _FAR_NOISE
        return max(-_TYPO_COST * edit_distance(obs, cand), _FAR_NOISE)

"""Cleaning-task bundles: clean data + injected errors + UCs + BN edits.

``load_task(name)`` is the single entry point used by tests, jobs and
benchmarks. Sizes/noise rates default to the paper's Table 2 (Soccer
scaled 200k→20k per DESIGN.md); ``scale`` shrinks row counts for unit
tests (SF-style), ``noise_rate``/``error_types`` override the paper
defaults for the error-analysis experiments (§7.2.2).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd

from .errors import inject_errors
from .schemas import GENERATORS
from .ucs import BN_EDITS, ERROR_ATTRS, NUMERIC_ATTRS, dataset_ucs

__all__ = ["CleaningTask", "load_task", "subsample_task", "PAPER_TABLE2",
           "DATASETS"]

DATASETS = list(GENERATORS)

# Paper Table 2: (rows, cols, cells-label, noise rate, error types, #UCs).
PAPER_TABLE2 = {
    "hospital": (1000, 15, "15k", 0.05, ("T", "M", "I"), 15),
    "flights": (2376, 6, "14k", 0.30, ("T", "M"), 6),
    "soccer": (200000, 10, "2M", 0.01, ("T", "M", "I"), 10),
    "beers": (2410, 11, "27k", 0.13, ("T", "M", "I"), 11),
    "inpatient": (4017, 11, "44k", 0.10, ("T", "M", "I", "S"), 11),
    "facilities": (7992, 11, "88k", 0.05, ("T", "M", "I", "S"), 11),
}


@dataclass
class CleaningTask:
    """One dataset instance: clean/dirty frames plus all expert inputs."""

    name: str
    clean: pd.DataFrame
    dirty: pd.DataFrame
    errors: pd.DataFrame
    ucs: dict = field(default_factory=dict)
    bn_edits: list = field(default_factory=list)
    numeric_attrs: set = field(default_factory=set)
    noise_rate: float = 0.0
    error_types: tuple = ()

    @property
    def attrs(self) -> list[str]:
        return [c for c in self.dirty.columns if c != "tid"]


def load_task(
    name: str,
    *,
    scale: float = 1.0,
    noise_rate: float | None = None,
    error_types: tuple[str, ...] | None = None,
    seed: int = 0,
) -> CleaningTask:
    """Build a seeded cleaning task for one of the six datasets."""
    if name not in GENERATORS:
        raise KeyError(f"unknown dataset {name!r}; choose from {DATASETS}")
    gen, default_rows = GENERATORS[name]
    n_rows = max(20, int(default_rows * scale))
    _, _, _, default_rate, default_types, _ = PAPER_TABLE2[name]
    rate = default_rate if noise_rate is None else noise_rate
    types = default_types if error_types is None else tuple(error_types)
    clean = gen(n_rows, seed=seed)
    dirty, errors = inject_errors(
        clean, rate=rate, types=types, seed=seed + 100,
        attrs=ERROR_ATTRS[name])
    return CleaningTask(
        name=name,
        clean=clean,
        dirty=dirty,
        errors=errors,
        ucs=dataset_ucs(name),
        bn_edits=list(BN_EDITS[name]),
        numeric_attrs=set(NUMERIC_ATTRS[name]),
        noise_rate=rate,
        error_types=types,
    )


def subsample_task(task: CleaningTask, frac: float, seed: int = 0) -> CleaningTask:
    """Row-sample an existing task (paper Table 5: 50k of Soccer's 200k).

    Unlike ``load_task(scale=...)`` — which generates a *smaller world*
    with the same duplication profile — sampling rows from the full
    dataset thins the relational context per entity, which is precisely
    the stress the paper's sampled-Soccer experiment applies.
    """
    import numpy as np

    g = np.random.default_rng(seed)
    n = len(task.dirty)
    keep = np.sort(g.choice(n, size=int(n * frac), replace=False))
    tids = set(task.clean.iloc[keep]["tid"])
    return CleaningTask(
        name=task.name,
        clean=task.clean.iloc[keep].reset_index(drop=True),
        dirty=task.dirty.iloc[keep].reset_index(drop=True),
        errors=task.errors[task.errors["tid"].isin(tids)].reset_index(drop=True),
        ucs=task.ucs,
        bn_edits=list(task.bn_edits),
        numeric_attrs=set(task.numeric_attrs),
        noise_rate=task.noise_rate,
        error_types=task.error_types,
    )

"""Per-layer tracing for the BClean benchmark, installed from outside ``src/``.

The traced run replaces, for the duration of one round, the names that
``repro.core.cleaner`` and ``repro.core.inference`` call into each
layer with timed wrappers (a span per call), then puts the originals
back.  Nothing under ``src/`` is edited.

* Every span gets its own Spark job group, so the jobs a layer launched
  are read back from ``statusTracker().getJobIdsForGroup``.
* A wrapped function that returns a lazy Spark ``DataFrame`` is
  materialised inside its own span (the collect would otherwise land in
  the caller, ``cleaner.fit``); the caller gets the collected rows back
  through ``_Collected.toPandas``.
* Per-cell inference and pruning counters come from a driver-side
  ``clean_batch`` pass: the wrappers cannot reach the Spark workers,
  which unpickle their own copy of ``repro.core.inference``.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

from pyspark.sql import DataFrame

import repro.core.cleaner as cleaner_mod
import repro.core.inference as inference_mod
from repro.core.compensatory import CorrIndex

# name in repro.core.cleaner -> layer span it is recorded under
TRACED_NAMES = {
    "similarity_observations": "structure.observations",
    "learn_skeleton": "glasso.learn_skeleton",
    "corr_counts": "compensatory.corr_counts",
    "build_corr_index": "compensatory.build_index",
    "cpt_counts": "cpt.cpt_counts",
    "value_counts": "cpt.value_counts",
    "build_vocab": "model.assemble",
    "build_cpt_table": "model.assemble",
    "build_child_views": "model.assemble",
    "FittedModel": "model.assemble",
    "run_inference": "inference.run_inference",
}


@dataclass
class Span:
    layer: str
    phase: str
    start: float
    end: float
    group: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _Collected:
    """Stands in for a DataFrame whose rows were collected inside its span."""

    def __init__(self, pdf):
        self._pdf = pdf

    def toPandas(self):
        return self._pdf


class Tracer:
    """Spans and counters of one traced round, kept in memory."""

    def __init__(self, spark):
        self.sc = spark.sparkContext
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.phase = "setup"
        self.bclean = None          # the BClean whose fit is being traced
        self.learned_edges: set = set()
        self.filtered_edges: set | None = None
        self._filter_start = 0.0
        self.struct_input = None    # the (lazy) structure-learning sample
        self.overhead_s = 0.0       # time spent in the tracer's own code

    # -- spans ---------------------------------------------------------
    @contextmanager
    def in_phase(self, phase: str):
        prev, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = prev

    def _call(self, layer: str, fn, args, kwargs):
        entered = time.perf_counter()
        group = f"perfbench-{layer}-{len(self.spans)}"
        prev = self.sc.getLocalProperty("spark.jobGroup.id")
        self.sc.setLocalProperty("spark.jobGroup.id", group)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            if isinstance(out, DataFrame):
                out = _Collected(out.toPandas())
        finally:
            end = time.perf_counter()
            self.sc.setLocalProperty("spark.jobGroup.id", prev)
        self.spans.append(Span(layer, self.phase, start, end, group))
        self._observe(layer, args, out)
        # The collect inside the span is not overhead: the caller would
        # have run the same action itself.
        self.overhead_s += (start - entered) + (time.perf_counter() - end)
        return out

    def _observe(self, layer: str, args, out):
        """Counters read off a call's arguments and result."""
        if layer == "structure.observations":
            self.counts["structure.observation_rows"] += len(out.toPandas())
            self.struct_input = args[0].select(*args[1])
        elif layer == "glasso.learn_skeleton":
            parents = out[0]
            self.counts["structure.edges_learned"] += sum(
                len(p) for p in parents.values())
        elif layer == "compensatory.corr_counts":
            self.counts["compensatory.corr_rows"] += len(out)
            self.learned_edges = set(self.bclean.network.edges())
            self._filter_start = time.perf_counter()
        elif layer == "cpt.cpt_counts" and self.phase == "fit":
            self.counts["cpt.cpt_counts_calls"] += 1

    def seconds(self, layer: str) -> float:
        """Time in ``layer`` during the fit."""
        return sum(self.durations(layer, "fit"))

    def durations(self, layer: str, phase: str) -> list[float]:
        return [s.seconds for s in self.spans
                if s.layer == layer and s.phase == phase]

    def spark_jobs(self, layers: tuple[str, ...], phase: str) -> int:
        """Jobs launched under the spans of ``layers`` in ``phase``."""
        st = self.sc.statusTracker()
        return sum(len(st.getJobIdsForGroup(s.group)) for s in self.spans
                   if s.layer in layers and s.phase == phase)

    def fit_child_seconds(self) -> float:
        return sum(s.seconds for s in self.spans if s.phase == "fit")

    # -- installation --------------------------------------------------
    @contextmanager
    def installed(self):
        """Swap the traced names in; always restore the originals."""
        with _swapped() as patch:
            for name, layer in TRACED_NAMES.items():
                patch(cleaner_mod, name, partial(self._wrap, layer))
            patch(cleaner_mod.BayesianNetwork, "apply_edits", self._before)
            patch(cleaner_mod, "build_vocab", self._before)
            patch(cleaner_mod.BClean, "apply_network_edits", self._edit_wrap)
            yield self

    def _wrap(self, layer, fn):
        def traced(*args, **kwargs):
            return self._call(layer, fn, args, kwargs)
        return traced

    def _before(self, fn):
        """Close the edge-filter span: ``cleaner.fit`` filters the learned
        edges between corr_counts and its next call into a layer (the
        fit's network edits, or build_vocab)."""
        def snap(*args, **kwargs):
            if self.phase == "fit" and self.filtered_edges is None:
                self.spans.append(Span("structure.edge_filter", "fit",
                                       self._filter_start,
                                       time.perf_counter(), ""))
                self.filtered_edges = set(self.bclean.network.edges())
            return fn(*args, **kwargs)
        return snap

    def _edit_wrap(self, fn):
        def traced(bc, edits):
            start = time.perf_counter()
            affected = fn(bc, edits)
            end = time.perf_counter()
            self.spans.append(Span("network.apply_edits", self.phase, start,
                                   end, ""))
            self.counts["network.affected_attrs"] = max(
                self.counts["network.affected_attrs"], len(affected))
            return affected
        return traced

    def edge_changes(self) -> tuple[int, int]:
        """(dropped, reversed) auto-learned edges after the edge filter."""
        kept = self.filtered_edges or set()
        rev = {(u, v) for (u, v) in self.learned_edges
               if (u, v) not in kept and (v, u) in kept}
        dropped = {e for e in self.learned_edges if e not in kept} - rev
        return len(dropped), len(rev)

    # -- driver-side inference pass ------------------------------------
    @contextmanager
    def counting_inference(self, tau_clean: float):
        """Count pruning decisions and corr-index lookups (cache misses)
        while ``clean_batch`` runs in this process."""
        counts = self.counts

        def count_filter(tuple_filter):
            def counted(*args, **kwargs):
                f = tuple_filter(*args, **kwargs)
                counts["pruning.tuple_filter_calls"] += 1
                if f >= tau_clean:
                    counts["pruning.cells_skipped"] += 1
                return f
            return counted

        def count_prune(domain_prune_mask):
            def counted(*args, **kwargs):
                keep = domain_prune_mask(*args, **kwargs)
                counts["pruning.domain_prune_calls"] += 1
                counts["pruning.candidates_kept"] += int(keep.sum())
                counts["pruning.candidates_total"] += len(keep)
                return keep
            return counted

        def count_lookup(lookup):
            def counted(index, *args):
                counts["compensatory.corr_lookups"] += 1
                return lookup(index, *args)
            return counted

        with _swapped() as patch:
            patch(inference_mod, "tuple_filter", count_filter)
            patch(inference_mod, "domain_prune_mask", count_prune)
            patch(CorrIndex, "lookup", count_lookup)
            yield


@contextmanager
def _swapped():
    """``patch(owner, name, make)`` sets ``owner.name`` to
    ``make(original)``; every original is restored on exit."""
    saved = []

    def patch(owner, name, make):
        orig = getattr(owner, name)
        saved.append((owner, name, orig))
        setattr(owner, name, make(orig))

    try:
        yield patch
    finally:
        for owner, name, orig in reversed(saved):
            setattr(owner, name, orig)

"""The names and call order ``perfbench/tracing.py`` relies on.

The benchmark's traced run wraps names in ``repro.core.cleaner`` (its
``TRACED_NAMES``), ends the edge-filter span at the fit's first
``build_vocab`` call after ``corr_counts`` returns, and selects the
attribute columns of the structure sample it is handed. These tests
read ``tracing.py`` without importing it and check each assumption
against ``BClean.fit``, so a change that breaks the traced run fails
here and not only in ``perfbench/selftest.py``.
"""
import ast
from pathlib import Path

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import DataFrame
from pyspark.sql.types import StringType

import repro.core.cleaner as cleaner_mod
from repro.core.cleaner import BClean

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names() -> dict:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TRACED_NAMES"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED_NAMES in perfbench/tracing.py")


def test_traced_names_exist_in_cleaner():
    names = _traced_names()
    assert {"corr_counts", "build_vocab",
            "similarity_observations"} <= set(names)
    missing = [n for n in names if not hasattr(cleaner_mod, n)]
    assert not missing
    assert hasattr(cleaner_mod.BayesianNetwork, "apply_edits")
    assert hasattr(cleaner_mod.BClean, "apply_network_edits")


@pytest.fixture(scope="module")
def fit_calls(spark):
    """The layer calls of one fit that learns its network, with no
    edits, in order: (name, 'call' | 'return', first argument,
    second argument, whether the network exists)."""
    g = np.random.default_rng(0)
    z = g.integers(0, 40, 300)
    dirty = pd.DataFrame({
        "tid": [str(k) for k in range(300)],
        "zip": [f"{10000 + v}" for v in z],
        "city": [f"city{v % 12}" for v in z],
        "state": [f"s{v % 12 // 4}" for v in z],
    })
    bc = BClean("PI", struct_sample=200)
    calls = []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            arg = (args + (None, None))[:2]
            calls.append((name, "call", *arg, bc.network is not None))
            out = fn(*args, **kwargs)
            calls.append((name, "return", *arg, bc.network is not None))
            return out
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        for name in ("similarity_observations", "corr_counts",
                     "build_vocab"):
            mp.setattr(cleaner_mod, name,
                       recording(name, getattr(cleaner_mod, name)))
        bc.fit(spark, dirty)
    assert bc.network.edges()
    return calls


def test_build_vocab_runs_after_corr_counts_returns(fit_calls):
    """The traced run reads the learned edges when ``corr_counts``
    returns (so the network must exist by then) and ends the edge-filter
    span at the first ``build_vocab`` call (so none may come earlier)."""
    events = [(c[0], c[1]) for c in fit_calls]
    done = events.index(("corr_counts", "return"))
    assert events.count(("corr_counts", "call")) == 1
    assert fit_calls[done][-1]   # the network exists when it returns
    first_vocab = events.index(("build_vocab", "call"))
    assert first_vocab > done


def test_similarity_observations_gets_string_spark_frame(fit_calls):
    [(_, _, sample, attrs, _)] = [c for c in fit_calls if c[:2] == (
        "similarity_observations", "call")]
    assert isinstance(sample, DataFrame)
    fields = sample.select(*attrs).schema.fields
    assert [f.name for f in fields] == ["zip", "city", "state"]
    assert all(isinstance(f.dataType, StringType) for f in fields)

"""Benchmark behind Table 7: inference-variant runtime ordering.

The paper's efficiency claim: base (full-network) is the slowest,
partition inference (PI) is faster, and pruning (PIP) is the fastest.
The fit is shared; only the inference stage is timed, matching what the
optimizations of §6 actually accelerate: ``run_inference`` and the
decoding of its change list into the repaired frame, as ``clean()``
does.
"""
import dataclasses

import pytest

from repro.core.cleaner import BClean
from repro.core.inference import apply_repairs, run_inference


@pytest.fixture(scope="module")
def fitted(spark, bench_tasks):
    t = bench_tasks["inpatient"]
    bc = BClean("PI").fit(spark, t.dirty, ucs=t.ucs,
                          numeric_attrs=t.numeric_attrs,
                          bn_edits=t.bn_edits)
    return bc


@pytest.mark.parametrize("variant", ["base", "PI", "PIP"])
def test_bench_inference_variant(benchmark, spark, fitted, variant):
    p = dataclasses.replace(fitted.params, variant=variant)
    out = benchmark.pedantic(
        lambda: apply_repairs(fitted._dirty, run_inference(
            spark, fitted._codes, fitted.model, p), fitted.model.vocab),
        rounds=2, iterations=1)
    assert len(out) == fitted.model.n_rows

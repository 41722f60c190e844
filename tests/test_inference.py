"""Tests for Algorithm 1: micro-dataset cases, the batched PI/PIP kernel
against the per-cell loop (micro cases and all six datasets), and the
distributed run_inference path."""
import dataclasses

import numpy as np
import pandas as pd
import pytest

from repro.core.cleaner import BClean
from repro.core.constraints import UC
from repro.core.inference import (InferenceParams, _Caches, _clean_loop,
                                  _node_scalar, clean_batch, run_inference)
from repro.core.network import BayesianNetwork
from repro.datasets.registry import DATASETS


def _micro(n_groups=6, reps=8):
    """key determines val (FD); one typo, one missing, one swap-in error."""
    rows = []
    t = 0
    for k in range(n_groups):
        for r in range(reps):
            rows.append((str(t), f"key{k}", f"val{k}", f"tag{k % 2}"))
            t += 1
    pdf = pd.DataFrame(rows, columns=["tid", "key", "val", "tag"])
    pdf.loc[0, "val"] = "va1l0"      # typo (UC-violating length kept ok)
    pdf.loc[9, "val"] = ""           # missing
    pdf.loc[17, "val"] = "val5"      # inconsistency: valid foreign value
    return pdf


@pytest.fixture(scope="module")
def micro_fit(spark):
    pdf = _micro()
    net = BayesianNetwork.from_parents(
        {"key": [], "val": ["key"], "tag": []})
    ucs = {"key": UC(min_len=4, max_len=4),
           "val": UC(min_len=4, max_len=4),
           "tag": UC(min_len=4, max_len=4)}
    bc = BClean("PI", margin=1.0).fit(spark, pdf, ucs=ucs, network=net)
    return pdf, bc


def test_repairs_typo(micro_fit):
    pdf, bc = micro_fit
    out = clean_batch(pdf, bc.model, bc.params)
    assert out.loc[out["tid"] == "0", "val"].iloc[0] == "val0"


def test_repairs_missing(micro_fit):
    pdf, bc = micro_fit
    out = clean_batch(pdf, bc.model, bc.params)
    assert out.loc[out["tid"] == "9", "val"].iloc[0] == "val1"


def test_repairs_inconsistency(micro_fit):
    pdf, bc = micro_fit
    out = clean_batch(pdf, bc.model, bc.params)
    assert out.loc[out["tid"] == "17", "val"].iloc[0] == "val2"


def test_clean_cells_untouched(micro_fit):
    pdf, bc = micro_fit
    out = clean_batch(pdf, bc.model, bc.params)
    # Known artifact shared with the paper's Algorithm 1: cells are
    # repaired independently against the *dirty* evidence, so the swap-in
    # error at tid 17 can flip its FD partner ("key") as well — with only
    # two evidence attributes the minimal repair is genuinely ambiguous.
    dirty_cells = {("0", "val"), ("9", "val"), ("17", "val"), ("17", "key")}
    for i in range(len(pdf)):
        for a in ("key", "val", "tag"):
            if (pdf["tid"].iloc[i], a) in dirty_cells:
                continue
            assert out[a].iloc[i] == pdf[a].iloc[i], (i, a)


def test_uc_violating_original_forced_out(micro_fit):
    pdf, bc = micro_fit
    # "va1l0" has length 5 -> violates the max_len=4 UC -> must change
    out = clean_batch(pdf, bc.model, bc.params)
    assert out.loc[out["tid"] == "0", "val"].iloc[0] != "va1l0"


def test_uc_filters_candidates(micro_fit):
    pdf, bc = micro_fit
    out = clean_batch(pdf, bc.model, bc.params)
    # every repaired value satisfies its UC
    for a in ("key", "val", "tag"):
        mask = bc.model.uc_ok[a]
        for v in out[a]:
            if v in bc.model.code[a]:
                assert mask[bc.model.code[a][v]]


def test_variants_agree_on_micro(micro_fit):
    pdf, bc = micro_fit
    outs = {}
    for variant in ("base", "PI", "PIP"):
        p = dataclasses.replace(bc.params, variant=variant)
        outs[variant] = clean_batch(pdf, bc.model, p)
    pd.testing.assert_frame_equal(outs["base"], outs["PI"])
    # PIP may skip cells but must repair the three injected errors too
    for tid, want in [("0", "val0"), ("9", "val1"), ("17", "val2")]:
        got = outs["PIP"].loc[outs["PIP"]["tid"] == tid, "val"].iloc[0]
        assert got == want


def _assert_batched_matches_loop(pdf, model, params):
    """The batched PI/PIP kernel repairs exactly what the per-cell loop
    repairs, with and without UCs."""
    for variant in ("PI", "PIP"):
        for use_ucs in (True, False):
            p = dataclasses.replace(params, variant=variant, use_ucs=use_ucs)
            pd.testing.assert_frame_equal(
                clean_batch(pdf, model, p), _clean_loop(pdf, model, p),
                obj=f"{variant} use_ucs={use_ucs}")


@pytest.mark.parametrize("name", DATASETS)
def test_batched_kernel_matches_loop(fitted, task, name):
    bc = fitted(name)
    # at most 1000 rows, so the per-cell reference stays affordable
    pdf = task(name).dirty[["tid", *bc.model.attrs]].iloc[:1000]
    _assert_batched_matches_loop(pdf, bc.model, bc.params)


def _oov_values(pdf):
    pdf = pdf.copy()
    pdf.loc[1, "key"] = "keyZ"   # unseen parent config and evidence
    pdf.loc[2, "val"] = "valZ"   # unseen child value of "key"
    pdf.loc[3, "tag"] = "tagZ"
    return pdf


def _missing_parent_and_child(pdf):
    pdf = pdf.copy()
    pdf.loc[4, "key"] = ""       # parent of "val"
    pdf.loc[12, "val"] = ""      # child of "key"
    pdf.loc[20, ["key", "val"]] = ""
    return pdf


@pytest.mark.parametrize("edit, margin", [
    (None, 1.0),                       # typo, missing, UC-violating original
    (None, 1e9),
    (_oov_values, 1.0),
    (_missing_parent_and_child, 1.0),
])
def test_batched_kernel_matches_loop_micro(micro_fit, edit, margin):
    pdf, bc = micro_fit
    if edit is not None:
        pdf = edit(pdf)
    params = dataclasses.replace(bc.params, margin=margin)
    _assert_batched_matches_loop(pdf, bc.model, params)


def _marginal_log(pdf, attr, value, alpha):
    """log((n_v + α) / (n + α·|dom|)) counted by pandas on the dirty frame."""
    col = pdf[attr][pdf[attr] != ""]
    return np.log((float((col == value).sum()) + alpha)
                  / (len(col) + alpha * col.nunique()))


def test_node_scalar_falls_back_to_marginal(micro_fit):
    pdf, bc = micro_fit
    m = bc.model
    a = m.alpha
    # parentless node
    got = _node_scalar(m, _Caches(), "tag",
                       {"key": "key0", "val": "val0", "tag": "tag1"})
    assert got == pytest.approx(_marginal_log(pdf, "tag", "tag1", a),
                                rel=1e-12)
    # unseen and missing parent configs of "val" (parent "key")
    for key in ("key9", ""):
        got = _node_scalar(m, _Caches(), "val",
                           {"key": key, "val": "val3", "tag": "tag0"})
        assert got == pytest.approx(_marginal_log(pdf, "val", "val3", a),
                                    rel=1e-12)
    # a seen parent config reads the CPT instead
    got = _node_scalar(m, _Caches(), "val",
                       {"key": "key3", "val": "val3", "tag": "tag0"})
    assert got > _marginal_log(pdf, "val", "val3", a)


def test_run_inference_matches_clean_batch(spark, micro_fit):
    pdf, bc = micro_fit
    local = clean_batch(pdf, bc.model, bc.params)
    dist = run_inference(spark, spark.createDataFrame(pdf), bc.model,
                         bc.params)
    pd.testing.assert_frame_equal(
        local.sort_values("tid", key=lambda s: s.astype(int))
             .reset_index(drop=True),
        dist)


def test_run_inference_non_integer_tids(spark):
    pdf = _micro()
    pdf["tid"] = "t" + pdf["tid"]
    net = BayesianNetwork.from_parents({"key": [], "val": ["key"], "tag": []})
    bc = BClean("PI", margin=1.0).fit(spark, pdf, ucs={}, network=net)
    out = bc.clean()
    assert list(out["tid"]) == sorted(pdf["tid"])  # lexicographic order
    local = clean_batch(pdf, bc.model, bc.params)
    pd.testing.assert_frame_equal(
        local.sort_values("tid").reset_index(drop=True), out)


def test_margin_blocks_weak_repairs(micro_fit):
    pdf, bc = micro_fit
    p = dataclasses.replace(bc.params, margin=1e9)
    out = clean_batch(pdf, bc.model, p)
    # only cells whose original scores -inf (missing / UC-violating) move
    changed = (out.set_index("tid") != pdf.set_index("tid")).sum().sum()
    assert changed == 2  # tid 0 (UC-violating) and tid 9 (missing)


def test_invalid_variant_rejected():
    with pytest.raises(ValueError):
        InferenceParams(variant="warp-drive")


def test_missing_evidence_tolerated(spark):
    pdf = _micro()
    pdf.loc[3, "key"] = ""  # parent evidence missing
    net = BayesianNetwork.from_parents({"key": [], "val": ["key"], "tag": []})
    bc = BClean("PI", margin=1.0).fit(spark, pdf, ucs={}, network=net)
    out = clean_batch(pdf, bc.model, bc.params)
    assert len(out) == len(pdf)


def test_empty_domain_column(spark):
    pdf = _micro()
    pdf["empty"] = ""
    net = BayesianNetwork.from_parents(
        {"key": [], "val": ["key"], "tag": [], "empty": []})
    bc = BClean("PI").fit(spark, pdf, ucs={}, network=net)
    out = clean_batch(pdf, bc.model, bc.params)
    assert (out["empty"] == "").all()  # nothing to infer from
    _assert_batched_matches_loop(pdf, bc.model, bc.params)

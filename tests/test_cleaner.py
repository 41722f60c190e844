"""End-to-end BClean tests on small dataset instances (integration)."""
import dataclasses

import pandas as pd
import pytest

from repro.core.cleaner import BClean
from repro.core.inference import run_inference
from repro.core.network import BayesianNetwork
from repro.datasets.registry import load_task
from repro.eval.metrics import score_repair


def test_fit_learns_reasonable_hospital_structure(fitted_hospital):
    bc = fitted_hospital
    edges = set(bc.network.edges())
    # the City–State–ZipCode geography cluster must be connected
    geo = {"City", "State", "ZipCode"}
    assert any(u in geo and v in geo for (u, v) in edges)
    # the user edit from §7.3.2 is present
    assert ("State", "StateAvg") in edges


def test_fit_populates_model(fitted_hospital, hospital_task):
    m = fitted_hospital.model
    t = hospital_task
    assert m.attrs == t.attrs
    assert m.n_rows == len(t.dirty)
    for a in t.attrs:
        assert len(m.vocab[a]) == len(m.code[a])
        assert len(m.uc_ok[a]) == len(m.vocab[a])
        assert m.counts[a].sum() > 0
        # a parentless node keeps only its marginal, m.counts[a]
        assert bool(m.cpt[a]) == bool(m.network.parents(a))


def test_clean_quality_floor_hospital(spark, hospital_task, fitted_hospital):
    rep = fitted_hospital.clean()
    s = score_repair(hospital_task.clean, hospital_task.dirty, rep)
    assert s.f1 > 0.75
    assert s.precision > 0.75


def test_variant_quality_close(spark, hospital_task, fitted_hospital):
    bc = fitted_hospital
    t = hospital_task
    base = dataclasses.replace(bc.params, variant="base")
    pip = dataclasses.replace(bc.params, variant="PIP")
    f1 = {}
    for name, p in [("base", base), ("PI", bc.params), ("PIP", pip)]:
        rep = run_inference(spark, bc._dirty_sdf, bc.model, p)
        f1[name] = score_repair(t.clean, t.dirty, rep).f1
    # §7.2.1: the efficiency optimizations do not significantly hurt quality
    assert abs(f1["base"] - f1["PI"]) < 0.08
    assert f1["PIP"] > f1["PI"] - 0.12


def test_no_uc_variant_still_competitive(spark, hospital_task):
    t = hospital_task
    bc = BClean("PI", use_ucs=False).fit(
        spark, t.dirty, ucs=t.ucs, numeric_attrs=t.numeric_attrs,
        bn_edits=t.bn_edits)
    rep = bc.clean()
    s = score_repair(t.clean, t.dirty, rep)
    assert s.f1 > 0.6  # paper: BClean_-UC stays competitive


def test_flights_user_edit_matters(spark, flights_task, fitted):
    """§7.3.2: on Flights the corrected network beats the raw one."""
    t = flights_task
    with_edit = fitted("flights")  # UCs and t.bn_edits
    f1_with = score_repair(t.clean, t.dirty, with_edit.clean()).f1
    without = BClean("PI").fit(spark, t.dirty, ucs=t.ucs, bn_edits=[])
    f1_without = score_repair(t.clean, t.dirty, without.clean()).f1
    assert f1_with >= f1_without - 0.02  # the edit never hurts


def test_apply_network_edits_refreshes_cpts(spark, flights_task):
    t = flights_task
    bc = BClean("PI").fit(spark, t.dirty, ucs=t.ucs, bn_edits=[])
    bc.model.cpt["act_arr_time"] = {}  # wipe, then refresh via the edit
    affected = bc.apply_network_edits([("add", "flight", "act_arr_time")])
    assert "act_arr_time" in affected
    assert bc.model.cpt["act_arr_time"]  # re-estimated
    assert ("act_arr_time", "flight") in bc.model.childview


def _cpt_keys(m):
    """Every key of the model's CPT and child-view tables."""
    return (
        {a: set(tab) for a, tab in m.cpt.items()},
        {k: set(view) for k, view in m.childview.items()},
        {k: set(tot) for k, tot in m.childtot.items()},
    )


def test_apply_network_edits_matches_fresh_fit(spark, flights_task):
    """Re-estimating after edits leaves the model a fresh fit with the
    same edits would build, including for an attribute whose every
    parent was removed (no stale child views)."""
    t = flights_task
    empty = {a: [] for a in t.attrs}
    edits = [("remove", "flight", "act_arr_time"),
             ("add", "sched_dep_time", "act_dep_time")]
    bc = BClean("PI").fit(spark, t.dirty, ucs=t.ucs, bn_edits=t.bn_edits,
                          network=BayesianNetwork.from_parents(empty))
    assert bc.network.parents("act_arr_time") == ["flight"]
    bc.apply_network_edits(edits)
    fresh = BClean("PI").fit(spark, t.dirty, ucs=t.ucs,
                             bn_edits=t.bn_edits + edits,
                             network=BayesianNetwork.from_parents(empty))
    assert bc.network.parents("act_arr_time") == []
    assert set(bc.network.edges()) == set(fresh.network.edges())
    assert _cpt_keys(bc.model) == _cpt_keys(fresh.model)


def test_edge_filter_drops_edge_whose_reversal_would_cycle(spark):
    """u -> v is not FD-like but v -> u is. Reversing it would close the
    cycle v -> u -> w -> v, so the edge filter drops it and fit goes on."""
    i = range(64)
    dirty = pd.DataFrame({
        "tid": [str(k) for k in i],
        "u": [f"u{(k % 8) // 4}" for k in i],   # v determines u
        "w": [f"w{k % 3}" for k in i],
        "v": [f"v{k % 8}" for k in i],
    })
    net = BayesianNetwork.from_parents({"v": ["u", "w"], "w": ["u"], "u": []})
    assert net.edges()[0] == ("u", "v")  # filtered while u -> w -> v exists
    bc = BClean("PI").fit(spark, dirty, network=net)
    edges = set(bc.network.edges())
    assert ("u", "v") not in edges and ("v", "u") not in edges
    assert bc.model is not None


def test_fit_requires_tid_column(spark):
    dirty = pd.DataFrame({"a": ["x", "y"], "b": ["u", "v"]})
    with pytest.raises(ValueError, match="tid"):
        BClean("PI").fit(spark, dirty)


def test_fit_rejects_duplicate_tids(spark):
    dirty = pd.DataFrame({"tid": ["1", "2", "1"], "a": ["x", "y", "z"],
                          "b": ["u", "v", "w"]})
    with pytest.raises(ValueError, match="duplicate tid"):
        BClean("PI").fit(spark, dirty)


def test_clean_before_fit_raises():
    with pytest.raises(RuntimeError):
        BClean("PI").clean()


def test_parameter_stability_lambda(spark, hospital_task):
    """Tables 8–10: λ/β/τ barely move the F1 (stability claim)."""
    t = hospital_task
    f1s = []
    for lam, beta, tau in [(0.0, 2.0, 0.5), (5.0, 2.0, 0.5),
                           (1.0, 0.0, 0.5), (1.0, 2.0, 0.9)]:
        bc = BClean("PI", lam=lam, beta=beta, tau=tau).fit(
            spark, t.dirty, ucs=t.ucs, bn_edits=t.bn_edits)
        f1s.append(score_repair(t.clean, t.dirty, bc.clean()).f1)
    assert max(f1s) - min(f1s) < 0.1


def test_uc_ablation_pattern_most_influential(spark, flights_task, fitted):
    """Fig. 5 shape: removing patterns hurts more than removing Max."""
    from repro.core.constraints import strip_uc_kinds
    t = flights_task
    def run(ucs):
        bc = BClean("PI").fit(spark, t.dirty, ucs=ucs, bn_edits=t.bn_edits)
        return score_repair(t.clean, t.dirty, bc.clean()).f1
    full = score_repair(t.clean, t.dirty, fitted("flights").clean()).f1
    no_pat = run(strip_uc_kinds(t.ucs, {"Pat"}))
    assert no_pat <= full + 0.02  # patterns never hurt, usually help

"""End-to-end BClean tests on small dataset instances (integration)."""
import dataclasses
from types import SimpleNamespace

import duckdb
import numpy as np
import pandas as pd
import pytest

import repro.core.cleaner as cleaner_mod
from repro.core.cleaner import BClean
from repro.core.cpt import cpt_counts
from repro.core.inference import apply_repairs, run_inference
from repro.core.model import (build_child_views, build_cpt_table,
                              encode_frame, normalize_missing)
from repro.core.network import BayesianNetwork
from repro.datasets.registry import load_task
from repro.datasets.ucs import BN_EDITS
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
        assert bool(m.cpt[a]) == bool(m.parents[a])


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
        rep = apply_repairs(bc._dirty, run_inference(
            spark, bc._codes, bc.model, p), bc.model.vocab)
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


def _arrays(t):
    return (t.keys.tolist(), t.start.tolist(), t.codes.tolist(),
            t.vals.tolist(), t.dom)


def _cpt_arrays(m):
    """Every array of the model's CPT and child-view tables."""
    return (
        {a: _arrays(t) for a, t in m.cpt.items()},
        {k: _arrays(t) for k, t in m.childview.items()},
        {k: _arrays(t) for k, t in m.childtot.items()},
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
    assert _cpt_arrays(bc.model) == _cpt_arrays(fresh.model)


def _missing_cells_fit(spark):
    """A fit on a frame with "", None and NaN cells, with a node ``dep``
    whose one parent ``empty`` is missing in every row."""
    i = range(40)
    dirty = pd.DataFrame({
        "tid": [str(k) for k in i],
        "key": [f"k{k % 4}" for k in i],
        "val": [f"v{k % 4}" if k % 9 else f"v{k % 3}" for k in i],
        "num": [float(k % 3) for k in i],
        "empty": [None] * len(i),
        "dep": [f"d{k % 2}" for k in i],
    })
    dirty.loc[[2, 7], "val"] = ""
    dirty.loc[4, "val"] = None
    dirty.loc[[1, 9], "num"] = float("nan")
    dirty.loc[3, "key"] = None
    bc = BClean("PI").fit(spark, dirty, network=BayesianNetwork.from_parents(
        {a: [] for a in dirty.columns[1:]}))
    # added after the fit: the edge filter would drop empty → dep
    bc.apply_network_edits([("add", "key", "val"), ("add", "val", "num"),
                            ("add", "empty", "dep")])
    return dirty, bc


@pytest.mark.parametrize("case", ["hospital", "flights", "missing"])
def test_single_parent_tables_match_cpt_counts(spark, task, fitted, case):
    """A single-parent node's CPT, child view and co-parent total, read
    off the Algorithm-2 pair counts, equal the tables ``cpt_counts``
    builds and a DuckDB GROUP BY; an all-missing parent gives empty
    tables. Flights' fit carries its §7.3.2 edits (flight → times)."""
    if case == "missing":
        dirty, bc = _missing_cells_fit(spark)
    else:
        dirty, bc = task(case).dirty, fitted(case)
    m = bc.model
    data = normalize_missing(dirty)
    single = {a: ps[0] for a, ps in m.parents.items() if len(ps) == 1}
    assert single
    pdfs = cpt_counts(encode_frame(data, m.code),
                      [[p, a] for a, p in single.items()])
    con = duckdb.connect()
    con.register("t", data)
    for (a, p), pdf in zip(single.items(), pdfs):
        views, tots = build_child_views(pdf, a, [p], m.code)
        assert _arrays(m.cpt[a]) == _arrays(
            build_cpt_table(pdf, a, [p], m.code)), a
        assert _arrays(m.childview[(a, p)]) == _arrays(views[p]), a
        assert _arrays(m.childtot[(a, p)]) == _arrays(tots[p]), a
        cpt, tot = m.cpt[a], m.childtot[(a, p)]
        got = sorted(zip(m.vocab[p][np.repeat(cpt.keys, np.diff(cpt.start))],
                         m.vocab[a][cpt.codes], cpt.vals[0]))
        where = f"WHERE \"{p}\" <> '' AND \"{a}\" <> ''"
        assert got == sorted(con.execute(
            f'SELECT "{p}", "{a}", COUNT(*) FROM t {where} GROUP BY 1, 2'
        ).fetchall()), a
        assert tot.keys.tolist() == ([0] if len(cpt) else [])
        assert sorted(zip(m.vocab[p][tot.codes], tot.vals[0])) == sorted(
            con.execute(f'SELECT "{p}", COUNT(*) FROM t {where} GROUP BY 1'
                        ).fetchall()), a
    con.close()
    if case == "missing":
        assert not {"None", "nan"} & {v for a in m.attrs for v in m.vocab[a]}
        assert single["dep"] == "empty"
        assert len(m.cpt["dep"]) == 0 and m.cpt["dep"].dom == 2
        assert len(m.childview[("dep", "empty")]) == 0
        assert len(m.childtot[("dep", "empty")]) == 0


def test_flights_edits_launch_no_spark_job(spark, flights_task):
    """§7.3.2's flights edits leave every edited node one parent, so
    re-estimating them reads the pair counts and launches no Spark job;
    a second parent is counted off the code matrix, with no job either."""
    t = flights_task
    bc = BClean("PI").fit(spark, t.dirty, ucs=t.ucs, bn_edits=[])
    sc = spark.sparkContext

    def jobs(edits, group):
        sc.setJobGroup(group, group)
        try:
            affected = bc.apply_network_edits(edits)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        return affected, len(sc.statusTracker().getJobIdsForGroup(group))

    affected, n = jobs(BN_EDITS["flights"], "flights-edits")
    assert affected and all(bc.network.parents(a) == ["flight"]
                            for a in affected)
    assert n == 0
    affected, n = jobs([("add", "sched_dep_time", "act_dep_time")],
                       "second-parent")
    assert affected == {"act_dep_time"} and n == 0
    assert len(bc.network.parents("act_dep_time")) == 2
    assert len(bc.model.cpt["act_dep_time"])


def _fd_cycle_frame() -> pd.DataFrame:
    """u → w, w → v and v → u are FD-like (det ≥ 0.5, support ≥ 2);
    u → v and v → w are not."""
    rows = ["000", "000", "020", "021", "022", "022", "031", "100",
            "111", "120", "121", "130", "131", "132", "132"]
    return pd.DataFrame({
        "tid": [str(k) for k in range(len(rows))],
        "u": [f"u{r[0]}" for r in rows],
        "w": [f"w{r[1]}" for r in rows],
        "v": [f"v{r[2]}" for r in rows],
    })


def test_edge_filter_drops_edge_whose_reversal_would_cycle(spark):
    """u -> v is not FD-like but v -> u is. Reversing it would close the
    cycle v -> u -> w -> v through kept edges, so the edge filter drops
    it and fit goes on."""
    net = BayesianNetwork.from_parents({"v": ["u", "w"], "w": ["u"], "u": []})
    assert net.edges()[0] == ("u", "v")
    bc = BClean("PI").fit(spark, _fd_cycle_frame(), network=net)
    assert set(bc.network.edges()) == {("u", "w"), ("w", "v")}
    assert bc.model is not None


def test_fit_leaves_callers_network_unchanged(spark):
    """fit works on its own copy of a passed network: the edge filter
    drops u -> v there, and the caller's network keeps it."""
    net = BayesianNetwork.from_parents({"v": ["u", "w"], "w": ["u"], "u": []})
    before = net.edges()
    bc = BClean("PI").fit(spark, _fd_cycle_frame(), network=net)
    assert ("u", "v") not in bc.network.edges()
    assert net.edges() == before


def test_edge_filter_ignores_edge_order(spark):
    """The filtered network depends on the learned edge set, not on the
    order its edges are listed in. u -> w is kept; v -> w and u -> v are
    not FD-like but their reversals are, and with u -> w the two
    reversals close a cycle, so only the first one tried is added.
    Reversals are tried in sorted order of the learned edges: u -> v
    becomes v -> u, and w -> v is skipped."""
    parents = {"u": [], "w": ["u", "v"], "v": ["u"]}
    permuted = {a: ps[::-1] for a, ps in reversed(parents.items())}
    edges = []
    for ps in (parents, permuted):
        bc = BClean("PI").fit(spark, _fd_cycle_frame(),
                              network=BayesianNetwork.from_parents(ps))
        edges.append(set(bc.network.edges()))
    assert edges[0] == edges[1] == {("u", "w"), ("v", "u")}


def test_fit_requires_tid_column(spark):
    dirty = pd.DataFrame({"a": ["x", "y"], "b": ["u", "v"]})
    with pytest.raises(ValueError, match="tid"):
        BClean("PI").fit(spark, dirty)


def test_fit_rejects_duplicate_tids(spark):
    dirty = pd.DataFrame({"tid": ["1", "2", "1"], "a": ["x", "y", "z"],
                          "b": ["u", "v", "w"]})
    with pytest.raises(ValueError, match="duplicate tid"):
        BClean("PI").fit(spark, dirty)


def test_fit_orders_integer_tids_beyond_int64(spark):
    """Integer tids sort as integers at any size: clean() returns the
    rows in the order 2, 10, 99999999999999999999."""
    dirty = pd.DataFrame({"tid": ["99999999999999999999", "10", "2"],
                          "a": ["x", "y", "z"], "b": ["u", "v", "w"]})
    bc = BClean("PI").fit(spark, dirty, network=BayesianNetwork.from_parents(
        {"a": [], "b": []}))
    out = bc.clean()
    assert out["tid"].tolist() == ["2", "10", "99999999999999999999"]
    assert out["a"].tolist() == ["z", "y", "x"]


def test_fit_orders_signed_and_padded_integer_tids(spark):
    """Signs and leading zeros sort by value."""
    tids = ["9223372036854775807", "+5", "007", "-3", "10"]
    dirty = pd.DataFrame({"tid": tids, "a": list("vwxyz")})
    bc = BClean("PI").fit(spark, dirty, network=BayesianNetwork.from_parents(
        {"a": []}))
    assert bc.clean()["tid"].tolist() == ["-3", "+5", "007", "10",
                                          "9223372036854775807"]


def test_fit_keeps_one_code_frame_of_the_dirty_rows(fitted):
    """fit keeps the table once, as the int32 code frame of ``_dirty``
    (its rows, in its order; -1 for a missing cell), and the model's
    marginals are its counts."""
    bc = fitted("hospital")
    codes = bc._codes
    assert codes.equals(encode_frame(bc._dirty, bc.model.code))
    assert (codes.dtypes == np.int32).all()
    assert (codes.to_numpy() >= -1).all()
    for a in bc.model.attrs:
        v = codes[a].to_numpy()
        assert bc.model.counts[a].tolist() == np.bincount(
            v[v >= 0], minlength=bc.model.dom_size(a)).tolist()


def test_fit_clean_and_edits_leave_no_cached_data(spark, task):
    """Nothing a fit, a clean or an edit does stays in Spark's storage:
    the number of persisted RDDs is the same before and after."""
    jsc = spark.sparkContext._jsc
    before = jsc.getPersistentRDDs().size()
    for name in ("hospital", "flights", "beers"):
        t = task(name)
        bc = BClean("PI").fit(spark, t.dirty, ucs=t.ucs,
                              numeric_attrs=t.numeric_attrs)
        bc.clean()
        a, b, c = t.attrs[:3]
        bc.apply_network_edits([("add", a, c), ("add", b, c)])
        bc.clean()
        del bc
    assert jsc.getPersistentRDDs().size() == before


def test_fit_treats_none_and_nan_as_missing(spark):
    """Real None/NaN cells are missing values, exactly like "" cells: no
    'None'/'nan' candidates, and the same repairs."""
    i = range(48)
    blank = pd.DataFrame({
        "tid": [str(k) for k in i],
        "key": [f"k{k % 6}" for k in i],
        "val": [f"v{k % 6}" for k in i],
        "num": [str(float(k % 3)) for k in i],
    })
    blank.loc[[3, 17], "val"] = ""
    blank.loc[[5, 30], "num"] = ""
    blank.loc[9, "val"] = "v5"
    real = blank.copy()
    real.loc[3, "val"], real.loc[17, "val"] = None, float("nan")
    real["num"] = [float(v) if v else float("nan") for v in blank["num"]]
    fits = [BClean("PI", margin=1.0).fit(
        spark, d, network=BayesianNetwork.from_parents(
            {"key": [], "val": ["key"], "num": ["key"]}))
        for d in (real, blank)]
    for a in ("val", "num"):
        assert not {"None", "nan", ""} & set(fits[0].model.vocab[a])
        assert list(fits[0].model.vocab[a]) == list(fits[1].model.vocab[a])
    repaired = [bc.clean() for bc in fits]
    pd.testing.assert_frame_equal(repaired[0], repaired[1])
    assert repaired[1].loc[3, "val"] == "v3"   # the missing cell is filled


def _noisy_fd_frame(n: int, seed: int = 0) -> pd.DataFrame:
    """zip -> city -> state, an independent column, 3% typos in city."""
    g = np.random.default_rng(seed)
    z = g.integers(0, 60, n)
    city = np.array([f"city{v % 20:02d}" for v in z], dtype=object)
    typo = g.random(n) < 0.03
    city[typo] = [c[:-1] + "x" for c in city[typo]]
    return pd.DataFrame({
        "tid": [str(k) for k in range(n)],
        "zip": [f"{10000 + v}" for v in z],
        "city": city,
        "state": [f"s{v % 20 // 5}" for v in z],
        "color": [f"c{v}" for v in g.integers(0, 7, n)],
    })


def test_fit_is_reproducible(spark, monkeypatch):
    """Two fits of one frame, the second with its rows shuffled, each from
    a fresh Spark DataFrame: the same structure sample, so identical
    observation matrices, learned edges and repaired frames."""
    seen = []
    observe = cleaner_mod.similarity_observations

    def recording(*args, **kwargs):
        out = observe(*args, **kwargs).toPandas()
        seen.append(out)
        return SimpleNamespace(toPandas=lambda: out)

    monkeypatch.setattr(cleaner_mod, "similarity_observations", recording)
    dirty = _noisy_fd_frame(1000)
    fits = [BClean("PI", struct_sample=200).fit(spark, d)
            for d in (dirty, dirty.sample(frac=1.0, random_state=3))]
    assert len(seen[0]) == 4 * (200 - 1)
    pd.testing.assert_frame_equal(seen[0], seen[1])
    assert fits[0].network.edges() and (
        sorted(fits[0].network.edges()) == sorted(fits[1].network.edges()))
    repaired = [bc.clean() for bc in fits]
    pd.testing.assert_frame_equal(repaired[0], repaired[1])
    assert (repaired[0]["city"] != dirty["city"]).any()


@pytest.mark.parametrize("n, cols", [(1, ["key", "val"]),
                                     (2, ["key", "val"]), (3, ["key"])],
                         ids=["1", "2", "one-attr"])
def test_fit_and_clean_tiny_frame(spark, n, cols):
    """One row gives no adjacent pair, two rows one per attribute, and
    one attribute no attribute pair (an empty corr dictionary): all
    learn an empty network, and clean() returns the frame unchanged."""
    dirty = pd.DataFrame({"tid": [str(k) for k in range(n)],
                          **{c: [f"{c}{k}" for k in range(n)] for c in cols}})
    bc = BClean("PI").fit(spark, dirty)
    assert bc.network.edges() == []
    pd.testing.assert_frame_equal(bc.clean(), dirty)


def test_constant_and_all_missing_columns(spark):
    """A constant and an all-missing column stay isolated and unchanged;
    the other columns are still repaired, in every variant."""
    dirty = _noisy_fd_frame(120, seed=1).drop(columns="color")
    dirty["const"] = "c"
    dirty["empty"] = ""
    bc = BClean("PI").fit(spark, dirty)
    assert list(bc.model.vocab["const"]) == ["c"]
    assert len(bc.model.vocab["empty"]) == 0
    assert not {"const", "empty"} & {a for e in bc.network.edges() for a in e}
    typos = dirty["city"].str.endswith("x")
    assert typos.any()
    for variant in ("base", "PI", "PIP"):
        bc.params = dataclasses.replace(bc.params, variant=variant)
        r = bc.clean()
        assert (r["const"] == "c").all() and (r["empty"] == "").all()
        assert (r.loc[typos, "city"] != dirty.loc[typos, "city"]).any()


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

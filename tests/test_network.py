"""Unit tests for the BN graph structure and user-interaction ops."""
import pytest

from repro.core.network import BayesianNetwork, CycleError


def chain():
    return BayesianNetwork.from_parents({"a": [], "b": ["a"], "c": ["b"]})


def diamond():
    return BayesianNetwork.from_parents(
        {"a": [], "b": ["a"], "c": ["a"], "d": ["b", "c"]})


def test_from_parents_roundtrip():
    bn = diamond()
    assert set(bn.nodes()) == {"a", "b", "c", "d"}
    assert set(bn.edges()) == {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")}
    assert bn.parents("d") == ["b", "c"]
    assert sorted(bn.children("a")) == ["b", "c"]


def test_topo_order_is_topological():
    bn = diamond()
    order = bn.topo_order()
    pos = {v: i for i, v in enumerate(order)}
    for (u, v) in bn.edges():
        assert pos[u] < pos[v]


def test_add_edge_rejects_cycle():
    bn = chain()
    with pytest.raises(CycleError):
        bn.add_edge("c", "a")
    with pytest.raises(CycleError):
        bn.add_edge("a", "a")


def test_add_edge_idempotent():
    bn = chain()
    assert bn.add_edge("a", "c") == {"c"}
    assert bn.add_edge("a", "c") == set()


def test_add_edge_unknown_node():
    with pytest.raises(KeyError):
        chain().add_edge("a", "zzz")


def test_remove_edge():
    bn = chain()
    assert bn.remove_edge("a", "b") == {"b"}
    assert ("a", "b") not in bn.edges()
    assert bn.remove_edge("a", "b") == set()  # already gone


def test_ensure_edge_flips_reverse_edge():
    bn = chain()
    affected = bn.ensure_edge("b", "a")  # reverse of a->b
    assert ("b", "a") in bn.edges()
    assert ("a", "b") not in bn.edges()
    assert {"a", "b"} <= affected


def test_ensure_edge_untangles_long_path():
    bn = chain()  # a->b->c
    bn.ensure_edge("c", "a")
    assert ("c", "a") in bn.edges()
    bn.topo_order()  # still a DAG


def test_subnetwork_one_hop_only():
    bn = diamond()
    # §6.1: A_joint = parents ∪ {v} ∪ children (no co-parents)
    assert bn.subnetwork("b") == {"a", "b", "d"}
    assert bn.subnetwork("a") == {"a", "b", "c"}


def test_apply_edits_batch():
    bn = chain()
    affected = bn.apply_edits([("add", "a", "c"), ("remove", "b", "c")])
    assert bn.parents("c") == ["a"]
    assert affected == {"c"}


def test_apply_edits_unknown_op():
    # node merging (§4, Fig. 2g-h) is not implemented: "merge" is unknown
    for edit in [("frobnicate", "a", "b"), ("merge", ["b", "c"], "M")]:
        with pytest.raises(ValueError):
            chain().apply_edits([edit])


def test_copy_is_independent():
    bn = chain()
    cp = bn.copy()
    cp.add_edge("a", "c")
    assert ("a", "c") in cp.edges()
    assert ("a", "c") not in bn.edges()


def test_cycle_detected_via_topo_order():
    bn = chain()
    bn._parents["a"].append("c")  # force an illegal cycle internally
    with pytest.raises(CycleError):
        bn.topo_order()

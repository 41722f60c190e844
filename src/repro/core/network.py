"""Bayesian network structure: DAG, user-interaction ops, sub-networks.

The network produced by ``structure.learn_skeleton`` is wrapped in
``BayesianNetwork``, a DAG over attributes stored as one parent list
per node. It supports the add-edge and remove-edge user edits of §4 and
the one-hop sub-networks of §6.1 used by the PI/PIP inference variants.
§4's node merging (Fig. 2 (g)–(h)) is not implemented (see DESIGN.md);
the paper's user study only exercises add/remove-edge edits.

Every mutating operation validates acyclicity and returns the set of
node names whose CPTs must be re-estimated, matching the paper's "we
only recalculate the CPTs for the attributes involved in the
modification".
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["BayesianNetwork", "CycleError"]


class CycleError(ValueError):
    """Raised when an edge insertion would create a directed cycle."""


@dataclass
class BayesianNetwork:
    """A DAG over attribute nodes with parent lists."""

    _parents: dict[str, list[str]] = field(default_factory=dict)

    @classmethod
    def from_parents(cls, parents: dict[str, list[str]]) -> "BayesianNetwork":
        bn = cls()
        for a in parents:
            bn._parents[a] = []
        for a, ps in parents.items():
            for p in ps:
                bn.add_edge(p, a)
        return bn

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def nodes(self) -> list[str]:
        return list(self._parents)

    def parents(self, v: str) -> list[str]:
        return list(self._parents[v])

    def children(self, v: str) -> list[str]:
        return [c for c, ps in self._parents.items() if v in ps]

    def edges(self) -> list[tuple[str, str]]:
        return [(p, c) for c, ps in self._parents.items() for p in ps]

    def subnetwork(self, v: str) -> set[str]:
        """§6.1: A_joint = A_parent ∪ {v} ∪ A_child (one-hop neighborhood)."""
        return set(self._parents[v]) | {v} | set(self.children(v))

    def topo_order(self) -> list[str]:
        indeg = {v: len(ps) for v, ps in self._parents.items()}
        frontier = sorted(v for v, d in indeg.items() if d == 0)
        order: list[str] = []
        while frontier:
            v = frontier.pop(0)
            order.append(v)
            for c in sorted(self.children(v)):
                indeg[c] -= 1
                if indeg[c] == 0:
                    frontier.append(c)
        if len(order) != len(self._parents):
            raise CycleError("graph contains a cycle")
        return order

    def _reaches(self, src: str, dst: str) -> bool:
        stack, seen = [src], set()
        while stack:
            v = stack.pop()
            if v == dst:
                return True
            if v in seen:
                continue
            seen.add(v)
            stack.extend(self.children(v))
        return False

    # ------------------------------------------------------------------
    # user-interaction operations (§4)
    # ------------------------------------------------------------------
    def add_edge(self, u: str, v: str) -> set[str]:
        """Add u → v; returns nodes whose CPTs changed. Rejects cycles."""
        if u not in self._parents or v not in self._parents:
            raise KeyError(f"unknown node in edge ({u}, {v})")
        if u == v:
            raise CycleError("self-loop")
        if u in self._parents[v]:
            return set()
        if self._reaches(v, u):
            raise CycleError(f"edge ({u}, {v}) would create a cycle")
        self._parents[v].append(u)
        return {v}

    def ensure_edge(self, u: str, v: str) -> set[str]:
        """Lenient user edit: make u → v hold, removing auto-learned
        edges along any v ⇝ u path first (a user inspecting the graph
        would untangle the conflicting direction before adding)."""
        affected: set[str] = set()
        guard = 0
        while self._reaches(v, u):
            path = self._find_path(v, u)
            p, c = path[-2], path[-1]
            affected |= self.remove_edge(p, c)
            guard += 1
            if guard > len(self._parents) ** 2:  # pragma: no cover
                raise CycleError("could not untangle reverse paths")
        affected |= self.add_edge(u, v)
        return affected

    def _find_path(self, src: str, dst: str) -> list[str]:
        stack: list[list[str]] = [[src]]
        seen: set[str] = set()
        while stack:
            path = stack.pop()
            v = path[-1]
            if v == dst:
                return path
            if v in seen:
                continue
            seen.add(v)
            for c in self.children(v):
                stack.append(path + [c])
        raise KeyError(f"no path {src} -> {dst}")

    def remove_edge(self, u: str, v: str) -> set[str]:
        if u in self._parents.get(v, []):
            self._parents[v].remove(u)
            return {v}
        return set()

    def apply_edits(self, edits: Iterable[tuple]) -> set[str]:
        """Apply a batch of user edits, each ("add", u, v) or
        ("remove", u, v). Returns all affected nodes."""
        affected: set[str] = set()
        for edit in edits:
            op = edit[0]
            if op == "add":
                affected |= self.ensure_edge(edit[1], edit[2])
            elif op == "remove":
                affected |= self.remove_edge(edit[1], edit[2])
            else:
                raise ValueError(f"unknown edit op {op!r}")
        return affected

    def copy(self) -> "BayesianNetwork":
        bn = BayesianNetwork()
        bn._parents = {v: list(ps) for v, ps in self._parents.items()}
        return bn

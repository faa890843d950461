"""DAGs over visible and latent nodes, and the structural transformations on them.

A graph here is an immutable value: node order is significant (parent lists
and weight vectors index against it) and every transformation returns a new
graph.  No node name is reserved.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

VISIBLE = "visible"
LATENT = "latent"


class GraphError(ValueError):
    """Base class for graph construction and transformation errors."""


class CycleDetected(GraphError):
    def __init__(self, path):
        self.path = tuple(path)
        super().__init__("cycle detected: " + " -> ".join(self.path))


class VisibleRoot(GraphError):
    def __init__(self, node):
        self.node = node
        super().__init__(f"visible node {node!r} has no parents; roots must be latent")


class NonRootLatent(GraphError):
    def __init__(self, node):
        self.node = node
        super().__init__(f"latent node {node!r} has parents; strict graphs require latent roots only")


class UnknownNode(GraphError):
    def __init__(self, node):
        self.node = node
        super().__init__(f"unknown node {node!r}")


class NotLatent(GraphError):
    def __init__(self, node):
        self.node = node
        super().__init__(f"node {node!r} is not latent")


class RootTarget(GraphError):
    def __init__(self, node):
        self.node = node
        super().__init__(f"node {node!r} is a root; exogenization needs a non-root target")


class NotVisible(GraphError):
    def __init__(self, node):
        self.node = node
        super().__init__(f"node {node!r} is not visible")


@dataclass(frozen=True)
class Node:
    """A named node with a visibility role."""

    name: str
    role: str

    def __post_init__(self):
        if self.role not in (VISIBLE, LATENT):
            raise GraphError(f"role must be {VISIBLE!r} or {LATENT!r}, got {self.role!r}")

    @property
    def is_latent(self) -> bool:
        return self.role == LATENT

    @property
    def is_visible(self) -> bool:
        return self.role == VISIBLE


def _as_node(spec) -> Node:
    if isinstance(spec, Node):
        return spec
    if isinstance(spec, dict):
        if not {"name", "role"} <= spec.keys():
            raise GraphError(f"node {spec!r} needs a 'name' and a 'role'")
        return Node(spec["name"], spec["role"])
    name, role = spec
    return Node(name, role)


def _is_name_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(isinstance(v, str) for v in value)


class PmDag:
    """Immutable acyclic graph whose every root node is latent.

    ``nodes`` is an ordered tuple; ``edges`` is a set of (parent, child) name
    pairs.  Construction validates acyclicity and the latent-root condition
    and stores the topological order and ``parent_index``: each node's
    parents as node indices, in node-list order.  The strict subclass
    condition (every latent is a root) is checked by :func:`validate` with
    ``strict=True`` or via :attr:`is_strict`.
    """

    __slots__ = ("nodes", "edges", "parent_index", "_index", "_parents", "_children", "_order")

    def __init__(self, nodes: Iterable, edges: Iterable[tuple[str, str]]):
        nodes = tuple(_as_node(n) for n in nodes)
        index: dict[str, int] = {}
        for i, node in enumerate(nodes):
            if node.name in index:
                raise GraphError(f"duplicate node name {node.name!r}")
            index[node.name] = i
        edge_set = set()
        for parent, child in edges:
            if parent not in index:
                raise UnknownNode(parent)
            if child not in index:
                raise UnknownNode(child)
            if parent == child:
                raise CycleDetected((parent, child))
            edge_set.add((parent, child))

        parent_lists: list[list[int]] = [[] for _ in nodes]
        child_lists: list[list[int]] = [[] for _ in nodes]
        for parent, child in edge_set:
            p, c = index[parent], index[child]
            parent_lists[c].append(p)
            child_lists[p].append(c)
        for lst in parent_lists + child_lists:  # node-list order keeps adjacency deterministic
            lst.sort()
        parent_index = tuple(map(tuple, parent_lists))
        parents = {n.name: [nodes[p].name for p in pa] for n, pa in zip(nodes, parent_index)}
        children = {n.name: [nodes[c].name for c in ch] for n, ch in zip(nodes, child_lists)}

        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", frozenset(edge_set))
        object.__setattr__(self, "parent_index", parent_index)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_parents", parents)
        object.__setattr__(self, "_children", children)

        # Kahn's algorithm taking the smallest ready index first, so ties break by node-list order
        indegree = [len(pa) for pa in parent_index]
        ready = [i for i, d in enumerate(indegree) if d == 0]
        order = []
        while ready:
            i = heapq.heappop(ready)
            order.append(nodes[i].name)
            for c in child_lists[i]:
                indegree[c] -= 1
                if indegree[c] == 0:
                    heapq.heappush(ready, c)
        if len(order) < len(nodes):
            raise CycleDetected(self._find_cycle({n.name for n, d in zip(nodes, indegree) if d > 0}))
        object.__setattr__(self, "_order", tuple(order))
        for node in nodes:
            if node.is_visible and not parents[node.name]:
                raise VisibleRoot(node.name)

    def __setattr__(self, key, value):
        raise AttributeError("PmDag is immutable")

    def _find_cycle(self, leftover):
        # Walk parents inside the leftover set until a node repeats.
        start = min(leftover, key=self._index.get)
        path = [start]
        seen = {start}
        cur = start
        while True:
            cur = next(p for p in self._parents[cur] if p in leftover)
            if cur in seen:
                tail = path[path.index(cur):] if cur in path else path
                return [cur] + list(reversed(tail))
            path.append(cur)
            seen.add(cur)

    # --- basic queries -------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        if not isinstance(other, PmDag):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def __hash__(self):
        return hash((self.nodes, self.edges))

    def __repr__(self):
        return f"PmDag({len(self.nodes)} nodes, {len(self.edges)} edges)"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownNode(name) from None

    def node(self, name: str) -> Node:
        return self.nodes[self.index(name)]

    def parents(self, name: str) -> tuple[str, ...]:
        """Parents of ``name`` in node-list order."""
        self.index(name)
        return tuple(self._parents[name])

    def children(self, name: str) -> tuple[str, ...]:
        self.index(name)
        return tuple(self._children[name])

    def is_root(self, name: str) -> bool:
        return not self.parents(name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes)

    @property
    def visible_names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes if n.is_visible)

    @property
    def roots(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes if not self._parents[n.name])

    @property
    def nonroots(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes if self._parents[n.name])

    @property
    def is_strict(self) -> bool:
        """True iff every latent node is a root."""
        return all(not self._parents[n.name] for n in self.nodes if n.is_latent)

    def topological_order(self) -> tuple[str, ...]:
        """Node names in a topological order, ties broken by node-list order."""
        return self._order

    # --- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "nodes": [{"name": n.name, "role": n.role} for n in self.nodes],
            "edges": sorted([p, c] for p, c in self.edges),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PmDag":
        if not isinstance(data, dict) or not {"nodes", "edges"} <= data.keys():
            raise GraphError("a graph needs an object with 'nodes' and 'edges'")
        nodes, edges = data["nodes"], data["edges"]
        if not isinstance(nodes, list) or not isinstance(edges, list):
            raise GraphError("a graph's 'nodes' and 'edges' must be lists")
        for node in nodes:
            fields = [node.get("name"), node.get("role")] if isinstance(node, dict) else node
            if not _is_name_pair(fields):
                raise GraphError(f"node {node!r} must be an object or a pair with string 'name' and 'role'")
        for edge in edges:
            if not _is_name_pair(edge):
                raise GraphError(f"edge {edge!r} must be a pair of node names")
        return cls(nodes, [tuple(e) for e in edges])

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def load_graph(path) -> PmDag:
    with open(path, "r", encoding="utf-8") as fh:
        return PmDag.from_dict(json.load(fh))


def save_graph(g: PmDag, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(g.to_dict(), fh, indent=2)
        fh.write("\n")


# --- structural parameters ---------------------------------------------


class StructuralParams:
    """One weight vector per non-root node, indexed by its parent list.

    Root nodes are standard normal with variance 1; the weight vector of a
    non-root follows the graph's parent ordering (node-list order).
    """

    __slots__ = ("weights",)

    def __init__(self, weights: dict[str, np.ndarray]):
        self.weights = {name: np.asarray(w, dtype=float) for name, w in weights.items()}

    @classmethod
    def from_edge_dict(cls, g: PmDag, edge_weights: dict[tuple[str, str], float]) -> "StructuralParams":
        weights = {}
        for name in g.nonroots:
            pa = g.parents(name)
            weights[name] = np.array([edge_weights.get((p, name), 0.0) for p in pa], dtype=float)
        return cls(weights)

    def to_edge_dict(self, g: PmDag) -> dict[tuple[str, str], float]:
        out = {}
        for name, vec in self.weights.items():
            for p, w in zip(g.parents(name), vec):
                out[(p, name)] = float(w)
        return out

    def edge_weight(self, g: PmDag, parent: str, child: str) -> float:
        pa = g.parents(child)
        return float(self.weights[child][pa.index(parent)])

    def with_edge_weight(self, g: PmDag, parent: str, child: str, value: float) -> "StructuralParams":
        new = {name: vec.copy() for name, vec in self.weights.items()}
        new[child][g.parents(child).index(parent)] = value
        return StructuralParams(new)

    def validate_for(self, g: PmDag) -> None:
        nonroots = set(g.nonroots)
        if set(self.weights) != nonroots:
            raise GraphError("params must cover exactly the non-root nodes of the graph")
        for name, vec in self.weights.items():
            if vec.shape != (len(g.parents(name)),):
                raise GraphError(f"weight vector of {name!r} does not match its parent count")

    def __eq__(self, other):
        if not isinstance(other, StructuralParams):
            return NotImplemented
        return set(self.weights) == set(other.weights) and all(
            np.array_equal(self.weights[k], other.weights[k]) for k in self.weights
        )

    def __repr__(self):
        return f"StructuralParams({len(self.weights)} nodes)"


# --- operations ---------------------------------------------------------


def validate(nodes: Iterable, edges: Iterable[tuple[str, str]], strict: bool = False) -> PmDag:
    """Build a graph, raising on cycles, visible roots, and (if strict) non-root latents."""
    g = PmDag(nodes, edges)
    if strict and not g.is_strict:
        raise NonRootLatent(next(n.name for n, pa in zip(g.nodes, g.parent_index) if n.is_latent and pa))
    return g


def _ordered_targets(g: PmDag, targets: Iterable[str]) -> list[str]:
    targets = set(targets)
    for t in targets:
        g.index(t)
    return sorted(targets, key=g.index)


def exogenize(g: PmDag, targets: Iterable[str]) -> PmDag:
    """Remove non-root latent targets, rewiring each target's parents to its children."""
    out = g
    for t in _ordered_targets(g, targets):
        if not out.node(t).is_latent:
            raise NotLatent(t)
        if out.is_root(t):
            raise RootTarget(t)
        out = _exogenize_one(out, t)
    return out


def _exogenize_one(g: PmDag, target: str) -> PmDag:
    pa = g.parents(target)
    ch = g.children(target)
    nodes = [n for n in g.nodes if n.name != target]
    edges = {(p, c) for p, c in g.edges if target not in (p, c)}
    edges.update((p, c) for p in pa for c in ch)
    return PmDag(nodes, edges)


def exogenize_params(g: PmDag, params: StructuralParams, latent: str) -> tuple[PmDag, StructuralParams]:
    """Deterministically exogenize one non-root latent, composing its weights into its children.

    Each child's weight on a parent P becomes w_{P,child} + w_{latent,child} *
    w_{P,latent}; the joint covariance over the remaining nodes is unchanged.
    """
    new_graph = exogenize(g, {latent})
    params.validate_for(g)
    edge_w = params.to_edge_dict(g)
    composed = {}
    for child in g.children(latent):
        w_lc = edge_w[(latent, child)]
        for p in g.parents(latent):
            key = (p, child)
            composed[key] = edge_w.get(key, 0.0) + w_lc * edge_w[(p, latent)]
    merged = {k: v for k, v in edge_w.items() if latent not in k}
    merged.update(composed)
    return new_graph, StructuralParams.from_edge_dict(new_graph, merged)

"""Layered form of a graph: the structure behind the feed-forward solver.

A synchronization slices a graph into ordered layers by repeatedly peeling
root sets off the remainder.  Within a layer, a node either appears for the
first time (its layer-wise parents are its graph parents) or persists from
the previous layer (its only layer-wise parent is itself, an identity carry).
The per-layer weight matrices of the solver are shaped by these layers, with
a binary mask marking which entries are trainable.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from pmdag.graph import GraphError, PmDag, UnknownNode


class InvalidCustomPlan(GraphError):
    """A custom layer plan chose an empty or non-root peel set."""


class Synchronization:
    """Ordered layers of node references over a fixed graph.

    Layers hold node indices (into the graph's node list) in node-list order,
    so a node's column position within a layer is stable.
    """

    __slots__ = ("graph", "layers", "first_appearance", "weight_shapes")

    def __init__(self, graph: PmDag, layers: Sequence[Sequence[int]]):
        self.graph = graph
        self.layers = tuple(tuple(sorted(layer)) for layer in layers)
        first = {}
        for l, layer in enumerate(self.layers):
            for idx in layer:
                first.setdefault(idx, l)
        self.first_appearance = first
        # (rows, cols) of each layer's weight matrix, checked on every engine call
        self.weight_shapes = tuple(
            (len(prev), len(cur)) for prev, cur in zip(self.layers, self.layers[1:]))

    @property
    def depth(self) -> int:
        return len(self.layers)

    def __repr__(self):
        return f"Synchronization(depth={self.depth}, graph={self.graph!r})"

    def layer_names(self, l: int) -> tuple[str, ...]:
        return tuple(self.graph.nodes[i].name for i in self.layers[l])

    def app(self, name: str) -> int:
        """Index of the lowest layer on which the node appears."""
        idx = self.graph.index(name)
        return self.first_appearance[idx]

    def layer_parents(self, l: int, idx: int) -> tuple[int, ...]:
        """Layer-wise parents of node ``idx`` in layer ``l`` (a subset of layer l-1).

        Graph parents on first appearance, the node itself afterwards.
        """
        if l <= 0 or l >= self.depth:
            raise GraphError(f"layer index {l} out of range for depth {self.depth}")
        if idx not in self.layers[l]:
            raise UnknownNode(self.graph.nodes[idx].name)
        if self.first_appearance[idx] == l:
            return tuple(self.graph.index(p) for p in self.graph.parents(self.graph.nodes[idx].name))
        return (idx,)

    def describe(self) -> str:
        """Human-readable dump of layers with first-appearance markers."""
        lines = [f"depth {self.depth}"]
        for l, layer in enumerate(self.layers):
            parts = []
            for idx in layer:
                node = self.graph.nodes[idx]
                mark = "*" if self.first_appearance[idx] == l else ""
                parts.append(node.name + mark)
            lines.append(f"  layer {l}: " + ", ".join(parts))
        return "\n".join(lines)

    def to_dot(self) -> str:
        """Layered drawing: solid edges on first appearance, dashed identity carries."""
        g = self.graph
        lines = ["digraph sync {", "  rankdir=LR;"]
        for l, layer in enumerate(self.layers):
            lines.append(f"  subgraph cluster_{l} {{")
            lines.append(f'    label="layer {l}";')
            for idx in layer:
                node = g.nodes[idx]
                shape = "box" if node.is_latent else "ellipse"
                lines.append(f'    "{node.name}@{l}" [label="{node.name}", shape={shape}];')
            lines.append("  }")
        for l in range(1, self.depth):
            for idx in self.layers[l]:
                style = "solid" if self.first_appearance[idx] == l else "dashed"
                for p in self.layer_parents(l, idx):
                    pname = g.nodes[p].name
                    cname = g.nodes[idx].name
                    lines.append(f'  "{pname}@{l - 1}" -> "{cname}@{l}" [style={style}];')
        lines.append("}")
        return "\n".join(lines)


def synchronize(g: PmDag, plan: Iterable[Iterable[str]] | None = None) -> Synchronization:
    """Peel the graph into layers.

    The first peel set is always the full root set.  Afterwards, the greedy
    default peels every root of the remainder each round, which minimizes
    depth; a custom ``plan`` may instead give the peel sets (as name
    iterables) for rounds 1, 2, ... and must cover the whole graph.
    """
    index = {n.name: i for i, n in enumerate(g.nodes)}
    remaining = set(index.values())
    visited: set[int] = set()
    peel = {index[name] for name in g.roots}
    plan_iter = iter(plan) if plan is not None else None
    layers = []

    while remaining:
        remaining -= peel
        # parents of anything still unvisited keep their latents alive
        alive_parents = set()
        for idx in remaining:
            for p in g.parents(g.nodes[idx].name):
                alive_parents.add(index[p])
        layer = set(peel)
        for idx in visited:
            node = g.nodes[idx]
            if node.is_visible or (node.is_latent and idx in alive_parents):
                layer.add(idx)
        layers.append(layer)
        visited |= peel
        if not remaining:
            break
        new_roots = {
            idx for idx in remaining
            if all(index[p] in visited for p in g.parents(g.nodes[idx].name))
        }
        if plan_iter is None:
            peel = new_roots
        else:
            try:
                chosen = {index.get(name) for name in next(plan_iter)}
            except StopIteration:
                raise InvalidCustomPlan("plan exhausted before the graph was covered") from None
            if None in chosen:
                raise InvalidCustomPlan("plan names a node outside the graph")
            if not chosen or not chosen <= new_roots:
                raise InvalidCustomPlan("each peel set must be a nonempty subset of the remainder's roots")
            peel = chosen
    if plan_iter is not None and next(plan_iter, None) is not None:
        raise InvalidCustomPlan("plan has leftover peel sets after the graph was covered")
    return Synchronization(g, layers)


class MaskSet:
    """Per-layer trainable masks and constant patterns for the weight stack.

    For layer l >= 1 (stored at list position l-1), entry (I, J) is trainable
    iff I is a layer-wise parent of J and I is not J itself; identity carries
    are the constant 1 entries, everything else is constant 0.
    ``edges`` lists one (parent_idx, child_idx, layer, row, col) tuple per
    trainable entry, i.e. one per (parent, non-root child) edge.
    """

    __slots__ = ("trainable", "constants", "edges")

    def __init__(self, trainable, constants, edges):
        self.trainable = trainable
        self.constants = constants
        self.edges = edges

    @property
    def n_trainable(self) -> int:
        return len(self.edges)


def build_masks(sync: Synchronization) -> MaskSet:
    trainable = []
    constants = []
    edges = []
    for l in range(1, sync.depth):
        rows = sync.layers[l - 1]
        cols = sync.layers[l]
        row_pos = {idx: r for r, idx in enumerate(rows)}
        mask = np.zeros((len(rows), len(cols)))
        const = np.zeros((len(rows), len(cols)))
        for c, col_idx in enumerate(cols):
            if sync.first_appearance[col_idx] == l:
                for p in sync.layer_parents(l, col_idx):
                    mask[row_pos[p], c] = 1.0
                    edges.append((p, col_idx, l, row_pos[p], c))
            else:
                const[row_pos[col_idx], c] = 1.0
        trainable.append(mask)
        constants.append(const)
    return MaskSet(trainable, constants, edges)

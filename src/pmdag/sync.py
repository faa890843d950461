"""Layered form of a graph: the structure behind the feed-forward solver.

A synchronization slices a graph into ordered layers by repeatedly peeling
root sets off the remainder; a node first appears in the layer of the round
that peels it, which is its longest-path level.  The class computes these
levels itself from the graph, so no caller can hand in a layering that
disagrees with the graph's edges.  Within a layer, a node either appears for
the first time (its layer-wise parents are its graph parents) or persists
from the previous layer (its only layer-wise parent is itself, an identity
carry).  The per-layer weight matrices of the solver are shaped by these
layers, with a binary mask marking which entries are trainable.
``Synchronization.edges`` lists those trainable edges once, and its order is
the order of theta, the edge-weight vector every engine reads.
"""

from __future__ import annotations

import numpy as np

from pmdag.graph import PmDag


class Synchronization:
    """Ordered layers of node references over a fixed graph, of minimal depth.

    Round 0 peels the full root set, and every later round peels every root
    of the remainder: ``first_appearance[i]``, the layer in which node ``i``
    first appears, is its longest-path level.  Node ``i`` is in layer ``l``
    iff it first appears there, or it appeared earlier and is visible or has
    a child that first appears after ``l``.  Layers hold node indices (into
    the graph's node list) in node-list order, so a node's column position
    within a layer is stable; ``new[l]`` holds the nodes that first appear in
    layer ``l``.  ``edges`` holds one ``(parent, child, layer)`` triple per
    trainable edge, in theta's order: layer by layer, each node first appearing
    in that layer in node-list order, then its graph parents in node-list
    order.
    """

    __slots__ = ("graph", "layers", "new", "first_appearance", "edges")

    def __init__(self, graph: PmDag):
        first = [0] * len(graph.nodes)
        for i in map(graph.index, graph.topological_order()):
            first[i] = 1 + max((first[p] for p in graph.parent_index[i]), default=-1)
        last_child = [0] * len(first)
        for c, pa in enumerate(graph.parent_index):
            for p in pa:
                last_child[p] = max(last_child[p], first[c])
        self.graph = graph
        self.first_appearance = tuple(first)
        self.layers = tuple(
            tuple(i for i, node in enumerate(graph.nodes)
                  if first[i] == l or (first[i] < l and (node.is_visible or last_child[i] > l)))
            for l in range(max(first, default=-1) + 1))
        self.new = tuple(tuple(i for i in layer if first[i] == l) for l, layer in enumerate(self.layers))
        self.edges = tuple((p, c, l) for l, new in enumerate(self.new)
                           for c in new for p in graph.parent_index[c])

    @property
    def depth(self) -> int:
        return len(self.layers)

    def __repr__(self):
        return f"Synchronization(depth={self.depth}, graph={self.graph!r})"

    def layer_names(self, l: int) -> tuple[str, ...]:
        return tuple(self.graph.nodes[i].name for i in self.layers[l])

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
                first = self.first_appearance[idx] == l
                style = "solid" if first else "dashed"
                for p in g.parent_index[idx] if first else (idx,):
                    lines.append(f'  "{g.nodes[p].name}@{l - 1}" -> "{g.nodes[idx].name}@{l}" [style={style}];')
        lines.append("}")
        return "\n".join(lines)


def synchronize(g: PmDag) -> Synchronization:
    """The graph's layered form: ``Synchronization(g)``, which computes the levels."""
    return Synchronization(g)


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
    at = [{idx: k for k, idx in enumerate(layer)} for layer in sync.layers]
    edges = [(p, c, l, at[l - 1][p], at[l][c]) for p, c, l in sync.edges]
    trainable = [np.zeros((len(rows), len(cols))) for rows, cols in zip(sync.layers, sync.layers[1:])]
    constants = [np.zeros_like(mask) for mask in trainable]
    for _p, _c, l, row, col in edges:
        trainable[l - 1][row, col] = 1.0
    for l in range(1, sync.depth):
        for col, idx in enumerate(sync.layers[l]):
            if sync.first_appearance[idx] < l:
                constants[l - 1][at[l - 1][idx], col] = 1.0
    return MaskSet(trainable, constants, edges)

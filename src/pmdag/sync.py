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
"""

from __future__ import annotations

import numpy as np

from pmdag.graph import GraphError, PmDag, UnknownNode


class Synchronization:
    """Ordered layers of node references over a fixed graph, of minimal depth.

    Round 0 peels the full root set, and every later round peels every root
    of the remainder: ``first_appearance[i]``, the layer in which node ``i``
    first appears, is its longest-path level.  Node ``i`` is in layer ``l``
    iff it first appears there, or it appeared earlier and is visible or has
    a child that first appears after ``l``.  Layers hold node indices (into
    the graph's node list) in node-list order, so a node's column position
    within a layer is stable; ``new[l]`` holds the nodes that first appear in
    layer ``l``.
    """

    __slots__ = ("graph", "layers", "new", "first_appearance")

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

    @property
    def depth(self) -> int:
        return len(self.layers)

    def __repr__(self):
        return f"Synchronization(depth={self.depth}, graph={self.graph!r})"

    def layer_names(self, l: int) -> tuple[str, ...]:
        return tuple(self.graph.nodes[i].name for i in self.layers[l])

    def layer_parents(self, l: int, idx: int) -> tuple[int, ...]:
        """Layer-wise parents of node ``idx`` in layer ``l`` (a subset of layer l-1).

        Graph parents on first appearance, the node itself afterwards.
        """
        if l <= 0 or l >= self.depth:
            raise GraphError(f"layer index {l} out of range for depth {self.depth}")
        if idx not in self.layers[l]:
            raise UnknownNode(self.graph.nodes[idx].name)
        if self.first_appearance[idx] == l:
            return self.graph.parent_index[idx]
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
                for p in sync.graph.parent_index[col_idx]:
                    mask[row_pos[p], c] = 1.0
                    edges.append((p, col_idx, l, row_pos[p], c))
            else:
                const[row_pos[col_idx], c] = 1.0
        trainable.append(mask)
        constants.append(const)
    return MaskSet(trainable, constants, edges)

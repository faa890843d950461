"""Layered form of a graph: the structure behind the feed-forward solver.

A synchronization slices a graph into ordered layers by repeatedly peeling
root sets off the remainder; a node first appears in the layer of the round
that peels it, which is its longest-path level.  The class computes these
levels itself from the graph, so no caller can hand in a layering that
disagrees with the graph's edges.  Within a layer, a node either appears for
the first time (its layer-wise parents are its graph parents) or persists
from the previous layer (its only layer-wise parent is itself, an identity
carry).  The per-layer weight matrices of the solver are shaped by these
layers; ``MaskSet`` holds the flat positions of their trainable entries and
of their identity carries.
``Synchronization.edges`` lists those trainable edges once, and its order is
the order of theta, the edge-weight vector every engine reads; with ``slices``
and ``MaskSet.positions`` it is theta's layout, which no other module derives.
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
    order.  ``slices[i]`` is node ``i``'s contiguous run of theta (``None`` for a root).
    """

    __slots__ = ("graph", "layers", "new", "first_appearance", "edges", "slices")

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
        edges, slices = [], [None] * len(first)
        for l, new in enumerate(self.new[1:], start=1):
            for c in new:
                slices[c] = slice(len(edges), len(edges) + len(graph.parent_index[c]))
                edges.extend((p, c, l) for p in graph.parent_index[c])
        self.edges, self.slices = tuple(edges), tuple(slices)

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
                lines.append(f'    {_quoted(f"{node.name}@{l}")} [label={_quoted(node.name)}, shape={shape}];')
            lines.append("  }")
        for l in range(1, self.depth):
            for idx in self.layers[l]:
                first = self.first_appearance[idx] == l
                style = "solid" if first else "dashed"
                for p in g.parent_index[idx] if first else (idx,):
                    lines.append(f'  {_quoted(f"{g.nodes[p].name}@{l - 1}")} -> '
                                 f'{_quoted(f"{g.nodes[idx].name}@{l}")} [style={style}];')
        lines.append("}")
        return "\n".join(lines)


def _quoted(text: str) -> str:
    """``text`` as a DOT quoted string, its backslashes and double quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def synchronize(g: PmDag) -> Synchronization:
    """The graph's layered form: ``Synchronization(g)``, which computes the levels."""
    return Synchronization(g)


class MaskSet:
    """Where the trainable entries and the constant 1s sit in the weight stack, as index arrays.

    The weight matrix of layer l >= 1 (list position l-1) has shape
    ``shapes[l - 1]``; entry (I, J) is trainable iff I is a layer-wise parent
    of J and I is not J itself, the identity carries are the constant 1s,
    and everything else is constant 0.  ``edges`` lists one (parent_idx,
    child_idx, layer, row, col) tuple per trainable edge, ``positions`` its
    flat index in the concatenated row-major stack of ``size`` entries, and
    ``ones`` the flat indices of the carries.  The dense 0/1 stacks
    ``trainable`` and ``constants`` are built anew each time they are read;
    the fit never reads them.
    """

    __slots__ = ("shapes", "edges", "positions", "ones")

    def __init__(self, shapes, edges, positions, ones):
        self.shapes = shapes
        self.edges = edges
        self.positions = positions
        self.ones = ones

    @property
    def n_trainable(self) -> int:
        return len(self.edges)

    @property
    def size(self) -> int:
        return sum(rows * cols for rows, cols in self.shapes)

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """The layer matrices of a flat buffer laid out like the weight stack, as views into it."""
        cuts = np.cumsum([rows * cols for rows, cols in self.shapes])[:-1]
        return [part.reshape(shape) for part, shape in zip(np.split(flat, cuts), self.shapes)]

    def stack(self, theta) -> list[np.ndarray]:
        """A weight stack over one new buffer: the constant pattern, with ``theta`` at ``positions``."""
        flat = np.zeros(self.size)
        flat[self.ones] = 1.0
        flat[self.positions] = theta
        return self.views(flat)

    @property
    def trainable(self) -> list[np.ndarray]:
        flat = np.zeros(self.size)
        flat[self.positions] = 1.0
        return self.views(flat)

    @property
    def constants(self) -> list[np.ndarray]:
        return self.stack(0.0)


def build_masks(sync: Synchronization) -> MaskSet:
    """The index arrays of the weight stack's trainable entries and identity carries."""
    at = [{idx: k for k, idx in enumerate(layer)} for layer in sync.layers]
    shapes = tuple((len(rows), len(cols)) for rows, cols in zip(sync.layers, sync.layers[1:]))
    start = np.cumsum([0] + [rows * cols for rows, cols in shapes])
    edges = [(p, c, l, at[l - 1][p], at[l][c]) for p, c, l in sync.edges]
    positions = np.array([start[l - 1] + r * shapes[l - 1][1] + col for _p, _c, l, r, col in edges],
                         dtype=np.intp)
    ones = np.array([start[l - 1] + at[l - 1][idx] * shapes[l - 1][1] + col
                     for l in range(1, sync.depth) for col, idx in enumerate(sync.layers[l])
                     if sync.first_appearance[idx] < l], dtype=np.intp)
    return MaskSet(shapes, edges, positions, ones)

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmdag.generate import canonical, canonical_names
from pmdag.graph import PmDag, validate
from pmdag.sync import build_masks, synchronize

from conftest import PROPERTY, demote_one_visible, pmdags, random_small_graph

# Greedy layers of the canonical graphs as the round-by-round peel produced them.
CANONICAL_LAYERS = {
    "backdoor": (("E_Z", "E_X", "E_Y"), ("E_X", "E_Y", "Z"), ("E_Y", "Z", "X"), ("Z", "X", "Y")),
    "bad_m": (("U_XZ", "U_ZY", "U_XY", "E_X", "E_Z", "E_Y"), ("U_ZY", "U_XY", "E_Y", "X", "Z"),
              ("X", "Z", "Y")),
    "bow": (("U_XY", "E_X", "E_Y"), ("U_XY", "E_Y", "X"), ("X", "Y")),
    "extended_bow": (("U_XZ", "E_X", "E_Z", "E_Y"), ("U_XZ", "E_Z", "E_Y", "X"), ("E_Y", "X", "Z"),
                     ("X", "Z", "Y")),
    "frontdoor": (("U_XY", "E_X", "E_M", "E_Y"), ("U_XY", "E_M", "E_Y", "X"),
                  ("U_XY", "E_Y", "X", "M"), ("X", "M", "Y")),
    "iv": (("U_XY", "E_Z", "E_X", "E_Y"), ("U_XY", "E_X", "E_Y", "Z"), ("U_XY", "E_Y", "Z", "X"),
           ("Z", "X", "Y")),
    "m": (("U_XZ", "U_ZY", "E_X", "E_Z", "E_Y"), ("U_ZY", "E_Y", "X", "Z"), ("X", "Z", "Y")),
    "napkin": (("U_WX", "U_WY", "E_W", "E_R", "E_X", "E_Y"),
               ("U_WX", "U_WY", "E_R", "E_X", "E_Y", "W"),
               ("U_WX", "U_WY", "E_X", "E_Y", "W", "R"),
               ("U_WY", "E_Y", "W", "R", "X"), ("W", "R", "X", "Y")),
}


class TestLayers:
    def test_bow_layers_and_depth(self, bow):
        sync = synchronize(bow)
        assert [sync.layer_names(l) for l in range(sync.depth)] == [
            ("A",), ("A", "X"), ("X", "Y")]
        assert sync.depth == 3

    def test_single_edge(self):
        g = validate([("L", "latent"), ("V", "visible")], [("L", "V")])
        sync = synchronize(g)
        assert [sync.layer_names(l) for l in range(2)] == [("L",), ("V",)]
        assert sync.depth == 2

    def test_independent_pairs_peel_together(self):
        g = validate(
            [("L1", "latent"), ("L2", "latent"), ("X", "visible"), ("Y", "visible")],
            [("L1", "X"), ("L2", "Y")],
        )
        sync = synchronize(g)
        assert sync.depth == 2
        assert sync.layer_names(0) == ("L1", "L2")
        assert sync.layer_names(1) == ("X", "Y")

    def test_first_appearance_bow(self, bow):
        sync = synchronize(bow)
        assert sync.first_appearance[bow.index("A")] == 0
        assert sync.first_appearance[bow.index("X")] == 1
        assert sync.first_appearance[bow.index("Y")] == 2

    def test_every_visible_in_last_layer(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            g = random_small_graph(rng)
            sync = synchronize(g)
            assert set(g.visible_names) <= set(sync.layer_names(sync.depth - 1))

    def test_roots_fill_layer_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g = random_small_graph(rng)
            sync = synchronize(g)
            assert sync.layer_names(0) == g.roots
            for r in g.roots:
                assert sync.first_appearance[g.index(r)] == 0

    def test_appearance_strictly_increases_along_edges(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            g = random_small_graph(rng)
            sync = synchronize(g)
            for p, c in g.edges:
                assert sync.first_appearance[g.index(c)] > sync.first_appearance[g.index(p)]
                assert sync.first_appearance[g.index(c)] > 0

    def test_presence_is_contiguous(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            g = random_small_graph(rng)
            sync = synchronize(g)
            for idx in range(len(g.nodes)):
                present = [l for l in range(sync.depth) if idx in sync.layers[l]]
                assert present == list(range(min(present), max(present) + 1))

    def test_edges_join_consecutive_layers(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            g = random_small_graph(rng)
            sync = synchronize(g)
            for p, c, l in sync.edges:
                assert p in sync.layers[l - 1]
                assert sync.first_appearance[c] == l
            into_nonroots = [(g.index(p), g.index(c)) for p, c in g.edges if c in g.nonroots]
            assert sorted((p, c) for p, c, _l in sync.edges) == sorted(into_nonroots)

    def test_greedy_depth_is_longest_path_plus_one(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            g = random_small_graph(rng)
            depth = {}
            for name in g.topological_order():
                depth[name] = 1 + max((depth[p] for p in g.parents(name)), default=-1)
            longest_edges = max(depth.values())
            assert synchronize(g).depth == longest_edges + 1
            assert synchronize(g).depth <= len(g.nodes)


class TestCanonicalLayers:
    def test_every_canonical_graph_pinned(self):
        assert sorted(CANONICAL_LAYERS) == sorted(canonical_names())

    @pytest.mark.parametrize("name", sorted(CANONICAL_LAYERS))
    def test_greedy_layers(self, name):
        sync = synchronize(canonical(name))
        assert tuple(sync.layer_names(l) for l in range(sync.depth)) == CANONICAL_LAYERS[name]


def longest_path_levels(g):
    """Edges on the longest root-to-node path, by recursion over parents."""
    level = {}

    def visit(name):
        if name not in level:
            level[name] = 1 + max((visit(p) for p in g.parents(name)), default=-1)
        return level[name]

    return [visit(name) for name in g.names]


class TestStructureProperties:
    """Layers, first appearances and the topological order against their definitions."""

    @PROPERTY
    @given(pmdags(), st.data())
    def test_strict_and_relabeled_graphs(self, g, data):
        demoted = demote_one_visible(g, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
        perm = data.draw(st.permutations(range(len(g.nodes))))
        shuffled = PmDag([g.nodes[i] for i in perm], g.edges)
        for graph in [g, shuffled] + ([demoted[0]] if demoted else []):
            self.check_layers(graph)
            self.check_order(graph)

    def check_layers(self, g):
        sync = synchronize(g)
        first = list(sync.first_appearance)
        assert first == longest_path_levels(g)
        for l, layer in enumerate(sync.layers):
            # first appears here, or stays while visible or a child is still to appear
            assert layer == tuple(
                i for i, node in enumerate(g.nodes)
                if first[i] == l or (first[i] < l and (
                    node.is_visible or any(first[g.index(c)] > l for c in g.children(node.name)))))
            assert sync.new[l] == tuple(i for i in layer if first[i] == l)

    def check_order(self, g):
        assert g.parent_index == tuple(tuple(g.index(p) for p in g.parents(n)) for n in g.names)
        order = g.topological_order()
        assert sorted(order) == sorted(g.names)
        done = set()
        for name in order:
            ready = [n for n in g.names if n not in done and set(g.parents(n)) <= done]
            assert name == ready[0]  # the smallest ready index, since names are in node order
            done.add(name)


class TestMasks:
    def test_bow_masks_match_hand_derivation(self, bow):
        sync = synchronize(bow)
        masks = build_masks(sync)
        np.testing.assert_array_equal(masks.trainable[0], [[0.0, 1.0]])
        np.testing.assert_array_equal(masks.constants[0], [[1.0, 0.0]])
        np.testing.assert_array_equal(masks.trainable[1], [[0.0, 1.0], [0.0, 1.0]])
        np.testing.assert_array_equal(masks.constants[1], [[0.0, 0.0], [1.0, 0.0]])

    def test_chain_single_trainable(self):
        g = validate([("L", "latent"), ("V", "visible")], [("L", "V")])
        masks = build_masks(synchronize(g))
        np.testing.assert_array_equal(masks.trainable[0], [[1.0]])

    def test_trainable_count_is_one_per_edge_into_nonroot(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            g = random_small_graph(rng)
            masks = build_masks(synchronize(g))
            expected = sum(len(g.parents(n)) for n in g.nonroots)
            assert masks.n_trainable == expected
            assert sum(int(m.sum()) for m in masks.trainable) == expected

    def test_shapes_follow_layers(self):
        rng = np.random.default_rng(13)
        g = random_small_graph(rng)
        sync = synchronize(g)
        masks = build_masks(sync)
        for l in range(1, sync.depth):
            want = (len(sync.layers[l - 1]), len(sync.layers[l]))
            assert masks.trainable[l - 1].shape == want
            assert masks.constants[l - 1].shape == want

    def test_trainable_and_constant_disjoint(self):
        rng = np.random.default_rng(14)
        g = random_small_graph(rng)
        masks = build_masks(synchronize(g))
        for m, c in zip(masks.trainable, masks.constants):
            assert not np.any((m > 0) & (c > 0))


class TestNonStrictGraphs:
    def test_latent_chain_layering(self):
        g = validate(
            [("L0", "latent"), ("L", "latent"), ("X", "visible"), ("Y", "visible")],
            [("L0", "L"), ("L", "X"), ("L", "Y"), ("X", "Y")],
        )
        sync = synchronize(g)
        assert [sync.layer_names(l) for l in range(sync.depth)] == [
            ("L0",), ("L",), ("L", "X"), ("X", "Y")]

    def test_latent_sink_reaches_last_layer(self):
        g = validate(
            [("L", "latent"), ("S", "latent"), ("X", "visible")],
            [("L", "X"), ("L", "S")],
        )
        sync = synchronize(g)
        assert sync.layer_names(sync.depth - 1) == ("S", "X")


def latent_sink_graph():
    """Non-strict: latent roots A and B, visible X and Y, and S a latent sink in the last layer."""
    return validate(
        [("A", "latent"), ("B", "latent"), ("X", "visible"), ("Y", "visible"), ("S", "latent")],
        [("A", "X"), ("X", "S"), ("B", "Y"), ("X", "Y")],
    )


# Exact drawings: solid lines are graph edges into a node's first layer,
# dashed lines the identity carries of a node that persists.
NAPKIN_DESCRIBE = """\
depth 5
  layer 0: U_WX*, U_WY*, E_W*, E_R*, E_X*, E_Y*
  layer 1: U_WX, U_WY, E_R, E_X, E_Y, W*
  layer 2: U_WX, U_WY, E_X, E_Y, W, R*
  layer 3: U_WY, E_Y, W, R, X*
  layer 4: W, R, X, Y*"""

NAPKIN_DOT = """\
digraph sync {
  rankdir=LR;
  subgraph cluster_0 {
    label="layer 0";
    "U_WX@0" [label="U_WX", shape=box];
    "U_WY@0" [label="U_WY", shape=box];
    "E_W@0" [label="E_W", shape=box];
    "E_R@0" [label="E_R", shape=box];
    "E_X@0" [label="E_X", shape=box];
    "E_Y@0" [label="E_Y", shape=box];
  }
  subgraph cluster_1 {
    label="layer 1";
    "U_WX@1" [label="U_WX", shape=box];
    "U_WY@1" [label="U_WY", shape=box];
    "E_R@1" [label="E_R", shape=box];
    "E_X@1" [label="E_X", shape=box];
    "E_Y@1" [label="E_Y", shape=box];
    "W@1" [label="W", shape=ellipse];
  }
  subgraph cluster_2 {
    label="layer 2";
    "U_WX@2" [label="U_WX", shape=box];
    "U_WY@2" [label="U_WY", shape=box];
    "E_X@2" [label="E_X", shape=box];
    "E_Y@2" [label="E_Y", shape=box];
    "W@2" [label="W", shape=ellipse];
    "R@2" [label="R", shape=ellipse];
  }
  subgraph cluster_3 {
    label="layer 3";
    "U_WY@3" [label="U_WY", shape=box];
    "E_Y@3" [label="E_Y", shape=box];
    "W@3" [label="W", shape=ellipse];
    "R@3" [label="R", shape=ellipse];
    "X@3" [label="X", shape=ellipse];
  }
  subgraph cluster_4 {
    label="layer 4";
    "W@4" [label="W", shape=ellipse];
    "R@4" [label="R", shape=ellipse];
    "X@4" [label="X", shape=ellipse];
    "Y@4" [label="Y", shape=ellipse];
  }
  "U_WX@0" -> "U_WX@1" [style=dashed];
  "U_WY@0" -> "U_WY@1" [style=dashed];
  "E_R@0" -> "E_R@1" [style=dashed];
  "E_X@0" -> "E_X@1" [style=dashed];
  "E_Y@0" -> "E_Y@1" [style=dashed];
  "U_WX@0" -> "W@1" [style=solid];
  "U_WY@0" -> "W@1" [style=solid];
  "E_W@0" -> "W@1" [style=solid];
  "U_WX@1" -> "U_WX@2" [style=dashed];
  "U_WY@1" -> "U_WY@2" [style=dashed];
  "E_X@1" -> "E_X@2" [style=dashed];
  "E_Y@1" -> "E_Y@2" [style=dashed];
  "W@1" -> "W@2" [style=dashed];
  "E_R@1" -> "R@2" [style=solid];
  "W@1" -> "R@2" [style=solid];
  "U_WY@2" -> "U_WY@3" [style=dashed];
  "E_Y@2" -> "E_Y@3" [style=dashed];
  "W@2" -> "W@3" [style=dashed];
  "R@2" -> "R@3" [style=dashed];
  "U_WX@2" -> "X@3" [style=solid];
  "E_X@2" -> "X@3" [style=solid];
  "R@2" -> "X@3" [style=solid];
  "W@3" -> "W@4" [style=dashed];
  "R@3" -> "R@4" [style=dashed];
  "X@3" -> "X@4" [style=dashed];
  "U_WY@3" -> "Y@4" [style=solid];
  "E_Y@3" -> "Y@4" [style=solid];
  "X@3" -> "Y@4" [style=solid];
}"""

LATENT_SINK_DESCRIBE = """\
depth 3
  layer 0: A*, B*
  layer 1: B, X*
  layer 2: X, Y*, S*"""

LATENT_SINK_DOT = """\
digraph sync {
  rankdir=LR;
  subgraph cluster_0 {
    label="layer 0";
    "A@0" [label="A", shape=box];
    "B@0" [label="B", shape=box];
  }
  subgraph cluster_1 {
    label="layer 1";
    "B@1" [label="B", shape=box];
    "X@1" [label="X", shape=ellipse];
  }
  subgraph cluster_2 {
    label="layer 2";
    "X@2" [label="X", shape=ellipse];
    "Y@2" [label="Y", shape=ellipse];
    "S@2" [label="S", shape=box];
  }
  "B@0" -> "B@1" [style=dashed];
  "A@0" -> "X@1" [style=solid];
  "X@1" -> "X@2" [style=dashed];
  "B@1" -> "Y@2" [style=solid];
  "X@1" -> "Y@2" [style=solid];
  "X@1" -> "S@2" [style=solid];
}"""


class TestDumps:
    def test_describe_marks_first_appearance(self, bow):
        text = synchronize(bow).describe()
        assert "depth 3" in text
        assert "A*" in text and "X*" in text

    def test_dot_solid_and_dashed(self, bow):
        dot = synchronize(bow).to_dot()
        assert "style=solid" in dot
        assert "style=dashed" in dot

    @pytest.mark.parametrize("graph, describe, dot", [
        (lambda: canonical("napkin"), NAPKIN_DESCRIBE, NAPKIN_DOT),
        (latent_sink_graph, LATENT_SINK_DESCRIBE, LATENT_SINK_DOT),
    ], ids=["napkin", "latent_sink"])
    def test_drawings_pinned(self, graph, describe, dot):
        sync = synchronize(graph())
        assert sync.describe() == describe
        assert sync.to_dot() == dot

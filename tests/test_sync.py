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

    def test_layer_parents_within_previous_layer(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            g = random_small_graph(rng)
            sync = synchronize(g)
            for l in range(1, sync.depth):
                for idx in sync.layers[l]:
                    assert set(sync.layer_parents(l, idx)) <= set(sync.layers[l - 1])

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


class TestDumps:
    def test_describe_marks_first_appearance(self, bow):
        text = synchronize(bow).describe()
        assert "depth 3" in text
        assert "A*" in text and "X*" in text

    def test_dot_solid_and_dashed(self, bow):
        dot = synchronize(bow).to_dot()
        assert "style=solid" in dot
        assert "style=dashed" in dot

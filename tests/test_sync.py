import numpy as np
import pytest

from pmdag.graph import validate
from pmdag.sync import InvalidCustomPlan, build_masks, synchronize

from conftest import random_small_graph


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
        assert sync.app("A") == 0
        assert sync.app("X") == 1
        assert sync.app("Y") == 2

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
                assert sync.app(r) == 0

    def test_appearance_strictly_increases_along_edges(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            g = random_small_graph(rng)
            sync = synchronize(g)
            for p, c in g.edges:
                assert sync.app(c) > sync.app(p)
                assert sync.app(c) > 0

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


class TestCustomPlans:
    def diamond(self):
        return validate(
            [("L1", "latent"), ("L2", "latent"), ("X", "visible"), ("Y", "visible")],
            [("L1", "X"), ("L2", "Y"), ("L1", "Y"), ("L2", "X")],
        )

    def test_plan_changes_layering_not_trainables(self):
        g = self.diamond()
        greedy = synchronize(g)
        custom = synchronize(g, plan=[["X"], ["Y"]])
        assert greedy.depth == 2 and custom.depth == 3
        assert build_masks(greedy).n_trainable == build_masks(custom).n_trainable

    def test_plan_preserves_final_covariance(self):
        from pmdag.solver import forward_cov, weights_from_params
        from conftest import random_params

        rng = np.random.default_rng(15)
        g = self.diamond()
        params = random_params(g, rng)
        results = []
        for plan in (None, [["X"], ["Y"]], [["Y"], ["X"]]):
            sync = synchronize(g, plan=plan)
            masks = build_masks(sync)
            weights = weights_from_params(g, masks, params)
            sigma, _, _ = forward_cov(sync, weights)
            names = sync.layer_names(sync.depth - 1)
            pos = [names.index(v) for v in g.visible_names]
            results.append(sigma[np.ix_(pos, pos)])
        np.testing.assert_allclose(results[1], results[0], atol=1e-12)
        np.testing.assert_allclose(results[2], results[0], atol=1e-12)

    def test_empty_peel_rejected(self):
        with pytest.raises(InvalidCustomPlan):
            synchronize(self.diamond(), plan=[[], ["X", "Y"]])

    def test_non_root_peel_rejected(self, bow):
        # Y still depends on the unpeeled X
        with pytest.raises(InvalidCustomPlan):
            synchronize(bow, plan=[["Y"], ["X"]])

    def test_unknown_name_rejected(self, bow):
        with pytest.raises(InvalidCustomPlan):
            synchronize(bow, plan=[["Q"], ["X", "Y"]])

    def test_exhausted_plan_rejected(self, bow):
        with pytest.raises(InvalidCustomPlan):
            synchronize(bow, plan=[["X"]])

    def test_leftover_plan_rejected(self, bow):
        with pytest.raises(InvalidCustomPlan):
            synchronize(bow, plan=[["X"], ["Y"], ["Y"]])

    def test_random_plans_equivalent_to_greedy(self):
        # peel random nonempty root subsets; layer count grows but nothing else
        from pmdag.solver import forward_cov, weights_from_params
        from conftest import random_params, random_small_graph

        rng = np.random.default_rng(16)
        for _ in range(10):
            g = random_small_graph(rng)
            params = random_params(g, rng)
            greedy = synchronize(g)

            plan = []
            visited = set(g.roots)
            remaining = set(g.names) - visited
            while remaining:
                ready = [n for n in remaining if set(g.parents(n)) <= visited]
                take = max(1, int(rng.integers(1, len(ready) + 1)))
                picked = list(rng.choice(ready, size=take, replace=False))
                plan.append(picked)
                visited |= set(picked)
                remaining -= set(picked)
            custom = synchronize(g, plan=plan)
            assert build_masks(custom).n_trainable == build_masks(greedy).n_trainable

            def visible_cov(sync):
                weights = weights_from_params(g, build_masks(sync), params)
                sigma, _, _ = forward_cov(sync, weights)
                names = sync.layer_names(sync.depth - 1)
                pos = [names.index(v) for v in g.visible_names]
                return sigma[np.ix_(pos, pos)]

            np.testing.assert_allclose(visible_cov(custom), visible_cov(greedy),
                                       atol=1e-10, rtol=1e-10)


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

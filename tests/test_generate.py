import numpy as np
import pytest

from pmdag.generate import (
    CANONICAL,
    GenSpec,
    InfeasibleBudget,
    UnknownName,
    canonical,
    canonical_names,
    edge_budget,
    ground_truth,
    latent_count,
    random_pmdag,
)
from pmdag.graph import GraphError, validate
from pmdag.solver import joint_cov


class TestSizeFormulas:
    def test_latent_count_examples(self):
        assert latent_count(16, 0.0) == 16
        assert latent_count(16, 0.5) == 32

    def test_edge_budget_example(self):
        assert edge_budget(4, 0.0, 1.0) == 26  # (16 + 6 + 4) * 1

    def test_zero_density(self):
        assert edge_budget(10, 0.0, 0.0) == 0

    def test_spec_validation(self):
        with pytest.raises(GraphError):
            GenSpec(v=0)
        with pytest.raises(GraphError):
            GenSpec(v=4, l_star=1.0)
        with pytest.raises(GraphError):
            GenSpec(v=4, e_star=1.5)
        with pytest.raises(GraphError, match="seed"):
            GenSpec(v=4, seed=-1)
        for kwargs in ({"v": 4.0}, {"v": True}, {"v": 4, "seed": 1.5}):
            with pytest.raises(GraphError, match="must be an integer"):
                GenSpec(**kwargs)
        for kwargs in ({"e_star": True}, {"l_star": None}):
            with pytest.raises(GraphError, match="must lie in"):
                GenSpec(v=3, **kwargs)
        assert GenSpec(v=np.int64(4), seed=np.int32(1)) == GenSpec(v=4, seed=1)


class TestRandomPmdag:
    def test_always_strict_with_auxiliary_edges(self):
        for seed in range(5):
            g = random_pmdag(GenSpec(v=6, l_star=0.4, e_star=0.5, seed=seed))
            validate(g.nodes, g.edges, strict=True)
            for i in range(6):
                assert (f"L{i}", f"V{i}") in g.edges

    def test_exact_edge_count_when_feasible(self):
        spec = GenSpec(v=8, l_star=0.5, e_star=0.4, seed=1)
        g = random_pmdag(spec)
        assert len(g.edges) == edge_budget(8, 0.5, 0.4)

    def test_minimum_edges_are_the_auxiliaries(self):
        g = random_pmdag(GenSpec(v=8, l_star=0.0, e_star=0.0, seed=0))
        assert len(g.edges) == 8

    def test_budget_clamped_with_warning(self):
        spec = GenSpec(v=4, l_star=0.0, e_star=1.0, seed=0)
        with pytest.warns(InfeasibleBudget):
            g = random_pmdag(spec)
        # full pool: every latent->visible pair plus ordered visible pairs
        assert len(g.edges) == 4 * 4 + 6

    def test_deterministic_per_seed(self):
        spec = GenSpec(v=6, l_star=0.5, e_star=0.6, seed=9)
        assert random_pmdag(spec) == random_pmdag(spec)
        other = GenSpec(v=6, l_star=0.5, e_star=0.6, seed=10)
        assert random_pmdag(other) != random_pmdag(spec)


class TestCanonical:
    def test_names(self):
        assert set(canonical_names()) == {
            "backdoor", "frontdoor", "m", "napkin", "iv", "bow", "extended_bow", "bad_m"}

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            canonical("nonesuch")

    def test_bow_structure(self):
        g = canonical("bow")
        assert set(g.visible_names) == {"X", "Y"}
        assert {n.name for n in g.nodes if n.is_latent} == {"U_XY", "E_X", "E_Y"}
        assert g.edges == frozenset({
            ("U_XY", "X"), ("U_XY", "Y"), ("E_X", "X"), ("E_Y", "Y"), ("X", "Y")})

    def test_iv_structure(self):
        g = canonical("iv")
        assert ("Z", "X") in g.edges
        assert ("X", "Y") in g.edges
        # the instrument reaches Y only through X
        assert g.parents("Z") == ("E_Z",)
        assert "Z" not in g.parents("Y")
        assert set(g.children("U_XY")) == {"X", "Y"}

    def test_backdoor_structure(self):
        g = canonical("backdoor")
        assert set(g.visible_names) == {"X", "Y", "Z"}
        assert ("Z", "X") in g.edges and ("Z", "Y") in g.edges

    def test_all_are_strict_with_noise_roots(self):
        for name in CANONICAL:
            g = canonical(name)
            validate(g.nodes, g.edges, strict=True)
            assert "X" in g.visible_names and "Y" in g.visible_names
            for v in g.visible_names:
                assert f"E_{v}" in g.parents(v)

    def test_name_normalization(self):
        assert canonical("Extended-Bow") == canonical("extended_bow")


class TestGroundTruth:
    def test_deterministic(self):
        g = canonical("backdoor")
        p1, c1 = ground_truth(g, seed=4)
        p2, c2 = ground_truth(g, seed=4)
        assert p1 == p2
        np.testing.assert_array_equal(c1.data, c2.data)

    def test_negative_seed_rejected(self):
        with pytest.raises(GraphError, match="seed"):
            ground_truth(canonical("bow"), -1)

    @pytest.mark.parametrize("seed", [True, 1.5], ids=["bool", "float"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(GraphError, match="seed must be an integer"):
            ground_truth(canonical("bow"), seed)

    def test_covariance_is_psd_and_matches_params(self):
        g = canonical("napkin")
        params, cov = ground_truth(g, seed=8)
        eigs = np.linalg.eigvalsh(cov.data)
        assert eigs.min() >= -1e-10 * np.trace(cov.data)
        expected = joint_cov(g, params).restrict(g.visible_names)
        np.testing.assert_allclose(cov.data, expected.data, atol=1e-12)

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmdag.graph import (
    CycleDetected,
    GraphError,
    Node,
    NonRootLatent,
    NotLatent,
    PmDag,
    RootTarget,
    StructuralParams,
    UnknownNode,
    VisibleRoot,
    exogenize,
    exogenize_params,
    validate,
)
from pmdag.solver import joint_cov

from conftest import PROPERTY, demote_one_visible, pmdags, random_params, random_small_graph


class TestValidate:
    def test_minimal_graph(self):
        g = validate([("L", "latent"), ("X", "visible")], [("L", "X")], strict=True)
        assert g.names == ("L", "X")
        assert g.is_strict

    def test_visible_root_rejected(self):
        with pytest.raises(VisibleRoot) as exc:
            validate([("X", "visible")], [])
        assert exc.value.node == "X"

    def test_two_cycle_reported_with_path(self):
        with pytest.raises(CycleDetected) as exc:
            validate(
                [("L", "latent"), ("X", "visible"), ("Y", "visible")],
                [("L", "X"), ("X", "Y"), ("Y", "X")],
            )
        path = exc.value.path
        assert path[0] == path[-1]
        assert set(path) == {"X", "Y"}

    def test_self_loop_rejected(self):
        with pytest.raises(CycleDetected):
            validate([("L", "latent"), ("X", "visible")], [("L", "X"), ("X", "X")])

    def test_strict_rejects_non_root_latent(self):
        with pytest.raises(NonRootLatent) as exc:
            validate(
                [("L0", "latent"), ("L", "latent"), ("X", "visible")],
                [("L0", "L"), ("L", "X")],
                strict=True,
            )
        assert exc.value.node == "L"

    def test_duplicate_names_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            validate([("L", "latent"), ("L", "visible")], [])

    def test_unknown_edge_endpoint(self):
        with pytest.raises(UnknownNode):
            validate([("L", "latent"), ("X", "visible")], [("L", "X"), ("L", "Z")])

    def test_bad_role_rejected(self):
        with pytest.raises(GraphError):
            Node("A", "hidden")


class TestQuery:
    def test_bow_parents_in_node_order(self, bow):
        assert bow.parents("Y") == ("A", "X")
        assert not bow.is_root("Y")

    def test_root_has_no_parents(self, bow):
        assert bow.parents("A") == ()
        assert bow.is_root("A")

    def test_children(self, bow):
        assert bow.children("A") == ("X", "Y")

    def test_unknown_node(self, bow):
        for method in (bow.parents, bow.children, bow.is_root):
            with pytest.raises(UnknownNode):
                method("Q")


def fork_graph():
    """Latents L1, L2 feed a latent hub A that feeds visibles X, Y."""
    return validate(
        [("L1", "latent"), ("L2", "latent"), ("A", "latent"),
         ("X", "visible"), ("Y", "visible")],
        [("L1", "A"), ("L2", "A"), ("A", "X"), ("A", "Y"),
         ("L1", "X"), ("L2", "Y")],
    )


class TestExogenize:
    def test_deterministic_rewires_and_removes(self):
        g = fork_graph()
        out = exogenize(g, {"A"})
        assert "A" not in out
        for p in ("L1", "L2"):
            for c in ("X", "Y"):
                assert (p, c) in out.edges
        assert len(out.nodes) == len(g.nodes) - 1

    def test_empty_targets_is_identity(self, bow):
        assert exogenize(bow, set()) == bow

    def test_root_target_rejected_deterministically(self, bow):
        with pytest.raises(RootTarget):
            exogenize(bow, {"A"})

    def test_visible_target_rejected(self, bow):
        with pytest.raises(NotLatent):
            exogenize(bow, {"X"})

    def test_order_independent(self):
        g = validate(
            [("R1", "latent"), ("R2", "latent"), ("A", "latent"), ("B", "latent"),
             ("X", "visible")],
            [("R1", "A"), ("R2", "B"), ("A", "X"), ("B", "X"), ("A", "B")],
        )
        out = exogenize(g, {"A", "B"})
        # manual reversed order
        step = exogenize(g, {"B"})
        other = exogenize(step, {"A"})
        assert out == other


class TestExogenizeParams:
    def test_chain_composition(self, chain3):
        params = StructuralParams.from_edge_dict(chain3, {("L0", "L"): 2.0, ("L", "X"): 3.0})
        out, new_params = exogenize_params(chain3, params, "L")
        assert "L" not in out
        assert new_params.edge_weight(out, "L0", "X") == pytest.approx(6.0)
        cov = joint_cov(out, new_params)
        assert cov.get("X", "X") == pytest.approx(36.0)

    def test_zero_weight_child_stays_zero(self):
        g = validate(
            [("L0", "latent"), ("L", "latent"), ("X", "visible")],
            [("L0", "L"), ("L", "X"), ("L0", "X")],
        )
        params = StructuralParams.from_edge_dict(
            g, {("L0", "L"): 2.0, ("L", "X"): 0.0, ("L0", "X"): 0.0})
        out, new_params = exogenize_params(g, params, "L")
        assert new_params.edge_weight(out, "L0", "X") == 0.0

    def test_root_target_rejected(self, bow):
        params = StructuralParams.from_edge_dict(
            bow, {("A", "X"): 1.0, ("A", "Y"): 1.0, ("X", "Y"): 1.0})
        with pytest.raises(RootTarget):
            exogenize_params(bow, params, "A")

    def test_visible_target_rejected(self, bow):
        params = StructuralParams.from_edge_dict(
            bow, {("A", "X"): 1.0, ("A", "Y"): 1.0, ("X", "Y"): 1.0})
        with pytest.raises(NotLatent):
            exogenize_params(bow, params, "X")

    def test_unknown_target_rejected(self, bow):
        params = StructuralParams.from_edge_dict(
            bow, {("A", "X"): 1.0, ("A", "Y"): 1.0, ("X", "Y"): 1.0})
        with pytest.raises(UnknownNode):
            exogenize_params(bow, params, "Q")

    def test_covariance_invariant_on_randoms(self):
        rng = np.random.default_rng(21)
        done = 0
        while done < 10:
            g = random_small_graph(rng)
            demoted = demote_one_visible(g, rng)
            if demoted is None:
                continue
            g2, latent = demoted
            params = random_params(g2, rng)
            out, new_params = exogenize_params(g2, params, latent)
            keep = [n for n in g2.names if n != latent]
            before = joint_cov(g2, params).restrict(keep)
            after = joint_cov(out, new_params).restrict(keep)
            np.testing.assert_allclose(after.data, before.data, atol=1e-12, rtol=1e-12)
            done += 1


class TestSerialization:
    @PROPERTY
    @given(pmdags())
    def test_json_round_trip(self, g):
        again = PmDag.from_dict(json.loads(g.to_json()))
        assert again == g

    def test_dict_schema(self, bow):
        data = bow.to_dict()
        assert data["nodes"][0] == {"name": "A", "role": "latent"}
        assert ["A", "X"] in data["edges"]
        json.dumps(data)


class TestStructuralParams:
    @PROPERTY
    @given(pmdags(), st.data())
    def test_edge_dict_round_trip(self, g, data):
        weights = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=len(g.edges),
                                     max_size=len(g.edges)))
        edge_w = dict(zip(g.edges, weights))
        params = StructuralParams.from_edge_dict(g, edge_w)
        assert params.to_edge_dict(g) == edge_w

    def test_with_edge_weight(self, bow):
        params = StructuralParams.from_edge_dict(
            bow, {("A", "X"): 1.0, ("A", "Y"): 1.0, ("X", "Y"): 1.0})
        bumped = params.with_edge_weight(bow, "X", "Y", 0.0)
        assert bumped.edge_weight(bow, "X", "Y") == 0.0
        assert params.edge_weight(bow, "X", "Y") == 1.0

    def test_validate_for_catches_missing_and_bad_arity(self, bow):
        with pytest.raises(GraphError):
            StructuralParams({"X": np.array([1.0])}).validate_for(bow)
        with pytest.raises(GraphError):
            StructuralParams({
                "X": np.array([1.0, 2.0]),  # X has a single parent
                "Y": np.array([1.0, 2.0]),
            }).validate_for(bow)

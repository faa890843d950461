import math
from dataclasses import replace

import numpy as np
import pytest

from pmdag.gauss import CovMatrix
from pmdag.generate import canonical, ground_truth
from pmdag.graph import NotVisible, StructuralParams, UnknownNode, validate
from pmdag.identify import (
    NOT_IDENTIFIABLE,
    NOT_INDUCIBLE,
    PRESUMED_IDENTIFIABLE,
    FitBudgetExhausted,
    IdentifyError,
    InterventionQuery,
    divergence,
    identify,
    interventional_dist,
)
from pmdag.solver import FitConfig, derive_seed, fit, fit_kl, joint_cov

DO_X_ON_Y = InterventionQuery(("X",), (0.0,), ("Y",))


class TestInterventionQuery:
    def test_value_count_must_match(self):
        with pytest.raises(IdentifyError):
            InterventionQuery(("X",), (0.0, 1.0), ("Y",))

    def test_effects_required(self):
        with pytest.raises(IdentifyError):
            InterventionQuery(("X",), (0.0,), ())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, pytest.param("1.5", id="str")])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(IdentifyError, match="finite"):
            InterventionQuery(("X",), (value,), ("Y",))

    def test_duplicate_target_rejected(self):
        with pytest.raises(IdentifyError, match="more than once"):
            InterventionQuery(("X", "X"), (1.0, 2.0), ("Y",))

    def test_duplicate_effect_rejected(self):
        with pytest.raises(IdentifyError, match="more than once"):
            InterventionQuery(("X",), (0.0,), ("Y", "Y"))


class TestInterventionalDist:
    def params(self, bow, a=1.0, b=1.0, c=1.0):
        return StructuralParams.from_edge_dict(
            bow, {("A", "X"): a, ("A", "Y"): b, ("X", "Y"): c})

    def test_bow_do_zero(self, bow):
        dist = interventional_dist(bow, self.params(bow), DO_X_ON_Y)
        assert dist.mean[0] == 0.0
        assert dist.cov.data[0, 0] == pytest.approx(1.0)  # b^2

    def test_bow_do_one_shifts_mean(self, bow):
        dist = interventional_dist(bow, self.params(bow, c=0.7),
                                   InterventionQuery(("X",), (1.0,), ("Y",)))
        assert dist.mean[0] == pytest.approx(0.7)  # c
        assert dist.cov.data[0, 0] == pytest.approx(1.0)

    def test_empty_targets_is_observational_margin(self, bow):
        rng = np.random.default_rng(0)
        params = StructuralParams.from_edge_dict(
            bow, {("A", "X"): 0.3, ("A", "Y"): -1.1, ("X", "Y"): 0.8})
        dist = interventional_dist(bow, params, InterventionQuery((), (), ("X", "Y")))
        margin = joint_cov(bow, params).restrict(("X", "Y"))
        np.testing.assert_allclose(dist.cov.data, margin.data, atol=1e-12)
        np.testing.assert_array_equal(dist.mean, np.zeros(2))

    def test_intervened_effect_is_point_mass(self, bow):
        dist = interventional_dist(bow, self.params(bow),
                                   InterventionQuery(("X",), (2.0,), ("X", "Y")))
        assert dist.cov.data[0, 0] == 0.0
        assert dist.mean[0] == 2.0

    def test_latent_target_rejected(self, bow):
        with pytest.raises(NotVisible):
            interventional_dist(bow, self.params(bow),
                                InterventionQuery(("A",), (0.0,), ("Y",)))

    def test_unknown_node_rejected(self, bow):
        with pytest.raises(UnknownNode):
            interventional_dist(bow, self.params(bow),
                                InterventionQuery(("Q",), (0.0,), ("Y",)))

    def test_multi_target_intervention(self):
        g = canonical("backdoor")
        params = StructuralParams.from_edge_dict(g, {
            ("E_Z", "Z"): 1.0, ("E_X", "X"): 1.0, ("E_Y", "Y"): 0.5,
            ("Z", "X"): 0.3, ("Z", "Y"): -0.4, ("X", "Y"): 0.9})
        dist = interventional_dist(
            g, params, InterventionQuery(("X", "Z"), (1.0, 0.0), ("Y",)))
        assert dist.mean[0] == pytest.approx(0.9)  # only the direct edge remains
        assert dist.cov.data[0, 0] == pytest.approx(0.25)  # noise weight squared

    def test_no_node_name_is_reserved(self):
        # a latent root whose name an intervention could have used for its own node
        g = validate(
            [("__mut_X", "latent"), ("E_X", "latent"), ("E_Z", "latent"),
             ("X", "visible"), ("Z", "visible")],
            [("E_X", "X"), ("E_Z", "Z"), ("__mut_X", "Z"), ("X", "Z")])
        params = StructuralParams({"X": [1.0], "Z": [2.0, 1.0, 0.5]})
        dist = interventional_dist(g, params, InterventionQuery(("X",), (1.0,), ("Z",)))
        assert dist.mean[0] == pytest.approx(0.5)
        assert dist.cov.data[0, 0] == pytest.approx(5.0)  # 2^2 from __mut_X, 1 from E_Z


class TestCheckFit:
    def test_exact_params_pass(self, bow):
        params, target = ground_truth(canonical("bow"), seed=1)
        assert fit_kl(canonical("bow"), target, params) <= 1e-10

    def test_wrong_params_fail(self):
        g = canonical("bow")
        params, target = ground_truth(g, seed=1)
        bad = params.with_edge_weight(g, "X", "Y", params.edge_weight(g, "X", "Y") + 1.0)
        assert not fit_kl(g, target, bad) <= 1e-5

    def test_infinite_tolerance_accepts_anything(self):
        g = canonical("bow")
        params, target = ground_truth(g, seed=1)
        bad = params.with_edge_weight(g, "X", "Y", 99.0)
        assert fit_kl(g, target, bad) <= math.inf


class TestDivergence:
    def gauss(self, var, mean=0.0):
        from pmdag.gauss import GaussianDist
        return GaussianDist(np.array([mean]), CovMatrix(("Y",), [[var]]))

    def test_symmetric_max(self):
        d = divergence(self.gauss(2.0), self.gauss(1.0))
        assert d == pytest.approx(0.5 * (2.0 - 1.0 - math.log(2.0)))

    def test_singular_side_is_infinite(self):
        assert divergence(self.gauss(0.0), self.gauss(1.0)) == math.inf

    def test_equal_point_masses_are_zero(self):
        assert divergence(self.gauss(0.0, 1.0), self.gauss(0.0, 1.0)) == 0.0

    def test_distinct_point_masses_are_infinite(self):
        assert divergence(self.gauss(0.0, 1.0), self.gauss(0.0, 2.0)) == math.inf


class TestAnalyticBowWitness:
    """Two parameterizations with the same visible law but different effects."""

    def witnesses(self):
        g = canonical("bow")
        base = {("E_X", "X"): 0.0, ("E_Y", "Y"): 1.0}
        w1 = StructuralParams.from_edge_dict(
            g, {**base, ("U_XY", "X"): 1.0, ("U_XY", "Y"): 1.0, ("X", "Y"): 0.0})
        w2 = StructuralParams.from_edge_dict(
            g, {**base, ("U_XY", "X"): 1.0, ("U_XY", "Y"): 0.0, ("X", "Y"): 1.0})
        return g, w1, w2

    def test_same_visible_covariance(self):
        g, w1, w2 = self.witnesses()
        s1 = joint_cov(g, w1).restrict(("X", "Y"))
        s2 = joint_cov(g, w2).restrict(("X", "Y"))
        np.testing.assert_allclose(s1.data, [[1.0, 1.0], [1.0, 2.0]], atol=1e-12)
        np.testing.assert_allclose(s2.data, s1.data, atol=1e-12)

    def test_different_interventional_variance(self):
        g, w1, w2 = self.witnesses()
        d1 = interventional_dist(g, w1, DO_X_ON_Y)
        d2 = interventional_dist(g, w2, DO_X_ON_Y)
        assert d1.cov.data[0, 0] == pytest.approx(2.0)
        assert d2.cov.data[0, 0] == pytest.approx(1.0)
        assert divergence(d1, d2) > 1e-2


QUICK = FitConfig(max_iters=12000, restarts=3, seed=77)


class TestIdentify:
    def test_bow_refuted(self):
        g = canonical("bow")
        _, target = ground_truth(g, seed=5)
        verdict = identify(g, target, DO_X_ON_Y, QUICK, iters=10)
        assert verdict.outcome == NOT_IDENTIFIABLE
        assert verdict.witness_seeds is not None
        assert verdict.max_divergence > 1e-2

    def test_witness_replays(self):
        g = canonical("bow")
        _, target = ground_truth(g, seed=5)
        verdict = identify(g, target, DO_X_ON_Y, QUICK, iters=10)
        seeds = verdict.witness_seeds
        replayed = []
        for s in seeds:
            params, _ = fit(g, target, FitConfig(max_iters=12000, restarts=3, seed=s))
            assert fit_kl(g, target, params) <= 1e-5
            replayed.append(interventional_dist(g, params, DO_X_ON_Y))
        assert divergence(*replayed) == pytest.approx(verdict.max_divergence)

    def test_backdoor_presumed_identifiable(self):
        g = canonical("backdoor")
        _, target = ground_truth(g, seed=5)
        verdict = identify(g, target, DO_X_ON_Y, QUICK, iters=4)
        assert verdict.outcome == PRESUMED_IDENTIFIABLE
        assert verdict.max_divergence <= 1e-2
        assert len(verdict.divergences) == 4

    def test_confidence_monotone_in_iterations(self):
        g = canonical("backdoor")
        _, target = ground_truth(g, seed=5)
        small = identify(g, target, DO_X_ON_Y, QUICK, iters=2)
        large = identify(g, target, DO_X_ON_Y, QUICK, iters=5)
        assert large.max_divergence >= small.max_divergence
        assert large.divergences[:2] == small.divergences

    def test_not_inducible_target(self):
        g = validate(
            [("P", "latent"), ("E1", "latent"), ("E2", "latent"), ("E3", "latent"),
             ("X", "visible"), ("Y", "visible"), ("Z", "visible")],
            [("P", "X"), ("P", "Y"), ("P", "Z"), ("E1", "X"), ("E2", "Y"), ("E3", "Z")],
        )
        r = 0.45
        target = CovMatrix(("X", "Y", "Z"), [[1.0, r, r], [r, 1.0, -r], [r, -r, 1.0]])
        verdict = identify(g, target, InterventionQuery(("X",), (0.0,), ("Y",)),
                           FitConfig(max_iters=4000, restarts=2, seed=1), iters=3)
        assert verdict.outcome == NOT_INDUCIBLE
        assert verdict.fit_kl > 1e-5

    def test_fit_threshold_is_the_fit_config_kl_tol(self):
        # the reference fit stops at KL 9.98e-4 <= kl_tol, so the target is induced
        g = canonical("backdoor")
        _, target = ground_truth(g, seed=3)
        verdict = identify(g, target, DO_X_ON_Y, FitConfig(seed=2024, kl_tol=1e-3, restarts=3),
                           iters=2)
        assert 1e-5 < verdict.fit_kl <= 1e-3
        assert verdict.outcome == PRESUMED_IDENTIFIABLE
        assert verdict.fits_run == 3

    def test_each_slot_is_one_fit_at_its_derived_seed(self):
        g = canonical("backdoor")
        _, target = ground_truth(g, seed=3)
        config = FitConfig(seed=2024, restarts=3)
        seen = []

        def recording(graph, cov, fit_config):
            seen.append(fit_config)
            return fit(graph, cov, fit_config)

        verdict = identify(g, target, DO_X_ON_Y, config, iters=2, fn=recording)
        assert seen == [replace(config, seed=derive_seed(2024, slot, 0)) for slot in range(3)]
        assert verdict.fits_run == 3

    def test_budget_exhausted_with_flaky_fitter(self):
        g = canonical("bow")
        truth, target = ground_truth(g, seed=5)
        calls = {"n": 0}

        def flaky(graph, cov, config):
            calls["n"] += 1
            if calls["n"] == 1:
                return truth, None  # inducibility check passes
            bad = truth.with_edge_weight(graph, "X", "Y", 50.0)
            return bad, None

        with pytest.raises(FitBudgetExhausted, match="restarts"):
            identify(g, target, DO_X_ON_Y, FitConfig(seed=0), iters=2, fn=flaky)
        assert calls["n"] == 2  # the reference and slot 1's one fit

    @pytest.mark.parametrize("kwargs", [{"iters": 0}, {"iters": -1}])
    def test_no_comparisons_rejected(self, kwargs):
        g = canonical("bow")
        _, target = ground_truth(g, seed=5)
        calls = []
        with pytest.raises(IdentifyError, match="at least 1"):
            identify(g, target, DO_X_ON_Y, QUICK, fn=lambda *a: calls.append(a), **kwargs)
        assert not calls  # rejected before any fit runs

    @pytest.mark.parametrize("iters", [2.5, True], ids=["float", "bool"])
    def test_non_integer_iters_rejected(self, iters):
        # unchecked, 2.5 fails in range() only after the reference fit, and True runs as one slot
        # and is written to the verdict's JSON as "iterations": true
        g = canonical("bow")
        _, target = ground_truth(g, seed=5)
        calls = []
        with pytest.raises(IdentifyError, match="iters must be an integer"):
            identify(g, target, DO_X_ON_Y, QUICK, iters=iters, fn=lambda *a: calls.append(a))
        assert not calls  # rejected before any fit runs

    @pytest.mark.parametrize("name", ["tol_id"])
    @pytest.mark.parametrize("value", [math.nan, -1.0, math.inf, pytest.param(True, id="bool"),
                                       pytest.param("0.01", id="str")])
    def test_void_tolerance_rejected(self, name, value):
        # a NaN tol_id never refutes, a negative one refutes every fit, True would run as 1.0,
        # and a string would escape as a bare TypeError
        g = canonical("bow")
        _, target = ground_truth(g, seed=5)
        calls = []
        with pytest.raises(IdentifyError, match="finite and nonnegative"):
            identify(g, target, DO_X_ON_Y, QUICK, fn=lambda *a: calls.append(a),
                     **{name: value})
        assert not calls

    @pytest.mark.parametrize("query, error", [
        (InterventionQuery(("X",), (0.0,), ("Q",)), UnknownNode),
        (InterventionQuery(("U_XY",), (0.0,), ("Y",)), NotVisible),
    ], ids=["unknown_effect", "latent_target"])
    def test_bad_query_rejected_before_any_fit(self, query, error):
        g = canonical("bow")
        _, target = ground_truth(g, seed=5)
        calls = []
        with pytest.raises(error):
            identify(g, target, query, QUICK, fn=lambda *a: calls.append(a))
        assert not calls

    def test_verdict_serialization(self):
        g = canonical("bow")
        _, target = ground_truth(g, seed=5)
        verdict = identify(g, target, DO_X_ON_Y, QUICK, iters=10)
        data = verdict.to_dict()
        assert data["outcome"] == NOT_IDENTIFIABLE
        assert isinstance(data["witness_seeds"], list)

    def test_deterministic_given_master_seed(self):
        g = canonical("bow")
        _, target = ground_truth(g, seed=5)
        first = identify(g, target, DO_X_ON_Y, QUICK, iters=10)
        second = identify(g, target, DO_X_ON_Y, QUICK, iters=10)
        assert first.witness_seeds == second.witness_seeds
        assert first.divergences == second.divergences

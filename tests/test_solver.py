import math
import threading
import warnings

import numpy as np
import pytest

from pmdag.gauss import CovMatrix, err_kl, grad_err_kl, lapack_thread_count_funcs, one_lapack_thread
from pmdag.generate import GenSpec, ground_truth, random_pmdag
from pmdag.graph import StructuralParams, validate
from pmdag.solver import (
    AdamaxState,
    AllocationCounter,
    AsymmetricSeed,
    FitConfig,
    NonFiniteGradient,
    ReducedPlan,
    SgdState,
    ShapeMismatch,
    backward_acc,
    backward_cov,
    backward_reduced,
    derive_seed,
    edge_vector,
    edge_weight_map,
    extract_params,
    fit,
    fit_kl,
    fit_result_dict,
    forward_acc,
    forward_cov,
    forward_reduced,
    init_weights,
    joint_cov,
    layered_entry_count,
    optimize_step,
    save_trace_csv,
    weights_from_params,
)
from pmdag.sync import build_masks, synchronize

from conftest import random_params, random_small_graph


def canonical_bow():
    from pmdag.generate import canonical

    return canonical("bow")


def bow_setup(bow, wax=1.0, way=1.0, wxy=1.0):
    sync = synchronize(bow)
    masks = build_masks(sync)
    params = StructuralParams.from_edge_dict(
        bow, {("A", "X"): wax, ("A", "Y"): way, ("X", "Y"): wxy})
    return sync, masks, weights_from_params(bow, masks, params)


class TestInitWeights:
    def test_deterministic_per_seed(self, bow):
        sync = synchronize(bow)
        masks = build_masks(sync)
        w1 = init_weights(sync, masks, seed=7)
        w2 = init_weights(sync, masks, seed=7)
        w3 = init_weights(sync, masks, seed=8)
        for a, b in zip(w1, w2):
            np.testing.assert_array_equal(a, b)
        assert any(not np.array_equal(a, b) for a, b in zip(w1, w3))

    def test_constant_pattern_respected(self, bow):
        sync = synchronize(bow)
        masks = build_masks(sync)
        weights = init_weights(sync, masks, seed=0)
        for w, m, c in zip(weights, masks.trainable, masks.constants):
            free = (m == 0) & (c == 0)
            np.testing.assert_array_equal(w[c == 1], 1.0)
            np.testing.assert_array_equal(w[free], 0.0)

    def test_trainable_draws_are_standard_normal(self):
        g = validate(
            [(f"L{i}", "latent") for i in range(4)] + [(f"V{i}", "visible") for i in range(5)],
            [(f"L{j}", f"V{i}") for j in range(4) for i in range(5)],
        )
        sync = synchronize(g)
        masks = build_masks(sync)
        draws = []
        seed = 0
        while len(draws) < 10_000:
            w = init_weights(sync, masks, seed=seed)
            draws.extend(w[0][masks.trainable[0] == 1].ravel())
            seed += 1
        draws = np.asarray(draws[:10_000])
        assert abs(draws.mean()) < 0.05
        assert abs(draws.var() - 1.0) < 0.05


def public_kernels(sync, masks, weights):
    """Each public forward and backward kernel as ``kernel(weight stack, seed)``, its context from ``weights``."""
    _, lams, _ = forward_cov(sync, weights)
    _, accs = forward_acc(sync, weights)
    edge_w = edge_weight_map(masks, weights)
    state = forward_reduced(sync, edge_w)
    return {
        "forward_cov": lambda w, _seed: forward_cov(sync, w),
        "forward_acc": lambda w, _seed: forward_acc(sync, w),
        "backward_cov": lambda w, seed: backward_cov(sync, masks, w, lams, seed),
        "backward_acc": lambda w, seed: backward_acc(sync, masks, w, accs, seed),
        "backward_reduced": lambda _w, seed: backward_reduced(sync, edge_w, state, seed),
    }


def assert_alternation_and_preservation(sync, lams, sigmas):
    """Persisting entries alternate (lambda == sigma) and are preserved bitwise across layers."""
    for l in range(1, sync.depth):
        prev, cur = sync.layers[l - 1], sync.layers[l]
        prev_pos = {idx: i for i, idx in enumerate(prev)}
        cur_pos = {idx: i for i, idx in enumerate(cur)}
        lam, prev_sigma, new_sigma = lams[l - 1], sigmas[l - 1], sigmas[l]
        for p in prev:
            if p not in cur_pos:
                continue
            for r in cur:
                assert lam[prev_pos[p], cur_pos[r]] == new_sigma[cur_pos[p], cur_pos[r]]
            for q in prev:
                if q in cur_pos:
                    assert new_sigma[cur_pos[p], cur_pos[q]] == prev_sigma[prev_pos[p], prev_pos[q]]


class TestForward:
    def test_bow_example(self, bow):
        sync, _, weights = bow_setup(bow)
        sigma, lams, sigmas = forward_cov(sync, weights)
        assert_alternation_and_preservation(sync, lams, sigmas)
        np.testing.assert_allclose(sigma, [[1.0, 2.0], [2.0, 4.0]])
        assert len(lams) == 2 and len(sigmas) == 3

    def test_zero_weights_give_zero_visible_block(self, bow):
        sync, masks, _ = bow_setup(bow, 0.0, 0.0, 0.0)
        weights = [c.copy() for c in masks.constants]
        sigma, _, _ = forward_cov(sync, weights)
        np.testing.assert_array_equal(sigma, np.zeros((2, 2)))

    def test_accumulation_bow_column(self, bow):
        sync, _, weights = bow_setup(bow)
        sigma, accs = forward_acc(sync, weights)
        names = sync.layer_names(sync.depth - 1)
        np.testing.assert_allclose(accs[-1][:, names.index("Y")], [2.0])
        assert sigma[names.index("Y"), names.index("Y")] == pytest.approx(4.0)

    def test_matches_path_sum_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            g = random_small_graph(rng)
            params = random_params(g, rng)
            sync = synchronize(g)
            masks = build_masks(sync)
            weights = weights_from_params(g, masks, params)
            sigma, lams, sigmas = forward_cov(sync, weights)
            assert_alternation_and_preservation(sync, lams, sigmas)
            names = sync.layer_names(sync.depth - 1)
            oracle = joint_cov(g, params).restrict(names)
            np.testing.assert_allclose(sigma, oracle.data, atol=1e-12, rtol=1e-12)

    def test_matches_oracle_on_non_strict_graphs(self):
        from conftest import demote_one_visible

        rng = np.random.default_rng(26)
        done = 0
        while done < 10:
            g = random_small_graph(rng)
            demoted = demote_one_visible(g, rng)
            if demoted is None:
                continue
            g2, _ = demoted
            params = random_params(g2, rng)
            sync = synchronize(g2)
            masks = build_masks(sync)
            weights = weights_from_params(g2, masks, params)
            sigma, lams, sigmas = forward_cov(sync, weights)
            assert_alternation_and_preservation(sync, lams, sigmas)
            names = sync.layer_names(sync.depth - 1)
            oracle = joint_cov(g2, params).restrict(names)
            np.testing.assert_allclose(sigma, oracle.data, atol=1e-12, rtol=1e-12)
            done += 1

    def test_three_methods_agree(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            g = random_small_graph(rng)
            params = random_params(g, rng)
            sync = synchronize(g)
            masks = build_masks(sync)
            weights = weights_from_params(g, masks, params)
            s_cov, _, _ = forward_cov(sync, weights)
            s_acc, _ = forward_acc(sync, weights)
            state = forward_reduced(sync, edge_weight_map(masks, weights), verify=True)
            np.testing.assert_allclose(s_acc, s_cov, atol=1e-10, rtol=1e-10)
            last = sync.layers[-1]
            s_red = np.array([[state.sig(p, q) for q in last] for p in last])
            np.testing.assert_allclose(s_red, s_cov, atol=1e-10, rtol=1e-10)

    def test_reduced_bow_entry(self, bow):
        sync, masks, weights = bow_setup(bow)
        state = forward_reduced(sync, edge_weight_map(masks, weights))
        assert state.sig(bow.index("X"), bow.index("Y")) == pytest.approx(2.0)

    def test_shape_mismatch(self, bow):
        # every public kernel checks its weight stack and its seed, whatever engine it serves
        sync, masks, weights = bow_setup(bow)
        kernels = public_kernels(sync, masks, weights)
        for bad in (weights[:1], [np.eye(3)] * 2):
            for name in ("forward_cov", "forward_acc", "backward_cov", "backward_acc"):
                with pytest.raises(ShapeMismatch):
                    kernels[name](bad, np.eye(2))
        for name in ("backward_cov", "backward_acc", "backward_reduced"):
            with pytest.raises(ShapeMismatch):
                kernels[name](weights, np.eye(3))


def loss_for_weights(sync, weights, vis_positions, target):
    sigma, _, _ = forward_cov(sync, weights)
    return err_kl(sigma[np.ix_(vis_positions, vis_positions)], target)


class TestBackward:
    def seed_for(self, sync, vis_positions, target, weights):
        sigma, lams, _ = forward_cov(sync, weights)
        sv = sigma[np.ix_(vis_positions, vis_positions)]
        seed = np.zeros_like(sigma)
        seed[np.ix_(vis_positions, vis_positions)] = grad_err_kl(sv, target)
        return seed, lams

    def test_zero_seed_zero_gradients(self, bow):
        sync, masks, weights = bow_setup(bow)
        _, lams, _ = forward_cov(sync, weights)
        grads = backward_cov(sync, masks, weights, lams, np.zeros((2, 2)))
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_bow_gradient_matches_finite_difference(self):
        # the confounded treatment-outcome pair with private noises; unit
        # weights on every edge keep the visible block positive definite
        g = canonical_bow()
        sync = synchronize(g)
        masks = build_masks(sync)
        params = StructuralParams({name: np.ones(len(g.parents(name))) for name in g.nonroots})
        weights = weights_from_params(g, masks, params)
        target = np.eye(2)
        last = sync.layer_names(sync.depth - 1)
        vis = [last.index(v) for v in ("X", "Y")]
        seed, lams = self.seed_for(sync, vis, target, weights)
        grads = backward_cov(sync, masks, weights, lams, seed)
        (p, c, l, r, col) = next(e for e in masks.edges
                                 if g.nodes[e[0]].name == "X" and g.nodes[e[1]].name == "Y")
        h = 1e-6
        up = [w.copy() for w in weights]; up[l - 1][r, col] += h
        dn = [w.copy() for w in weights]; dn[l - 1][r, col] -= h
        fd = (loss_for_weights(sync, up, vis, target)
              - loss_for_weights(sync, dn, vis, target)) / (2 * h)
        assert grads[l - 1][r, col] == pytest.approx(fd, rel=1e-6)

    def test_masked_entries_stay_zero(self, bow):
        sync, masks, weights = bow_setup(bow)
        _, lams, _ = forward_cov(sync, weights)
        grads = backward_cov(sync, masks, weights, lams, np.asarray([[0.3, 0.1], [0.1, 0.8]]))
        for g, m in zip(grads, masks.trainable):
            np.testing.assert_array_equal(g[m == 0], 0.0)

    def test_asymmetric_seed_rejected(self, bow):
        sync, masks, weights = bow_setup(bow)
        kernels = public_kernels(sync, masks, weights)
        for name in ("backward_cov", "backward_acc", "backward_reduced"):
            with pytest.raises(AsymmetricSeed):
                kernels[name](weights, np.asarray([[0.0, 1.0], [0.0, 0.0]]))

    def test_all_backends_agree(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            g = random_small_graph(rng)
            params = random_params(g, rng)
            sync = synchronize(g)
            masks = build_masks(sync)
            weights = weights_from_params(g, masks, params)
            n = len(sync.layers[-1])
            raw = rng.standard_normal((n, n))
            seed = (raw + raw.T) / 2
            _, lams, _ = forward_cov(sync, weights)
            _, accs = forward_acc(sync, weights)
            g_cov = backward_cov(sync, masks, weights, lams, seed)
            g_acc = backward_acc(sync, masks, weights, accs, seed)
            edge_w = edge_weight_map(masks, weights)
            state = forward_reduced(sync, edge_w)
            g_red = backward_reduced(sync, edge_w, state, seed)
            for (p, c, l, r, col) in masks.edges:
                ref = g_cov[l - 1][r, col]
                assert g_acc[l - 1][r, col] == pytest.approx(ref, abs=1e-10, rel=1e-10)
                assert g_red[(p, c)] == pytest.approx(ref, abs=1e-10, rel=1e-10)


class TestOptimizeStep:
    def test_sgd_definition(self):
        new, state = optimize_step(np.array([1.0]), np.array([2.0]), SgdState(lr=0.1))
        assert new[0] == pytest.approx(0.8)

    def test_adamax_first_step_moves_by_lr(self):
        state = AdamaxState(lr=1e-3)
        new, state = optimize_step(np.array([1.0]), np.array([1.0]), state)
        assert new[0] == pytest.approx(1.0 - 1e-3)
        assert state.t == 1

    def test_zero_gradient_keeps_weights_and_advances_state(self):
        state = AdamaxState(lr=1e-3)
        w = np.array([0.5])
        new, state = optimize_step(w, np.array([0.0]), state)
        np.testing.assert_array_equal(new, w)
        assert state.t == 1

    def test_non_finite_gradient_rejected(self):
        with pytest.raises(NonFiniteGradient):
            optimize_step(np.array([1.0]), np.array([math.nan]), SgdState(lr=0.1))


class TestJointCov:
    def test_bow_full_covariance(self, bow):
        params = StructuralParams.from_edge_dict(
            bow, {("A", "X"): 1.0, ("A", "Y"): 1.0, ("X", "Y"): 1.0})
        cov = joint_cov(bow, params)
        np.testing.assert_allclose(cov.data, [[1, 1, 2], [1, 1, 2], [2, 2, 4]])

    def test_zero_weights(self, bow):
        params = StructuralParams.from_edge_dict(
            bow, {("A", "X"): 0.0, ("A", "Y"): 0.0, ("X", "Y"): 0.0})
        cov = joint_cov(bow, params)
        np.testing.assert_array_equal(cov.data, np.diag([1.0, 0.0, 0.0]))

    def test_matches_monte_carlo(self, bow):
        rng = np.random.default_rng(23)
        params = StructuralParams.from_edge_dict(
            bow, {("A", "X"): 0.8, ("A", "Y"): -0.5, ("X", "Y"): 1.2})
        truth = joint_cov(bow, params).data
        m = 1_000_000
        a = rng.standard_normal(m)
        x = 0.8 * a
        y = -0.5 * a + 1.2 * x
        obs = np.column_stack([a, x, y])
        sample = obs.T @ obs / m
        se = np.sqrt((np.outer(np.diag(truth), np.diag(truth)) + truth ** 2) / m)
        assert np.all(np.abs(sample - truth) <= 4 * se)


class TestFit:
    def test_single_edge_recovers_variance(self):
        g = validate([("L", "latent"), ("V", "visible")], [("L", "V")])
        params, report = fit(g, CovMatrix(("V",), [[4.0]]),
                             FitConfig(restarts=2, kl_tol=1e-10, seed=3))
        assert abs(params.weights["V"][0]) == pytest.approx(2.0, abs=1e-3)
        assert report.final_kl_model_target <= 1e-10
        assert report.converged and report.stop_reason == "kl_threshold"

    def test_lapack_runs_on_one_thread_inside_fit_only(self):
        funcs = lapack_thread_count_funcs()
        if not funcs:
            pytest.skip("no bundled OpenBLAS with thread-count symbols is loaded")

        def counts():
            return {package: get() for package, (get, _set) in funcs.items()}

        g = canonical_bow()
        target = CovMatrix(("X", "Y"), [[1.0, 0.4], [0.4, 2.0]])
        config = FitConfig(restarts=1, seed=0, max_iters=5)
        original = counts()
        try:
            for _get, set_ in funcs.values():
                set_(2)
            if counts() != dict.fromkeys(funcs, 2):
                pytest.skip("the bundled OpenBLAS cannot run two threads here")
            seen = []
            fit(g, target, config, iter_hook=lambda i, _params: seen.append(counts()))
            assert seen == [dict.fromkeys(funcs, 1)] * 5
            assert counts() == dict.fromkeys(funcs, 2)

            def hook(i, _params):
                raise RuntimeError("hook failed")

            with pytest.raises(RuntimeError, match="hook failed"):
                fit(g, target, config, iter_hook=hook)
            assert counts() == dict.fromkeys(funcs, 2)
        finally:
            for package, (_get, set_) in funcs.items():
                set_(original[package])

    def test_overlapping_pins_in_two_threads(self):
        # A enters, B enters, A leaves: B must still run on one thread, and
        # the caller's counts must come back once B leaves too
        funcs = lapack_thread_count_funcs()
        if not funcs:
            pytest.skip("no bundled OpenBLAS with thread-count symbols is loaded")

        def counts():
            return {package: get() for package, (get, _set) in funcs.items()}

        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def run_a():
            with one_lapack_thread():
                a_in.set()
                seen["b_entered"] = b_in.wait(10)
            a_out.set()

        def run_b():
            seen["a_entered"] = a_in.wait(10)
            with one_lapack_thread():
                b_in.set()
                seen["a_left"] = a_out.wait(10)
                seen["inside_b"] = counts()

        original = counts()
        try:
            for _get, set_ in funcs.values():
                set_(2)
            if counts() != dict.fromkeys(funcs, 2):
                pytest.skip("the bundled OpenBLAS cannot run two threads here")
            threads = [threading.Thread(target=run_a), threading.Thread(target=run_b)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            after = counts()
        finally:
            for package, (_get, set_) in funcs.items():
                set_(original[package])
        assert seen["a_entered"] and seen["b_entered"] and seen["a_left"]
        assert seen["inside_b"] == dict.fromkeys(funcs, 1)
        assert after == dict.fromkeys(funcs, 2)

    def test_fit_bits_do_not_follow_the_callers_numpy_thread_count(self):
        # v=32 is large enough for numpy's OpenBLAS to split its products
        # over threads, which changes their rounding
        funcs = lapack_thread_count_funcs().get("numpy")
        if funcs is None:
            pytest.skip("numpy's bundled OpenBLAS and its thread-count symbols are absent")
        get, set_ = funcs
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = random_pmdag(GenSpec(v=32, l_star=0.5, e_star=0.5, seed=32))
        _, target = ground_truth(g, seed=32)
        config = FitConfig(max_iters=35, restarts=1, seed=32)
        original = get()
        traces = {}
        try:
            for threads in (1, 2):
                set_(threads)
                if get() != threads:
                    pytest.skip("numpy's bundled OpenBLAS cannot run two threads here")
                traces[threads] = fit(g, target, config)[1].kl_trace.tobytes()
        finally:
            set_(original)
        assert traces[1] == traces[2]

    def test_methods_all_converge(self):
        g = canonical_bow()
        target = CovMatrix(("X", "Y"), [[1.0, 0.4], [0.4, 2.0]])
        for method in ("covariance", "accumulation", "reduced"):
            _, report = fit(g, target,
                            FitConfig(method=method, restarts=3, seed=5, max_iters=8000))
            assert report.converged, method

    def test_bha_loss_converges(self):
        g = canonical_bow()
        target = CovMatrix(("X", "Y"), [[1.0, 0.4], [0.4, 2.0]])
        _, report = fit(g, target, FitConfig(loss="bha", restarts=3, seed=5, max_iters=8000))
        assert report.final_kl_model_target <= 1e-5

    def test_singular_psd_target_accepted_via_jitter(self):
        # semidefinite targets at round-off scale are jittered, not rejected
        g = canonical_bow()
        target = CovMatrix(("X", "Y"), [[1.0, 1.0], [1.0, 1.0]])
        _, report = fit(g, target, FitConfig(restarts=1, seed=0, max_iters=50))
        assert report.iterations > 0

    def test_rank_deficient_target_flags_itself(self):
        # a single stochastic root driving two visibles: the surrogate can
        # converge against the jittered target while the strict KL is infinite
        g = validate(
            [("L0", "latent"), ("L", "latent"), ("X", "visible"), ("Y", "visible")],
            [("L0", "L"), ("L", "X"), ("L", "Y"), ("X", "Y")],
        )
        from pmdag.generate import ground_truth
        _, target = ground_truth(g, seed=4)
        assert np.linalg.eigvalsh(target.data).min() < 1e-12
        _, report = fit(g, target, FitConfig(restarts=3, seed=1))
        assert report.converged
        assert math.isinf(report.final_kl_model_target)

    def test_fit_handles_latent_sink_in_last_layer(self):
        g = validate(
            [("L", "latent"), ("S", "latent"), ("X", "visible")],
            [("L", "X"), ("L", "S")],
        )
        from pmdag.generate import ground_truth
        _, target = ground_truth(g, seed=4)
        _, report = fit(g, target, FitConfig(restarts=2, seed=1, max_iters=6000))
        assert report.converged

    def test_label_mismatch(self, bow):
        from pmdag.gauss import LabelMismatch
        with pytest.raises(LabelMismatch):
            fit(bow, CovMatrix(("X", "Q"), np.eye(2)), FitConfig())

    def test_report_traces_and_directions(self, bow):
        target = CovMatrix(("X", "Y"), [[1.0, 0.4], [0.4, 2.0]])
        _, report = fit(bow, target, FitConfig(restarts=1, seed=2, max_iters=2000))
        assert len(report.loss_trace) == len(report.kl_trace) == report.iterations
        assert report.final_kl_model_target >= 0
        assert report.final_kl_target_model >= 0
        assert report.wall_time > 0

    def test_nonconvergence_is_flagged_not_raised(self):
        # one shared confounder cannot produce a negative-product correlation pattern
        g = validate(
            [("P", "latent"), ("E1", "latent"), ("E2", "latent"), ("E3", "latent"),
             ("X", "visible"), ("Y", "visible"), ("Z", "visible")],
            [("P", "X"), ("P", "Y"), ("P", "Z"), ("E1", "X"), ("E2", "Y"), ("E3", "Z")],
        )
        r = 0.45
        target = CovMatrix(("X", "Y", "Z"),
                           [[1.0, r, r], [r, 1.0, -r], [r, -r, 1.0]])
        _, report = fit(g, target, FitConfig(restarts=2, seed=1, max_iters=4000))
        assert not report.converged
        assert report.final_kl_model_target > 0.05

    def test_diverging_restart_keeps_the_earlier_one(self):
        # restart 1 of this SGD fit overflows; restart 0 (KL 0.040) must still be reported
        from pmdag.generate import canonical, ground_truth
        g = canonical("frontdoor")
        _, target = ground_truth(g, seed=3)
        config = FitConfig(optimizer="sgd", lr=1e-2, max_iters=300, restarts=2, seed=17)
        params, report = fit(g, target, config)
        assert report.restarts_used == 2
        assert report.stop_reason == "max_iters" and not report.converged
        assert report.final_kl_model_target == pytest.approx(0.0404, abs=1e-3)
        assert all(np.isfinite(w).all() for w in params.weights.values())

    def test_diverged_run_is_reported_not_raised(self):
        from pmdag.generate import canonical, ground_truth
        g = canonical("frontdoor")
        _, target = ground_truth(g, seed=3)
        config = FitConfig(optimizer="sgd", lr=1e-2, max_iters=300, restarts=1, seed=19)
        params, report = fit(g, target, config)
        assert report.stop_reason == "diverged" and not report.converged
        assert report.iterations < 300
        # the returned weights are the last iterate whose loss was recorded
        assert all(np.isfinite(w).all() for w in params.weights.values())
        assert np.isfinite(report.kl_trace).all()

    def test_restarts_ranked_on_the_reported_kl(self):
        # KL before the last step ranks restart 2 first; after it, restart 1 is lower
        from pmdag.generate import canonical, ground_truth
        g = canonical("backdoor")
        _, target = ground_truth(g, seed=1)
        config = FitConfig(optimizer="sgd", lr=1e-2, max_iters=20, restarts=3, seed=17)
        params, report = fit(g, target, config)
        assert report.seed == derive_seed(17, 1)
        assert report.final_kl_model_target == fit_kl(g, target, params)

    def test_stationarity_at_deep_convergence(self):
        # run to a loss plateau, then the masked gradient must be tiny
        g = validate([("L", "latent"), ("V", "visible")], [("L", "V")])
        target = CovMatrix(("V",), [[4.0]])
        params, report = fit(g, target, FitConfig(optimizer="sgd", lr=0.3, restarts=1,
                                                  seed=3, kl_tol=0.0, max_iters=5000,
                                                  min_improvement=1e-14))
        assert report.final_kl_model_target <= 1e-10
        sync = synchronize(g)
        masks = build_masks(sync)
        weights = weights_from_params(g, masks, params)
        sigma, lams, _ = forward_cov(sync, weights)
        seed = grad_err_kl(sigma, target.data)
        grads = backward_cov(sync, masks, weights, lams, seed)
        norm = math.sqrt(sum(float((gr ** 2).sum()) for gr in grads))
        assert norm <= 1e-6

    def test_result_dict_and_trace_csv(self, bow, tmp_path):
        target = CovMatrix(("X", "Y"), [[1.0, 0.4], [0.4, 2.0]])
        params, report = fit(bow, target, FitConfig(restarts=1, seed=2, max_iters=3000))
        data = fit_result_dict(bow, params, report)
        assert set(data["weights"]) == {"A->X", "A->Y", "X->Y"}
        assert isinstance(data["converged"], bool)
        path = tmp_path / "trace.csv"
        save_trace_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,surrogate_loss,true_kl"
        assert len(lines) == report.iterations + 1


class TestFitConfigValidation:
    # Each case has a fixed id, so deleting one does not rename the others; the
    # ids keep the positional names the suite reported before they were fixed.
    @pytest.mark.parametrize("kwargs", [
        pytest.param({"loss": "emd"}, id="kwargs0"),
        pytest.param({"method": "magic"}, id="kwargs1"),
        pytest.param({"optimizer": "lbfgs"}, id="kwargs2"),
        pytest.param({"lr": 0.0}, id="kwargs3"),
        pytest.param({"max_iters": 0}, id="kwargs4"),
        pytest.param({"min_improvement": -1.0}, id="kwargs5"),
        pytest.param({"restarts": 0}, id="kwargs6"),
        pytest.param({"lr": float("nan")}, id="kwargs7"),
        pytest.param({"lr": float("inf")}, id="kwargs8"),
        pytest.param({"min_improvement": float("nan")}, id="kwargs9"),
        pytest.param({"seed": -1}, id="kwargs10"),
        pytest.param({"kl_tol": -1.0}, id="kwargs11"),
        pytest.param({"kl_tol": float("nan")}, id="kwargs12"),
        pytest.param({"kl_tol": float("inf")}, id="kwargs13"),
    ])
    def test_bad_values_rejected(self, kwargs):
        from pmdag.solver import SolverError
        with pytest.raises(SolverError):
            FitConfig(**kwargs)


class TestExtractRoundTrip:
    def test_params_to_weights_and_back(self):
        rng = np.random.default_rng(25)
        g = random_small_graph(rng)
        params = random_params(g, rng)
        sync = synchronize(g)
        masks = build_masks(sync)
        weights = weights_from_params(g, masks, params)
        again = extract_params(g, masks, edge_vector(masks, weights))
        assert again == params


class TestReducedPlan:
    def test_edges_follow_the_mask_order(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            sync = synchronize(random_small_graph(rng, max_v=6))
            masks = build_masks(sync)
            assert ReducedPlan(sync).edges == [(p, c) for (p, c, _l, _r, _col) in masks.edges]

    def test_zero_seed_entry_skips_an_infinite_factor(self):
        # V1's variance is infinite; a seed that is zero on every pair with V1
        # leaves the V2 edge's gradient finite, as the scalar sum skipped those terms
        g = validate([("L1", "latent"), ("L2", "latent"), ("V1", "visible"), ("V2", "visible")],
                     [("L1", "V1"), ("L2", "V2")])
        sync = synchronize(g)
        edge_w = {(g.index("L1"), g.index("V1")): math.inf, (g.index("L2"), g.index("V2")): 1.5}
        seed = np.zeros((len(sync.layers[-1]),) * 2)
        v2 = sync.layers[-1].index(g.index("V2"))
        seed[v2, v2] = 0.25
        with np.errstate(invalid="ignore", over="ignore"):
            state = forward_reduced(sync, edge_w)
            grads = backward_reduced(sync, edge_w, state, seed)
        assert grads[(g.index("L2"), g.index("V2"))] == 2.0 * 1.5 * 0.25


class TestReducedStorage:
    def test_counter_tracks_peak(self):
        counter = AllocationCounter()
        counter.add(10)
        counter.add(5)
        counter.release(8)
        counter.add(2)
        assert counter.peak == 15 and counter.current == 9

    def test_layered_count_grows_with_depth(self):
        def chain(k):
            nodes = [("L", "latent")] + [(f"V{i}", "visible") for i in range(k)]
            edges = [("L", "V0")] + [(f"V{i}", f"V{i+1}") for i in range(k - 1)]
            return validate(nodes, edges, strict=True)

        short = layered_entry_count(synchronize(chain(8)))
        long = layered_entry_count(synchronize(chain(16)))
        assert long > 4 * short

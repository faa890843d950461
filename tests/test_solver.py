import hashlib
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmdag.gauss import CovMatrix, lapack_thread_count_funcs, loss_kernel, one_lapack_thread
from pmdag.generate import GenSpec, canonical, ground_truth, random_pmdag
from pmdag.graph import StructuralParams, validate
from pmdag.solver import (
    ADAMAX_BETA1,
    ADAMAX_BETA2,
    ENGINES,
    LOSSES,
    METHODS,
    AdamaxState,
    AllocationCounter,
    AsymmetricSeed,
    Engine,
    FitConfig,
    NonFiniteGradient,
    ReducedPlan,
    SgdState,
    ShapeMismatch,
    _cov_forward,
    _dot,
    _layers,
    backward_reduced,
    derive_seed,
    edge_weight_map,
    extract_params,
    fit,
    fit_kl,
    fit_result_dict,
    forward_reduced,
    init_theta,
    init_weights,
    joint_cov,
    layered_entry_count,
    optimize_step,
    save_trace_csv,
    visible_positions,
)
from pmdag.sync import MaskSet, build_masks, synchronize

from conftest import random_params, random_small_graph, theta_from_params


def quiet_random_pmdag(v):
    """``random_pmdag(GenSpec(v, 0.5, 0.5, seed=v))``, quiet about a clamped edge budget."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return random_pmdag(GenSpec(v=v, l_star=0.5, e_star=0.5, seed=v))


def canonical_bow():
    return canonical("bow")


def bow_setup(bow, wax=1.0, way=1.0, wxy=1.0):
    sync = synchronize(bow)
    masks = build_masks(sync)
    params = StructuralParams.from_edge_dict(
        bow, {("A", "X"): wax, ("A", "Y"): way, ("X", "Y"): wxy})
    return sync, masks, theta_from_params(sync, params)


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

    # SHA-256 of the initial theta's bytes, taken on the commit that still drew
    # it as the trainable entries of constants + trainable * draws.  They pin how
    # the generator's stream is consumed: one draw per weight-stack entry, in order.
    THETA_DIGESTS = {
        ("napkin", 0): "3d5cadfd7eb328451301769ed3c09bc6fbcdea4cc40d4b116003cd8fa722e93d",
        ("napkin", 17): "e25df74735a393445ca96224a285f0bf066572954823a055fb9d040517f996ca",
        ("v16", 0): "37d2ab369abecd929cfcc559ffca4b06da52f92d016e800914f7ba7aa65e1837",
        ("v16", 17): "18647be3fa0bfe039dba0485701b59cf8d598a5b40c210c0067b899d2a3e7608",
    }

    @pytest.mark.parametrize("name, seed", list(THETA_DIGESTS), ids=lambda x: str(x))
    def test_initial_theta_pinned(self, name, seed):
        g = quiet_random_pmdag(16) if name == "v16" else canonical(name)
        sync = synchronize(g)
        masks = build_masks(sync)
        theta = init_theta(masks, seed)
        assert hashlib.sha256(theta.tobytes()).hexdigest() == self.THETA_DIGESTS[name, seed]
        # the weight stack is theta scattered into the constant pattern
        flat = np.concatenate([w.ravel() for w in init_weights(sync, masks, seed)])
        np.testing.assert_array_equal(flat[masks.positions], theta)


def bound(sync, masks):
    """Each method's engine, bound to the layering."""
    return {method: bind(sync, masks) for method, bind in ENGINES.items()}


def covariance_pass(sync, masks, theta):
    """The covariance forward pass over theta's weight stack: (final Sigma, Lambda list, Sigma list).

    The Sigma list holds the identity at layer 0 and each Sigma_l = W_l^T
    Lambda_l, rebuilt by the product the pass makes, so it holds the same bits.
    """
    weights = masks.stack(theta)
    eye = np.eye(len(sync.layers[0]))
    lams = [np.empty(w.shape) for w in weights]
    sigma, _ = _cov_forward(eye, _layers(weights, lams))
    return sigma, lams, [eye] + [_dot(w.T, lam) for w, lam in zip(weights, lams)]


def reduced_entry_points(sync, masks, theta):
    """The edge-weight map of theta and ``forward_reduced``'s state, the inputs of ``backward_reduced``."""
    edge_w = edge_weight_map(masks, masks.stack(theta))
    return edge_w, forward_reduced(sync, edge_w)


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


def assert_matches_path_sum(g, params):
    """The covariance pass over the last layer and every engine over the visible block, against joint_cov."""
    sync = synchronize(g)
    masks = build_masks(sync)
    theta = theta_from_params(sync, params)
    sigma, lams, sigmas = covariance_pass(sync, masks, theta)
    assert_alternation_and_preservation(sync, lams, sigmas)
    oracle = joint_cov(g, params)
    names = sync.layer_names(sync.depth - 1)
    np.testing.assert_allclose(sigma, oracle.restrict(names).data, atol=1e-12, rtol=1e-12)
    for method, engine in bound(sync, masks).items():
        np.testing.assert_allclose(engine.forward(theta)[0], oracle.restrict(g.visible_names).data,
                                   atol=1e-12, rtol=1e-12, err_msg=method)


class TestForward:
    def test_bow_example(self, bow):
        sync, masks, theta = bow_setup(bow)
        sigma, lams, sigmas = covariance_pass(sync, masks, theta)
        assert_alternation_and_preservation(sync, lams, sigmas)
        np.testing.assert_allclose(sigma, [[1.0, 2.0], [2.0, 4.0]])
        assert len(lams) == 2 and len(sigmas) == 3
        for method, engine in bound(sync, masks).items():
            np.testing.assert_allclose(engine.forward(theta)[0], [[1.0, 2.0], [2.0, 4.0]], err_msg=method)

    def test_zero_weights_give_zero_visible_block(self, bow):
        sync, masks, theta = bow_setup(bow, 0.0, 0.0, 0.0)
        for method, engine in bound(sync, masks).items():
            np.testing.assert_array_equal(engine.forward(theta)[0], np.zeros((2, 2)), err_msg=method)

    def test_accumulation_bow_column(self, bow):
        sync, masks, theta = bow_setup(bow)
        sigma_vis, accs = ENGINES["accumulation"](sync, masks).forward(theta)
        names = sync.layer_names(sync.depth - 1)
        np.testing.assert_allclose(accs[-1][:, names.index("Y")], [2.0])
        y = bow.visible_names.index("Y")
        assert sigma_vis[y, y] == pytest.approx(4.0)

    def test_matches_path_sum_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            g = random_small_graph(rng)
            assert_matches_path_sum(g, random_params(g, rng))

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
            assert_matches_path_sum(g2, random_params(g2, rng))
            done += 1

    def test_three_methods_agree(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            g = random_small_graph(rng)
            params = random_params(g, rng)
            sync = synchronize(g)
            masks = build_masks(sync)
            theta = theta_from_params(sync, params)
            forwards = {method: engine.forward(theta) for method, engine in bound(sync, masks).items()}
            s_cov = forwards["covariance"][0]
            np.testing.assert_allclose(forwards["accumulation"][0], s_cov, atol=1e-10, rtol=1e-10)
            np.testing.assert_allclose(forwards["reduced"][0], s_cov, atol=1e-10, rtol=1e-10)
            # the reduced tables hold every pair of the last layer, the pass's Sigma too
            _theta, state = forwards["reduced"][1]
            last = sync.layers[-1]
            s_red = np.array([[state.sig(p, q) for q in last] for p in last])
            np.testing.assert_allclose(s_red, covariance_pass(sync, masks, theta)[0], atol=1e-10, rtol=1e-10)

    def test_reduced_bow_entry(self, bow):
        sync, masks, theta = bow_setup(bow)
        _theta, state = ENGINES["reduced"](sync, masks).forward(theta)[1]
        assert state.sig(bow.index("X"), bow.index("Y")) == pytest.approx(2.0)

    def test_shape_mismatch(self, bow):
        # the reduced engine's measured backward checks its seed's shape
        sync, masks, theta = bow_setup(bow)
        edge_w, state = reduced_entry_points(sync, masks, theta)
        with pytest.raises(ShapeMismatch):
            backward_reduced(sync, edge_w, state, np.eye(3))


class TestBackward:
    def test_zero_seed_zero_gradients(self, bow):
        sync, masks, theta = bow_setup(bow)
        for method, engine in bound(sync, masks).items():
            grads = engine.backward(engine.forward(theta)[1], np.zeros((2, 2)))
            np.testing.assert_array_equal(grads, np.zeros_like(theta), err_msg=method)

    def test_bow_gradient_matches_finite_difference(self):
        # the confounded treatment-outcome pair with private noises; unit
        # weights on every edge keep the visible block positive definite
        g = canonical_bow()
        sync = synchronize(g)
        masks = build_masks(sync)
        params = StructuralParams({name: np.ones(len(g.parents(name))) for name in g.nonroots})
        theta = theta_from_params(sync, params)
        target = np.eye(2)
        k = next(k for k, (p, c, _l) in enumerate(sync.edges) if (g.names[p], g.names[c]) == ("X", "Y"))
        h = 1e-6
        step = np.zeros_like(theta)
        step[k] = h
        for method, engine in bound(sync, masks).items():
            sigma_vis, ctx = engine.forward(theta)
            grads = engine.backward(ctx, loss_kernel("kl", sigma_vis, target)[1])
            fd = (loss_kernel("kl", engine.forward(theta + step)[0], target)[0]
                  - loss_kernel("kl", engine.forward(theta - step)[0], target)[0]) / (2 * h)
            assert grads[k] == pytest.approx(fd, rel=1e-6), method

    def test_asymmetric_seed_rejected(self, bow):
        sync, masks, theta = bow_setup(bow)
        edge_w, state = reduced_entry_points(sync, masks, theta)
        with pytest.raises(AsymmetricSeed):
            backward_reduced(sync, edge_w, state, np.asarray([[0.0, 1.0], [0.0, 0.0]]))

    def test_all_backends_agree(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            g = random_small_graph(rng)
            params = random_params(g, rng)
            sync = synchronize(g)
            masks = build_masks(sync)
            theta = theta_from_params(sync, params)
            n = len(sync.layers[-1])
            raw = rng.standard_normal((n, n))
            vis = visible_positions(sync)
            seed_vis = ((raw + raw.T) / 2)[np.ix_(vis, vis)]
            grads = {method: engine.backward(engine.forward(theta)[1], seed_vis)
                     for method, engine in bound(sync, masks).items()}
            ref = grads["covariance"]
            assert grads["accumulation"] == pytest.approx(ref, abs=1e-10, rel=1e-10)
            assert grads["reduced"] == pytest.approx(ref, abs=1e-10, rel=1e-10)


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 40), st.sampled_from([1e-3, 0.1, 1.0]),
           st.integers(0, 2**31 - 1))
    def test_adamax_matches_the_two_where_formula(self, n, steps, lr, seed):
        """Bit for bit the step ``where(u > 0, c m / where(u > 0, u, 1), 0)``, c = lr / (1 - beta1^t).

        Gradients mix exact zeros, subnormals and values near 1e300; entry 0
        is dead (its gradient is always 0) and must step exactly 0.  A
        non-finite gradient raises and leaves t, m and u as they were.
        """
        rng = np.random.default_rng(seed)
        scales = np.array([0.0, 5e-324, 1e-310, 1e-300, 1.0, 1e100, 1e300])
        theta = rng.standard_normal(n + 1)
        ref_theta, ref_m, ref_u = theta.copy(), np.zeros(n + 1), np.zeros(n + 1)
        state = AdamaxState(lr=lr)
        dead = theta[0]
        for t in range(1, steps + 1):
            grad = rng.standard_normal(n + 1) * rng.choice(scales, n + 1)
            grad[0] = 0.0
            if rng.random() < 0.1:
                bad = grad.copy()
                bad[rng.integers(n + 1)] = rng.choice([math.nan, math.inf, -math.inf])
                before = (state.t, None if state.m is None else state.m.copy(),
                          None if state.u is None else state.u.copy())
                with pytest.raises(NonFiniteGradient):
                    optimize_step(theta, bad, state)
                assert state.t == before[0]
                for kept, now in zip(before[1:], (state.m, state.u)):
                    assert (kept is None and now is None) or kept.tobytes() == now.tobytes()
            ref_m = ref_m * ADAMAX_BETA1 + (1.0 - ADAMAX_BETA1) * grad
            ref_u = np.maximum(ref_u * ADAMAX_BETA2, np.abs(grad))
            live = ref_u > 0.0
            ref_step = np.where(live, (lr / (1.0 - ADAMAX_BETA1 ** t)) * ref_m
                                / np.where(live, ref_u, 1.0), 0.0)
            ref_theta = ref_theta - ref_step
            theta, state = optimize_step(theta, grad, state)
            assert state.t == t
            assert theta.tobytes() == ref_theta.tobytes()
            assert state.m.tobytes() == ref_m.tobytes() and state.u.tobytes() == ref_u.tobytes()
        assert theta[0] == dead


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
        # over threads, which changes their rounding; its layering binds the
        # layered engines' split passes
        funcs = lapack_thread_count_funcs().get("numpy")
        if funcs is None:
            pytest.skip("numpy's bundled OpenBLAS and its thread-count symbols are absent")
        get, set_ = funcs
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = random_pmdag(GenSpec(v=32, l_star=0.5, e_star=0.5, seed=32))
        _, target = ground_truth(g, seed=32)
        original = get()
        traces = {}
        try:
            for threads in (1, 2):
                set_(threads)
                if get() != threads:
                    pytest.skip("numpy's bundled OpenBLAS cannot run two threads here")
                for method in ("covariance", "accumulation"):
                    config = FitConfig(method=method, max_iters=35, restarts=1, seed=32)
                    traces[method, threads] = fit(g, target, config)[1].kl_trace.tobytes()
        finally:
            set_(original)
        for method in ("covariance", "accumulation"):
            assert traces[method, 1] == traces[method, 2], method

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

    def test_overflowing_last_step_is_reported_not_raised(self):
        # the one permitted step overflows; no forward pass saw it, so the run
        # ends as "diverged" with its initial, recorded iterate
        from pmdag.generate import canonical, ground_truth
        g = canonical("bow")
        _, target = ground_truth(g, seed=101)
        config = FitConfig(optimizer="sgd", lr=1e100, max_iters=1, restarts=1)
        params, report = fit(g, target, config)
        assert report.stop_reason == "diverged" and not report.converged
        assert report.iterations == 1
        sync = synchronize(g)
        masks = build_masks(sync)
        assert params == extract_params(sync, init_theta(masks, report.seed))
        assert report.final_kl_model_target == fit_kl(g, target, params)

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
        engine = ENGINES["covariance"](sync, build_masks(sync))
        sigma_vis, ctx = engine.forward(theta_from_params(sync, params))
        grads = engine.backward(ctx, loss_kernel("kl", sigma_vis, target.data)[1])
        assert math.sqrt(float((grads ** 2).sum())) <= 1e-6

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


class TestFitExits:
    """The stop reasons a fit reaches only through a singular model, a bad gradient or a flat loss."""

    @pytest.fixture
    def bow_target(self):
        from pmdag.generate import canonical
        g = canonical("bow")
        return g, ground_truth(g, seed=101)[1]

    @pytest.mark.parametrize("method", METHODS)
    def test_zero_initial_weights_stop_as_singular_model(self, bow_target, method, monkeypatch):
        # all-zero edge weights induce a zero visible covariance, which cannot be factored
        monkeypatch.setattr("pmdag.solver.init_theta", lambda masks, seed: np.zeros(masks.n_trainable))
        g, target = bow_target
        _, report = fit(g, target, FitConfig(method=method, restarts=2, max_iters=10))
        assert report.stop_reason == "singular_model" and not report.converged
        assert report.iterations == 0 and report.restarts_used == 2
        assert report.final_kl_model_target == math.inf
        assert report.final_kl_target_model == math.inf  # KL(target || model) of a singular model

    def test_non_finite_gradient_stops_as_diverged(self, bow_target, monkeypatch):
        bind, calls = ENGINES["covariance"], []

        def bind_with_a_bad_third_gradient(sync, masks):
            engine = bind(sync, masks)

            def backward(ctx, seed_vis):
                calls.append(seed_vis)
                grad = engine.backward(ctx, seed_vis)
                return np.full_like(grad, np.inf) if len(calls) == 3 else grad

            return Engine(engine.forward, backward)

        monkeypatch.setitem(ENGINES, "covariance", bind_with_a_bad_third_gradient)
        g, target = bow_target
        params, report = fit(g, target, FitConfig(restarts=1), iter_hook=lambda i, get: get())
        assert report.stop_reason == "diverged" and not report.converged
        assert report.iterations == 3 and len(calls) == 3
        assert params == report.hook_records[-1]  # the params of iteration 3, which took no step

    @staticmethod
    def bind_with_a_changed_covariance(change, at_call):
        """Bind the covariance engine so that its forward number ``at_call`` returns ``change(sigma_vis)``."""
        bind, calls = ENGINES["covariance"], []

        def bind_changed(sync, masks):
            engine = bind(sync, masks)

            def forward(theta):
                calls.append(theta)
                sigma_vis, ctx = engine.forward(theta)
                return (change(sigma_vis) if len(calls) == at_call else sigma_vis), ctx

            return Engine(forward, engine.backward)

        return bind_changed

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_upper_triangle_stops_as_diverged(self, bow_target, monkeypatch, value):
        # the factorization reads the lower triangle only and succeeds; the trace finds the entry
        def spoil(sigma_vis):
            sigma_vis = sigma_vis.copy()
            sigma_vis[0, -1] = value
            return sigma_vis

        monkeypatch.setitem(ENGINES, "covariance", self.bind_with_a_changed_covariance(spoil, 3))
        g, target = bow_target
        params, report = fit(g, target, FitConfig(restarts=1), iter_hook=lambda i, get: get())
        assert report.stop_reason == "diverged" and not report.converged
        assert report.iterations == 2
        assert params == report.hook_records[-1]  # the params of iteration 2, the last recorded

    def test_overflowing_trace_of_a_finite_covariance_is_not_diverged(self, bow_target, monkeypatch):
        huge = np.finfo(float).max
        monkeypatch.setitem(ENGINES, "covariance",
                            self.bind_with_a_changed_covariance(lambda s: huge * np.eye(len(s)), 2))
        g, target = bow_target
        _, report = fit(g, target, FitConfig(restarts=1, max_iters=5))
        assert math.isinf(report.kl_trace[1]) and math.isinf(report.loss_trace[1])
        assert report.stop_reason == "max_iters" and report.iterations == 5

    @pytest.mark.parametrize("method, loss", [(m, loss) for loss in LOSSES for m in METHODS],
                             ids=[m if loss == "kl" else f"{m}-{loss}" for loss in LOSSES for m in METHODS])
    def test_finite_iterations_run_no_finite_check(self, method, loss, monkeypatch):
        # an id without a loss is the default loss, kl
        # the loss kernel and the step find a non-finite value from results they need anyway
        calls, marks = [], []
        isfinite, logical_and = np.isfinite, np.logical_and

        def counted_isfinite(*args, **kwargs):
            calls.append("isfinite")
            return isfinite(*args, **kwargs)

        class CountedLogicalAnd:
            def __call__(self, *args, **kwargs):
                return logical_and(*args, **kwargs)

            def reduce(self, *args, **kwargs):
                calls.append("logical_and.reduce")
                return logical_and.reduce(*args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted_isfinite)
        monkeypatch.setattr(np, "logical_and", CountedLogicalAnd())
        g = canonical("napkin")
        _, target = ground_truth(g, seed=3)
        _, report = fit(g, target, FitConfig(loss=loss, method=method, max_iters=4, restarts=1, kl_tol=0.0),
                        iter_hook=lambda i, get: marks.append(len(calls)))
        monkeypatch.undo()
        assert report.iterations == 4
        assert marks[0] == marks[-1], calls[marks[0]:]
        assert "isfinite" in calls and "logical_and.reduce" in calls  # the counters count: set-up checks

    def test_flat_loss_stops_as_loss_plateau(self, bow_target):
        g, target = bow_target
        config = FitConfig(optimizer="sgd", lr=1e-2, restarts=1, max_iters=20000, kl_tol=0.0,
                           min_improvement=1e-9)
        _, report = fit(g, target, config)
        assert report.stop_reason == "loss_plateau" and not report.converged
        assert report.iterations < config.max_iters
        assert abs(report.loss_trace[-1] - report.loss_trace[-2]) <= config.min_improvement


def test_hook_records_belong_to_the_returned_restart():
    # the fit of test_restarts_ranked_on_the_reported_kl: restart 1 of 3 is returned,
    # so the records are those the hook returned during that restart alone
    from pmdag.generate import canonical
    g = canonical("backdoor")
    _, target = ground_truth(g, seed=1)
    config = FitConfig(optimizer="sgd", lr=1e-2, max_iters=20, restarts=3, seed=17)
    _, report = fit(g, target, config, iter_hook=lambda i, get: get() if i == 1 else None)
    sync = synchronize(g)
    masks = build_masks(sync)
    assert report.restarts_used == 3
    assert report.hook_records == [
        extract_params(sync, init_theta(masks, derive_seed(17, 1)))]


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
        pytest.param({"max_iters": 50.0}, id="float_max_iters"),
        pytest.param({"restarts": 1.5}, id="float_restarts"),
        pytest.param({"seed": 1.5}, id="float_seed"),
        pytest.param({"seed": True}, id="bool_seed"),
        pytest.param({"lr": True}, id="bool_lr"),
        pytest.param({"kl_tol": True}, id="bool_kl_tol"),
        pytest.param({"lr": "0.1"}, id="str_lr"),
    ])
    def test_bad_values_rejected(self, kwargs):
        from pmdag.solver import SolverError
        with pytest.raises(SolverError):
            FitConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        config = FitConfig(max_iters=np.int64(5), restarts=np.int32(2), seed=np.uint8(3))
        assert (config.max_iters, config.restarts, config.seed) == (5, 2, 3)


class TestReducedPlan:
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


    def test_gradient_table_index_rule(self):
        # the roots L1 and L2 follow the non-root V1 in node order
        g = validate([("V1", "visible"), ("L1", "latent"), ("V2", "visible"), ("L2", "latent")],
                     [("L1", "V1"), ("L2", "V2"), ("V1", "V2")])
        plan = ReducedPlan(synchronize(g))
        cells = set()
        for p in range(len(g.nodes)):
            for q in range(len(g.nodes)):
                pos = plan.grad_at([p], [q])[0, 0]
                if plan.is_root[p] and plan.is_root[q]:
                    assert pos == plan.table_size  # the zero cell
                    continue
                assert pos == plan.at([p], [q])[0, 0] < plan.table_size
                if plan.is_root[p] or plan.is_root[q]:
                    assert pos == plan.grad_at([q], [p])[0, 0]
                cells.add(pos)
        # every cell is one ordered pair of non-roots or one unordered mixed pair
        assert cells == set(range(plan.table_size))

    @staticmethod
    def counted_new(g, layer, names):
        """A layering of ``g`` that counts ``names`` as the nodes first appearing in ``layer``."""
        sync = synchronize(g)
        sync.new = tuple(tuple(map(g.index, names)) if l == layer else n for l, n in enumerate(sync.new))
        return sync

    @pytest.mark.parametrize("new", [
        ("X", "Y"),  # X new again: lam(U_XY, X) is written in layers 1 and 2
        ("Y", "Y"),  # Y new twice: lam(X, Y) is written twice in layer 2
    ])
    def test_plan_rejects_a_forward_that_writes_a_slot_twice(self, new):
        with pytest.raises(AssertionError, match="twice"):
            ReducedPlan(self.counted_new(canonical_bow(), 2, new))

    def test_plan_rejects_a_forward_that_writes_a_constant_cell(self):
        # the root L counted new in B's place writes sig(L, L), the constant 1.0, and no slot twice
        g = validate([("L", "latent"), ("A", "latent"), ("B", "latent"), ("C", "visible")],
                     [("L", "A"), ("A", "B"), ("B", "C")])
        with pytest.raises(AssertionError, match="constant cell"):
            ReducedPlan(self.counted_new(g, 2, ("L",)))


class TestFitMemory:
    """A layered fit holds the weight, gradient and (covariance) Lambda buffers, and no other stack."""

    @pytest.fixture(scope="class")
    def v32(self):
        g = quiet_random_pmdag(32)
        sync = synchronize(g)
        stack_bytes = 8 * sum(len(a) * len(b) for a, b in zip(sync.layers, sync.layers[1:]))
        return g, ground_truth(g, seed=0)[1], stack_bytes

    @pytest.mark.parametrize("method", ["covariance", "accumulation"])
    def test_fit_peak_within_four_and_a_half_stacks(self, v32, method):
        g, target, stack_bytes = v32
        config = FitConfig(method=method, max_iters=3, restarts=1)
        fit(g, target, config)  # first calls allocate caches that a fit does not hold
        tracemalloc.start()
        try:
            fit(g, target, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * stack_bytes, (method, peak / stack_bytes)

    @pytest.mark.parametrize("method", METHODS)
    def test_fit_never_reads_the_dense_masks(self, method, monkeypatch):
        def refuse(_masks):
            raise AssertionError("the fit read a dense mask stack")

        monkeypatch.setattr(MaskSet, "trainable", property(refuse))
        monkeypatch.setattr(MaskSet, "constants", property(refuse))
        g = canonical("napkin")
        _, target = ground_truth(g, seed=3)
        _, report = fit(g, target, FitConfig(method=method, max_iters=5, restarts=2))
        assert report.iterations == 5


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

    @pytest.fixture(scope="class")
    def v32_pass_inputs(self):
        sync = synchronize(quiet_random_pmdag(32))
        masks = build_masks(sync)
        edge_w = edge_weight_map(masks, init_weights(sync, masks, seed=0))
        half = np.random.default_rng(1).standard_normal((len(sync.layers[-1]),) * 2)
        return sync, edge_w, half + half.T

    def test_counted_passes_give_the_same_bits(self, v32_pass_inputs):
        sync, edge_w, seed = v32_pass_inputs
        plain = forward_reduced(sync, edge_w)
        counter = AllocationCounter()
        counted = forward_reduced(sync, edge_w, counter=counter)
        assert counted.buf.tobytes() == plain.buf.tobytes()
        # the returned table stays counted as live; the gathers made on the way are released
        assert counted.buf.size <= counter.current < counter.peak
        grads = [backward_reduced(sync, edge_w, state, seed, **kw)
                 for state, kw in ((counted, {"counter": counter}), (plain, {}))]
        assert grads[0].keys() == grads[1].keys()
        assert np.array(list(grads[0].values())).tobytes() == np.array(list(grads[1].values())).tobytes()

    def test_counted_pass_leaves_an_enclosing_trace_running(self, v32_pass_inputs):
        sync, edge_w, _seed = v32_pass_inputs
        counter = AllocationCounter()
        tracemalloc.start()
        try:
            forward_reduced(sync, edge_w, counter=counter)
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()
        assert counter.peak > 0
        forward_reduced(sync, edge_w, counter=AllocationCounter())
        assert not tracemalloc.is_tracing()  # a trace the call started is stopped again

    def test_reduced_fit_never_traces(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("the fit started tracemalloc")

        monkeypatch.setattr(tracemalloc, "start", refuse)
        g = canonical("napkin")
        _, target = ground_truth(g, seed=3)
        _, report = fit(g, target, FitConfig(method="reduced", max_iters=5, restarts=2))
        assert report.iterations == 5

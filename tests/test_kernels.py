"""Property tests of the shared kernels against an independent linear-algebra oracle.

On a strict graph every node is linear in the roots: with W the weighted
adjacency (W[p, c] the weight of p -> c) and E the columns of the identity at
the roots, the node vector is x = (I - W^T)^-1 E u for standard-normal roots
u.  An intervention zeroes the targets' incoming columns of W and adds the
assigned values at the targets' rows: the targets become sources beside the
roots.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pmdag.gauss import NonFiniteEntries, loss_kernel, one_lapack_thread
from pmdag.identify import InterventionQuery, interventional_dist
from pmdag.solver import (
    ENGINES,
    LOSSES,
    METHODS,
    _dot,
    joint_cov,
    root_loadings,
    visible_positions,
)
from pmdag.sync import build_masks, synchronize

from conftest import GRAPH_VARIANTS, PROPERTY, graph_variant, pmdags, random_params, theta_from_params


@st.composite
def graph_and_rng(draw):
    g = draw(pmdags(min_v=2, max_v=5))
    return g, np.random.default_rng(draw(st.integers(0, 2**31 - 1)))


def adjacency(g, params, cut=()):
    w = np.zeros((len(g.nodes), len(g.nodes)))
    for (p, c), value in params.to_edge_dict(g).items():
        if c not in cut:
            w[g.index(p), g.index(c)] = value
    return w


def solve_system(g, w, rows):
    """(I - W^T)^-1 applied to the identity columns at ``rows``."""
    n = len(g.nodes)
    return np.linalg.solve(np.eye(n) - w.T, np.eye(n)[:, rows])


@PROPERTY
@given(graph_and_rng(), st.data())
def test_root_loadings_match_linear_solve(case, data):
    g, rng = case
    params = random_params(g, rng)
    do = tuple(data.draw(st.lists(st.sampled_from(g.visible_names), max_size=3, unique=True)))
    sources = [g.index(name) for name in g.roots + do]
    oracle = solve_system(g, adjacency(g, params, cut=do), sources).T
    np.testing.assert_allclose(root_loadings(g, params, do=do), oracle, rtol=1e-12, atol=1e-12)


@PROPERTY
@given(graph_and_rng(), st.data())
def test_interventional_dist_matches_mutilated_system(case, data):
    g, rng = case
    params = random_params(g, rng)
    vis = list(g.visible_names)
    targets = data.draw(st.lists(st.sampled_from(vis), min_size=1, max_size=2, unique=True))
    effects = data.draw(st.lists(st.sampled_from(vis), min_size=1, max_size=3, unique=True))
    values = [data.draw(st.floats(0.1, 3.0) | st.floats(-3.0, -0.1)) for _ in targets]
    dist = interventional_dist(g, params, InterventionQuery(targets, values, effects))

    w = adjacency(g, params, cut=targets)
    eff = [g.index(e) for e in effects]
    noise = solve_system(g, w, [g.index(r) for r in g.roots])[eff]
    shift = solve_system(g, w, [g.index(t) for t in targets])[eff] @ np.array(values)
    np.testing.assert_allclose(dist.mean, shift, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(dist.cov.data, noise @ noise.T, rtol=1e-12, atol=1e-12)


def engine_case(g, rng):
    """Params, synchronization, masks and the edge vector theta holding the params, at random weights."""
    params = random_params(g, rng)
    sync = synchronize(g)
    masks = build_masks(sync)
    return params, sync, masks, theta_from_params(sync, params)


@PROPERTY
@given(graph_and_rng())
def test_every_engine_matches_joint_cov_and_backward_cov(case):
    """Forward against the path-sum covariance; backward against the covariance engine's."""
    g, rng = case
    params, sync, masks, theta = engine_case(g, rng)
    vis = visible_positions(sync)
    half = rng.standard_normal((len(vis), len(vis)))
    seed_vis = half + half.T
    expected_cov = joint_cov(g, params).restrict(g.visible_names).data
    cov_engine = ENGINES["covariance"](sync, masks)
    expected_grad = cov_engine.backward(cov_engine.forward(theta)[1], seed_vis)

    assert METHODS == tuple(ENGINES)
    for method, bind in ENGINES.items():
        engine = bind(sync, masks)
        sigma_vis, ctx = engine.forward(theta)
        np.testing.assert_allclose(sigma_vis, expected_cov, rtol=1e-10, atol=1e-10,
                                   err_msg=method)
        dtheta = engine.backward(ctx, seed_vis)
        assert dtheta.shape == theta.shape
        np.testing.assert_allclose(dtheta, expected_grad, rtol=1e-10, atol=1e-10,
                                   err_msg=method)


@PROPERTY
@given(graph_and_rng(), st.sampled_from(LOSSES))
def test_every_engine_gradient_matches_finite_differences(case, loss):
    """d(theta) of each bound engine against central differences of the fit's loss kernel."""
    g, rng = case
    _params, sync, masks, theta = engine_case(g, rng)
    k = len(g.visible_names)
    a = rng.standard_normal((k, k))
    target = a @ a.T + k * np.eye(k)
    for method, bind in ENGINES.items():
        engine = bind(sync, masks)
        sigma_vis, ctx = engine.forward(theta)
        assume(np.linalg.cond(sigma_vis) < 1e6)
        _err, seed_vis, _kl = loss_kernel(loss, sigma_vis, target)
        dtheta = engine.backward(ctx, seed_vis)

        def value(t):
            return loss_kernel(loss, engine.forward(t)[0], target)[0]

        h = 1e-6
        numeric = np.empty_like(theta)
        for i in range(len(theta)):
            step = np.zeros_like(theta)
            step[i] = h
            numeric[i] = (value(theta + step) - value(theta - step)) / (2 * h)
        np.testing.assert_allclose(dtheta, numeric, rtol=1e-4, atol=1e-5,
                                   err_msg=f"{method} {loss}")


def visible_jacobian(g, masks, theta):
    """Sigma_vis and J[k, i, j] = dSigma_ij / dtheta_k in closed form, over the visible i, j.

    With W[p, c] = theta_k for edge k = (p, c) of ``masks.edges`` and
    A = (I - W)^-1, the root loadings are A's root rows and Sigma their Gram
    matrix, so dSigma_ij / dw_pc = A[c, i] Sigma[p, j] + Sigma[i, p] A[c, j].
    """
    n = len(g.nodes)
    par = np.array([p for p, *_ in masks.edges], dtype=np.intp)
    chi = np.array([c for _, c, *_ in masks.edges], dtype=np.intp)
    w = np.zeros((n, n))
    w[par, chi] = theta
    a = np.linalg.inv(np.eye(n) - w)
    lam = a[[g.index(r) for r in g.roots]]
    sigma = lam.T @ lam
    vis = [g.index(v) for v in g.visible_names]
    half = a[np.ix_(chi, vis)][:, :, None] * sigma[np.ix_(par, vis)][:, None, :]
    return sigma[np.ix_(vis, vis)], half + half.transpose(0, 2, 1)


def assert_close_rel(actual, expected, what, rtol=1e-12):
    """Largest entrywise error within ``rtol`` of the largest expected entry."""
    scale = max(1.0, float(np.abs(expected).max()))
    err = float(np.abs(actual - expected).max())
    assert err <= rtol * scale, f"{what}: error {err:.3g} against scale {scale:.3g}"


@PROPERTY
@given(graph_and_rng(), st.sampled_from(GRAPH_VARIANTS))
def test_every_engine_matches_closed_form_jacobian(case, variant):
    """Forward against Sigma_vis and backward against J^T seed: no engine and no differences in the oracle.

    A latent sink in the last layer makes the visible block a proper
    sub-block of it, so each engine's gather of that block meets the oracle.
    """
    g, rng = case
    g = graph_variant(g, rng, variant)
    _params, sync, masks, theta = engine_case(g, rng)
    is_identity = visible_positions(sync) == list(range(len(sync.layers[-1])))
    assert is_identity == (variant != "latent sink")
    sigma_vis, jac = visible_jacobian(g, masks, theta)
    half = rng.standard_normal(sigma_vis.shape)
    seed_vis = half + half.T
    expected_grad = np.einsum("kij,ij->k", jac, seed_vis)
    for method, bind in ENGINES.items():
        engine = bind(sync, masks)
        got_sigma, ctx = engine.forward(theta)
        assert_close_rel(got_sigma, sigma_vis, f"{method} forward")
        assert_close_rel(engine.backward(ctx, seed_vis), expected_grad, f"{method} backward")


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**31 - 1))
def test_dot_and_matmul_give_the_same_bits(m, k, n, seed):
    """The layered passes multiply with ``_dot``, the C function behind np.dot; it must round exactly like np.dot and ``@``.

    Covers plain and transposed operands, a product with its own transpose
    (the ``dsyrk`` path), the backward chain w g w^T and a write through
    ``out=`` into a view of a larger buffer, as the bound engines do.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)) * 10.0 ** rng.integers(-3, 4)
    b = rng.standard_normal((k, n))
    at, bt = a.T.copy().T, b.T.copy().T  # same values, Fortran-ordered
    g = rng.standard_normal((n, n))
    w = rng.standard_normal((m, n))
    buf = np.empty(m * n + 3)
    with one_lapack_thread():
        for x, y in ((a, b), (at, b), (a, bt), (at, bt), (b.T, a.T), (a, a.T), (a.T, a), (a.T, at)):
            assert same_bits(np.dot(x, y), x @ y)
            assert same_bits(_dot(x, y), x @ y)
        assert same_bits(np.dot(np.dot(w, g), w.T), w @ g @ w.T)
        assert same_bits(_dot(_dot(w, g), w.T), w @ g @ w.T)
        out = buf[3:].reshape(m, n)
        for dot in (np.dot, _dot):
            dot(a, b, out)
            assert same_bits(out, np.matmul(a, b))
            dot(at, b, out)
            assert same_bits(out, np.matmul(at, b, out=np.empty((m, n))))


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("where", [(0, 1), (1, 0), (1, 1)], ids=["upper", "lower", "diagonal"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_loss_kernel_rejects_non_finite_sigma_without_warning(loss, where, value):
    """The public kernel checks its covariance before any arithmetic, so numpy has nothing to warn about."""
    sigma = np.eye(3) + 0.1
    sigma[where] = value
    target = np.eye(3) * 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteEntries, match="model covariance"):
            loss_kernel(loss, sigma, target)

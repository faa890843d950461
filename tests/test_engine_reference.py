"""The bound reduced engine against its measured entry points, and the SGD step against its definition.

The bound reduced engine runs its passes over theta with the index plan it
built at bind time.  Its output must equal, bit for bit, ``forward_reduced``
and ``backward_reduced`` over the edge-weight map, which build their own
plan, with the visible block gathered by fancy index and the seed embedded
in a zero last-layer matrix.  Graphs with a latent sink in the last layer
make the visible block a proper sub-block, so both the identity and the
gather branch of the visible block run.  The layered engines meet their
oracles in ``tests/test_kernels.py``: the closed-form Jacobian, central
differences, and ``_dot``'s bits.

The Adamax step's bitwise reference is
``tests/test_solver.py::TestOptimizeStep::test_adamax_matches_the_two_where_formula``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pmdag.solver import (
    ENGINES,
    SgdState,
    backward_reduced,
    edge_weight_map,
    forward_reduced,
    init_theta,
    init_weights,
    optimize_step,
    visible_positions,
)
from pmdag.sync import build_masks, synchronize

from conftest import GRAPH_VARIANTS, graph_variant, pmdags


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


def checked(sync, masks, weights, seed_vis):
    """(visible covariance, theta gradient) through ``forward_reduced`` and ``backward_reduced``."""
    vis = visible_positions(sync)
    ix = np.ix_(vis, vis)
    n = len(sync.layers[-1])
    seed = np.zeros((n, n))
    seed[ix] = seed_vis
    edge_w = edge_weight_map(masks, weights)
    state = forward_reduced(sync, edge_w)
    grads = backward_reduced(sync, edge_w, state, seed)
    return state.visible_cov(), np.fromiter(grads.values(), float, len(grads))


@settings(max_examples=60, deadline=None)
@given(pmdags(max_v=7), st.integers(0, 2**32 - 1), st.sampled_from(GRAPH_VARIANTS))
def test_bound_engines_match_the_checked_kernels_bitwise(g, seed, variant):
    rng = np.random.default_rng(seed)
    g = graph_variant(g, rng, variant)
    sync = synchronize(g)
    masks = build_masks(sync)
    theta = init_theta(masks, seed)
    k = len(g.visible_names)
    raw = rng.standard_normal((k, k))
    raw[rng.random((k, k)) < 0.3] = 0.0
    seed_vis = np.triu(raw) + np.triu(raw, 1).T
    is_identity = visible_positions(sync) == list(range(len(sync.layers[-1])))
    assert is_identity == (variant != "latent sink")

    engine = ENGINES["reduced"](sync, masks)
    sigma_vis, ctx = engine.forward(theta)
    dtheta = engine.backward(ctx, seed_vis)
    want_sigma, want_grad = checked(sync, masks, init_weights(sync, masks, seed), seed_vis)
    assert bits(sigma_vis) == bits(want_sigma)
    assert bits(dtheta) == bits(want_grad)


def gradients(rng, size, steps):
    """Gradients whose first entry stays exactly 0, with other entries 0 or -0 now and then."""
    for _ in range(steps):
        grad = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 3, size)
        grad[rng.random(size) < 0.2] = 0.0
        grad[rng.random(size) < 0.1] = -0.0
        grad[0] = 0.0
        yield grad


@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
def test_sgd_step_matches_its_definition_bitwise(seed, size):
    rng = np.random.default_rng(seed)
    theta = ref_theta = rng.standard_normal(size)
    state = SgdState(lr=1e-2)
    for grad in gradients(rng, size, 50):
        theta, state = optimize_step(theta, grad, state)
        ref_theta = ref_theta - 1e-2 * grad
        assert bits(theta) == bits(ref_theta)

"""The bound engines against the checked paths they replaced, and the SGD step against its definition.

A bound engine runs the unchecked forward and backward passes.  Its output
must equal, bit for bit, the public checked kernel followed by the
extraction the engines used before: the visible block taken by fancy index,
the seed embedded in a zero last-layer matrix, and the masked gradient stack
concatenated and read at the trainable positions.  Graphs with a latent sink
in the last layer make the visible block a proper sub-block, so both the
identity and the gather branch of the visible block run.

The Adamax step's bitwise reference is
``tests/test_solver.py::TestOptimizeStep::test_adamax_matches_the_two_where_formula``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pmdag.graph import PmDag
from pmdag.solver import (
    ENGINES,
    SgdState,
    backward_acc,
    backward_cov,
    backward_reduced,
    edge_vector,
    edge_weight_map,
    forward_acc,
    forward_cov,
    forward_reduced,
    init_weights,
    optimize_step,
    visible_positions,
)
from pmdag.sync import build_masks, synchronize

from conftest import demote_one_visible, pmdags


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


def add_latent_sink(g, rng):
    """The graph with a childless latent below one of its deepest nodes, at a random place in node order."""
    sync = synchronize(g)
    deepest = [g.nodes[i].name for i in sync.new[-1]]
    parent = deepest[int(rng.integers(len(deepest)))]
    nodes = [(n.name, n.role) for n in g.nodes]
    nodes.insert(int(rng.integers(len(nodes) + 1)), ("sink", "latent"))
    return PmDag(nodes, [*g.edges, (parent, "sink")])


def old_positions(masks, weights):
    """Trainable positions in the concatenated flattened weight stack, ordered like ``masks.edges``."""
    offsets = np.cumsum([0] + [w.size for w in weights])
    return np.array([offsets[l - 1] + r * weights[l - 1].shape[1] + col
                     for (_p, _c, l, r, col) in masks.edges], dtype=np.intp)


def checked(method, sync, masks, weights, seed_vis):
    """(visible covariance, theta gradient) through the public kernels and the old extraction."""
    vis = visible_positions(sync)
    ix = np.ix_(vis, vis)
    n = len(sync.layers[-1])
    seed = np.zeros((n, n))
    seed[ix] = seed_vis
    if method == "reduced":
        edge_w = edge_weight_map(masks, weights)
        state = forward_reduced(sync, edge_w)
        grads = backward_reduced(sync, edge_w, state, seed)
        return state.visible_cov(), np.fromiter(grads.values(), float, len(grads))
    if method == "covariance":
        sigma, ctx, _sigmas = forward_cov(sync, weights)
        grads = backward_cov(sync, masks, weights, ctx, seed)
    else:
        sigma, ctx = forward_acc(sync, weights)
        grads = backward_acc(sync, masks, weights, ctx, seed)
    return sigma[ix], np.concatenate([grad.ravel() for grad in grads])[old_positions(masks, weights)]


@settings(max_examples=60, deadline=None)
@given(pmdags(max_v=7), st.integers(0, 2**32 - 1), st.sampled_from(["as drawn", "demoted", "latent sink"]))
def test_bound_engines_match_the_checked_kernels_bitwise(g, seed, variant):
    rng = np.random.default_rng(seed)
    if variant == "demoted":
        g = (demote_one_visible(g, rng) or (g,))[0]
    elif variant == "latent sink":
        g = add_latent_sink(g, rng)
    sync = synchronize(g)
    masks = build_masks(sync)
    weights = init_weights(sync, masks, seed)
    theta = edge_vector(masks, weights)
    k = len(g.visible_names)
    raw = rng.standard_normal((k, k))
    raw[rng.random((k, k)) < 0.3] = 0.0
    seed_vis = np.triu(raw) + np.triu(raw, 1).T
    is_identity = visible_positions(sync) == list(range(len(sync.layers[-1])))
    assert is_identity == (variant != "latent sink")

    for method, bind in ENGINES.items():
        engine = bind(sync, masks)
        sigma_vis, ctx = engine.forward(theta)
        dtheta = engine.backward(ctx, seed_vis)
        want_sigma, want_grad = checked(method, sync, masks, weights, seed_vis)
        assert bits(sigma_vis) == bits(want_sigma), method
        assert bits(dtheta) == bits(want_grad), method


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

"""Layered covariance solver: forward passes, exact backpropagation, and the fit loop.

Three equivalent computations of the induced covariance and its weight
gradients are provided: ``covariance`` (per-layer congruence products),
``accumulation`` (running weight products), and ``reduced`` (global node-pair
tables whose footprint is independent of depth).  Gradients are the true
entrywise matrix derivatives, pinned by central finite differences; any
constant factor a differing convention would introduce is absorbed by the
learning rate.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from typing import Callable

import numpy as np

from pmdag.gauss import (
    CovMatrix,
    GaussianDist,
    LabelMismatch,
    NonFiniteEntries,
    NotPositiveDefinite,
    SingularQ,
    kl_gaussian,
    loss_kernel_into,
    one_lapack_thread,
    target_terms,
    write_csv,
)
from pmdag.graph import GraphError, PmDag, StructuralParams, check_ints, is_real
from pmdag.sync import MaskSet, Synchronization, build_masks, synchronize

LOSSES = ("kl", "bha")
OPTIMIZERS = ("sgd", "adamax")


class SolverError(ValueError):
    pass


class ShapeMismatch(SolverError):
    pass


class AsymmetricSeed(SolverError):
    pass


class NonFiniteGradient(SolverError):
    pass


def derive_seed(*parts: int) -> int:
    """Stable 63-bit seed derived from integer parts; index-based, not order-of-execution."""
    state = np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


# --- weights --------------------------------------------------------------


def init_theta(masks: MaskSet, seed: int) -> np.ndarray:
    """Seeded standard-normal edge weights, ordered like ``masks.edges``.

    The generator's stream fills the whole weight stack in its row-major
    order, constant entries included, and theta keeps the draws at the
    trainable entries; the stack is drawn one layer at a time, so no more
    than one layer's draws are alive.
    """
    rng = np.random.default_rng(seed)
    theta = np.empty(masks.n_trainable)
    pos, start = masks.positions, 0
    for shape in masks.shapes:
        draws = rng.standard_normal(shape).ravel()
        inside = (pos >= start) & (pos < start + draws.size)
        theta[inside] = draws.take(pos[inside] - start)
        start += draws.size
    return theta


def init_weights(sync: Synchronization, masks: MaskSet, seed: int) -> list[np.ndarray]:
    """The constant pattern with ``init_theta``'s draws at the trainable entries."""
    return masks.stack(init_theta(masks, seed))


def _check_seed(sync: Synchronization, dsigma) -> np.ndarray:
    dsigma = np.asarray(dsigma, dtype=float)
    n = len(sync.layers[-1])
    if dsigma.shape != (n, n):
        raise ShapeMismatch(f"seed shape {dsigma.shape} does not match last layer size {n}")
    scale = max(1.0, float(np.abs(dsigma).max()))
    if float(np.abs(dsigma - dsigma.T).max()) > 1e-9 * scale:
        raise AsymmetricSeed("the covariance-gradient seed must be symmetric")
    return (dsigma + dsigma.T) / 2.0


# --- layered forward / backward -------------------------------------------
#
# The covariance and accumulation engines' passes, which only a bound engine
# runs (``_bind_layered``), so they check nothing: its weights are views into
# one buffer, so their shapes cannot change, and the seed the loss kernel
# returns is symmetric, placed by the binding into a matrix of the last
# layer's size.  A pass takes one (W_l, W_l^T, Lambda_l, out_l) tuple per
# layer (``_layers``), built once, at bind time.
#
# The passes multiply with ``_dot``, the C function behind ``np.dot``
# (``np.dot._implementation``).  On 2-D operands it makes the same BLAS call
# as ``np.dot`` and ``@`` (``dgemm``, or ``dsyrk`` for a product with its own
# transpose) and so gives the same bits, but ``np.dot`` first goes through
# numpy's ``__array_function__`` dispatcher and ``@`` through the matmul
# gufunc machinery, which on the few-by-few matrices of a fit cost about a
# third and about a half again as much as the product itself.
# ``tests/test_kernels.py`` checks that the three agree bitwise.

_dot = getattr(np.dot, "_implementation", np.dot)


def _layers(weights, lams=(), outs=()) -> list[tuple]:
    """One (W_l, W_l^T, Lambda_l, out_l) tuple per layer; None where ``lams`` or ``outs`` give none."""
    return [(w, w.T, lam, out) for w, lam, out in zip_longest(weights, lams, outs)]


def _cov_forward(eye, layers):
    """Write Lambda_l = Sigma_{l-1} W_l into each layer's Lambda; return (final Sigma, None).

    Each Sigma_l = W_l^T Lambda_l lives only until the next layer's product.
    """
    sigma = eye
    for w, wt, lam, _out in layers:
        _dot(sigma, w, lam)
        sigma = _dot(wt, lam)
    return sigma, None


def _cov_backward(layers, _ctx, g) -> None:
    """Write Lambda_l G_l, the unmasked half-gradient of layer l, into each layer's out.

    G_L is the seed ``g`` and G_{l-1} = W_l G_l W_l^T.
    """
    for k in range(len(layers) - 1, -1, -1):
        w, wt, lam, out = layers[k]
        _dot(lam, g, out)
        if k:
            g = _dot(_dot(w, g), wt)


def _acc_forward(eye, layers):
    """Accumulate A_l = A_{l-1} W_l from A_0 = I; return (A_L^T A_L, [A_0, ..., A_L])."""
    acc = eye
    accs = [acc]
    for w, _wt, _lam, _out in layers:
        acc = _dot(acc, w)
        accs.append(acc)
    return _dot(acc.T, acc), accs


def _acc_backward(layers, accs, g) -> None:
    """Write A_{l-1}^T Omega_l, the unmasked half-gradient of layer l, into each layer's out.

    Omega_L = A_L G for the seed G, and Omega_{l-1} = Omega_l W_l^T.
    """
    omega = _dot(accs[-1], g)
    for k in range(len(layers) - 1, -1, -1):
        _w, wt, _lam, out = layers[k]
        _dot(accs[k].T, omega, out)
        if k:
            omega = _dot(omega, wt)


def layered_entry_count(sync: Synchronization) -> int:
    """Matrix entries the layered forward stores for its backward pass.

    That is the identity at layer 0 and the Lambda stack, n_{l-1} x n_l per
    layer, which the bound covariance engine keeps; no Sigma_l is kept.
    """
    sizes = [len(layer) for layer in sync.layers]
    return sizes[0] ** 2 + sum(a * b for a, b in zip(sizes, sizes[1:]))


# --- reduced method --------------------------------------------------------


class AllocationCounter:
    """Live and peak 8-byte entries of the reduced passes, which ``_measured`` records."""

    __slots__ = ("current", "peak")

    def __init__(self):
        self.current = 0
        self.peak = 0

    def add(self, n: int) -> None:
        self.current += n
        if self.current > self.peak:
            self.peak = self.current

    def release(self, n: int) -> None:
        self.current -= n


class _LayerPlan:
    """Buffer positions, all from ``ReducedPlan.at``, of one layer l >= 1 for the reduced passes.

    Forward: per new node j, ``lam_cols`` reads sig(prev, parents of j) and
    writes lam(prev, j); per new node q, ``pair_rows`` reads lam(parents of q,
    new nodes up to q) and writes sig(q, those nodes) and its mirror; the
    carried nodes' sig entries copy lam (``copy_from`` to ``copy_to``).  The
    writes are added to ``written``, which counts the earlier layers' writes
    and the constant cells, and a slot counted twice raises.  Backward, over
    the gradient table G at ``ReducedPlan.grad_at``: per new node j,
    ``edge_cols`` reads Lambda_l(cur, parents of j), whose rows of new nodes
    point into the lam table, and G(cur, j).  For l >= 2, per pair a <= b of
    layer l-1, not both roots, ``carry``, ``single`` and ``double`` read the G
    cells of the layer-l terms that ``_previous_grads`` sums, and ``to`` holds
    the cells (a, b) and (b, a) it writes.
    """

    def __init__(self, sync, l, plan, written):
        pa = sync.graph.parent_index
        first = sync.first_appearance
        is_root, at = plan.is_root, plan.at
        prev, cur, new = sync.layers[l - 1], sync.layers[l], sync.new[l]

        # forward
        self.lam_cols = [(at(prev, pa[j]), sync.slices[j], at([j], prev, lam_rows=[j])[0]) for j in new]
        self.pair_rows = [(at(new[:k + 1], pa[q], lam_rows=new), sync.slices[q], at([q], new[:k + 1])[0],
                           at(new[:k], [q])[:, 0]) for k, q in enumerate(new)]
        stay = [u for u in cur if first[u] < l]
        stay_nr = [u for u in stay if not is_root[u]]
        self.copy_to = np.append(at(stay, new), at(new, stay_nr))
        self.copy_from = np.append(at(new, stay, lam_rows=new).T, at(new, stay_nr, lam_rows=new))
        writes = np.concatenate([to for *_, to in self.lam_cols] + [self.copy_to]
                                + [np.append(to, mirror) for *_, to, mirror in self.pair_rows])
        written += np.bincount(writes, minlength=written.size)
        if written.max() > 1:
            raise AssertionError("the reduced forward would write a table slot twice or a constant cell")

        # backward, edge gradients: Lambda_l(p, u) * G_l(u, j) summed over u in layer order
        self.edge_cols = [(at(cur, pa[j], lam_rows=new), sync.slices[j], at(cur, [j])[:, 0]) for j in new]
        if l == 1:
            self.carry = None
            return

        # backward, previous-layer gradients, per pair a <= b of prev, not both roots: node k < len(prev)
        # is prev[k], and node len(nodes) pads; it reads the zero cell, also for a node not in layer l
        nodes = prev + new
        g_at = np.pad(plan.grad_at(nodes, nodes), (0, 1), constant_values=plan.table_size)
        carried = np.array([k if u in cur else len(nodes) for k, u in enumerate(prev)], dtype=np.intp)
        children = [[] for _ in prev]
        for k, j in enumerate(new, start=len(prev)):
            for e, p in enumerate(pa[j], start=sync.slices[j].start):
                children[prev.index(p)].append((k, e))
        width = max(map(len, children))
        pad = [(len(nodes), len(sync.edges))] * width  # theta_pad's last entry is the weight 0
        child, theta = np.array([(c + pad)[:width] for c in children], dtype=np.intp).T  # slot x prev node
        order, root = np.arange(len(prev)), is_root[list(prev)]
        a, b = np.nonzero((order[:, None] <= order) & ~(root[:, None] & root))
        # a's and b's children and their theta entries, slot x pair, taken in C order so that
        # each slot is one contiguous index array; then the terms in ``_previous_grads``' order
        ca, cb, ta, tb = (m.take(k, axis=1) for m in (child, theta) for k in (a, b))
        self.carry = g_at[carried[a], carried[b]]
        self.single = (np.concatenate((tb, ta)), np.concatenate((g_at[carried[a], cb], g_at[ca, carried[b]])))
        self.double = (ta, tb, g_at[ca[:, None], cb])
        self.to = (g_at[a, b], g_at[b, a])


class ReducedPlan:
    """The reduced engine's index arrays for one layering, built once per bind.

    A ``ReducedState`` holds its tables in one buffer: sigma, then lam, each
    (node x non-root), then the constants 0.0 and 1.0.  ``at`` is the one
    rule for where sig(p, q) sits in that buffer, and every position the
    passes read or write comes from it.  The backward's gradient table G is
    laid out like sigma and ends in one 0.0 cell (see ``grad_at``).
    """

    def __init__(self, sync: Synchronization):
        g = sync.graph
        self.is_root = np.array([not pa for pa in g.parent_index], dtype=bool)
        nonroots = np.flatnonzero(~self.is_root)
        self.col_of = np.full(len(g.nodes), -1, dtype=np.intp)
        self.col_of[nonroots] = np.arange(len(nonroots))
        self.table_shape = (len(g.nodes), len(nonroots))
        self.table_size = len(g.nodes) * len(nonroots)
        written = np.zeros(2 * self.table_size + 2, dtype=np.intp)  # writes per slot
        written[-2:] = 1  # the constant cells
        self.layers = [_LayerPlan(sync, l, self, written) for l in range(1, sync.depth)]
        vis = [i for i, node in enumerate(g.nodes) if node.is_visible]
        self.visible = self.at(vis, vis)
        last = sync.layers[-1]
        self.last_nr = np.array([k for k, u in enumerate(last) if not self.is_root[u]], dtype=np.intp)
        self.seed_at = self.at(last, np.array(last)[self.last_nr])  # G(last, last non-root)

    def at(self, rows, cols, lam_rows=()) -> np.ndarray:
        """Buffer positions of sig(rows, cols), a (rows x cols) array.

        A non-root column reads its own sigma column, a (non-root row, root
        column) entry its transpose, and a pair of roots the 0.0 or 1.0 cell.
        A row in ``lam_rows``, each a non-root, reads lam(col, row) instead.
        """
        rows, cols = np.array(rows, dtype=np.intp)[:, None], np.array(cols, dtype=np.intp)
        n_nr, size = self.table_shape[1], self.table_size
        from_lam = (rows == np.array(lam_rows, dtype=np.intp)).any(axis=1, keepdims=True)
        at = np.where(self.is_root[cols] | from_lam, cols * n_nr + self.col_of[rows] + size * from_lam,
                      rows * n_nr + self.col_of[cols])
        return np.where(self.is_root[rows] & self.is_root[cols], 2 * size + (rows == cols), at)

    def grad_at(self, rows, cols) -> np.ndarray:
        """Positions of G(rows, cols): ``at``'s sig position, or the 0.0 cell ``table_size`` for two roots."""
        return np.minimum(self.at(rows, cols), self.table_size)


class ReducedState:
    """Global sigma and lambda tables keyed (any node, non-root node).

    Both are views of one buffer that ends in the constant cells 0.0 and 1.0
    (see ``ReducedPlan.at``).  Entries are layer-independent once written, and
    the plan has checked that the forward writes each slot once at most.
    """

    __slots__ = ("plan", "buf", "sigma", "lam")

    def __init__(self, plan: ReducedPlan):
        self.plan = plan
        size = plan.table_size
        self.buf = np.full(2 * size + 2, np.nan)
        self.buf[-2:] = (0.0, 1.0)
        self.sigma = self.buf[:size].reshape(plan.table_shape)
        self.lam = self.buf[size:2 * size].reshape(plan.table_shape)

    def sig(self, p: int, q: int) -> float:
        return self.buf[self.plan.at([p], [q])[0, 0]]

    def visible_cov(self) -> np.ndarray:
        out = self.buf.take(self.plan.visible)
        return (out + out.T) / 2.0


def _ordered_sum(terms: np.ndarray, axis: int) -> np.ndarray:
    """Sum along ``axis`` left to right from +0.0, as Python's ``sum`` adds; overwrites ``terms``.

    ``np.add.reduce`` sums pairwise and rounds differently; the running sum
    of ``accumulate`` adds in order, and the final ``+ 0.0`` turns the one
    result that can differ, a -0.0, into the +0.0 a sum from +0.0 gives.
    """
    np.add.accumulate(terms, axis=axis, out=terms)
    return terms.take(-1, axis=axis) + 0.0


def edge_weight_map(masks: MaskSet, weights) -> dict[tuple[int, int], float]:
    """Edge-indexed view of the trainable entries of a weight stack."""
    return {
        (p, c): float(weights[l - 1][r, col])
        for (p, c, l, r, col) in masks.edges
    }


def _previous_grads(lp: _LayerPlan, theta_pad: np.ndarray, gbuf: np.ndarray) -> None:
    """Overwrite the gradient table's cells of layer l-1's pairs with their sums over layer l's.

    Each pair a <= b (node order) adds in the scalar order: the carry G(a, b),
    then b's new children q, w_bq G(a, q), then a's, w_ap G(p, b), then a's
    children outer and b's inner, (w_ap w_bq) G(p, q).  A node not in layer
    l, and a padded child slot of weight 0, reads the zero cell.  The sum is
    written to (a, b) and (b, a), one cell when either is a root, once every
    term is read.
    """
    total = gbuf.take(lp.carry) + 0.0
    term = np.empty_like(total)
    for th, at in zip(*lp.single):
        total += np.multiply(theta_pad.take(th), gbuf.take(at), out=term)
    theta_a, theta_b, g_at = lp.double
    for th_a, row in zip(theta_a, g_at):
        w_a = theta_pad.take(th_a)
        for th_b, at in zip(theta_b, row):
            np.multiply(w_a, theta_pad.take(th_b), out=term)
            total += np.multiply(term, gbuf.take(at), out=term)
    gbuf[lp.to[0]] = gbuf[lp.to[1]] = total


def _reduced_forward(plan: ReducedPlan, theta: np.ndarray) -> ReducedState:
    state = ReducedState(plan)
    buf = state.buf
    for lp in plan.layers:
        for at, sl, to in lp.lam_cols:
            terms = buf.take(at)
            terms *= theta[sl]
            buf[to] = _ordered_sum(terms, 1)
            del terms  # freed before the next gather, so two gathers are never held at once
        for at, sl, to, mirror in lp.pair_rows:
            terms = buf.take(at)
            terms *= theta[sl]
            values = _ordered_sum(terms, 1)
            buf[to] = values
            buf[mirror] = values[:-1]
            del terms, values  # freed before the next gather, so two gathers are never held at once
        buf[lp.copy_to] = buf.take(lp.copy_from)
    return state


def _reduced_backward(plan: ReducedPlan, theta: np.ndarray, state: ReducedState, g: np.ndarray) -> np.ndarray:
    """Edge gradients ordered like theta, from the forward's ``state`` and the seed ``g``."""
    theta_pad = np.append(theta, 0.0)  # child slots past a node's last child read weight 0
    grads = np.zeros(theta.size)
    gbuf = np.zeros(plan.table_size + 1)  # G laid out like sigma, then the zero cell
    gbuf[plan.seed_at] = g[:, plan.last_nr]
    for lp in reversed(plan.layers):
        for at, sl, g_at in lp.edge_cols:
            g_col = gbuf.take(g_at)
            terms = state.buf.take(at)
            terms *= g_col[:, None]
            terms[g_col == 0.0] = 0.0  # a zero seed skips its term, even against an infinite factor
            grads[sl] = 2.0 * _ordered_sum(terms, 0)
            del terms, g_col  # freed before the next gathers, so two of each are never held at once
        if lp.carry is None:
            break
        _previous_grads(lp, theta_pad, gbuf)
    return grads


def _measured(counter: AllocationCounter | None, run: Callable, *args):
    """``run(*args)``; a given counter adds its traced peak and releases what it freed, in 8-byte entries.

    An enclosing tracemalloc session keeps tracing, its peak reset.  No other thread may allocate.
    """
    if counter is None:
        return run(*args)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()  # a no-op while a session is tracing
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = run(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    counter.add((peak - base) // 8)
    counter.release((peak - current) // 8)
    return result


def forward_reduced(
    sync: Synchronization,
    edge_weights: dict[tuple[int, int], float],
    counter: AllocationCounter | None = None,
) -> ReducedState:
    """Fill the global covariance tables once per node pair, layer by layer.

    ``edge_weights`` maps (parent index, child index) to the edge weight; the
    tables replace the per-layer Sigma/Lambda stacks of the layered methods.
    Every sum adds in the order of the scalar loop over node pairs.
    """
    theta = np.fromiter((edge_weights[p, c] for p, c, _l in sync.edges), float, len(sync.edges))
    return _measured(counter, _reduced_forward, ReducedPlan(sync), theta)


def backward_reduced(
    sync: Synchronization,
    edge_weights: dict[tuple[int, int], float],
    state: ReducedState,
    dsigma,
    counter: AllocationCounter | None = None,
) -> dict[tuple[int, int], float]:
    """Per-edge gradients, from one covariance-gradient table laid out like sigma.

    Each layer's step overwrites the cells of the previous layer's pairs.
    Pairs of two root nodes are not held: root rows persist as identity
    carries, so such entries feed neither any trainable-weight gradient nor
    any kept entry of an earlier layer, and they read the table's 0.0 cell.
    """
    g = _check_seed(sync, dsigma)
    edges = [(p, c) for p, c, _l in sync.edges]
    theta = np.array([edge_weights[e] for e in edges])
    grads = _measured(counter, _reduced_backward, state.plan, theta, state, g)
    return dict(zip(edges, grads.tolist()))


# --- the engine table ---------------------------------------------------------


@dataclass(frozen=True)
class Engine:
    """One solver method bound to a layering, over the flat edge vector theta.

    ``theta`` holds one weight per trainable edge, ordered like
    ``masks.edges``.  ``forward(theta)`` returns the visible covariance and a
    context; ``backward(ctx, seed_vis)`` takes the covariance-gradient seed
    on the visible block and returns d(loss)/d(theta).  A layered engine's
    context is valid until its next forward, which overwrites its buffers.
    """

    forward: Callable
    backward: Callable


def _visible_block(sync: Synchronization):
    """(take, embed): the visible block of a last-layer matrix, and a seed placed back into one.

    Both are the identity when the visible nodes fill the last layer in node
    order, as on every canonical graph.
    """
    vis = visible_positions(sync)
    n = len(sync.layers[-1])
    if vis == list(range(n)):
        return (lambda sigma: sigma), (lambda seed_vis: seed_vis)
    ix = np.ix_(vis, vis)
    full = np.zeros((n, n))  # entries outside the visible block stay zero

    def embed(seed_vis):
        full[ix] = seed_vis
        return full

    return (lambda sigma: sigma[ix]), embed


def _bind_layered(sync: Synchronization, masks: MaskSet, forward, backward, lams=()) -> Engine:
    """Bind a weight-stack engine's passes to theta through one flat buffer.

    ``forward(eye, layers) -> (sigma, ctx)`` and ``backward(layers, ctx,
    seed)`` are the engine's passes over the tuples of ``_layers``;
    the backward writes its unmasked gradient stack into the layers' outs.
    The weight matrices are views into a buffer that holds the constant
    pattern, its 1s written at ``masks.ones``; one fancy-index assignment
    writes theta into the trainable entries, and the gradient is read back
    from a buffer of the same layout at the same positions.  With the
    covariance forward's Lambda views ``lams`` (see ``ENGINES``) these are
    the only stack-sized arrays a fit holds; each forward overwrites them,
    so a context is valid until the next.
    """
    take, embed = _visible_block(sync)
    buf = np.zeros(masks.size)
    buf[masks.ones] = 1.0
    grad_buf = np.empty_like(buf)
    layers = _layers(masks.views(buf), lams, masks.views(grad_buf))
    pos = masks.positions
    eye = np.eye(len(sync.layers[0]))

    def forward_theta(theta):
        buf[pos] = theta
        sigma, ctx = forward(eye, layers)
        return take(sigma), ctx

    def backward_theta(ctx, seed_vis):
        backward(layers, ctx, embed(seed_vis))
        return 2.0 * grad_buf[pos]  # pos holds only trainable cells, whose mask is 1

    return Engine(forward_theta, backward_theta)


def _bind_reduced(sync: Synchronization, masks: MaskSet) -> Engine:
    """Bind the reduced engine's passes: its index plan is built here, once."""
    _take, embed = _visible_block(sync)
    plan = ReducedPlan(sync)

    def forward_theta(theta):
        state = _reduced_forward(plan, theta)
        return state.visible_cov(), (theta, state)

    def backward_theta(ctx, seed_vis):
        theta, state = ctx
        return _reduced_backward(plan, theta, state, embed(seed_vis))

    return Engine(forward_theta, backward_theta)


# Each entry binds a method to one fit's layering: ``ENGINES[method](sync,
# masks) -> Engine``, the one interface to the three engines, over theta.
# The bound covariance forward writes Lambda into one buffer laid out like
# the weight stack.  Outside a fit, ``forward_reduced`` and
# ``backward_reduced`` run the reduced passes over an edge-weight map, so
# that an ``AllocationCounter`` can measure them.
ENGINES = {
    "covariance": lambda sync, masks: _bind_layered(
        sync, masks, _cov_forward, _cov_backward, masks.views(np.empty(masks.size))),
    "accumulation": lambda sync, masks: _bind_layered(sync, masks, _acc_forward, _acc_backward),
    "reduced": _bind_reduced,
}
METHODS = tuple(ENGINES)


def visible_positions(sync: Synchronization) -> list[int]:
    """Positions of the graph's visible nodes, in node-list order, within the last layer."""
    last = sync.layer_names(sync.depth - 1)
    return [last.index(name) for name in sync.graph.visible_names]


# --- optimizers -------------------------------------------------------------


@dataclass(frozen=True)
class SgdState:
    lr: float


# Adamax's moment decay rates, the published constants (Kingma & Ba, ICLR 2015)
ADAMAX_BETA1 = 0.9
ADAMAX_BETA2 = 0.999


@dataclass
class AdamaxState:
    """Adamax learning rate and moments; ``optimize_step`` advances it in place.

    ``scratch`` holds the arrays ``_adamax_arrays`` makes at the first step.
    """

    lr: float
    t: int = 0
    m: np.ndarray | None = None
    u: np.ndarray | None = None
    scratch: tuple | None = field(default=None, repr=False, compare=False)


def make_optimizer_state(config: "FitConfig"):
    if config.optimizer == "sgd":
        return SgdState(lr=config.lr)
    return AdamaxState(lr=config.lr)


def _require_finite_gradient(magnitude) -> None:
    """Raise NonFiniteGradient unless every entry of |g| is finite.

    ``np.maximum`` propagates nan, so the largest |g| is below inf exactly
    when every entry is finite.
    """
    if not np.maximum.reduce(magnitude, initial=0.0) < math.inf:
        raise NonFiniteGradient("gradient contains nan or inf")


def _adamax_arrays(n: int) -> tuple:
    """Zeroed m and u, then the step's work arrays |g|, a product, the step and where u > 0.

    They are views of one buffer: made one by one, small arrays that live as
    long as the state fragment the heap, which raised the peak RSS of
    perfbench's random-fit workload by about 0.5 MB (glibc, x86-64 Linux).
    """
    buf = np.zeros(5 * n + -(-n // 8))  # five float arrays, then n bools
    return (*(buf[k * n:(k + 1) * n] for k in range(5)), buf[5 * n:].view(bool)[:n])


def optimize_step(theta, grad, state):
    """One optimizer update of the edge vector.

    Returns (new theta, state); an Adamax state's step count and moments are
    updated in place.  An Adamax entry whose ``u`` is 0 (no nonzero
    gradient yet) steps exactly 0.
    Raises NonFiniteGradient on nan/inf gradients, before the state changes.
    """
    kind = type(state)
    if kind is AdamaxState:
        if state.scratch is None:
            state.scratch = _adamax_arrays(grad.size)
        first_m, first_u, magnitude, product, step, live = state.scratch
        _require_finite_gradient(np.abs(grad, out=magnitude))
        if state.m is None:
            state.m, state.u = first_m, first_u
        state.t += 1
        m, u = state.m, state.u
        m *= ADAMAX_BETA1
        m += np.multiply(grad, 1.0 - ADAMAX_BETA1, out=product)
        u *= ADAMAX_BETA2
        np.maximum(u, magnitude, out=u)
        rate = state.lr / (1.0 - ADAMAX_BETA1 ** state.t)
        step.fill(0.0)
        np.divide(np.multiply(m, rate, out=product), u, out=step, where=np.greater(u, 0.0, out=live))
        return theta - step, state
    if kind is SgdState:
        _require_finite_gradient(np.abs(grad))
        return theta - state.lr * grad, state
    raise SolverError(f"unknown optimizer state {kind.__name__}")


# --- full-system covariance oracle ------------------------------------------


def root_loadings(g: PmDag, params: StructuralParams, do: tuple[str, ...] = ()) -> np.ndarray:
    """Linear coefficients of every node on its sources, by source-to-node path sums.

    Column j is node ``g.names[j]``.  The sources are the roots, row r for
    ``g.roots[r]``, then the value assigned to each node of ``do``, row
    ``len(g.roots) + k`` for ``do[k]``.  A node of ``do`` is pinned to its
    own row and its incoming edges are never read; every other node's column
    is the weighted sum of its parents' columns, filled in topological order.
    """
    params.validate_for(g)
    sources = g.roots + tuple(do)
    row = {name: i for i, name in enumerate(sources)}
    cols = {}
    for name in g.topological_order():
        col = np.zeros(len(sources))
        if name in row:
            col[row[name]] = 1.0
        else:
            for p, w in zip(g.parents(name), params.weights[name]):
                col += w * cols[p]
        cols[name] = col
    return np.column_stack([cols[name] for name in g.names])


def joint_cov(g: PmDag, params: StructuralParams) -> CovMatrix:
    """Covariance over all nodes with standard-normal roots: the Gram matrix of the root loadings.

    Serves as the brute-force reference for every forward method.
    """
    basis = root_loadings(g, params)
    return CovMatrix(g.names, basis.T @ basis)


def _visible_laws(g: PmDag, target: CovMatrix, params: StructuralParams) -> tuple[GaussianDist, GaussianDist]:
    """Zero-mean laws of the model and of the target on the visible margin."""
    vis = g.visible_names
    zero = np.zeros(len(vis))
    return GaussianDist(zero, joint_cov(g, params).restrict(vis)), GaussianDist(zero, target.restrict(vis))


def fit_kl(g: PmDag, target: CovMatrix, params: StructuralParams) -> float:
    """KL(model || target) on the visible margin: how well the params induce the target."""
    return kl_gaussian(*_visible_laws(g, target, params))


# --- the fit loop ------------------------------------------------------------


@dataclass(frozen=True)
class FitConfig:
    """Solver settings; defaults follow the reference experiment setup."""

    loss: str = "kl"
    method: str = "covariance"
    optimizer: str = "adamax"
    lr: float = 1e-3
    max_iters: int = 12000
    min_improvement: float = 1e-12
    seed: int = 0
    restarts: int = 10
    kl_tol: float = 1e-5

    def __post_init__(self):
        check_ints(SolverError, max_iters=self.max_iters, seed=self.seed, restarts=self.restarts)
        if self.loss not in LOSSES:
            raise SolverError(f"loss must be one of {LOSSES}")
        if self.method not in METHODS:
            raise SolverError(f"method must be one of {METHODS}")
        if self.optimizer not in OPTIMIZERS:
            raise SolverError(f"optimizer must be one of {OPTIMIZERS}")
        if not (is_real(self.lr) and math.isfinite(self.lr) and self.lr > 0):
            raise SolverError("learning rate must be positive and finite")
        if self.max_iters < 1:
            raise SolverError("max_iters must be at least 1")
        if not (is_real(self.min_improvement) and math.isfinite(self.min_improvement) and self.min_improvement >= 0):
            raise SolverError("min_improvement must be nonnegative and finite")
        if self.seed < 0:
            raise SolverError(f"seed must be nonnegative, got {self.seed}")
        if self.restarts < 1:
            raise SolverError("restarts must be at least 1")
        if not (is_real(self.kl_tol) and math.isfinite(self.kl_tol) and self.kl_tol >= 0):
            raise SolverError("kl_tol must be nonnegative and finite")


@dataclass
class FitReport:
    """Audit record of one restart: traces, final divergences, stop diagnostics and hook records.

    ``fit`` returns the record of the restart it picks, with ``restarts_used``
    and ``wall_time`` counted over the whole fit.
    """

    loss_trace: np.ndarray
    kl_trace: np.ndarray
    final_kl_model_target: float
    final_kl_target_model: float
    converged: bool
    stop_reason: str
    iterations: int
    seed: int
    restarts_used: int
    wall_time: float
    loss: str
    method: str
    hook_records: list = field(default_factory=list)


def extract_params(sync: Synchronization, theta) -> StructuralParams:
    """Structural params whose vectors are the runs ``sync.slices`` of one private copy of ``theta``."""
    theta = np.array(theta, dtype=float)
    return StructuralParams({n.name: theta[sl] for n, sl in zip(sync.graph.nodes, sync.slices)
                             if sl is not None})


def fit(g: PmDag, target: CovMatrix, config: FitConfig | None = None,
        iter_hook: Callable | None = None) -> tuple[StructuralParams, FitReport]:
    """Fit the structural weights so the induced visible covariance matches the target.

    Runs ``config.restarts`` independently seeded gradient descents, stopping
    early once one reaches the true-KL threshold, and returns that run, or
    else the run whose returned params have the lowest KL(model || target),
    the earliest on ties.  ``iter_hook(i, get_params)``, when given, is called
    after the loss of iteration ``i`` is recorded; ``get_params()`` builds the
    structural params of that iteration, and whatever the hook returns other
    than None is kept, in order, in the ``hook_records`` of that restart's
    report.  Non-convergence is reported through the ``converged`` flag, never
    raised; a restart whose model covariance or gradient turns non-finite
    stops as ``"diverged"`` and the next one runs.

    Rank-deficient targets are admitted through the jitter ladder, but the
    divergence between singular Gaussians is infinite in the strict sense, so
    such a fit can report ``converged`` (against the jittered surrogate) with
    an infinite final KL; that combination flags a degenerate target.
    """
    if config is None:
        config = FitConfig()
    vis = g.visible_names
    if not vis:
        raise GraphError("the graph has no visible nodes to fit")
    if set(target.labels) != set(vis):
        raise LabelMismatch(
            f"target labels {sorted(target.labels)} do not match visible nodes {sorted(vis)}")
    target = target.restrict(vis)
    target_inv, target_logdet = target_terms(target.data)

    sync = synchronize(g)
    masks = build_masks(sync)
    engine = ENGINES[config.method](sync, masks)
    seed_buf = np.empty(target.data.shape)  # the loss kernel writes its seed here every iteration

    def restart(seed: int) -> tuple[StructuralParams, FitReport]:
        """One descent from the weights seeded by ``seed``, and its own report.

        A non-finite model covariance or gradient ends the run as "diverged"
        with the last edge vector whose loss was recorded.  ``recorded`` is the
        vector the last step started from: a run that ends at ``max_iters``
        returns the ``theta`` one step past it, which no forward pass
        evaluated, or ``recorded``, as "diverged", if that vector overflows.
        """
        theta = recorded = init_theta(masks, seed)
        state = make_optimizer_state(config)
        loss_trace, kl_trace, hook_records = [], [], []
        # bound once: attribute lookups repeated every iteration add up over thousands;
        # loss_kernel_into and optimize_step stay module lookups, which a tracer can wrap
        forward, backward, target_data = engine.forward, engine.backward, target.data
        loss, kl_tol, min_improvement = config.loss, config.kl_tol, config.min_improvement
        prev_err = math.inf
        stop_reason = "max_iters"
        converged = False

        for i in range(1, config.max_iters + 1):
            sigma_vis, ctx = forward(theta)
            try:
                err, seed_vis, kl_mt = loss_kernel_into(loss, sigma_vis, target_data, target_inv,
                                                        target_logdet, seed_buf)
            except NotPositiveDefinite:
                stop_reason = "singular_model"
                break
            except NonFiniteEntries:
                stop_reason = "diverged"
                theta = recorded
                break
            loss_trace.append(err)
            kl_trace.append(kl_mt)
            if iter_hook is not None:
                record = iter_hook(i, lambda theta=theta: extract_params(sync, theta))
                if record is not None:
                    hook_records.append(record)
            if kl_mt <= kl_tol:
                converged = True
                stop_reason = "kl_threshold"
                break
            if abs(err - prev_err) <= min_improvement:
                stop_reason = "loss_plateau"
                break
            prev_err = err

            try:
                stepped, state = optimize_step(theta, backward(ctx, seed_vis), state)
            except NonFiniteGradient:
                stop_reason = "diverged"
                break
            recorded, theta = theta, stepped

        params = extract_params(sync, theta)
        try:
            model, truth = _visible_laws(g, target, params)
        except NonFiniteEntries:  # the step taken at max_iters overflowed
            params, stop_reason = extract_params(sync, recorded), "diverged"
            model, truth = _visible_laws(g, target, params)
        try:
            kl_tm = kl_gaussian(truth, model)
        except SingularQ:
            kl_tm = math.inf
        return params, FitReport(
            loss_trace=np.asarray(loss_trace),
            kl_trace=np.asarray(kl_trace),
            final_kl_model_target=float(kl_gaussian(model, truth)),
            final_kl_target_model=float(kl_tm),
            converged=converged,
            stop_reason=stop_reason,
            iterations=len(loss_trace),
            seed=seed,
            restarts_used=1,  # this run alone; fit sets the count and time of the whole fit
            wall_time=0.0,
            loss=config.loss,
            method=config.method,
            hook_records=hook_records,
        )

    t0 = time.perf_counter()
    runs = []
    # a diverging restart overflows before its non-finite covariance or
    # gradient ends it as "diverged"; that report replaces numpy's warnings
    with one_lapack_thread(), np.errstate(over="ignore", invalid="ignore"):
        for r in range(config.restarts):
            runs.append(restart(derive_seed(config.seed, r)))
            if runs[-1][1].converged:
                break
    params, report = runs[-1] if runs[-1][1].converged else min(
        runs, key=lambda run: run[1].final_kl_model_target)
    return params, replace(report, restarts_used=len(runs), wall_time=time.perf_counter() - t0)


# --- result files -------------------------------------------------------------


def fit_result_dict(g: PmDag, params: StructuralParams, report: FitReport) -> dict:
    return {
        "weights": {f"{p}->{c}": w for (p, c), w in sorted(params.to_edge_dict(g).items())},
        "final_kl_model_target": report.final_kl_model_target,
        "final_kl_target_model": report.final_kl_target_model,
        "converged": report.converged,
        "stop_reason": report.stop_reason,
        "seed": report.seed,
        "iterations": report.iterations,
        "restarts_used": report.restarts_used,
        "loss": report.loss,
        "method": report.method,
        "wall_time": report.wall_time,
    }


def save_trace_csv(report: FitReport, path) -> None:
    """Loss trace as CSV: iteration, surrogate loss, true KL."""
    write_csv(path, ["iteration", "surrogate_loss", "true_kl"],
              zip(range(1, len(report.loss_trace) + 1), report.loss_trace, report.kl_trace))

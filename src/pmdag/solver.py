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
from dataclasses import dataclass
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
    loss_kernel,
    one_lapack_thread,
    target_terms,
)
from pmdag.graph import GraphError, PmDag, StructuralParams
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


def init_weights(sync: Synchronization, masks: MaskSet, seed: int) -> list[np.ndarray]:
    """Constant pattern plus seeded standard-normal draws on the trainable entries."""
    rng = np.random.default_rng(seed)
    weights = []
    for mask, const in zip(masks.trainable, masks.constants):
        weights.append(const + mask * rng.standard_normal(mask.shape))
    return weights


def _check_shapes(sync: Synchronization, weights) -> None:
    if len(weights) != sync.depth - 1:
        raise ShapeMismatch(f"expected {sync.depth - 1} weight matrices, got {len(weights)}")
    for l in range(1, sync.depth):
        want = (len(sync.layers[l - 1]), len(sync.layers[l]))
        if weights[l - 1].shape != want:
            raise ShapeMismatch(f"layer {l} weight shape {weights[l - 1].shape} != {want}")


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
# Each public kernel checks its arguments and then runs its pass.  A bound
# engine runs the passes alone: its weights are views into one buffer, so
# their shapes cannot change, and the seed the loss kernel returns is
# symmetric, placed by the binding into a matrix of the last layer's size.


def _cov_forward(eye, weights):
    sigma = eye
    sigmas = [sigma]
    lams = []
    for w in weights:
        lam = sigma @ w
        sigma = w.T @ lam
        lams.append(lam)
        sigmas.append(sigma)
    return sigma, lams, sigmas


def _cov_backward(weights, lams, g, out):
    """Write Lambda_l G_l, the unmasked half-gradient of layer l, into ``out[l - 1]``."""
    for l in range(len(weights), 0, -1):
        np.matmul(lams[l - 1], g, out=out[l - 1])
        if l > 1:
            w = weights[l - 1]
            g = w @ g @ w.T
    return out


def _acc_forward(eye, weights):
    acc = eye
    accs = [acc]
    for w in weights:
        acc = acc @ w
        accs.append(acc)
    return acc.T @ acc, accs


def _acc_backward(weights, accs, g, out):
    """Write A_{l-1}^T Omega_l, the unmasked half-gradient of layer l, into ``out[l - 1]``."""
    omega = accs[-1] @ g
    for l in range(len(weights), 0, -1):
        np.matmul(accs[l - 1].T, omega, out=out[l - 1])
        if l > 1:
            omega = omega @ weights[l - 1].T
    return out


def _masked_grads(masks: MaskSet, weights, backward, ctx, g) -> list[np.ndarray]:
    """The gradient stack 2 M_l o (pass output) of a layered backward pass."""
    out = backward(weights, ctx, g, [np.empty(w.shape) for w in weights])
    return [2.0 * mask * grad for mask, grad in zip(masks.trainable, out)]


def forward_cov(sync: Synchronization, weights):
    """Propagate the layer covariance: Lambda_l = Sigma_{l-1} W_l, Sigma_l = W_l^T Lambda_l.

    Returns (final covariance, Lambda list, Sigma list incl. the identity at
    layer 0).
    """
    _check_shapes(sync, weights)
    return _cov_forward(np.eye(len(sync.layers[0])), weights)


def forward_acc(sync: Synchronization, weights):
    """Accumulate weight products; the final covariance is acc^T acc.

    Returns (final covariance, accumulated list A_0..A_{L-1} with A_0 = I).
    """
    _check_shapes(sync, weights)
    return _acc_forward(np.eye(len(sync.layers[0])), weights)


def backward_cov(sync: Synchronization, masks: MaskSet, weights, lams, dsigma):
    """Per-layer masked weight gradients from the covariance-gradient seed.

    The seed is d(loss)/d(Sigma_final) treated entrywise; the exact recursion
    is dW_l = 2 M_l o (Lambda_l G_l) with G_{l-1} = W_l G_l W_l^T.
    """
    _check_shapes(sync, weights)
    return _masked_grads(masks, weights, _cov_backward, lams, _check_seed(sync, dsigma))


def backward_acc(sync: Synchronization, masks: MaskSet, weights, accs, dsigma):
    """Weight gradients via the accumulated products: dW_l = 2 M_l o (A_{l-1}^T Omega_l)."""
    _check_shapes(sync, weights)
    return _masked_grads(masks, weights, _acc_backward, accs, _check_seed(sync, dsigma))


def layered_entry_count(sync: Synchronization) -> int:
    """Matrix entries the layered forward stores for its backward pass."""
    total = len(sync.layers[0]) ** 2
    for l in range(1, sync.depth):
        total += len(sync.layers[l - 1]) * len(sync.layers[l])  # Lambda_l
        total += len(sync.layers[l]) ** 2  # Sigma_l
    return total


# --- reduced method --------------------------------------------------------


class AllocationCounter:
    """Tracks live and peak auxiliary entries of the reduced method."""

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
    """Index arrays of one layer l >= 1 for the reduced forward and backward passes.

    Per new node j, ``lam_cols`` holds the buffer positions of sig(prev,
    parents of j) and ``edge_cols`` those of Lambda_l(cur, parents of j),
    whose rows of new nodes point into the lam table.  The gradient tables
    are (layer node + pad) x (layer non-root + pad), the pad row and column
    holding zeros; pairs of two roots are not held.
    """

    def __init__(self, sync, l, plan, edge_start, n_edges):
        pa = sync.graph.parent_index
        first = sync.first_appearance
        is_root, col_of = plan.is_root, plan.col_of
        prev, cur, new = sync.layers[l - 1], sync.layers[l], sync.new[l]
        self.prev = np.array(prev, dtype=np.intp)
        self.new = np.array(new, dtype=np.intp)
        self.cnew = col_of[self.new]
        edges = [slice(edge_start[j], edge_start[j] + len(pa[j])) for j in new]

        # forward: lam(prev, j) per new node j, then sig(new, new) from the parents of the later node
        self.lam_cols = [(int(col_of[j]), plan.at(prev, pa[j]), sl) for j, sl in zip(new, edges)]
        self.pair_rows = [(np.ix_(np.array(pa[q], dtype=np.intp), self.cnew[:k + 1]), sl, int(col_of[q]))
                          for k, (q, sl) in enumerate(zip(new, edges))]
        stay = [u for u in cur if first[u] < l]
        stay_nr = [u for u in stay if not is_root[u]]
        self.stay = np.ix_(np.array(stay, dtype=np.intp), self.cnew)
        self.new_by_stay = np.ix_(self.new, col_of[stay_nr])
        self.stay_nr = np.ix_(np.array(stay_nr, dtype=np.intp), self.cnew)

        # backward, edge gradients: Lambda_l(p, u) * G_l(u, j) summed over u in layer order
        cur_nr = [u for u in cur if not is_root[u]]
        self.n_cur = len(cur)
        self.edge_cols = [(plan.at(cur, pa[j], lam_rows=new), sl, cur_nr.index(j))
                          for j, sl in zip(new, edges)]
        if l == 1:
            self.carry = None
            return

        # backward, previous-layer gradients over (prev node) x (prev non-root) cells
        prev_nr = [u for u in prev if not is_root[u]]
        cur_at = {u: k for k, u in enumerate(cur)}
        nr_at = {u: k for k, u in enumerate(cur_nr)}
        rows = np.array([cur_at.get(u, len(cur)) for u in prev], dtype=np.intp)
        cols_new = np.array([nr_at[j] for j in new] + [len(cur_nr)], dtype=np.intp)
        self.carry = np.ix_(rows, np.array([nr_at.get(u, len(cur_nr)) for u in prev_nr], dtype=np.intp))
        self.g_new = np.ix_(rows, cols_new)
        self.g_nn = np.ix_(np.array([cur_at[j] for j in new] + [len(cur)], dtype=np.intp), cols_new)
        children = {u: [] for u in prev}
        for k, j in enumerate(new):
            for e, p in enumerate(pa[j], start=edge_start[j]):
                children[p].append((k, e))
        width = max(len(c) for c in children.values())
        pad = [(len(new), n_edges)] * width
        slots = np.array([(children[u] + pad)[:width] for u in prev], dtype=np.intp).reshape(len(prev), width, 2)
        self.child_pos, self.child_theta = slots[:, :, 0], slots[:, :, 1]
        self.prev_nr_pos = np.array([k for k, u in enumerate(prev) if not is_root[u]], dtype=np.intp)
        self.child_pos_nr = self.child_pos[self.prev_nr_pos]
        self.prev_nr = np.array(prev_nr, dtype=np.intp)
        # roots placed after some non-root in node order: their cells (x, y) with x > y
        self.late_roots = np.array([k for k, u in enumerate(prev) if is_root[u] and prev_nr and u > prev_nr[0]],
                                   dtype=np.intp)


class ReducedPlan:
    """The reduced engine's index arrays for one layering, built once per bind.

    A ``ReducedState`` holds its tables in one buffer: sigma, then lam, each
    (node x non-root), then the constants 0.0 and 1.0.  ``at`` is the one
    rule for where sig(p, q) sits in that buffer.
    """

    def __init__(self, sync: Synchronization):
        g = sync.graph
        self.is_root = np.array([not pa for pa in g.parent_index], dtype=bool)
        nonroots = np.flatnonzero(~self.is_root)
        self.col_of = np.full(len(g.nodes), -1, dtype=np.intp)
        self.col_of[nonroots] = np.arange(len(nonroots))
        self.table_shape = (len(g.nodes), len(nonroots))
        self.table_size = len(g.nodes) * len(nonroots)
        self.edges = [(p, c) for p, c, _l in sync.edges]
        edge_start = {}
        for k, (_p, j) in enumerate(self.edges):
            edge_start.setdefault(j, k)
        self.layers = [_LayerPlan(sync, l, self, edge_start, len(self.edges)) for l in range(1, sync.depth)]
        vis = [i for i, node in enumerate(g.nodes) if node.is_visible]
        self.visible = self.at(vis, vis)
        last = sync.layers[-1]
        self.last_nr = np.array([k for k, u in enumerate(last) if not self.is_root[u]], dtype=np.intp)

    def at(self, rows, cols, lam_rows=()) -> np.ndarray:
        """Buffer positions of sig(rows, cols), a (rows x cols) array.

        A non-root column reads its own sigma column, a (non-root row, root
        column) entry its transpose, and a pair of roots the 0.0 or 1.0 cell.
        A row in ``lam_rows``, each a non-root, reads lam(col, row) instead.
        """
        rows, cols = np.array(rows, dtype=np.intp)[:, None], np.array(cols, dtype=np.intp)
        n_nr, size = self.table_shape[1], self.table_size
        from_lam = np.isin(rows, lam_rows)
        at = np.where(self.is_root[cols] | from_lam, cols * n_nr + self.col_of[rows] + size * from_lam,
                      rows * n_nr + self.col_of[cols])
        return np.where(self.is_root[rows] & self.is_root[cols], 2 * size + (rows == cols), at)


class ReducedState:
    """Global sigma and lambda tables keyed (any node, non-root node).

    Both are views of one buffer that ends in the constant cells 0.0 and 1.0
    (see ``ReducedPlan.at``).  Entries are layer-independent once written;
    each slot is written once, and ``verify=True`` re-checks that a slot is
    never rewritten.
    """

    __slots__ = ("plan", "buf", "sigma", "lam", "verify")

    def __init__(self, plan: ReducedPlan, counter: AllocationCounter, verify: bool = False):
        self.plan = plan
        size = plan.table_size
        self.buf = np.full(2 * size + 2, np.nan)
        self.buf[-2:] = (0.0, 1.0)
        self.sigma = self.buf[:size].reshape(plan.table_shape)
        self.lam = self.buf[size:2 * size].reshape(plan.table_shape)
        self.verify = verify
        counter.add(self.buf.size)

    def sig(self, p: int, q: int) -> float:
        return self.buf[self.plan.at([p], [q])[0, 0]]

    def put(self, table: np.ndarray, where, values) -> None:
        if self.verify and not np.isnan(table[where]).all():
            raise AssertionError("table slot written twice; preservation violated")
        table[where] = values

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


def _previous_grads(lp: _LayerPlan, theta_pad: np.ndarray, grad_tab: np.ndarray,
                    counter: AllocationCounter) -> np.ndarray:
    """The gradient table of layer l-1 from that of layer l.

    For a pair a <= b (node order) the scalar order is: the carry, then b's
    new children, then a's new children, then a's children outer and b's
    inner.  Cells (x, y) are first summed taking a = x; a cell with x > y
    then takes the value of (y, x) when x is a non-root, and a root x, which
    has no column of its own, is summed again taking a = y.
    """
    rows, cols = lp.carry[0].shape[0], lp.carry[1].shape[1]
    out = np.zeros((rows + 1, cols + 1))
    counter.add(out.size)
    up = out[:rows, :cols]
    up[...] = grad_tab[lp.carry] + 0.0
    g_new = grad_tab[lp.g_new]  # (prev, new + pad)
    g_nn = grad_tab[lp.g_nn]  # (new + pad, new + pad)
    counter.release(grad_tab.size)  # the layer-l table is not read again
    g_new_nr = g_new[lp.prev_nr_pos]
    w = theta_pad[lp.child_theta]
    w_nr = w[lp.prev_nr_pos]
    late = lp.late_roots
    down = up[late]
    held = down.size + g_new.size + g_nn.size + g_new_nr.size + w.size + w_nr.size
    counter.add(held)
    ch, ch_nr = lp.child_pos, lp.child_pos_nr
    width = ch.shape[1]

    def col_children(m, r=slice(None)):  # b = y: y's m-th child q, w_yq * g(x, q)
        return g_new[r][:, ch_nr[:, m]] * w_nr[:, m]

    def row_children(m, r=slice(None)):  # a = x: x's m-th child p, w_xp * g(p, y)
        return (g_new_nr[:, ch[r, m]] * w[r, m]).T

    def both(mx, my, r=slice(None)):  # (w_xp * w_yq) * g(p, q)
        return np.multiply.outer(w[r, mx], w_nr[:, my]) * g_nn[ch[r, mx, None], ch_nr[:, my]]

    for m in range(width):
        up += col_children(m)
    for m in range(width):
        up += row_children(m)
    for mx in range(width):
        for my in range(width):
            up += both(mx, my)
    if late.size:
        for m in range(width):
            down += row_children(m, late)
        for m in range(width):
            down += col_children(m, late)
        for my in range(width):
            for mx in range(width):
                down += both(mx, my, late)
        up[late] = np.where(lp.prev[late, None] > lp.prev_nr, down, up[late])
    square = up[lp.prev_nr_pos]
    up[lp.prev_nr_pos] = np.where(np.tri(len(square), k=-1, dtype=bool), square.T, square)
    counter.release(held)
    return out


def _reduced_forward(plan: ReducedPlan, theta: np.ndarray, counter: AllocationCounter,
                     verify: bool) -> ReducedState:
    state = ReducedState(plan, counter, verify)
    buf, sigma, lam = state.buf, state.sigma, state.lam
    counter.add(theta.size)
    for lp in plan.layers:
        for col, at, sl in lp.lam_cols:
            terms = buf.take(at)
            counter.add(terms.size)
            terms *= theta[sl]
            state.put(lam, (lp.prev, col), _ordered_sum(terms, 1))
            counter.release(terms.size)
        for k, (rows, sl, col) in enumerate(lp.pair_rows):
            values = _ordered_sum(lam[rows] * theta[sl][:, None], 0)
            state.put(sigma, (lp.new[k], lp.cnew[:k + 1]), values)
            state.put(sigma, (lp.new[:k], col), values[:k])
        state.put(sigma, lp.stay, lam[lp.stay])
        state.put(sigma, lp.new_by_stay, lam[lp.stay_nr].T)
    return state


def _reduced_backward(plan: ReducedPlan, theta_pad: np.ndarray, state: ReducedState, g: np.ndarray,
                      counter: AllocationCounter) -> np.ndarray:
    """Edge gradients ordered like ``plan.edges``; ``theta_pad`` is theta with a trailing 0."""
    grads = np.zeros(len(plan.edges))
    n = g.shape[0]
    grad_tab = np.zeros((n + 1, len(plan.last_nr) + 1))
    grad_tab[:n, :-1] = g[:, plan.last_nr]
    counter.add(grads.size + theta_pad.size + grad_tab.size)
    for lp in reversed(plan.layers):
        for at, sl, col in lp.edge_cols:
            g_col = grad_tab[:lp.n_cur, col]
            terms = state.buf.take(at)
            counter.add(terms.size)
            terms *= g_col[:, None]
            terms[g_col == 0.0] = 0.0  # a zero seed skips its term, even against an infinite factor
            grads[sl] = 2.0 * _ordered_sum(terms, 0)
            counter.release(terms.size)
        if lp.carry is None:
            break
        grad_tab = _previous_grads(lp, theta_pad, grad_tab, counter)
    return grads


def forward_reduced(
    sync: Synchronization,
    edge_weights: dict[tuple[int, int], float],
    counter: AllocationCounter | None = None,
    verify: bool = False,
) -> ReducedState:
    """Fill the global covariance tables once per node pair, layer by layer.

    ``edge_weights`` maps (parent index, child index) to the edge weight; the
    tables replace the per-layer Sigma/Lambda stacks of the layered methods.
    Every sum adds in the order of the scalar loop over node pairs.
    """
    plan = ReducedPlan(sync)
    theta = np.fromiter((edge_weights[e] for e in plan.edges), float, len(plan.edges))
    return _reduced_forward(plan, theta, AllocationCounter() if counter is None else counter, verify)


def backward_reduced(
    sync: Synchronization,
    edge_weights: dict[tuple[int, int], float],
    state: ReducedState,
    dsigma,
    counter: AllocationCounter | None = None,
) -> dict[tuple[int, int], float]:
    """Per-edge gradients; the covariance-gradient table lives one layer at a time.

    Pairs of two root nodes are not held: root rows persist as identity
    carries, so such entries feed neither any trainable-weight gradient nor
    any kept entry of an earlier layer.
    """
    g = _check_seed(sync, dsigma)
    plan = state.plan
    # child slots past a node's last child read weight 0
    theta_pad = np.array([edge_weights[e] for e in plan.edges] + [0.0])
    grads = _reduced_backward(plan, theta_pad, state, g,
                              AllocationCounter() if counter is None else counter)
    return dict(zip(plan.edges, grads.tolist()))


# --- the engine table ---------------------------------------------------------


def edge_vector(masks: MaskSet, weights) -> np.ndarray:
    """The trainable entries of a weight stack as one vector, ordered like ``masks.edges``."""
    return np.fromiter(edge_weight_map(masks, weights).values(), float, len(masks.edges))


@dataclass(frozen=True)
class Engine:
    """One solver method bound to a layering, over the flat edge vector theta.

    ``theta`` holds one weight per trainable edge, ordered like
    ``masks.edges``.  ``forward(theta)`` returns the visible covariance and a
    context; ``backward(ctx, seed_vis)`` takes the covariance-gradient seed
    on the visible block and returns d(loss)/d(theta).
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


def _bind_layered(sync: Synchronization, masks: MaskSet, forward, backward) -> Engine:
    """Bind a weight-stack engine's passes to theta through one flat buffer.

    ``forward(eye, weights) -> (sigma, ctx, ...)`` and ``backward(weights,
    ctx, seed, out)`` are the engine's unchecked passes; the backward writes
    its unmasked gradient stack into ``out``.  The weight matrices are views
    into a buffer holding the constant pattern; one fancy-index assignment
    writes theta into the trainable entries, and the gradient is read back
    from a buffer of the same layout at the same positions.
    """
    take, embed = _visible_block(sync)
    buf = np.zeros(sum(const.size for const in masks.constants))
    grad_buf = np.empty_like(buf)
    weights, grads, offsets, off = [], [], [], 0
    for const in masks.constants:
        w = buf[off:off + const.size].reshape(const.shape)
        w[...] = const
        weights.append(w)
        grads.append(grad_buf[off:off + const.size].reshape(const.shape))
        offsets.append(off)
        off += const.size
    pos = np.array([offsets[l - 1] + r * weights[l - 1].shape[1] + col
                    for (_p, _c, l, r, col) in masks.edges], dtype=np.intp)
    eye = np.eye(len(sync.layers[0]))

    def forward_theta(theta):
        buf[pos] = theta
        out = forward(eye, weights)
        return take(out[0]), out[1]

    def backward_theta(ctx, seed_vis):
        backward(weights, ctx, embed(seed_vis), grads)
        return 2.0 * grad_buf[pos]  # pos holds only trainable cells, whose mask is 1

    return Engine(forward_theta, backward_theta)


def _bind_reduced(sync: Synchronization, masks: MaskSet) -> Engine:
    """Bind the reduced engine's passes: its index plan is built here, once."""
    _take, embed = _visible_block(sync)
    plan = ReducedPlan(sync)
    counter = AllocationCounter()  # required by the passes; nothing reads it here

    def forward_theta(theta):
        state = _reduced_forward(plan, theta, counter, False)
        return state.visible_cov(), (theta, state)

    def backward_theta(ctx, seed_vis):
        theta, state = ctx
        # child slots past a node's last child read weight 0
        return _reduced_backward(plan, np.append(theta, 0.0), state, embed(seed_vis), counter)

    return Engine(forward_theta, backward_theta)


# Each entry binds a method to one fit's layering: ``ENGINES[method](sync,
# masks) -> Engine``.  Bound engines run the unchecked passes; the public
# kernels (``forward_cov``, ``backward_cov`` etc.) check, then run the same
# passes.
ENGINES = {
    "covariance": lambda sync, masks: _bind_layered(sync, masks, _cov_forward, _cov_backward),
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
    """Adamax learning rate and moments; ``optimize_step`` advances it in place."""

    lr: float
    t: int = 0
    m: np.ndarray | None = None
    u: np.ndarray | None = None


def make_optimizer_state(config: "FitConfig"):
    if config.optimizer == "sgd":
        return SgdState(lr=config.lr)
    return AdamaxState(lr=config.lr)


def optimize_step(theta, grad, state):
    """One optimizer update of the edge vector.

    Returns (new theta, state); an Adamax state's step count and moments are
    updated in place.  Raises NonFiniteGradient on nan/inf gradients, before
    the state changes.
    """
    if not np.isfinite(grad).all():
        raise NonFiniteGradient("gradient contains nan or inf")
    if isinstance(state, SgdState):
        return theta - state.lr * grad, state
    if isinstance(state, AdamaxState):
        if state.m is None:
            state.m, state.u = np.zeros_like(grad), np.zeros_like(grad)
        state.t += 1
        m, u = state.m, state.u
        m *= ADAMAX_BETA1
        m += (1.0 - ADAMAX_BETA1) * grad
        u *= ADAMAX_BETA2
        np.maximum(u, np.abs(grad), out=u)
        live = u > 0.0
        step = np.where(live, (state.lr / (1.0 - ADAMAX_BETA1 ** state.t)) * m / np.where(live, u, 1.0), 0.0)
        return theta - step, state
    raise SolverError(f"unknown optimizer state {type(state).__name__}")


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
        if self.loss not in LOSSES:
            raise SolverError(f"loss must be one of {LOSSES}")
        if self.method not in METHODS:
            raise SolverError(f"method must be one of {METHODS}")
        if self.optimizer not in OPTIMIZERS:
            raise SolverError(f"optimizer must be one of {OPTIMIZERS}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise SolverError("learning rate must be positive and finite")
        if self.max_iters < 1:
            raise SolverError("max_iters must be at least 1")
        if not (math.isfinite(self.min_improvement) and self.min_improvement >= 0):
            raise SolverError("min_improvement must be nonnegative and finite")
        if self.seed < 0:
            raise SolverError(f"seed must be nonnegative, got {self.seed}")
        if self.restarts < 1:
            raise SolverError("restarts must be at least 1")
        if not (math.isfinite(self.kl_tol) and self.kl_tol >= 0):
            raise SolverError("kl_tol must be nonnegative and finite")


@dataclass
class FitReport:
    """Audit record of one fit: traces, final divergences, and stop diagnostics."""

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


def extract_params(g: PmDag, masks: MaskSet, theta) -> StructuralParams:
    """Structural parameters from the edge vector (ordered like ``masks.edges``)."""
    names = [(g.nodes[p].name, g.nodes[c].name) for (p, c, _l, _r, _col) in masks.edges]
    return StructuralParams.from_edge_dict(g, dict(zip(names, np.asarray(theta).tolist())))


def weights_from_params(g: PmDag, masks: MaskSet, params: StructuralParams) -> list[np.ndarray]:
    """Materialize the weight stack holding the given edge weights.

    ``extract_params(g, masks, edge_vector(masks, weights))`` gives the params back.
    """
    params.validate_for(g)
    edge_w = params.to_edge_dict(g)
    weights = [const.copy() for const in masks.constants]
    for (p, c, l, r, col) in masks.edges:
        weights[l - 1][r, col] = edge_w[(g.nodes[p].name, g.nodes[c].name)]
    return weights


def _run_single(g, masks, engine, theta, target, target_inv, target_logdet, config, iter_hook):
    """One seeded descent from ``theta``: returns (params, losses, KLs, converged, stop reason).

    A non-finite model covariance or gradient ends the run as "diverged"
    with the last edge vector whose loss was recorded.
    """
    state = make_optimizer_state(config)
    loss_trace = []
    kl_trace = []
    prev_err = math.inf
    stop_reason = "max_iters"
    converged = False
    recorded = theta

    for i in range(1, config.max_iters + 1):
        sigma_vis, ctx = engine.forward(theta)
        try:
            err, seed_vis, kl_mt = loss_kernel(
                config.loss, sigma_vis, target, target_inv, target_logdet)
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
            iter_hook(i, lambda theta=theta: extract_params(g, masks, theta))
        if kl_mt <= config.kl_tol:
            converged = True
            stop_reason = "kl_threshold"
            break
        if abs(err - prev_err) <= config.min_improvement:
            stop_reason = "loss_plateau"
            break
        prev_err = err

        try:
            stepped, state = optimize_step(theta, engine.backward(ctx, seed_vis), state)
        except NonFiniteGradient:
            stop_reason = "diverged"
            break
        recorded, theta = theta, stepped

    return extract_params(g, masks, theta), loss_trace, kl_trace, converged, stop_reason


def fit(g: PmDag, target: CovMatrix, config: FitConfig | None = None,
        iter_hook: Callable | None = None) -> tuple[StructuralParams, FitReport]:
    """Fit the structural weights so the induced visible covariance matches the target.

    Runs ``config.restarts`` independently seeded gradient descents, stopping
    early once one reaches the true-KL threshold, and returns that run, or
    else the run whose returned params have the lowest KL(model || target),
    the earliest on ties.  ``iter_hook(i, get_params)``, when given, is called
    after the loss of iteration ``i`` is recorded; ``get_params()`` builds the
    structural params of that iteration.  Non-convergence is reported through the
    ``converged`` flag, never raised; a restart whose model covariance or
    gradient turns non-finite stops as ``"diverged"`` and the next one runs.

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

    t0 = time.perf_counter()
    best = None
    restarts_used = 0
    # a diverging restart overflows before its non-finite covariance or
    # gradient ends it as "diverged"; that report replaces numpy's warnings
    with one_lapack_thread(), np.errstate(over="ignore", invalid="ignore"):
        for r in range(config.restarts):
            restarts_used += 1
            run_seed = derive_seed(config.seed, r)
            theta = edge_vector(masks, init_weights(sync, masks, run_seed))
            params, loss_trace, kl_trace, converged, stop_reason = _run_single(
                g, masks, engine, theta, target.data, target_inv, target_logdet, config, iter_hook)
            model, truth = _visible_laws(g, target, params)
            kl_mt = kl_gaussian(model, truth)
            if best is None or converged or kl_mt < best[0]:
                best = (kl_mt, model, params, loss_trace, kl_trace, converged, stop_reason, run_seed)
            if converged:
                break
    wall = time.perf_counter() - t0

    kl_mt, model, params, loss_trace, kl_trace, converged, stop_reason, run_seed = best
    try:
        kl_tm = kl_gaussian(truth, model)
    except SingularQ:
        kl_tm = math.inf
    report = FitReport(
        loss_trace=np.asarray(loss_trace),
        kl_trace=np.asarray(kl_trace),
        final_kl_model_target=float(kl_mt),
        final_kl_target_model=float(kl_tm),
        converged=converged,
        stop_reason=stop_reason,
        iterations=len(loss_trace),
        seed=run_seed,
        restarts_used=restarts_used,
        wall_time=wall,
        loss=config.loss,
        method=config.method,
    )
    return params, report


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
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "surrogate_loss", "true_kl"])
        for i, (loss, kl) in enumerate(zip(report.loss_trace, report.kl_trace), start=1):
            writer.writerow([i, repr(float(loss)), repr(float(kl))])

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


class NegativeVariance(SolverError):
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
    if tuple(w.shape for w in weights) == sync.weight_shapes:
        return
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


def forward_cov(sync: Synchronization, weights):
    """Propagate the layer covariance: Lambda_l = Sigma_{l-1} W_l, Sigma_l = W_l^T Lambda_l.

    Returns (final covariance, Lambda list, Sigma list incl. the identity at
    layer 0).
    """
    _check_shapes(sync, weights)
    sigma = np.eye(len(sync.layers[0]))
    sigmas = [sigma]
    lams = []
    for w in weights:
        lam = sigma @ w
        sigma = w.T @ lam
        lams.append(lam)
        sigmas.append(sigma)
    return sigma, lams, sigmas


def forward_acc(sync: Synchronization, weights):
    """Accumulate weight products; the final covariance is acc^T acc.

    Returns (final covariance, accumulated list A_0..A_{L-1} with A_0 = I).
    """
    _check_shapes(sync, weights)
    acc = np.eye(len(sync.layers[0]))
    accs = [acc]
    for w in weights:
        acc = acc @ w
        accs.append(acc)
    return acc.T @ acc, accs


def backward_cov(sync: Synchronization, masks: MaskSet, weights, lams, dsigma):
    """Per-layer masked weight gradients from the covariance-gradient seed.

    The seed is d(loss)/d(Sigma_final) treated entrywise; the exact recursion
    is dW_l = 2 M_l o (Lambda_l G_l) with G_{l-1} = W_l G_l W_l^T.
    """
    _check_shapes(sync, weights)
    g = _check_seed(sync, dsigma)
    grads = [None] * len(weights)
    for l in range(sync.depth - 1, 0, -1):
        w = weights[l - 1]
        grads[l - 1] = 2.0 * masks.trainable[l - 1] * (lams[l - 1] @ g)
        if l > 1:
            g = w @ g @ w.T
    return grads


def backward_acc(sync: Synchronization, masks: MaskSet, weights, accs, dsigma):
    """Weight gradients via the accumulated products: dW_l = 2 M_l o (A_{l-1}^T Omega_l)."""
    _check_shapes(sync, weights)
    g = _check_seed(sync, dsigma)
    omega = accs[-1] @ g
    grads = [None] * len(weights)
    for l in range(sync.depth - 1, 0, -1):
        grads[l - 1] = 2.0 * masks.trainable[l - 1] * (accs[l - 1].T @ omega)
        if l > 1:
            omega = omega @ weights[l - 1].T
    return grads


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


class ReducedState:
    """Global sigma and lambda tables keyed (any node, non-root node).

    Entries are layer-independent once written; writes follow a
    first-writer-wins discipline, and ``verify=True`` re-checks that a slot
    is never rewritten.
    """

    __slots__ = ("sync", "nonroot_col", "is_root", "sigma", "lam", "verify")

    def __init__(self, sync: Synchronization, counter: AllocationCounter | None = None, verify: bool = False):
        g = sync.graph
        self.sync = sync
        self.is_root = [not pa for pa in g.parent_index]
        nonroots = [i for i, r in enumerate(self.is_root) if not r]
        self.nonroot_col = {idx: c for c, idx in enumerate(nonroots)}
        n = len(g.nodes)
        m = len(nonroots)
        self.sigma = np.full((n, m), np.nan)
        self.lam = np.full((n, m), np.nan)
        self.verify = verify
        if counter is not None:
            counter.add(2 * n * m)

    def sig(self, p: int, q: int) -> float:
        if self.is_root[p] and self.is_root[q]:
            return 1.0 if p == q else 0.0
        if not self.is_root[q]:
            return self.sigma[p, self.nonroot_col[q]]
        return self.sigma[q, self.nonroot_col[p]]

    def _write(self, table, row, col, value):
        if self.verify and not np.isnan(table[row, col]):
            raise AssertionError("table slot written twice; preservation violated")
        table[row, col] = value

    def write_sigma(self, p: int, q: int, value: float) -> None:
        if not self.is_root[q]:
            self._write(self.sigma, p, self.nonroot_col[q], value)
        if not self.is_root[p] and p != q:
            self._write(self.sigma, q, self.nonroot_col[p], value)

    def visible_cov(self) -> np.ndarray:
        vis = [i for i, node in enumerate(self.sync.graph.nodes) if node.is_visible]
        out = np.empty((len(vis), len(vis)))
        for a, i in enumerate(vis):
            for b, j in enumerate(vis):
                out[a, b] = self.sig(i, j)
        return (out + out.T) / 2.0


def edge_weight_map(masks: MaskSet, weights) -> dict[tuple[int, int], float]:
    """Edge-indexed view of the trainable entries of a weight stack."""
    return {
        (p, c): float(weights[l - 1][r, col])
        for (p, c, l, r, col) in masks.edges
    }


def forward_reduced(
    sync: Synchronization,
    edge_weights: dict[tuple[int, int], float],
    counter: AllocationCounter | None = None,
    verify: bool = False,
) -> ReducedState:
    """Fill the global covariance tables once per node pair.

    ``edge_weights`` maps (parent index, child index) to the edge weight; the
    tables replace the per-layer Sigma/Lambda stacks of the layered methods.
    """
    parent_idx = sync.graph.parent_index
    state = ReducedState(sync, counter=counter, verify=verify)
    if counter is not None:
        counter.add(len(edge_weights))
    for l in range(1, sync.depth):
        prev = sync.layers[l - 1]
        cur = sync.layers[l]
        new_nodes = sync.new[l]
        for j in new_nodes:
            pa = parent_idx[j]
            wj = [edge_weights[(p, j)] for p in pa]
            col = state.nonroot_col[j]
            for p in prev:
                state._write(state.lam, p, col, sum(state.sig(p, u) * w for u, w in zip(pa, wj)))
        for j in new_nodes:
            colj = state.nonroot_col[j]
            for q in cur:
                if q == j:
                    value = sum(edge_weights[(p, j)] * state.lam[p, colj] for p in parent_idx[j])
                    state.write_sigma(j, j, value)
                elif sync.first_appearance[q] == l:
                    if q < j:
                        continue  # unordered pair handled once
                    value = sum(edge_weights[(p, q)] * state.lam[p, colj] for p in parent_idx[q])
                    state.write_sigma(q, j, value)
                else:
                    state.write_sigma(q, j, state.lam[q, colj])
    return state


def backward_reduced(
    sync: Synchronization,
    edge_weights: dict[tuple[int, int], float],
    state: ReducedState,
    dsigma,
    counter: AllocationCounter | None = None,
) -> dict[tuple[int, int], float]:
    """Per-edge gradients; covariance-gradient tables live one layer at a time.

    Pairs of two root nodes are skipped throughout: root rows persist as
    identity carries, so such entries feed neither any trainable-weight
    gradient nor any kept entry of an earlier layer.
    """
    g = _check_seed(sync, dsigma)
    parent_idx = sync.graph.parent_index
    is_root = state.is_root

    def pair(a, b):
        return (a, b) if a <= b else (b, a)

    last = sync.layers[-1]
    grad_sigma: dict[tuple[int, int], float] = {}
    for i, a in enumerate(last):
        for jj, b in enumerate(last[i:], start=i):
            if is_root[a] and is_root[b]:
                continue
            grad_sigma[pair(a, b)] = g[i, jj]
    if counter is not None:
        counter.add(len(grad_sigma))

    edge_grads = {key: 0.0 for key in edge_weights}
    if counter is not None:
        counter.add(len(edge_grads))

    def gval(u, v):
        return grad_sigma.get(pair(u, v), 0.0)

    for l in range(sync.depth - 1, 0, -1):
        prev = sync.layers[l - 1]
        cur = sync.layers[l]
        cur_set = set(cur)
        new_nodes = sync.new[l]
        new_children: dict[int, list[int]] = {}
        for j in new_nodes:
            for p in parent_idx[j]:
                new_children.setdefault(p, []).append(j)

        for j in new_nodes:
            colj = state.nonroot_col[j]
            for p in parent_idx[j]:
                total = 0.0
                for u in cur:
                    if is_root[u] and is_root[j]:
                        continue
                    guj = gval(u, j)
                    if guj == 0.0:
                        continue
                    if sync.first_appearance[u] == l:
                        lam_pu = state.lam[p, state.nonroot_col[u]]
                    else:
                        lam_pu = state.sig(p, u)
                    total += lam_pu * guj
                edge_grads[(p, j)] += 2.0 * total

        if l == 1:
            break

        prev_grad: dict[tuple[int, int], float] = {}
        for i, a in enumerate(prev):
            a_new = new_children.get(a, ())
            a_persists = a in cur_set
            for b in prev[i:]:
                if is_root[a] and is_root[b]:
                    continue
                total = 0.0
                if a_persists and b in cur_set:
                    total += gval(a, b)
                if a_persists:
                    for q in new_children.get(b, ()):
                        total += edge_weights[(b, q)] * gval(a, q)
                if b in cur_set:
                    for p in a_new:
                        total += edge_weights[(a, p)] * gval(p, b)
                for p in a_new:
                    w_ap = edge_weights[(a, p)]
                    for q in new_children.get(b, ()):
                        total += w_ap * edge_weights[(b, q)] * gval(p, q)
                prev_grad[pair(a, b)] = total
        if counter is not None:
            counter.add(len(prev_grad))
            counter.release(len(grad_sigma))
        grad_sigma = prev_grad

    return edge_grads


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
    """(take, embed): the visible block of a last-layer matrix, and a seed placed back into one."""
    vis = visible_positions(sync)
    n = len(sync.layers[-1])
    ix = np.ix_(vis, vis)
    full = np.zeros((n, n))  # entries outside the visible block stay zero

    def embed(seed_vis):
        full[ix] = seed_vis
        return full

    return (lambda sigma: sigma[ix]), embed


def _bind_layered(sync: Synchronization, masks: MaskSet, forward, backward) -> Engine:
    """Bind a weight-stack engine to theta through one flat buffer.

    ``forward(weights) -> (sigma, ctx)`` and ``backward(weights, ctx, seed)
    -> masked gradient stack`` are the engine's kernels.  The weight matrices
    are views into a buffer holding the constant pattern; one fancy-index
    assignment writes theta into the trainable entries, and the gradient is
    read back at the same positions.
    """
    take, embed = _visible_block(sync)
    buf = np.zeros(sum(const.size for const in masks.constants))
    weights, offsets, off = [], [], 0
    for const in masks.constants:
        w = buf[off:off + const.size].reshape(const.shape)
        w[...] = const
        weights.append(w)
        offsets.append(off)
        off += const.size
    pos = np.array([offsets[l - 1] + r * weights[l - 1].shape[1] + col
                    for (_p, _c, l, r, col) in masks.edges], dtype=np.intp)

    def forward_theta(theta):
        buf[pos] = theta
        sigma, ctx = forward(weights)
        return take(sigma), ctx

    def backward_theta(ctx, seed_vis):
        grads = backward(weights, ctx, embed(seed_vis))
        return np.concatenate([grad.ravel() for grad in grads])[pos]

    return Engine(forward_theta, backward_theta)


def _bind_reduced(sync: Synchronization, masks: MaskSet) -> Engine:
    """Bind the reduced engine: edge weights are read from theta, edge gradients returned as one."""
    _take, embed = _visible_block(sync)
    keys = [(p, c) for (p, c, _l, _r, _col) in masks.edges]

    def forward_theta(theta):
        edge_w = dict(zip(keys, theta.tolist()))
        state = forward_reduced(sync, edge_w)
        return state.visible_cov(), (edge_w, state)

    def backward_theta(ctx, seed_vis):
        edge_w, state = ctx
        grads = backward_reduced(sync, edge_w, state, embed(seed_vis))
        return np.array([grads[key] for key in keys], dtype=float)

    return Engine(forward_theta, backward_theta)


# Each entry binds a method to one fit's layering: ``ENGINES[method](sync,
# masks) -> Engine``.  Bound engines call ``forward_cov`` etc. by module-level
# name at call time, so a wrapper installed on a module attribute sees every call.
ENGINES = {
    "covariance": lambda sync, masks: _bind_layered(
        sync, masks,
        lambda w: forward_cov(sync, w)[:2],
        lambda w, lams, seed: backward_cov(sync, masks, w, lams, seed)),
    "accumulation": lambda sync, masks: _bind_layered(
        sync, masks,
        lambda w: forward_acc(sync, w),
        lambda w, accs, seed: backward_acc(sync, masks, w, accs, seed)),
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


@dataclass(frozen=True)
class AdamaxState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    t: int = 0
    m: np.ndarray | None = None
    u: np.ndarray | None = None


def make_optimizer_state(config: "FitConfig"):
    if config.optimizer == "sgd":
        return SgdState(lr=config.lr)
    return AdamaxState(lr=config.lr, beta1=config.beta1, beta2=config.beta2)


def optimize_step(theta, grad, state):
    """One optimizer update of the edge vector.

    Returns (new theta, new state).  Raises NonFiniteGradient on nan/inf
    gradients.
    """
    if not np.isfinite(grad).all():
        raise NonFiniteGradient("gradient contains nan or inf")
    if isinstance(state, SgdState):
        return theta - state.lr * grad, state
    if isinstance(state, AdamaxState):
        t = state.t + 1
        m0 = np.zeros_like(grad) if state.m is None else state.m
        u0 = np.zeros_like(grad) if state.u is None else state.u
        m = state.beta1 * m0 + (1.0 - state.beta1) * grad
        u = np.maximum(state.beta2 * u0, np.abs(grad))
        live = u > 0.0
        step = np.where(live, (state.lr / (1.0 - state.beta1 ** t)) * m / np.where(live, u, 1.0), 0.0)
        return theta - step, AdamaxState(state.lr, state.beta1, state.beta2, t, m, u)
    raise SolverError(f"unknown optimizer state {type(state).__name__}")


# --- full-system covariance oracle ------------------------------------------


def root_loadings(g: PmDag, params: StructuralParams) -> np.ndarray:
    """Linear coefficients of every node on the root vector, by root-to-node path sums.

    Row r is root ``g.roots[r]`` and column j is node ``g.names[j]``; each
    node's column is the weighted sum of its parents' columns, filled in
    topological order.
    """
    params.validate_for(g)
    roots = g.roots
    root_pos = {name: i for i, name in enumerate(roots)}
    cols = {}
    for name in g.topological_order():
        col = np.zeros(len(roots))
        if g.is_root(name):
            col[root_pos[name]] = 1.0
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


def standardize(g: PmDag, params: StructuralParams, root_variances: dict[str, float]) -> StructuralParams:
    """Fold root variances into the outgoing weights so every root is standard normal."""
    params.validate_for(g)
    for name, var in root_variances.items():
        if var < 0:
            raise NegativeVariance(f"variance of root {name!r} is negative")
    roots = set(g.roots)
    edge_w = params.to_edge_dict(g)
    out = {}
    for (p, c), w in edge_w.items():
        if p in roots:
            out[(p, c)] = w * math.sqrt(root_variances.get(p, 1.0))
        else:
            out[(p, c)] = w
    return StructuralParams.from_edge_dict(g, out)


# --- the fit loop ------------------------------------------------------------


@dataclass(frozen=True)
class FitConfig:
    """Solver settings; defaults follow the reference experiment setup."""

    loss: str = "kl"
    method: str = "covariance"
    optimizer: str = "adamax"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
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
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise SolverError("beta1 and beta2 must lie in [0, 1)")
        if self.max_iters < 1:
            raise SolverError("max_iters must be at least 1")
        if not (math.isfinite(self.min_improvement) and self.min_improvement >= 0):
            raise SolverError("min_improvement must be nonnegative and finite")
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
    with np.errstate(over="ignore", invalid="ignore"):
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

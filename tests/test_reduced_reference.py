"""The vectorized reduced engine against the scalar loop over node pairs it replaced.

The reference below is that loop, kept as it ran: it writes the same global
tables and adds every sum in the same order, so the engine must match it bit
for bit (tables, visible covariance and every edge gradient), not merely to
a tolerance.  Node-order shuffles put roots after non-roots in a layer, so
that a pair a <= b can have a root b; the first ``@example`` has many such
pairs, and the second is criterion 8's deep chain.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmdag.generate import GenSpec, random_pmdag
from pmdag.graph import PmDag
from pmdag.solver import backward_reduced, edge_weight_map, forward_reduced, init_weights
from pmdag.sync import build_masks, synchronize

from conftest import demote_one_visible, pmdags
from test_acceptance import deep_chain


class ScalarTables:
    def __init__(self, sync):
        self.is_root = [not pa for pa in sync.graph.parent_index]
        nonroots = [i for i, r in enumerate(self.is_root) if not r]
        self.col = {idx: c for c, idx in enumerate(nonroots)}
        self.sigma = np.full((len(self.is_root), len(nonroots)), np.nan)
        self.lam = np.full((len(self.is_root), len(nonroots)), np.nan)

    def sig(self, p, q):
        if self.is_root[p] and self.is_root[q]:
            return 1.0 if p == q else 0.0
        if not self.is_root[q]:
            return self.sigma[p, self.col[q]]
        return self.sigma[q, self.col[p]]

    def write_sigma(self, p, q, value):
        if not self.is_root[q]:
            self.sigma[p, self.col[q]] = value
        if not self.is_root[p] and p != q:
            self.sigma[q, self.col[p]] = value


def scalar_forward(sync, w):
    pa = sync.graph.parent_index
    t = ScalarTables(sync)
    for l in range(1, sync.depth):
        for j in sync.new[l]:
            for p in sync.layers[l - 1]:
                t.lam[p, t.col[j]] = sum(t.sig(p, u) * w[(u, j)] for u in pa[j])
        for j in sync.new[l]:
            colj = t.col[j]
            for q in sync.layers[l]:
                if q == j:
                    t.write_sigma(j, j, sum(w[(p, j)] * t.lam[p, colj] for p in pa[j]))
                elif sync.first_appearance[q] == l:
                    if q > j:
                        t.write_sigma(q, j, sum(w[(p, q)] * t.lam[p, colj] for p in pa[q]))
                else:
                    t.write_sigma(q, j, t.lam[q, colj])
    return t


def scalar_backward(sync, w, t, g):
    pa = sync.graph.parent_index
    is_root = t.is_root

    def pair(a, b):
        return (a, b) if a <= b else (b, a)

    last = sync.layers[-1]
    grad = {pair(a, b): g[i, k] for i, a in enumerate(last) for k, b in enumerate(last)
            if i <= k and not (is_root[a] and is_root[b])}
    edge_grads = {key: 0.0 for key in w}

    def gval(u, v):
        return grad.get(pair(u, v), 0.0)

    for l in range(sync.depth - 1, 0, -1):
        prev, cur, new = sync.layers[l - 1], sync.layers[l], sync.new[l]
        children = {}
        for j in new:
            for p in pa[j]:
                children.setdefault(p, []).append(j)
        for j in new:
            for p in pa[j]:
                total = 0.0
                for u in cur:
                    guj = gval(u, j)
                    if guj == 0.0:
                        continue
                    lam_pu = t.lam[p, t.col[u]] if sync.first_appearance[u] == l else t.sig(p, u)
                    total += lam_pu * guj
                edge_grads[(p, j)] += 2.0 * total
        if l == 1:
            break
        prev_grad = {}
        for i, a in enumerate(prev):
            for b in prev[i:]:
                if is_root[a] and is_root[b]:
                    continue
                total = 0.0
                if a in cur and b in cur:
                    total += gval(a, b)
                if a in cur:
                    for q in children.get(b, ()):
                        total += w[(b, q)] * gval(a, q)
                if b in cur:
                    for p in children.get(a, ()):
                        total += w[(a, p)] * gval(p, b)
                for p in children.get(a, ()):
                    for q in children.get(b, ()):
                        total += w[(a, p)] * w[(b, q)] * gval(p, q)
                prev_grad[pair(a, b)] = total
        grad = prev_grad
    return edge_grads


def scalar_visible_cov(sync, t):
    vis = [i for i, node in enumerate(sync.graph.nodes) if node.is_visible]
    out = np.array([[t.sig(i, j) for j in vis] for i in vis])
    return (out + out.T) / 2.0


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


@settings(max_examples=60, deadline=None)
@given(pmdags(max_v=8), st.integers(0, 2**32 - 1), st.sampled_from(["as drawn", "shuffled", "demoted"]))
@example(random_pmdag(GenSpec(v=8, l_star=0.5, e_star=0.5, seed=8)), 0, "shuffled")
@example(deep_chain(16), 0, "as drawn")
def test_reduced_engine_matches_the_scalar_pair_loop_bitwise(g, seed, variant):
    rng = np.random.default_rng(seed)
    if variant == "shuffled":
        g = PmDag([(g.nodes[i].name, g.nodes[i].role) for i in rng.permutation(len(g.nodes))], g.edges)
    elif variant == "demoted":
        g = (demote_one_visible(g, rng) or (g,))[0]
    sync = synchronize(g)
    masks = build_masks(sync)
    w = edge_weight_map(masks, init_weights(sync, masks, seed))
    n = len(sync.layers[-1])
    raw = rng.standard_normal((n, n))
    raw[rng.random((n, n)) < 0.3] = 0.0
    dsigma = np.triu(raw) + np.triu(raw, 1).T

    state = forward_reduced(sync, w)
    grads = backward_reduced(sync, w, state, dsigma)
    ref = scalar_forward(sync, w)
    ref_grads = scalar_backward(sync, w, ref, dsigma)

    assert bits(state.sigma) == bits(ref.sigma)
    assert bits(state.lam) == bits(ref.lam)
    assert bits(state.visible_cov()) == bits(scalar_visible_cov(sync, ref))
    assert bits(list(grads.values())) == bits([ref_grads[e] for e in grads])
    # every ordered pair, roots with roots included, which the tables alone do not show
    pairs = [(p, q) for p in range(len(g.nodes)) for q in range(len(g.nodes))]
    assert bits([state.sig(p, q) for p, q in pairs]) == bits([ref.sig(p, q) for p, q in pairs])

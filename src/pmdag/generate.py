"""Random graph generation, the eight canonical benchmark graphs, and ground truth.

Random graphs follow the size formulas of the benchmark setup: ``v`` visible
nodes, ``l = l*/(1-l*) v + v`` latents of which the first ``v`` are auxiliary
noise parents (one guaranteed edge each), and an edge budget
``e = (l v + v(v-1)/2 + v) e*`` filled by uniform draws without replacement
from the acyclic pool.  The budget formula can exceed the pool of distinct
edges at high density; the draw is then clamped with a warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from pmdag.gauss import CovMatrix
from pmdag.graph import LATENT, VISIBLE, GraphError, Node, PmDag, StructuralParams, check_ints, is_real, validate
from pmdag.solver import joint_cov


class InfeasibleBudget(UserWarning):
    """The requested edge count exceeds the pool of distinct acyclic edges."""


class UnknownName(GraphError):
    def __init__(self, name):
        super().__init__(f"unknown canonical graph {name!r}; choose from {sorted(CANONICAL)}")


@dataclass(frozen=True)
class GenSpec:
    """Size parameters of a random graph: visible count, latent abundance, edge density."""

    v: int
    l_star: float = 0.0
    e_star: float = 0.5
    seed: int = 0

    def __post_init__(self):
        check_ints(GraphError, v=self.v, seed=self.seed)
        if self.v < 1:
            raise GraphError("v must be a positive integer")
        if not (is_real(self.l_star) and 0.0 <= self.l_star < 1.0):
            raise GraphError("l_star must lie in [0, 1)")
        if not (is_real(self.e_star) and 0.0 <= self.e_star <= 1.0):
            raise GraphError("e_star must lie in [0, 1]")
        if self.seed < 0:
            raise GraphError(f"seed must be nonnegative, got {self.seed}")


def latent_count(v: int, l_star: float) -> int:
    """l = l*/(1-l*) v + v, rounded to the nearest integer."""
    return int(round(l_star / (1.0 - l_star) * v + v))


def edge_budget(v: int, l_star: float, e_star: float) -> int:
    """e = (l v + v(v-1)/2 + v) e*, rounded to the nearest integer."""
    l = latent_count(v, l_star)
    return int(round((l * v + v * (v - 1) / 2 + v) * e_star))


def random_pmdag(spec: GenSpec) -> PmDag:
    """Random strict graph with guaranteed per-visible auxiliary noise parents.

    Beyond the ``v`` auxiliary edges, edges are drawn uniformly without
    replacement from all remaining latent->visible pairs plus the
    visible->visible pairs compatible with a random topological order, until
    the budget is met or the pool runs dry (clamped, with an
    ``InfeasibleBudget`` warning).
    """
    rng = np.random.default_rng(spec.seed)
    v, l = spec.v, latent_count(spec.v, spec.l_star)
    visibles = [f"V{i}" for i in range(v)]
    latents = [f"L{j}" for j in range(l)]
    nodes = [Node(name, LATENT) for name in latents] + [Node(name, VISIBLE) for name in visibles]

    edges = {(latents[i], visibles[i]) for i in range(v)}
    order = rng.permutation(v)
    pool = [
        (latents[j], visibles[i])
        for j in range(l) for i in range(v)
        if (latents[j], visibles[i]) not in edges
    ]
    pool += [
        (visibles[order[a]], visibles[order[b]])
        for a in range(v) for b in range(a + 1, v)
    ]

    budget = edge_budget(spec.v, spec.l_star, spec.e_star)
    extra = max(budget - len(edges), 0)
    if extra > len(pool):
        warnings.warn(
            f"edge budget {budget} exceeds the {len(pool) + len(edges)} distinct edges "
            f"available; clamping", InfeasibleBudget, stacklevel=2)
        extra = len(pool)
    if extra:
        chosen = rng.choice(len(pool), size=extra, replace=False)
        edges.update(pool[k] for k in chosen)
    return validate(nodes, edges, strict=True)


# --- canonical graphs ---------------------------------------------------------


def _premarginal(visibles, visible_edges, confounders):
    """Assemble a strict graph: named confounders plus one noise root per visible."""
    nodes = [Node(name, LATENT) for name in confounders]
    nodes += [Node(f"E_{v}", LATENT) for v in visibles]
    nodes += [Node(v, VISIBLE) for v in visibles]
    edges = set(visible_edges)
    for name, children in confounders.items():
        edges.update((name, c) for c in children)
    edges.update((f"E_{v}", v) for v in visibles)
    return validate(nodes, edges, strict=True)


# name: (visibles, edges among them, confounders with their children, identifiable)
CANONICAL = {
    "backdoor": (("Z", "X", "Y"), (("Z", "X"), ("Z", "Y"), ("X", "Y")), {}, True),
    "frontdoor": (("X", "M", "Y"), (("X", "M"), ("M", "Y")), {"U_XY": ("X", "Y")}, True),
    "m": (("X", "Z", "Y"), (("X", "Y"),), {"U_XZ": ("X", "Z"), "U_ZY": ("Z", "Y")}, True),
    "napkin": (("W", "R", "X", "Y"), (("W", "R"), ("R", "X"), ("X", "Y")),
               {"U_WX": ("W", "X"), "U_WY": ("W", "Y")}, True),
    "iv": (("Z", "X", "Y"), (("Z", "X"), ("X", "Y")), {"U_XY": ("X", "Y")}, True),
    "bow": (("X", "Y"), (("X", "Y"),), {"U_XY": ("X", "Y")}, False),
    "extended_bow": (("X", "Z", "Y"), (("X", "Z"), ("Z", "Y")), {"U_XZ": ("X", "Z")}, False),
    # the M structure plus a direct treatment-outcome confounder, which is
    # what breaks identifiability (the bow sits inside)
    "bad_m": (("X", "Z", "Y"), (("X", "Y"),),
              {"U_XZ": ("X", "Z"), "U_ZY": ("Z", "Y"), "U_XY": ("X", "Y")}, False),
}

IDENTIFIABLE_CANONICAL = tuple(name for name, entry in CANONICAL.items() if entry[3])
NON_IDENTIFIABLE_CANONICAL = tuple(name for name, entry in CANONICAL.items() if not entry[3])


def canonical_names() -> tuple[str, ...]:
    return tuple(sorted(CANONICAL))


def canonical(name: str) -> PmDag:
    """One of the eight benchmark graphs, already in pre-marginalized form.

    Every visible node carries a private noise root and every confounder is a
    latent root, so the graphs are strict and directly fittable.  The
    treatment is ``X`` and the outcome ``Y`` in all of them.
    """
    key = name.strip().lower().replace("-", "_").replace(" ", "_")
    if key not in CANONICAL:
        raise UnknownName(name)
    return _premarginal(*CANONICAL[key][:3])


def ground_truth(g: PmDag, seed: int) -> tuple[StructuralParams, CovMatrix]:
    """Standard-normal random edge weights and the exact induced visible covariance.

    The covariance is exact, not sampled, so a fit's error is optimization
    error alone.
    """
    check_ints(GraphError, seed=seed)
    if seed < 0:
        raise GraphError(f"ground-truth seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    weights = {}
    for name in g.nonroots:
        weights[name] = rng.standard_normal(len(g.parents(name)))
    params = StructuralParams(weights)
    return params, joint_cov(g, params).restrict(g.visible_names)

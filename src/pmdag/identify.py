"""Interventional distributions and the repeated-fit identifiability probe.

An effect distribution under an intervention is computed exactly by graph
surgery: incoming edges of each intervened node are cut and replaced by a
point-mass parent holding the assigned value.  Identifiability of the effect
is then probed by fitting the observed covariance many times from random
seeds and comparing the interventional distributions the fits induce: one
disagreement refutes identifiability, while agreement over many fits builds
confidence without proving it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from pmdag.gauss import CovMatrix, GaussianDist, SingularQ, kl_gaussian
from pmdag.graph import NotVisible, PmDag, StructuralParams, UnknownNode, mutilate
from pmdag.solver import FitConfig, FitReport, derive_seed, fit, fit_kl, root_loadings


class IdentifyError(RuntimeError):
    pass


class FitBudgetExhausted(IdentifyError):
    """Could not collect the requested number of converged fits within the retry cap."""


@dataclass(frozen=True)
class InterventionQuery:
    """do(targets = values), observed on the effect nodes."""

    targets: tuple[str, ...]
    values: tuple[float, ...]
    effects: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "effects", tuple(self.effects))
        if len(self.targets) != len(self.values):
            raise IdentifyError("one value per intervention target is required")
        if not self.effects:
            raise IdentifyError("at least one effect node is required")
        if not all(math.isfinite(v) for v in self.values):
            raise IdentifyError("intervention values must be finite")
        if len(set(self.targets)) != len(self.targets):
            raise IdentifyError("an intervention target is given more than once")


def interventional_dist(g: PmDag, params: StructuralParams, query: InterventionQuery) -> GaussianDist:
    """Exact Gaussian law of the effects under do(targets = values).

    Intervened nodes become copies of point-mass roots, ordinary roots stay
    standard normal, and every other node stays linear in its parents; means
    are generally nonzero when the assigned values are.
    """
    params.validate_for(g)
    for name in query.targets + query.effects:
        if name not in g:
            raise UnknownNode(name)
        if not g.node(name).is_visible:
            raise NotVisible(name)

    cut, aux_map = mutilate(g, query.targets)
    assigned = {aux_map[t]: v for t, v in zip(query.targets, query.values)}
    edge_w = {k: v for k, v in params.to_edge_dict(g).items()
              if k[1] not in query.targets}
    for t in query.targets:
        edge_w[(aux_map[t], t)] = 1.0
    loadings = root_loadings(cut, StructuralParams.from_edge_dict(cut, edge_w))

    roots = cut.roots
    point = [roots.index(name) for name in assigned]
    stochastic = [i for i, name in enumerate(roots) if name not in assigned]
    effects = [cut.index(e) for e in query.effects]
    basis = loadings[np.ix_(stochastic, effects)]
    cov = CovMatrix(query.effects, basis.T @ basis)
    mu = np.array(list(assigned.values())) @ loadings[np.ix_(point, effects)]
    return GaussianDist(mu, cov)


def divergence(a: GaussianDist, b: GaussianDist) -> float:
    """Symmetric max of the two KL directions; infinite on one-sided singularity."""
    try:
        kab = kl_gaussian(a, b)
    except SingularQ:
        kab = math.inf
    try:
        kba = kl_gaussian(b, a)
    except SingularQ:
        kba = math.inf
    if math.isinf(kab) and math.isinf(kba):
        # both singular: equal distributions have zero divergence
        if np.allclose(a.mean, b.mean, atol=1e-9) and np.allclose(a.cov.data, b.cov.data, atol=1e-9):
            return 0.0
        return math.inf
    return max(kab, kba)


NOT_INDUCIBLE = "not_inducible"
NOT_IDENTIFIABLE = "not_identifiable"
PRESUMED_IDENTIFIABLE = "presumed_identifiable"


@dataclass
class IdentVerdict:
    """Outcome of the identifiability probe.

    ``not_identifiable`` carries a reproducible witness: the two fit seeds
    (replayable through ``fit``) and both parameter sets, plus their
    interventional divergence.  ``not_inducible`` carries the stop reason of
    the reference fit in ``ref_stop_reason``: with ``"max_iters"`` that fit
    ran out of iterations, and a larger budget may still induce the target.
    """

    outcome: str
    iterations: int
    max_divergence: float
    divergences: list[float] = field(default_factory=list)
    fit_kl: float = math.nan
    witness_seeds: tuple[int, int] | None = None
    witness_params: tuple[StructuralParams, StructuralParams] | None = None
    fits_run: int = 0
    ref_stop_reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "iterations": self.iterations,
            "max_divergence": self.max_divergence,
            "divergences": list(self.divergences),
            "fit_kl": self.fit_kl,
            "witness_seeds": list(self.witness_seeds) if self.witness_seeds else None,
            "fits_run": self.fits_run,
            "ref_stop_reason": self.ref_stop_reason,
        }


def identify(
    g: PmDag,
    target: CovMatrix,
    query: InterventionQuery,
    fn_config: FitConfig | None = None,
    iters: int = 10,
    tol_fit: float = 1e-5,
    tol_id: float = 1e-2,
    retry_cap: int = 5,
    fn: Callable[[PmDag, CovMatrix, FitConfig], tuple[StructuralParams, FitReport]] = fit,
) -> IdentVerdict:
    """Probe whether the effect distribution is pinned down by graph and target.

    A first fit decides inducibility; ``iters`` further fits (fresh seeds,
    non-converged runs redrawn up to ``retry_cap`` attempts per slot) are
    compared against it.  Any interventional divergence above ``tol_id``
    refutes identifiability with a replayable witness; otherwise the verdict
    is presumed identifiability with the largest observed divergence.
    """
    if iters < 1 or retry_cap < 1:
        raise IdentifyError("iters and retry_cap must be at least 1")
    if fn_config is None:
        fn_config = FitConfig()
    master = fn_config.seed

    ref_seed = derive_seed(master, 0, 0)
    ref_params, ref_report = fn(g, target, replace(fn_config, seed=ref_seed))
    ref_kl = fit_kl(g, target, ref_params)
    fits_run = 1
    if ref_kl > tol_fit:
        return IdentVerdict(NOT_INDUCIBLE, iterations=iters, max_divergence=math.nan,
                            fit_kl=float(ref_kl), fits_run=fits_run,
                            ref_stop_reason=ref_report.stop_reason)

    ref_do = interventional_dist(g, ref_params, query)
    divergences: list[float] = []
    for slot in range(1, iters + 1):
        for attempt in range(retry_cap):
            slot_seed = derive_seed(master, slot, attempt)
            params_i, _report = fn(g, target, replace(fn_config, seed=slot_seed))
            fits_run += 1
            if fit_kl(g, target, params_i) <= tol_fit:
                break
        else:
            raise FitBudgetExhausted(
                f"slot {slot}: no converged fit within {retry_cap} attempts")
        d = divergence(interventional_dist(g, params_i, query), ref_do)
        divergences.append(float(d))
        if d > tol_id:
            return IdentVerdict(
                NOT_IDENTIFIABLE, iterations=iters,
                max_divergence=float(d), divergences=divergences,
                fit_kl=float(ref_kl),
                witness_seeds=(ref_seed, slot_seed),
                witness_params=(ref_params, params_i),
                fits_run=fits_run)
    return IdentVerdict(
        PRESUMED_IDENTIFIABLE, iterations=iters,
        max_divergence=max(divergences),
        divergences=divergences, fit_kl=float(ref_kl), fits_run=fits_run)

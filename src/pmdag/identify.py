"""Interventional distributions and the repeated-fit identifiability probe.

An effect distribution under an intervention is computed exactly on the
graph itself: one path-sum pass pins each intervened node to its assigned
value, reading none of its incoming edges.  Identifiability of the effect
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
from pmdag.graph import NotVisible, PmDag, StructuralParams, check_ints, is_real
from pmdag.solver import FitConfig, FitReport, derive_seed, fit, fit_kl, root_loadings


class IdentifyError(RuntimeError):
    pass


class FitBudgetExhausted(IdentifyError):
    """A compared fit did not converge within its ``FitConfig.restarts`` budget."""


@dataclass(frozen=True)
class InterventionQuery:
    """do(targets = values), observed on the effect nodes."""

    targets: tuple[str, ...]
    values: tuple[float, ...]
    effects: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "effects", tuple(self.effects))
        if len(self.targets) != len(self.values):
            raise IdentifyError("one value per intervention target is required")
        if not self.effects:
            raise IdentifyError("at least one effect node is required")
        if not all(is_real(v) and math.isfinite(v) for v in self.values):
            raise IdentifyError("intervention values must be finite")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(set(self.targets)) != len(self.targets):
            raise IdentifyError("an intervention target is given more than once")
        if len(set(self.effects)) != len(self.effects):
            raise IdentifyError("an effect node is given more than once")


def _check_query_nodes(g: PmDag, query: InterventionQuery) -> None:
    """Raise unless every target and effect of the query is a visible node of ``g``."""
    for name in query.targets + query.effects:
        if not g.node(name).is_visible:
            raise NotVisible(name)


def interventional_dist(g: PmDag, params: StructuralParams, query: InterventionQuery) -> GaussianDist:
    """Exact Gaussian law of the effects under do(targets = values).

    One path-sum pass over ``g`` pins each target to its assigned value and
    leaves every other node linear in its parents: the effects' covariance
    comes from the standard-normal roots' rows of the loadings, their mean
    from the assigned values' rows, generally nonzero when the values are.
    """
    _check_query_nodes(g, query)
    loadings = root_loadings(g, params, do=query.targets)
    n_roots = len(g.roots)
    effects = [g.index(e) for e in query.effects]
    basis = loadings[np.ix_(range(n_roots), effects)]
    cov = CovMatrix(query.effects, basis.T @ basis)
    mu = np.array(query.values) @ loadings[np.ix_(range(n_roots, len(loadings)), effects)]
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
    ref_stop_reason: str | None = None

    @property
    def fits_run(self) -> int:
        """Fits the probe ran: the reference fit and one per compared slot."""
        return len(self.divergences) + 1

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
    tol_id: float = 1e-2,
    fn: Callable[[PmDag, CovMatrix, FitConfig], tuple[StructuralParams, FitReport]] = fit,
) -> IdentVerdict:
    """Probe whether the effect distribution is pinned down by graph and target.

    A first fit (slot 0) decides inducibility; ``iters`` further fits, one
    call of ``fn`` per slot at a fresh seed with ``fn_config.restarts`` as
    its whole retry budget, are compared against it.  A fit counts as
    converged when its ``fit_kl`` is at most ``fn_config.kl_tol``, the
    threshold the fit itself stops at; a compared slot that does not raises
    ``FitBudgetExhausted``.  Any interventional divergence above ``tol_id``
    refutes identifiability with a replayable witness; otherwise the verdict
    is presumed identifiability with the largest observed divergence.
    """
    check_ints(IdentifyError, iters=iters)
    if iters < 1:
        raise IdentifyError("iters must be at least 1")
    if not (is_real(tol_id) and math.isfinite(tol_id) and tol_id >= 0):
        raise IdentifyError(f"tol_id must be a number, finite and nonnegative, got {tol_id!r}")
    _check_query_nodes(g, query)
    if fn_config is None:
        fn_config = FitConfig()
    master = fn_config.seed

    # Slot s fits at derive_seed(master, s, 0): the trailing 0 keeps the seeds
    # that earlier versions gave each slot, so their verdicts replay unchanged.
    ref_seed = derive_seed(master, 0, 0)
    ref_params, ref_report = fn(g, target, replace(fn_config, seed=ref_seed))
    ref_kl = fit_kl(g, target, ref_params)
    if ref_kl > fn_config.kl_tol:
        return IdentVerdict(NOT_INDUCIBLE, iterations=iters, max_divergence=math.nan,
                            fit_kl=float(ref_kl), ref_stop_reason=ref_report.stop_reason)

    ref_do = interventional_dist(g, ref_params, query)
    divergences: list[float] = []
    for slot in range(1, iters + 1):
        slot_seed = derive_seed(master, slot, 0)
        params_i, _report = fn(g, target, replace(fn_config, seed=slot_seed))
        if fit_kl(g, target, params_i) > fn_config.kl_tol:
            raise FitBudgetExhausted(
                f"slot {slot}: no converged fit within {fn_config.restarts} restarts")
        d = divergence(interventional_dist(g, params_i, query), ref_do)
        divergences.append(float(d))
        if d > tol_id:
            return IdentVerdict(
                NOT_IDENTIFIABLE, iterations=iters,
                max_divergence=float(d), divergences=divergences,
                fit_kl=float(ref_kl),
                witness_seeds=(ref_seed, slot_seed),
                witness_params=(ref_params, params_i))
    return IdentVerdict(
        PRESUMED_IDENTIFIABLE, iterations=iters,
        max_divergence=max(divergences),
        divergences=divergences, fit_kl=float(ref_kl))

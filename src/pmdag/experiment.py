"""Reproducible fit experiments: repeated seeded fits with trace and decile outputs.

An experiment names a graph (canonical name, generator spec, or file),
synthesizes a ground truth, runs several independently seeded fits, and
writes per-repetition trace CSVs, a decile CSV over the repetitions, and a
summary JSON.  Everything is reproducible from the serialized form.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pmdag.gauss import write_csv
from pmdag.generate import GenSpec, canonical, ground_truth, random_pmdag
from pmdag.graph import PmDag, check_ints, load_graph, typed_kwargs, write_json
from pmdag.identify import InterventionQuery, divergence, interventional_dist
from pmdag.solver import FitConfig, derive_seed, fit, save_trace_csv


class SpecError(ValueError):
    """A malformed experiment spec: unknown or missing keys, or a value of the wrong type or range."""


@dataclass(frozen=True)
class Experiment:
    """A named, fully seeded fit experiment; a malformed one raises ``SpecError``."""

    graph: str | GenSpec  # canonical name, path to a graph JSON, or a GenSpec
    truth_seed: int = 0
    fit_config: FitConfig = field(default_factory=FitConfig)
    repetitions: int = 10
    do_target: str | None = None  # with do_effect, record interventional divergence traces
    do_effect: str | None = None
    hook_stride: int = 10

    def __post_init__(self):
        check_ints(SpecError, truth_seed=self.truth_seed, repetitions=self.repetitions,
                   hook_stride=self.hook_stride)
        if self.repetitions < 1 or self.hook_stride < 1:
            raise SpecError("repetitions and hook_stride must be at least 1")
        if self.truth_seed < 0:
            raise SpecError(f"truth_seed must be nonnegative, got {self.truth_seed}")
        if (self.do_target is None) != (self.do_effect is None):
            raise SpecError("do_target and do_effect must be set together")

    def resolve_graph(self) -> PmDag:
        if isinstance(self.graph, GenSpec):
            return random_pmdag(self.graph)
        if self.graph.endswith(".json"):
            return load_graph(self.graph)
        return canonical(self.graph)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data) -> "Experiment":
        return cls(**typed_kwargs(cls, data, SpecError, "experiment"))


def _deciles(traces: list[np.ndarray]) -> np.ndarray:
    """0.1/0.5/0.9 quantiles per iteration of ragged traces, each padded with its last value."""
    width = max(len(t) for t in traces)
    padded = np.vstack([
        np.concatenate([t, np.full(width - len(t), t[-1] if len(t) else math.nan)])
        for t in traces
    ])
    return np.quantile(padded, [0.1, 0.5, 0.9], axis=0)


def _write_deciles(path: Path, rows) -> None:
    """Decile CSV from (iteration, three quantiles) rows."""
    write_csv(path, ["iteration", "decile_1", "decile_5", "decile_9"],
              ([iteration, *qs] for iteration, qs in rows))


def run_experiment(exp: Experiment, outdir) -> dict:
    """Run all repetitions and write traces, deciles, and a summary.

    Returns the summary dict (also written to ``summary.json``, where
    non-finite floats appear as null).  ``outdir`` is made only after every
    repetition's fit has returned, so a spec that the graph, its ground
    truth, the query or ``fit`` rejects leaves no directory behind.
    """
    g = exp.resolve_graph()
    truth_params, target = ground_truth(g, exp.truth_seed)

    query = truth_do = hook = None
    if exp.do_target is not None:
        query = InterventionQuery((exp.do_target,), (0.0,), (exp.do_effect,))
        truth_do = interventional_dist(g, truth_params, query)

        def hook(i, get_params):
            if i % exp.hook_stride == 0 or i == 1:
                return i, divergence(interventional_dist(g, get_params(), query), truth_do)

    reports = []
    reps = []
    for rep in range(exp.repetitions):
        cfg = dataclasses.replace(exp.fit_config, seed=derive_seed(exp.fit_config.seed, rep))
        params, report = fit(g, target, cfg, iter_hook=hook)
        reports.append(report)
        rep_entry = {
            "rep": rep,
            "seed": cfg.seed,
            "converged": report.converged,
            "stop_reason": report.stop_reason,
            "iterations": report.iterations,
            "final_kl_model_target": report.final_kl_model_target,
            "final_kl_target_model": report.final_kl_target_model,
        }
        if query is not None:
            final_do = divergence(interventional_dist(g, params, query), truth_do)
            rep_entry["final_do_divergence"] = final_do
        reps.append(rep_entry)

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for rep, report in enumerate(reports):
        save_trace_csv(report, outdir / f"trace_rep{rep:02d}.csv")

    quantiles = _deciles([report.kl_trace for report in reports])
    _write_deciles(outdir / "kl_deciles.csv", zip(range(1, quantiles.shape[1] + 1), quantiles.T))

    do_traces = [report.hook_records for report in reports]  # empty without a query
    if all(do_traces):
        rows = []
        for k in range(min(len(t) for t in do_traces)):
            vals = np.array([t[k][1] for t in do_traces])
            vals = np.where(np.isinf(vals), np.nan, vals)
            rows.append((do_traces[0][k][0], np.nanquantile(vals, [0.1, 0.5, 0.9])))
        _write_deciles(outdir / "do_deciles.csv", rows)

    summary = {
        "experiment": exp.to_dict(),
        "graph_nodes": len(g.nodes),
        "graph_edges": len(g.edges),
        "repetitions": reps,
        "converged_count": sum(1 for r in reps if r["converged"]),
    }
    write_json(summary, outdir / "summary.json")
    return summary

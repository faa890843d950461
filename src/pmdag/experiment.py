"""Reproducible fit experiments: repeated seeded fits with trace and decile outputs.

An experiment names a graph (canonical name, generator spec, or file),
synthesizes a ground truth, runs several independently seeded fits, and
writes per-repetition trace CSVs, a decile CSV over the repetitions, and a
summary JSON.  Everything is reproducible from the serialized form.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pmdag.generate import GenSpec, canonical, ground_truth, random_pmdag
from pmdag.graph import PmDag, load_graph
from pmdag.identify import InterventionQuery, divergence, interventional_dist
from pmdag.solver import FitConfig, derive_seed, fit, save_trace_csv


@dataclass(frozen=True)
class Experiment:
    """A named, fully seeded fit experiment."""

    graph: str | GenSpec  # canonical name, path to a graph JSON, or a GenSpec
    truth_seed: int = 0
    fit_config: FitConfig = field(default_factory=FitConfig)
    repetitions: int = 10
    do_target: str | None = None  # record interventional divergence traces when set
    do_effect: str | None = None
    hook_stride: int = 10

    def resolve_graph(self) -> PmDag:
        if isinstance(self.graph, GenSpec):
            return random_pmdag(self.graph)
        if self.graph.endswith(".json"):
            return load_graph(self.graph)
        return canonical(self.graph)

    def to_dict(self) -> dict:
        data = {
            "graph": dataclasses.asdict(self.graph) if isinstance(self.graph, GenSpec) else self.graph,
            "truth_seed": self.truth_seed,
            "fit_config": dataclasses.asdict(self.fit_config),
            "repetitions": self.repetitions,
            "do_target": self.do_target,
            "do_effect": self.do_effect,
            "hook_stride": self.hook_stride,
        }
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Experiment":
        graph = data["graph"]
        if isinstance(graph, dict):
            graph = GenSpec(**graph)
        cfg = FitConfig(**data.get("fit_config", {}))
        return cls(graph=graph, truth_seed=data.get("truth_seed", 0), fit_config=cfg,
                   repetitions=data.get("repetitions", 10),
                   do_target=data.get("do_target"), do_effect=data.get("do_effect"),
                   hook_stride=data.get("hook_stride", 10))


def _finite_or_none(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {key: _finite_or_none(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_none(value) for value in obj]
    return obj


def json_text(data) -> str:
    """Strict JSON (RFC 8259) for result files: non-finite floats become null."""
    return json.dumps(_finite_or_none(data), indent=2, allow_nan=False)


def _deciles(traces: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stack ragged traces (padded with their last value) and take 0.1/0.5/0.9 quantiles."""
    width = max(len(t) for t in traces)
    padded = np.vstack([
        np.concatenate([t, np.full(width - len(t), t[-1] if len(t) else math.nan)])
        for t in traces
    ])
    return np.quantile(padded, [0.1, 0.5, 0.9], axis=0), padded


def run_experiment(exp: Experiment, outdir) -> dict:
    """Run all repetitions and write traces, deciles, and a summary.

    Returns the summary dict (also written to ``summary.json``, where
    non-finite floats appear as null).
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    g = exp.resolve_graph()
    truth_params, target = ground_truth(g, exp.truth_seed)

    query = None
    truth_do = None
    if exp.do_target is not None and exp.do_effect is not None:
        query = InterventionQuery((exp.do_target,), (0.0,), (exp.do_effect,))
        truth_do = interventional_dist(g, truth_params, query)

    kl_traces = []
    do_traces = []
    reps = []
    for rep in range(exp.repetitions):
        cfg = dataclasses.replace(exp.fit_config, seed=derive_seed(exp.fit_config.seed, rep))
        do_trace = []

        hook = None
        if query is not None:
            def hook(i, params, _trace=do_trace):
                if i % exp.hook_stride == 0 or i == 1:
                    d = divergence(interventional_dist(g, params, query), truth_do)
                    _trace.append((i, d))

        params, report = fit(g, target, cfg, iter_hook=hook)
        save_trace_csv(report, outdir / f"trace_rep{rep:02d}.csv")
        kl_traces.append(report.kl_trace)
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
            do_traces.append(do_trace)
        reps.append(rep_entry)

    quantiles, _ = _deciles(kl_traces)
    with open(outdir / "kl_deciles.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "decile_1", "decile_5", "decile_9"])
        for i in range(quantiles.shape[1]):
            writer.writerow([i + 1] + [repr(float(q)) for q in quantiles[:, i]])

    if do_traces and all(len(t) for t in do_traces):
        width = min(len(t) for t in do_traces)
        with open(outdir / "do_deciles.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "decile_1", "decile_5", "decile_9"])
            for k in range(width):
                iteration = do_traces[0][k][0]
                vals = np.array([t[k][1] for t in do_traces])
                vals = np.where(np.isinf(vals), np.nan, vals)
                qs = np.nanquantile(vals, [0.1, 0.5, 0.9])
                writer.writerow([iteration] + [repr(float(q)) for q in qs])

    summary = {
        "experiment": exp.to_dict(),
        "graph_nodes": len(g.nodes),
        "graph_edges": len(g.edges),
        "repetitions": reps,
        "converged_count": sum(1 for r in reps if r["converged"]),
    }
    (outdir / "summary.json").write_text(json_text(summary) + "\n", encoding="utf-8")
    return summary

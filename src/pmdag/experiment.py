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
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pmdag.generate import GenSpec, canonical, ground_truth, random_pmdag
from pmdag.graph import PmDag, load_graph
from pmdag.identify import InterventionQuery, divergence, interventional_dist
from pmdag.solver import FitConfig, derive_seed, fit, save_trace_csv


class SpecError(ValueError):
    """A malformed experiment spec: unknown or missing keys, or a value of the wrong type or range."""


def _spec_kwargs(cls, data, where: str) -> dict:
    """Keyword arguments of dataclass ``cls`` from a JSON object, checked against its fields.

    Unknown or missing keys and values not of the annotated type raise
    ``SpecError``; an int is accepted for a float, a bool never for a number,
    and a JSON object for a dataclass field is built recursively.
    """
    if not isinstance(data, dict):
        raise SpecError(f"{where} must be a JSON object, not {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    missing = [name for name, f in fields.items() if name not in data
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if unknown or missing:
        raise SpecError(f"{where}: unknown keys {unknown}, missing keys {missing}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        allowed = typing.get_args(hints[key]) or (hints[key],)
        nested = [t for t in allowed if dataclasses.is_dataclass(t)]
        if isinstance(value, dict) and nested:
            value = nested[0](**_spec_kwargs(nested[0], value, key))
        if float in allowed:
            allowed += (int,)
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise SpecError(f"{where} key {key!r} has the wrong type: {value!r}")
        kwargs[key] = value
    return kwargs


@dataclass(frozen=True)
class Experiment:
    """A named, fully seeded fit experiment; a malformed one raises ``SpecError``."""

    graph: str | GenSpec  # canonical name, path to a graph JSON, or a GenSpec
    truth_seed: int = 0
    fit_config: FitConfig = field(default_factory=FitConfig)
    repetitions: int = 10
    do_target: str | None = None  # record interventional divergence traces when set
    do_effect: str | None = None
    hook_stride: int = 10

    def __post_init__(self):
        if self.repetitions < 1 or self.hook_stride < 1:
            raise SpecError("repetitions and hook_stride must be at least 1")

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
        return cls(**_spec_kwargs(cls, data, "experiment"))


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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "decile_1", "decile_5", "decile_9"])
        for iteration, qs in rows:
            writer.writerow([iteration] + [repr(float(q)) for q in qs])


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
            def hook(i, get_params, _trace=do_trace):
                if i % exp.hook_stride == 0 or i == 1:
                    d = divergence(interventional_dist(g, get_params(), query), truth_do)
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

    quantiles = _deciles(kl_traces)
    _write_deciles(outdir / "kl_deciles.csv", zip(range(1, quantiles.shape[1] + 1), quantiles.T))

    if do_traces and all(len(t) for t in do_traces):
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
    (outdir / "summary.json").write_text(json_text(summary) + "\n", encoding="utf-8")
    return summary

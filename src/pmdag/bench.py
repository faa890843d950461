"""Timing harness for the forward and backward phases of each solver method.

Absolute times are hardware-dependent; the harness exists for relative
comparisons between methods on a grid of random-graph sizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from pmdag.gauss import write_csv
from pmdag.generate import GenSpec, random_pmdag
from pmdag.graph import check_ints
from pmdag.solver import ENGINES, init_theta
from pmdag.sync import build_masks, synchronize


@dataclass(frozen=True)
class BenchRow:
    v: int
    l_star: float
    e_star: float
    method: str
    phase: str
    mean_seconds: float


def _time_phases(method, sync, masks, theta):
    engine = ENGINES[method](sync, masks)
    seed = np.eye(len(sync.graph.visible_names))
    t0 = time.perf_counter()
    _sigma, ctx = engine.forward(theta)
    t1 = time.perf_counter()
    engine.backward(ctx, seed)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1


def bench(
    v_values: Sequence[int],
    l_stars: Sequence[float],
    e_stars: Sequence[float],
    methods: Iterable[str] = ("covariance", "accumulation"),
    repetitions: int = 5,
    seed: int = 0,
) -> list[BenchRow]:
    """Mean forward/backward seconds per method over freshly drawn random graphs.

    A method named twice is timed once, in the order first named.
    """
    check_ints(ValueError, repetitions=repetitions, seed=seed)
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    methods = tuple(dict.fromkeys(methods))
    for m in methods:
        if m not in ENGINES:
            raise ValueError(f"unknown method {m!r}")
    rows = []
    for v in v_values:
        for l_star in l_stars:
            for e_star in e_stars:
                forward_t = {m: 0.0 for m in methods}
                backward_t = {m: 0.0 for m in methods}
                for rep in range(repetitions):
                    g = random_pmdag(GenSpec(v=v, l_star=l_star, e_star=e_star,
                                             seed=seed + rep))
                    sync = synchronize(g)
                    masks = build_masks(sync)
                    theta = init_theta(masks, seed=seed + rep)
                    for m in methods:
                        fwd, bwd = _time_phases(m, sync, masks, theta)
                        forward_t[m] += fwd
                        backward_t[m] += bwd
                for m in methods:
                    rows.append(BenchRow(v, l_star, e_star, m, "forward",
                                         forward_t[m] / repetitions))
                    rows.append(BenchRow(v, l_star, e_star, m, "backward",
                                         backward_t[m] / repetitions))
    return rows


def write_bench_csv(rows: Iterable[BenchRow], path) -> None:
    write_csv(path, ["v", "l_star", "e_star", "method", "phase", "mean_seconds"],
              ([row.v, row.l_star, row.e_star, row.method, row.phase, row.mean_seconds] for row in rows))

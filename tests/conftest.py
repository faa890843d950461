import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import pmdag
from pmdag.generate import GenSpec, random_pmdag
from pmdag.graph import PmDag, validate
from pmdag.sync import synchronize


@pytest.fixture
def bow():
    """Plain bow: latent A confounds X and Y, with the direct edge X -> Y."""
    return validate(
        [("A", "latent"), ("X", "visible"), ("Y", "visible")],
        [("A", "X"), ("A", "Y"), ("X", "Y")],
    )


@pytest.fixture
def chain3():
    """L0 -> L -> X with a latent mid-node; the smallest non-strict graph."""
    return validate(
        [("L0", "latent"), ("L", "latent"), ("X", "visible")],
        [("L0", "L"), ("L", "X")],
    )


PROPERTY = settings(max_examples=60, deadline=None)


def run_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    """``python -c code *argv`` in a fresh interpreter that imports the pmdag under test."""
    src = str(Path(pmdag.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=60)


@st.composite
def pmdags(draw, min_v=1, max_v=6):
    """A hypothesis-drawn random strict graph, quiet about clamped edge budgets."""
    spec = GenSpec(v=draw(st.integers(min_v, max_v)),
                   l_star=draw(st.floats(0.0, 0.6)),
                   e_star=draw(st.floats(0.1, 1.0)),
                   seed=draw(st.integers(0, 2**31 - 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return random_pmdag(spec)


def random_small_graph(rng, max_v=4):
    """A small random strict graph, quiet about clamped edge budgets."""
    v = int(rng.integers(2, max_v + 1))
    spec = GenSpec(v=v, l_star=float(rng.uniform(0.0, 0.6)),
                   e_star=float(rng.uniform(0.2, 1.0)), seed=int(rng.integers(2**31)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return random_pmdag(spec)


def demote_one_visible(g, rng):
    """Relabel a random visible node with children as latent (makes a non-strict graph)."""
    candidates = [n.name for n in g.nodes if n.is_visible and g.children(n.name)]
    if not candidates:
        return None
    pick = candidates[int(rng.integers(len(candidates)))]
    nodes = [(n.name, "latent" if n.name == pick else n.role) for n in g.nodes]
    return PmDag(nodes, g.edges), pick


def random_params(g, rng):
    from pmdag.graph import StructuralParams

    return StructuralParams({
        name: rng.standard_normal(len(g.parents(name))) for name in g.nonroots
    })


def theta_from_params(sync, params):
    """The edge vector theta holding ``params``: each node's weights written at its ``sync.slices`` run."""
    params.validate_for(sync.graph)
    theta = np.empty(len(sync.edges))
    for node, sl in zip(sync.graph.nodes, sync.slices):
        if sl is not None:
            theta[sl] = params.weights[node.name]
    return theta


GRAPH_VARIANTS = ("as drawn", "demoted", "latent sink")


def graph_variant(g, rng, variant):
    """``g`` as drawn, with one visible demoted to latent (when one has children), or with a latent sink."""
    if variant == "demoted":
        return (demote_one_visible(g, rng) or (g,))[0]
    if variant == "latent sink":
        return add_latent_sink(g, rng)
    return g


def add_latent_sink(g, rng):
    """The graph with a childless latent below one of its deepest nodes, at a random place in node order.

    The sink sits in the last layer, so the visible nodes no longer fill it
    and the engines gather the visible block out of it.
    """
    sync = synchronize(g)
    deepest = [g.nodes[i].name for i in sync.new[-1]]
    parent = deepest[int(rng.integers(len(deepest)))]
    nodes = [(n.name, n.role) for n in g.nodes]
    nodes.insert(int(rng.integers(len(nodes) + 1)), ("sink", "latent"))
    return PmDag(nodes, [*g.edges, (parent, "sink")])

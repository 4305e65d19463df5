"""Shared fixtures and random-instance generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from sheaf_sysid.experiments import make_cycle_sheaf
from sheaf_sysid.sheaf import DirectedGraph, Sheaf, build_coboundary


def random_spd(rng: np.random.Generator, d: int) -> np.ndarray:
    """Well-conditioned random SPD matrix (eigenvalues in [0.5, 2])."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q @ np.diag(rng.uniform(0.5, 2.0, d)) @ q.T


def random_sheaf(
    rng: np.random.Generator,
    n_vertices: int = 4,
    n_edges: int = 5,
    max_dim: int = 3,
    weighted: bool = True,
    allow_self_loops: bool = False,
) -> Sheaf:
    """Random sheaf with random maps and (optionally) random Gram weights."""
    edges = []
    for _ in range(n_edges):
        t = int(rng.integers(n_vertices))
        h = int(rng.integers(n_vertices))
        if not allow_self_loops:
            while h == t:
                h = int(rng.integers(n_vertices))
        edges.append((t, h))
    graph = DirectedGraph(vertex_count=n_vertices, edges=tuple(edges))
    vdims = [int(rng.integers(1, max_dim + 1)) for _ in range(n_vertices)]
    edims = [int(rng.integers(1, max_dim + 1)) for _ in range(n_edges)]
    heads = [rng.standard_normal((edims[e], vdims[h])) for e, (_, h) in enumerate(edges)]
    tails = [rng.standard_normal((edims[e], vdims[t])) for e, (t, _) in enumerate(edges)]
    vgrams = [random_spd(rng, d) for d in vdims] if weighted else None
    egrams = [random_spd(rng, d) for d in edims] if weighted else None
    return Sheaf(
        graph=graph,
        vertex_stalk_dims=vdims,
        edge_stalk_dims=edims,
        head_maps=heads,
        tail_maps=tails,
        vertex_grams=vgrams,
        edge_grams=egrams,
    )


@pytest.fixture(scope="session")
def identity_cycle():
    sheaf = make_cycle_sheaf(3, "identity")
    return sheaf, build_coboundary(sheaf)


@pytest.fixture(scope="session")
def rotated_cycle():
    sheaf = make_cycle_sheaf(3, "rotated")
    return sheaf, build_coboundary(sheaf)


@pytest.fixture(scope="session")
def mixed_sheaf():
    """Weighted random sheaf whose edge stalks have mixed dimensions."""
    sheaf = random_sheaf(np.random.default_rng(2024), n_vertices=4, n_edges=6)
    assert len(set(sheaf.edge_stalk_dims)) > 1
    return sheaf

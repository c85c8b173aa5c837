"""Seeded synthetic inputs for demos and property tests.

Grid embeddings are drawn around a handful of anchor directions with small
noise, so clustering finds genuine multi-member groups instead of shattering
into singletons, and every output is a pure function of the seed.
"""

from __future__ import annotations

import numpy as np

from .types import DEFAULT_TOP_K, AlignParams, AttentionLayerParams, FuseParams, MlpParams, PatchGrid, QueryEmbedding

__all__ = ["make_grid", "make_params", "make_query"]

DEFAULT_LAYERS = 2  # intra-cluster attention layers
GRID_CENTERS = 4  # anchor directions a grid's embeddings are drawn around
GRID_NOISE = 0.08  # scale of the noise added to each anchor


def make_grid(rows: int, cols: int, dim: int, seed: int) -> PatchGrid:
    """Builds a clusterable grid of embeddings from a seed."""
    rng = np.random.default_rng(seed)
    n = rows * cols
    centers = min(GRID_CENTERS, n)
    anchors = rng.normal(size=(centers, dim))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    assignments = np.arange(n) % centers
    embeddings = anchors[assignments] + GRID_NOISE * rng.normal(size=(n, dim))
    return PatchGrid(rows, cols, embeddings)


def make_query(dim: int, seed: int) -> QueryEmbedding:
    rng = np.random.default_rng(seed + 101)
    return QueryEmbedding(rng.normal(size=dim))


def make_params(dim: int, seed: int, layers: int = DEFAULT_LAYERS, top_k: int = DEFAULT_TOP_K) -> AlignParams:
    """Draws a full parameter set from a seed, scaled for stability."""
    rng = np.random.default_rng(seed + 202)
    hidden = max(4, dim)
    d_k = max(2, dim // 2)
    scale = 1.0 / np.sqrt(dim)
    mlp = MlpParams(
        w1=rng.normal(scale=scale, size=(hidden, dim)),
        b1=rng.normal(scale=0.1, size=hidden),
        w2=rng.normal(scale=1.0 / np.sqrt(hidden), size=(3, hidden)),
        b2=rng.normal(scale=0.1, size=3),
    )
    attention = tuple(
        AttentionLayerParams(
            w_q=rng.normal(scale=scale, size=(dim, d_k)),
            w_k=rng.normal(scale=scale, size=(dim, d_k)),
            w_v=rng.normal(scale=scale, size=(dim, dim)),
            ff_w1=rng.normal(scale=scale, size=(dim, hidden)),
            ff_b1=rng.normal(scale=0.1, size=hidden),
            ff_w2=rng.normal(scale=1.0 / np.sqrt(hidden), size=(hidden, dim)),
            ff_b2=rng.normal(scale=0.1, size=dim),
        )
        for _ in range(layers)
    )
    fuse = FuseParams(gamma=np.ones(dim), beta=np.zeros(dim))
    return AlignParams(mlp=mlp, attention=attention, fuse=fuse, top_k=top_k)

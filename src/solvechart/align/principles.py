"""Pairwise relation matrices and their mixing weights.

Three complementary views of how patches relate: shared row or column
(crosshair), spatial closeness within a straight-line radius (proximity),
and normalized semantic similarity of the embeddings.  A small MLP over the
mean patch embedding decides how much each view matters for this chart.
"""

from __future__ import annotations

import numpy as np

from .cluster import _cosine_similarity
from .types import DegenerateInput, MlpParams, PatchGrid, PrincipleMatrices, _check_shapes

__all__ = ["build_principle_matrices", "principle_weights", "row_softmax"]

DEFAULT_PROXIMITY_RADIUS = 3.0


def row_softmax(scores: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis; scores is left as it was."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    # Integer scores shift to integers, which exp cannot overwrite with floats.
    weights = np.exp(shifted, out=shifted if shifted.dtype.kind == "f" else None)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


def _squared_offsets(coords: np.ndarray) -> np.ndarray:
    """(coords[i] - coords[j]) ** 2 for every pair, squared in place."""
    offsets = np.subtract(coords[:, None], coords[None, :])
    return np.square(offsets, out=offsets)


def build_principle_matrices(grid: PatchGrid, radius: float = DEFAULT_PROXIMITY_RADIUS) -> PrincipleMatrices:
    """Builds the crosshair, proximity, and similarity matrices for a grid.

    All three have zero diagonals.  The binary matrices are symmetric; the
    similarity matrix is a row softmax over cosine similarities with the
    diagonal masked out, so each row sums to one over the off-diagonal
    entries (a single-patch grid has no off-diagonal mass and gets a zero
    row instead).
    """
    if not radius > 0:  # also true for nan
        raise DegenerateInput("radius must be positive")
    n = grid.count
    rows, cols = grid.positions[:, 0], grid.positions[:, 1]
    same_line = rows[:, None] == rows[None, :]
    same_line |= cols[:, None] == cols[None, :]
    crosshair = same_line.astype(np.float64)
    np.fill_diagonal(crosshair, 0.0)

    # The distances become the 0/1 proximity in their own buffer.
    proximity = _squared_offsets(rows)
    proximity += _squared_offsets(cols)
    np.sqrt(proximity, out=proximity)
    proximity[...] = proximity <= radius
    np.fill_diagonal(proximity, 0.0)

    masked = _cosine_similarity(grid.embeddings)
    if n == 1:
        similarity = np.zeros((1, 1))
    else:
        np.fill_diagonal(masked, -np.inf)
        similarity = row_softmax(masked)
        np.fill_diagonal(similarity, 0.0)
    return PrincipleMatrices(crosshair, proximity, similarity)


def principle_weights(grid: PatchGrid, mlp: MlpParams) -> np.ndarray:
    """Softmax weights over the three principles from the pooled embedding."""
    _check_shapes({"d": grid.dim}, w1=(mlp.w1, ("h", "d")))
    pooled = grid.embeddings.mean(axis=0)
    hidden = np.maximum(mlp.w1 @ pooled + mlp.b1, 0.0)
    logits = mlp.w2 @ hidden + mlp.b2
    return row_softmax(logits)

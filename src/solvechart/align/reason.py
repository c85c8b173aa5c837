"""Alignment composition, restricted attention, annotation, and fusion.

The alignment matrix scores cross-cluster patch pairs only: within a
cluster, restricted attention does the talking, so same-cluster entries are
identically zero.  Query-driven annotation then boosts the rows and columns
of the patches the question cares about, and fusion folds the annotated
context back into the patch embeddings with a row-wise layer norm.
"""

from __future__ import annotations

import numpy as np

from .principles import row_softmax
from .types import (
    AlignParams,
    AttentionLayerParams,
    ClusterSet,
    DegenerateInput,
    FuseParams,
    PatchGrid,
    PrincipleMatrices,
    QueryEmbedding,
    ShapeMismatch,
    _check_shapes,
)

__all__ = [
    "cluster_interaction",
    "compose_alignment",
    "cross_cluster_annotate",
    "fuse",
    "intra_cluster_reason",
    "layer_norm_rows",
]

LAYER_NORM_EPS = 1e-6
ANNOTATION_BOOST = 1.0  # added to every entry in a marked row or column
PROP_THRESHOLD = 0.5  # marks propagate across entries above this share of the maximum alignment


def layer_norm_rows(array: np.ndarray) -> np.ndarray:
    """Normalizes each row to zero mean and unit variance (up to LAYER_NORM_EPS)."""
    mean = array.mean(axis=1, keepdims=True)
    var = array.var(axis=1, keepdims=True)
    return (array - mean) / np.sqrt(var + LAYER_NORM_EPS)


def cluster_interaction(grid: PatchGrid, clusters: ClusterSet) -> np.ndarray:
    """Row-stochastic cluster affinity from centroid inner products."""
    _check_shapes({"n": grid.count}, labels=(clusters.labels, ("n",)))
    centroids = np.stack(
        [grid.embeddings[clusters.members(c)].mean(axis=0) for c in range(clusters.k)]
    )
    return row_softmax(centroids @ centroids.T)


def compose_alignment(
    weights: np.ndarray,
    cluster_weights: np.ndarray,
    principles: PrincipleMatrices,
    clusters: ClusterSet,
) -> np.ndarray:
    """Combines the three principles into one cross-cluster alignment matrix.

    Each pair (i, j) in different clusters scores the principle-weighted sum
    of its three relation entries, scaled by the interaction weight of the
    two clusters; same-cluster pairs (the diagonal included) are zero.  All
    factors are non-negative, so the result is non-negative.
    """
    weights = np.asarray(weights, dtype=np.float64)
    cluster_weights = np.asarray(cluster_weights, dtype=np.float64)
    labels = clusters.labels
    _check_shapes(
        {"n": labels.shape[0], "k": clusters.k},
        weights=(weights, (3,)), principles=(principles.crosshair, ("n", "n")),
        cluster_weights=(cluster_weights, ("k", "k")),
    )
    # Accumulated through one scratch array, summing in the order
    # (w0 * crosshair + w1 * proximity) + w2 * similarity.  Labels are valid
    # indices, so mode="clip" clips nothing; it spares take's buffered output.
    alignment = np.multiply(principles.crosshair, weights[0])
    scratch = np.multiply(principles.proximity, weights[1])
    alignment += scratch
    alignment += np.multiply(principles.similarity, weights[2], out=scratch)
    alignment *= np.take(cluster_weights[labels], labels, axis=1, out=scratch, mode="clip")
    alignment[labels[:, None] == labels[None, :]] = 0.0
    return alignment


def intra_cluster_reason(
    grid: PatchGrid,
    clusters: ClusterSet,
    layers: tuple[AttentionLayerParams, ...],
) -> np.ndarray:
    """Refines embeddings with attention restricted to each patch's cluster.

    Per layer: scaled dot-product attention where every patch queries only
    its own cluster's keys and values, then a relu feed-forward, each step
    wrapped with a residual connection and a row layer norm.  Equivalent to
    dense attention with cross-cluster logits masked to -inf.
    """
    if not layers:
        raise DegenerateInput("at least one attention layer is required")
    _check_shapes(
        {"n": grid.count, "d": grid.dim}, labels=(clusters.labels, ("n",)),
        **{f"layers[{i}].w_q": (layer.w_q, ("d", layer.d_k)) for i, layer in enumerate(layers)},
    )
    x = grid.embeddings.copy()
    for layer in layers:
        queries = x @ layer.w_q
        keys = x @ layer.w_k
        values = x @ layer.w_v
        attended = np.empty_like(x)
        scale = 1.0 / np.sqrt(float(layer.d_k))
        for cluster_id in range(clusters.k):
            idx = clusters.members(cluster_id)
            scores = (queries[idx] @ keys[idx].T) * scale
            attended[idx] = row_softmax(scores) @ values[idx]
        x = layer_norm_rows(x + attended)
        hidden = np.maximum(x @ layer.ff_w1 + layer.ff_b1, 0.0)
        x = layer_norm_rows(x + hidden @ layer.ff_w2 + layer.ff_b2)
    return x


def cross_cluster_annotate(
    refined: np.ndarray,
    query: QueryEmbedding,
    alignment: np.ndarray,
    params: AlignParams,
) -> np.ndarray:
    """Boosts alignment rows/columns of the query's focus patches.

    The query scores every refined patch; the top_k scorers are marked (ties
    broken toward the lower index), and the mark propagates to any patch
    aligned with a marked one above PROP_THRESHOLD times the maximum
    alignment value.  Marked rows and columns gain ANNOTATION_BOOST;
    everything else is untouched, so the result dominates the input
    entrywise.
    """
    refined = np.asarray(refined, dtype=np.float64)
    _check_shapes(
        {}, refined=(refined, ("n", "d")), alignment=(alignment, ("n", "n")), q_global=(query.q_global, ("d",))
    )
    n = refined.shape[0]
    if params.top_k > n:
        raise ShapeMismatch(f"top_k={params.top_k} exceeds patch count {n}")
    scores = row_softmax(refined @ query.q_global)
    # Stable argsort of the negated scores: equal scores keep index order.
    ranked = np.argsort(-scores, kind="stable")
    marked = np.zeros(n, dtype=bool)
    marked[ranked[: params.top_k]] = True
    threshold = PROP_THRESHOLD * float(alignment.max()) if alignment.size else 0.0
    reachable = (alignment[marked, :] > threshold).any(axis=0)
    marked |= reachable
    annotated = np.array(alignment, dtype=np.float64, order="C")
    pair_marked = marked[:, None] | marked[None, :]
    np.add(annotated, ANNOTATION_BOOST, out=annotated, where=pair_marked)
    return annotated


def fuse(refined: np.ndarray, annotated: np.ndarray, params: FuseParams) -> np.ndarray:
    """Aggregates annotated context into each patch and layer-norms rows.

    The context of patch i is the annotated-alignment weighted sum of
    refined embeddings; the residual sum is normalized per row to zero mean
    and unit variance before the affine (gamma, beta) is applied.
    """
    refined = np.asarray(refined, dtype=np.float64)
    _check_shapes({}, refined=(refined, ("n", "d")), annotated=(annotated, ("n", "n")), gamma=(params.gamma, ("d",)))
    return params.gamma * layer_norm_rows(refined + annotated @ refined) + params.beta

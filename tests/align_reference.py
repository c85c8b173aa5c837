"""Independent references for the alignment math.

dense_masked_refine is written from the definition: dense scaled dot-product
attention whose cross-cluster logits are forced to -inf, followed by the same
residual, feed-forward, and row layer-norm steps. Agreement with the
restricted per-cluster implementation is the correctness oracle.

greedy_average_linkage is the plain average-linkage loop that finds every
merge with one argmin over the whole linkage matrix. cluster_patches must
give the same labels, ties included.
"""

from __future__ import annotations

import numpy as np


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    peak = logits.max(axis=1, keepdims=True)
    weights = np.exp(logits - peak)
    return weights / weights.sum(axis=1, keepdims=True)


def _norm_rows(x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    mu = x.mean(axis=1, keepdims=True)
    sigma2 = x.var(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(sigma2 + eps)


def dense_masked_refine(embeddings: np.ndarray, labels: np.ndarray, layers) -> np.ndarray:
    """Full-matrix attention with an additive -inf mask on cross-cluster pairs."""
    x = np.array(embeddings, dtype=np.float64)
    same = labels[:, None] == labels[None, :]
    for layer in layers:
        q = x @ layer.w_q
        k = x @ layer.w_k
        v = x @ layer.w_v
        logits = (q @ k.T) / np.sqrt(float(layer.d_k))
        logits = np.where(same, logits, -np.inf)
        attended = _softmax_rows(logits) @ v
        x = _norm_rows(x + attended)
        hidden = np.maximum(x @ layer.ff_w1 + layer.ff_b1, 0.0)
        x = _norm_rows(x + hidden @ layer.ff_w2 + layer.ff_b2)
    return x


def greedy_average_linkage(
    pair_distances: np.ndarray, linkage_threshold: float, k_max: int
) -> tuple[np.ndarray, int]:
    """Labels and cluster count, one full-matrix argmin per merge."""
    n = len(pair_distances)
    members: list[list[int]] = [[i] for i in range(n)]
    sizes = np.ones(n)
    # linkage[i, j] is the average pairwise distance between clusters i and j;
    # retired clusters are marked inf so argmin never picks them.
    linkage = pair_distances.copy()
    np.fill_diagonal(linkage, np.inf)
    alive = n

    while alive > 1:
        flat = int(np.argmin(linkage))
        i, j = divmod(flat, linkage.shape[1])
        if i > j:
            i, j = j, i
        closest = linkage[i, j]
        if not np.isfinite(closest):
            break
        if alive <= k_max and closest > linkage_threshold:
            break
        # Lance-Williams update for average linkage: the merged cluster's
        # distance to any other is the size-weighted mean of the parts'.
        combined = (sizes[i] * linkage[i, :] + sizes[j] * linkage[j, :]) / (sizes[i] + sizes[j])
        linkage[i, :] = combined
        linkage[:, i] = combined
        linkage[i, i] = np.inf
        linkage[j, :] = np.inf
        linkage[:, j] = np.inf
        members[i].extend(members[j])
        members[j] = []
        sizes[i] += sizes[j]
        alive -= 1

    survivors = sorted((group for group in members if group), key=min)
    labels = np.empty(n, dtype=np.int64)
    for cluster_id, group in enumerate(survivors):
        labels[group] = cluster_id
    return labels, len(survivors)

"""Agglomerative patch clustering under cosine distance.

Average linkage, implemented directly rather than via a library so that
tie-breaking is pinned down: among equally close cluster pairs the
lexicographically smallest (i, j) merges first, and final cluster ids are
assigned by each cluster's smallest member index.  Merging is forced while
more than k_max clusters remain, then continues only while the closest pair
is within linkage_threshold, so the result never has more than k_max
clusters.

Each merge is the one a row-major argmin over the whole linkage matrix would
pick, found without that full scan.  Every row caches nearest[r], its first
argmin, and bound[r], a lower bound on its minimum that is exact while
fresh[r] is set.  The first row with the least bound either is fresh, and
then holds the global minimum before any other row does, or is rescanned
and the pick repeats.  A merge of i and j touches only columns i and j, so
the other rows keep their bounds and only compare them with their new
distance to i.  Average linkage is reducible: a merged cluster is never
closer to a third than the nearer of its parts was, so a bound stays a
bound.  A distance that the Lance-Williams rounding puts below a row's
bound makes that row fresh at i, and row i itself is rescanned before the
next pick, so the bounds hold in floating point too.

Nearest-neighbour-chain clustering (Müllner, arXiv:1109.2378) needs fewer
scans still, but it merges reciprocal nearest pairs out of height order.
Sorting its merges by (height, i, j) afterwards gave labels different from
the greedy order on 12 of 1,000 grids with many tied distances, so it would
break the pinned tie-break.
"""

from __future__ import annotations

import numpy as np

from .types import ClusterSet, DegenerateInput, PatchGrid

__all__ = ["cluster_patches", "cosine_distances"]

DEFAULT_LINKAGE_THRESHOLD = 0.35
DEFAULT_K_MAX = 12


def _cosine_similarity(embeddings: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity clipped to [-1, 1]; zero-norm rows are rejected."""
    norms = np.linalg.norm(embeddings, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateInput("cannot take the cosine of a zero-norm embedding")
    unit = embeddings / norms[:, None]
    similarity = unit @ unit.T
    return np.clip(similarity, -1.0, 1.0, out=similarity)


def cosine_distances(embeddings: np.ndarray) -> np.ndarray:
    """Pairwise cosine distance matrix; zero-norm rows are rejected."""
    distances = _cosine_similarity(embeddings)
    np.subtract(1.0, distances, out=distances)
    np.fill_diagonal(distances, 0.0)
    return distances


def cluster_patches(
    grid: PatchGrid,
    linkage_threshold: float = DEFAULT_LINKAGE_THRESHOLD,
    k_max: int = DEFAULT_K_MAX,
) -> ClusterSet:
    """Groups patches by average-linkage agglomeration.

    Args:
        grid: Patch embeddings to cluster.
        linkage_threshold: Stop once the closest pair of clusters is farther
            apart than this (cosine distance).
        k_max: Hard cap on the number of clusters; merging continues past the
            threshold until the count is within the cap.

    Returns:
        A ClusterSet whose ids are ordered by smallest member index.
    """
    if k_max < 1:
        raise DegenerateInput("k_max must be positive")
    if np.isnan(linkage_threshold):
        raise DegenerateInput("linkage_threshold must be a number")
    n = grid.count
    # linkage[i, j] is the average pairwise distance between clusters i and j;
    # retired clusters are marked inf so no row's minimum ever lands on them.
    linkage = cosine_distances(grid.embeddings)
    np.fill_diagonal(linkage, np.inf)

    members: list[list[int]] = [[i] for i in range(n)]
    sizes = np.ones(n)
    nearest = linkage.argmin(axis=1)
    bound = linkage[np.arange(n), nearest]
    fresh = np.ones(n, dtype=bool)
    alive = n

    while alive > 1:
        i = int(bound.argmin())
        while not fresh[i]:
            nearest[i] = linkage[i].argmin()
            bound[i] = linkage[i, nearest[i]]
            fresh[i] = True
            i = int(bound.argmin())
        j = int(nearest[i])
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

        fresh[(nearest == i) | (nearest == j)] = False
        closer = combined < bound
        nearest[closer | ((combined == bound) & fresh & (nearest > i))] = i
        bound[closer] = combined[closer]
        fresh[closer] = True
        bound[j] = np.inf
        bound[i], fresh[i] = -np.inf, False  # the next pick rescans row i first

    survivors = sorted((group for group in members if group), key=min)
    labels = np.empty(n, dtype=np.int64)
    for cluster_id, group in enumerate(survivors):
        labels[group] = cluster_id
    return ClusterSet(labels)

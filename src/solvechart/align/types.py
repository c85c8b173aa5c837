"""Data types for the alignment core.

Arrays are float64 and marked read-only at construction so bundles can be
shared without defensive copies.  Patch positions default to row-major grid
coordinates but travel with the grid, which is what makes permutation
equivariance a testable property.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SolveChartError

__all__ = [
    "AlignParams",
    "AlignmentBundle",
    "AttentionLayerParams",
    "ClusterSet",
    "DegenerateInput",
    "FuseParams",
    "MlpParams",
    "PatchGrid",
    "PrincipleMatrices",
    "QueryEmbedding",
    "ShapeMismatch",
]


class ShapeMismatch(SolveChartError):
    """Array dimensions disagree with the declared grid or parameters."""


class DegenerateInput(SolveChartError):
    """Input admits no well-defined result (zero-norm embedding, empty grid)."""


def _freeze(array: np.ndarray) -> np.ndarray:
    out = np.asarray(array, dtype=np.float64)
    out.setflags(write=False)
    return out


def _require_finite(array: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(array)):
        raise DegenerateInput(f"{name} contains non-finite entries")


@dataclass(frozen=True)
class PatchGrid:
    """n = rows * cols patch embeddings in row-major order, with coordinates."""

    rows: int
    cols: int
    embeddings: np.ndarray  # (n, d)
    positions: np.ndarray | None = None  # (n, 2) row/col coordinates

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise DegenerateInput("grid must have at least one row and column")
        embeddings = _freeze(self.embeddings)
        if embeddings.ndim != 2:
            raise ShapeMismatch("embeddings must be a 2-d array")
        n = self.rows * self.cols
        if embeddings.shape[0] != n:
            raise ShapeMismatch(f"expected {n} embeddings, got {embeddings.shape[0]}")
        _require_finite(embeddings, "embeddings")
        object.__setattr__(self, "embeddings", embeddings)
        if self.positions is None:
            grid_positions = np.stack(
                [np.arange(n) // self.cols, np.arange(n) % self.cols], axis=1
            ).astype(np.float64)
        else:
            grid_positions = np.asarray(self.positions, dtype=np.float64)
            if grid_positions.shape != (n, 2):
                raise ShapeMismatch("positions must be an (n, 2) array")
            _require_finite(grid_positions, "positions")
        object.__setattr__(self, "positions", _freeze(grid_positions))

    @property
    def count(self) -> int:
        return self.rows * self.cols

    @property
    def dim(self) -> int:
        return int(self.embeddings.shape[1])

    def permuted(self, order: np.ndarray) -> "PatchGrid":
        """Reorders patches, keeping each patch's coordinates attached."""
        order = np.asarray(order, dtype=np.int64)
        return PatchGrid(self.rows, self.cols, self.embeddings[order], self.positions[order])


@dataclass(frozen=True)
class QueryEmbedding:
    q_global: np.ndarray  # (d,)

    def __post_init__(self) -> None:
        q_global = _freeze(self.q_global)
        if q_global.ndim != 1:
            raise ShapeMismatch("q_global must be a 1-d array")
        _require_finite(q_global, "q_global")
        object.__setattr__(self, "q_global", q_global)


@dataclass(frozen=True)
class ClusterSet:
    """A partition of patch ids: labels[i] in 0..k-1, every id used."""

    labels: np.ndarray  # (n,) integer ids
    k: int

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or labels.size == 0:
            raise ShapeMismatch("labels must be a non-empty 1-d array")
        if self.k < 1:
            raise DegenerateInput("k must be positive")
        present = np.unique(labels)
        if present[0] < 0 or present[-1] >= self.k or present.size != self.k:
            raise DegenerateInput("labels must use every id in 0..k-1")

    def members(self, cluster_id: int) -> np.ndarray:
        return np.flatnonzero(self.labels == cluster_id)


@dataclass(frozen=True)
class PrincipleMatrices:
    """The three pairwise-relation matrices, all with zero diagonals.

    crosshair: binary, same row or same column.
    proximity: binary, within a straight-line radius.
    similarity: row-stochastic softmax over pairwise cosine similarity.
    """

    crosshair: np.ndarray
    proximity: np.ndarray
    similarity: np.ndarray

    def __post_init__(self) -> None:
        shape = np.asarray(self.crosshair).shape
        for name in ("crosshair", "proximity", "similarity"):
            array = _freeze(getattr(self, name))
            if array.ndim != 2 or array.shape[0] != array.shape[1] or array.shape != shape:
                raise ShapeMismatch(f"{name} must be square and consistently sized")
            object.__setattr__(self, name, array)


@dataclass(frozen=True)
class MlpParams:
    """Two-layer relu MLP mapping a pooled embedding to three logits."""

    w1: np.ndarray  # (h, d)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (3, h)
    b2: np.ndarray  # (3,)

    def __post_init__(self) -> None:
        w1, b1, w2, b2 = (_freeze(a) for a in (self.w1, self.b1, self.w2, self.b2))
        if w1.ndim != 2 or b1.shape != (w1.shape[0],):
            raise ShapeMismatch("w1/b1 shapes disagree")
        if w2.shape != (3, w1.shape[0]) or b2.shape != (3,):
            raise ShapeMismatch("w2/b2 must map hidden width to exactly 3 outputs")
        for name, array in (("w1", w1), ("b1", b1), ("w2", w2), ("b2", b2)):
            object.__setattr__(self, name, array)


@dataclass(frozen=True)
class AttentionLayerParams:
    """One restricted-attention layer: projections, feed-forward, scale."""

    w_q: np.ndarray  # (d, d_k)
    w_k: np.ndarray  # (d, d_k)
    w_v: np.ndarray  # (d, d)
    ff_w1: np.ndarray  # (d, h)
    ff_b1: np.ndarray  # (h,)
    ff_w2: np.ndarray  # (h, d)
    ff_b2: np.ndarray  # (d,)
    d_k: int

    def __post_init__(self) -> None:
        arrays = {
            "w_q": _freeze(self.w_q),
            "w_k": _freeze(self.w_k),
            "w_v": _freeze(self.w_v),
            "ff_w1": _freeze(self.ff_w1),
            "ff_b1": _freeze(self.ff_b1),
            "ff_w2": _freeze(self.ff_w2),
            "ff_b2": _freeze(self.ff_b2),
        }
        d = arrays["w_q"].shape[0]
        if self.d_k < 1:
            raise DegenerateInput("d_k must be positive")
        if arrays["w_q"].shape != (d, self.d_k) or arrays["w_k"].shape != (d, self.d_k):
            raise ShapeMismatch("w_q/w_k must be (d, d_k)")
        if arrays["w_v"].shape != (d, d):
            raise ShapeMismatch("w_v must be (d, d)")
        hidden = arrays["ff_w1"].shape[1]
        if arrays["ff_w1"].shape != (d, hidden) or arrays["ff_b1"].shape != (hidden,):
            raise ShapeMismatch("ff_w1/ff_b1 shapes disagree")
        if arrays["ff_w2"].shape != (hidden, d) or arrays["ff_b2"].shape != (d,):
            raise ShapeMismatch("ff_w2/ff_b2 shapes disagree")
        for name, array in arrays.items():
            object.__setattr__(self, name, array)


@dataclass(frozen=True)
class FuseParams:
    """Row-wise layer-norm affine parameters for the fusion step."""

    gamma: np.ndarray  # (d,)
    beta: np.ndarray  # (d,)
    epsilon: float = 1e-6

    def __post_init__(self) -> None:
        gamma, beta = _freeze(self.gamma), _freeze(self.beta)
        if gamma.ndim != 1 or beta.shape != gamma.shape:
            raise ShapeMismatch("gamma/beta must be matching 1-d arrays")
        if self.epsilon <= 0:
            raise DegenerateInput("epsilon must be positive")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class AlignParams:
    """Everything learned or tuned that the pipeline consumes.

    prop_threshold is relative: marks propagate across alignment entries
    exceeding prop_threshold times the maximum alignment value.
    """

    mlp: MlpParams
    attention: tuple[AttentionLayerParams, ...]
    fuse: FuseParams
    top_k: int = 5
    annotation_boost: float = 1.0
    prop_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not self.attention:
            raise DegenerateInput("at least one attention layer is required")
        if self.top_k < 1:
            raise DegenerateInput("top_k must be positive")
        if self.annotation_boost <= 0:
            raise DegenerateInput("annotation_boost must be positive")
        if not 0.0 <= self.prop_threshold <= 1.0:
            raise DegenerateInput("prop_threshold must lie in [0, 1]")


@dataclass(frozen=True)
class AlignmentBundle:
    """All pipeline outputs, named by role.

    principle_weights: length-3 simplex weighting the principle matrices.
    cluster_weights: (k, k) row-stochastic cluster interaction matrix.
    alignment: (n, n) cross-cluster alignment scores, zero within clusters.
    annotated: alignment after query-driven annotation boosts.
    refined: (n, d) patch embeddings after intra-cluster reasoning.
    fused: (n, d) layer-normed combination of refined and annotated context.
    """

    clusters: ClusterSet
    principles: PrincipleMatrices
    principle_weights: np.ndarray
    cluster_weights: np.ndarray
    alignment: np.ndarray
    annotated: np.ndarray
    refined: np.ndarray
    fused: np.ndarray

    def __post_init__(self) -> None:
        for name in ("principle_weights", "cluster_weights", "alignment", "annotated", "refined", "fused"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    def to_json_dict(self) -> dict:
        return {
            "clusters": self.clusters.labels.tolist(),
            "principle_weights": self.principle_weights.tolist(),
            "cluster_weights": self.cluster_weights.tolist(),
            "alignment": self.alignment.tolist(),
            "annotated": self.annotated.tolist(),
            "refined": self.refined.tolist(),
            "fused": self.fused.tolist(),
        }

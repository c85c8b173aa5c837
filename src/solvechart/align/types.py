"""Data types for the alignment core.

Arrays are float64 and marked read-only at construction so bundles can be
shared without defensive copies.  Patch positions default to row-major grid
coordinates but travel with the grid, which is what makes permutation
equivariance a testable property.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

DEFAULT_TOP_K = 5  # patches marked by cross-cluster annotation


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


def _check_shapes(dims: dict[str, int], **arrays: tuple[np.ndarray, tuple[int | str, ...]]) -> None:
    """Checks each named array against a shape of ints and size names.

    A size name takes its value from dims or, failing that, from its first
    use; the first array that disagrees raises ShapeMismatch.
    """
    sizes = dict(dims)
    for name, (array, shape) in arrays.items():
        got = np.shape(array)
        if len(got) == len(shape):
            for size, actual in zip(shape, got):
                if isinstance(size, str):
                    sizes.setdefault(size, actual)
        wanted = tuple(sizes.get(size, size) for size in shape)
        if got != wanted:
            spec = ", ".join(str(s) if s == w else f"{s}={w}" for s, w in zip(shape, wanted))
            raise ShapeMismatch(f"{name} must have shape ({spec}), got {got}")


def _freeze_checked(obj: object, dims: dict[str, int], **shapes: tuple[int | str, ...]) -> None:
    """Stores each named field of a frozen dataclass read-only, then checks all their shapes."""
    for name in shapes:
        object.__setattr__(obj, name, _freeze(getattr(obj, name)))
    _check_shapes(dims, **{name: (getattr(obj, name), shape) for name, shape in shapes.items()})


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
        n = self.rows * self.cols
        if self.positions is None:
            index = np.arange(n)
            object.__setattr__(self, "positions", np.stack([index // self.cols, index % self.cols], axis=1))
        _freeze_checked(self, {"n": n}, embeddings=("n", "d"), positions=("n", 2))
        _require_finite(self.embeddings, "embeddings")
        _require_finite(self.positions, "positions")

    @property
    def count(self) -> int:
        return self.rows * self.cols

    @property
    def dim(self) -> int:
        return int(self.embeddings.shape[1])


@dataclass(frozen=True)
class QueryEmbedding:
    q_global: np.ndarray  # (d,)

    def __post_init__(self) -> None:
        _freeze_checked(self, {}, q_global=("d",))
        _require_finite(self.q_global, "q_global")


@dataclass(frozen=True)
class ClusterSet:
    """A partition of patch ids: labels[i] in 0..k-1, every id used; k is the count of distinct labels."""

    labels: np.ndarray  # (n,) integer ids
    k: int = field(init=False)

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or labels.size == 0:
            raise ShapeMismatch("labels must be a non-empty 1-d array")
        present = np.unique(labels)
        if present[0] != 0 or present[-1] != present.size - 1:
            raise DegenerateInput("labels must use every id in 0..k-1")
        object.__setattr__(self, "k", present.size)

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
        _freeze_checked(self, {}, crosshair=("n", "n"), proximity=("n", "n"), similarity=("n", "n"))


@dataclass(frozen=True)
class MlpParams:
    """Two-layer relu MLP mapping a pooled embedding to three logits."""

    w1: np.ndarray  # (h, d)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (3, h)
    b2: np.ndarray  # (3,)

    def __post_init__(self) -> None:
        _freeze_checked(self, {}, w1=("h", "d"), b1=("h",), w2=(3, "h"), b2=(3,))


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

    def __post_init__(self) -> None:
        if np.ndim(self.w_q) == 2 and np.shape(self.w_q)[1] == 0:
            raise DegenerateInput("d_k must be positive")
        _freeze_checked(
            self, {}, w_q=("d", "d_k"), w_k=("d", "d_k"), w_v=("d", "d"),
            ff_w1=("d", "h"), ff_b1=("h",), ff_w2=("h", "d"), ff_b2=("d",),
        )

    @property
    def d_k(self) -> int:
        return self.w_q.shape[1]


@dataclass(frozen=True)
class FuseParams:
    """Row-wise layer-norm affine parameters for the fusion step."""

    gamma: np.ndarray  # (d,)
    beta: np.ndarray  # (d,)

    def __post_init__(self) -> None:
        _freeze_checked(self, {}, gamma=("d",), beta=("d",))


@dataclass(frozen=True)
class AlignParams:
    """Everything learned or tuned that the pipeline consumes."""

    mlp: MlpParams
    attention: tuple[AttentionLayerParams, ...]
    fuse: FuseParams
    top_k: int = DEFAULT_TOP_K

    def __post_init__(self) -> None:
        if not self.attention:
            raise DegenerateInput("at least one attention layer is required")
        if self.top_k < 1:
            raise DegenerateInput("top_k must be positive")


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
        dims = {"n": self.clusters.labels.shape[0], "k": self.clusters.k}
        _check_shapes(dims, principles=(self.principles.crosshair, ("n", "n")))
        _freeze_checked(
            self, dims, principle_weights=(3,), cluster_weights=("k", "k"), alignment=("n", "n"),
            annotated=("n", "n"), refined=("n", "d"), fused=("n", "d"),
        )

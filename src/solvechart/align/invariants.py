"""Structural checks over a pipeline bundle.

check_bundle reports rather than raises: each named invariant maps to a
boolean, so ablated runs (which intentionally break some of them) can still
be inspected, and the shape checks stay meaningful on their own.
"""

from __future__ import annotations

import numpy as np

from .reason import layer_norm_rows
from .types import AlignmentBundle, PatchGrid

__all__ = ["check_bundle"]

SIMPLEX_ATOL = 1e-6
ROW_SUM_ATOL = 1e-6
LN_MEAN_ATOL = 1e-6
LN_VAR_ATOL = 1e-4
ROW_BLOCK = 64  # rows compared at a time by _dominates


def _shapes_consistent(grid: PatchGrid, bundle: AlignmentBundle) -> bool:
    # A bundle's shapes agree with each other by construction; refined pins its n and d.
    return bundle.refined.shape == (grid.count, grid.dim) and all(
        np.all(np.isfinite(array)) for array in (bundle.alignment, bundle.annotated, bundle.refined, bundle.fused)
    )


def _simplex_ok(weights: np.ndarray) -> bool:
    return bool(np.all(weights >= -SIMPLEX_ATOL) and abs(float(weights.sum()) - 1.0) <= SIMPLEX_ATOL)


def _row_stochastic_ok(matrix: np.ndarray) -> bool:
    return bool(
        np.all(matrix >= -ROW_SUM_ATOL)
        and np.allclose(matrix.sum(axis=1), 1.0, atol=ROW_SUM_ATOL)
    )


def _nullity_ok(bundle: AlignmentBundle) -> bool:
    labels = bundle.clusters.labels
    same_cluster = labels[:, None] == labels[None, :]
    # No same-cluster entry is nonzero (nan counts as nonzero), read in place rather than gathered.
    return not np.any(bundle.alignment, where=same_cluster)


def _dominates(annotated: np.ndarray, alignment: np.ndarray) -> bool:
    # Row blocks keep the shifted copy of alignment to a block, not a second n x n array.
    return all(
        np.all(annotated[start:start + ROW_BLOCK] >= alignment[start:start + ROW_BLOCK] - 1e-12)
        for start in range(0, alignment.shape[0], ROW_BLOCK)
    )


def _ln_rows_ok(bundle: AlignmentBundle) -> bool:
    # Recomputes the pre-affine normalized rows from the bundle's own parts.
    normalized = layer_norm_rows(bundle.refined + bundle.annotated @ bundle.refined)
    row_means = normalized.mean(axis=1)
    row_vars = normalized.var(axis=1)
    return bool(
        np.all(np.abs(row_means) <= LN_MEAN_ATOL) and np.all(np.abs(row_vars - 1.0) <= LN_VAR_ATOL)
    )


def check_bundle(grid: PatchGrid, bundle: AlignmentBundle) -> dict[str, bool]:
    """Evaluates every structural invariant; ablations show up as False.

    The bundle has already checked its own shapes and ClusterSet its
    partition, so "partition" asks only whether the labels cover this grid.
    """
    report = {
        "shapes": _shapes_consistent(grid, bundle),
        "partition": bundle.clusters.labels.shape == (grid.count,),
        "principle_weights_simplex": _simplex_ok(bundle.principle_weights),
        "cluster_weights_rows": _row_stochastic_ok(bundle.cluster_weights),
        "same_cluster_nullity": _nullity_ok(bundle),
        "alignment_nonnegative": bool(np.all(bundle.alignment >= 0.0)),
        "annotated_nonnegative": bool(np.all(bundle.annotated >= 0.0)),
        "annotated_dominates": _dominates(bundle.annotated, bundle.alignment),
        "layer_norm_rows": _ln_rows_ok(bundle),
    }
    return report

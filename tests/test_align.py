from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from align_reference import dense_masked_refine, greedy_average_linkage
from solvechart.align.cluster import cluster_patches, cosine_distances
from solvechart.align.invariants import check_bundle
from solvechart.align.pipeline import PipelineConfig, run_alignment_pipeline
from solvechart.align.principles import (
    build_principle_matrices,
    principle_weights,
    row_softmax,
)
from solvechart.align.reason import (
    ANNOTATION_BOOST,
    cluster_interaction,
    compose_alignment,
    cross_cluster_annotate,
    fuse,
    intra_cluster_reason,
)
from solvechart.align.synthetic import make_grid, make_params, make_query
from solvechart.align.types import (
    AlignParams,
    AlignmentBundle,
    AttentionLayerParams,
    ClusterSet,
    DegenerateInput,
    FuseParams,
    MlpParams,
    PatchGrid,
    PrincipleMatrices,
    QueryEmbedding,
    ShapeMismatch,
)


def grid_from(embeddings, rows=None, cols=None) -> PatchGrid:
    arr = np.asarray(embeddings, dtype=np.float64)
    n = arr.shape[0]
    if rows is None:
        rows, cols = 1, n
    return PatchGrid(rows, cols, arr)


def permuted_grid(grid: PatchGrid, order: np.ndarray) -> PatchGrid:
    """Reorders patches, keeping each patch's coordinates attached."""
    order = np.asarray(order, dtype=np.int64)
    return PatchGrid(grid.rows, grid.cols, grid.embeddings[order], grid.positions[order])


def zero_mlp(dim: int, b2=None) -> MlpParams:
    hidden = 4
    return MlpParams(
        w1=np.zeros((hidden, dim)),
        b1=np.zeros(hidden),
        w2=np.zeros((3, hidden)),
        b2=np.zeros(3) if b2 is None else np.asarray(b2, dtype=np.float64),
    )


# -- clustering -------------------------------------------------------------

def test_single_patch_single_cluster():
    clusters = cluster_patches(grid_from([[1.0, 0.0]]), 0.5, 4)
    assert clusters.k == 1
    assert clusters.labels.tolist() == [0]


def test_two_pairs_cluster_together():
    u = [1.0, 0.0, 0.0]
    v = [0.0, 1.0, 0.0]
    clusters = cluster_patches(grid_from([u, u, v, v]), 0.5, 4)
    assert clusters.k == 2
    labels = clusters.labels.tolist()
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]
    assert labels[0] != labels[2]
    # Canonical ids follow the smallest member index.
    assert labels[0] == 0 and labels[2] == 1


def test_zero_norm_embedding_degenerate():
    with pytest.raises(DegenerateInput):
        cluster_patches(grid_from([[1.0, 0.0], [0.0, 0.0]]), 0.5, 4)
    with pytest.raises(DegenerateInput):
        build_principle_matrices(grid_from([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DegenerateInput):
        build_principle_matrices(grid_from([[0.0, 0.0]]))


def test_k_max_caps_cluster_count():
    # Three mutually orthogonal directions stay separate under the
    # threshold, but the cap forces merges down to two clusters.
    e = np.eye(3)
    grid = grid_from([e[0], e[0], e[1], e[1], e[2], e[2]])
    capped = cluster_patches(grid, 0.5, 2)
    assert capped.k == 2
    free = cluster_patches(grid, 0.5, 12)
    assert free.k == 3


def test_threshold_stops_merging():
    u = [1.0, 0.0]
    w = [0.0, 1.0]  # cosine distance 1.0 from u
    grid = grid_from([u, u, w])
    tight = cluster_patches(grid, 0.5, 12)
    assert tight.k == 2
    loose = cluster_patches(grid, 1.5, 12)
    assert loose.k == 1


def test_cluster_determinism():
    grid = make_grid(4, 4, 8, seed=3)
    first = cluster_patches(grid, 0.35, 12)
    second = cluster_patches(grid, 0.35, 12)
    assert np.array_equal(first.labels, second.labels)


def test_cosine_distances_range():
    grid = make_grid(3, 3, 8, seed=1)
    distances = cosine_distances(grid.embeddings)
    assert distances.shape == (9, 9)
    assert np.allclose(np.diag(distances), 0.0)
    assert np.all(distances >= 0.0)
    assert np.all(distances <= 2.0 + 1e-12)


def test_nan_threshold_rejected():
    with pytest.raises(DegenerateInput, match="linkage_threshold"):
        cluster_patches(make_grid(2, 2, 4, seed=0), float("nan"), 4)


# -- clustering against the greedy reference --------------------------------

def assert_same_as_greedy(grid: PatchGrid, threshold: float, k_max: int) -> None:
    clusters = cluster_patches(grid, threshold, k_max)
    labels, k = greedy_average_linkage(cosine_distances(grid.embeddings), threshold, k_max)
    assert clusters.k == k, (threshold, k_max)
    assert clusters.labels.tolist() == labels.tolist(), (threshold, k_max)


@pytest.mark.parametrize("seed", range(60))
def test_cluster_matches_greedy_on_random_grids(seed):
    grid = make_grid(24, 24, 64, seed=seed)
    for threshold, k_max in [(0.35, 12), (0.0, 1), (2.0, 600), (0.5, 3)]:
        assert_same_as_greedy(grid, threshold, k_max)


def tie_heavy_grid(seed: int) -> PatchGrid:
    """A 1 x n grid whose embeddings repeat a few small-integer vectors, so
    many cluster pairs are exactly equally close."""
    rng = np.random.default_rng(seed)
    vocabulary = rng.integers(-2, 3, size=(int(rng.integers(2, 5)), int(rng.integers(2, 4))))
    vocabulary[~vocabulary.any(axis=1), 0] = 1
    n = int(rng.integers(2, 40))
    return PatchGrid(1, n, vocabulary[rng.integers(0, len(vocabulary), size=n)].astype(np.float64))


def test_cluster_matches_greedy_on_tie_heavy_grids():
    for seed in range(200):
        grid = tie_heavy_grid(seed)
        for threshold, k_max in [(0.35, 12), (0.0, 1), (2.0, 100), (0.5, 3), (1.0, 2)]:
            assert_same_as_greedy(grid, threshold, k_max)


small_integer_vectors = st.lists(st.integers(-3, 3), min_size=3, max_size=3).filter(any)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(small_integer_vectors, min_size=1, max_size=30),
    st.sampled_from([0.0, 0.1, 0.35, 0.5, 1.0, 2.0]),
    st.integers(1, 31),
)
def test_cluster_matches_greedy_on_small_integer_embeddings(vectors, threshold, k_max):
    assert_same_as_greedy(grid_from(vectors), threshold, k_max)


def scipy_partition(embeddings: np.ndarray, threshold: float, k_max: int) -> list[int]:
    """scipy's average linkage cut as cluster_patches cuts: merge while more
    than k_max clusters remain, then while the merge height is within the
    threshold.  Ids are ordered by smallest member."""
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    n = len(embeddings)
    parent = list(range(2 * n - 1))

    def root(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for step, (a, b, height, _size) in enumerate(hierarchy.linkage(embeddings, method="average", metric="cosine")):
        if n - step <= k_max and height > threshold:
            break
        parent[root(int(a))] = parent[root(int(b))] = n + step
    ids: dict[int, int] = {}
    return [ids.setdefault(root(i), len(ids)) for i in range(n)]


@pytest.mark.parametrize("seed", range(5))
def test_cluster_agrees_with_scipy_average_linkage(seed):
    grid = make_grid(24, 24, 64, seed=seed)
    for threshold, k_max in [(0.35, 12), (0.5, 3), (2.0, 600)]:
        labels = cluster_patches(grid, threshold, k_max).labels.tolist()
        assert labels == scipy_partition(grid.embeddings, threshold, k_max), (threshold, k_max)


# -- principle matrices -----------------------------------------------------

def test_crosshair_2x2_exact():
    grid = make_grid(2, 2, 4, seed=0)
    principles = build_principle_matrices(grid)
    expected = np.array(
        [
            [0, 1, 1, 0],
            [1, 0, 0, 1],
            [1, 0, 0, 1],
            [0, 1, 1, 0],
        ],
        dtype=np.float64,
    )
    assert np.array_equal(principles.crosshair, expected)


def test_proximity_2x2_all_within_default_radius():
    grid = make_grid(2, 2, 4, seed=0)
    principles = build_principle_matrices(grid)
    expected = np.ones((4, 4)) - np.eye(4)
    assert np.array_equal(principles.proximity, expected)


def test_proximity_respects_radius():
    grid = make_grid(1, 5, 4, seed=0)
    principles = build_principle_matrices(grid, radius=1.0)
    assert principles.proximity[0, 1] == 1.0
    assert principles.proximity[0, 2] == 0.0


def proximity_from_offset_tensor(positions: np.ndarray, radius: float) -> np.ndarray:
    """Proximity from the (n, n, 2) offset tensor, written from the definition."""
    deltas = positions[:, None, :] - positions[None, :, :]
    proximity = (np.sqrt((deltas ** 2).sum(axis=2)) <= radius).astype(np.float64)
    np.fill_diagonal(proximity, 0.0)
    return proximity


def test_proximity_matches_offset_tensor():
    rng = np.random.default_rng(4)
    grid = make_grid(6, 6, 8, seed=4)
    permuted = permuted_grid(grid, rng.permutation(grid.count))
    scattered = PatchGrid(6, 6, grid.embeddings, rng.normal(scale=4.0, size=(36, 2)))
    for case in (grid, permuted, scattered):
        for radius in (0.5, 1.0, 1.5, 3.0, 7.25):
            expected = proximity_from_offset_tensor(case.positions, radius)
            assert np.array_equal(build_principle_matrices(case, radius).proximity, expected)


def test_proximity_includes_a_pair_exactly_at_the_radius():
    grid = PatchGrid(1, 2, np.eye(2), positions=[[0.0, 0.0], [3.0, 4.0]])
    assert build_principle_matrices(grid, 5.0).proximity[0, 1] == 1.0
    assert build_principle_matrices(grid, 4.999).proximity[0, 1] == 0.0


def test_similarity_identical_embeddings_uniform():
    grid = grid_from([[1.0, 0.0]] * 3)
    principles = build_principle_matrices(grid)
    expected = np.array(
        [
            [0.0, 0.5, 0.5],
            [0.5, 0.0, 0.5],
            [0.5, 0.5, 0.0],
        ]
    )
    assert np.allclose(principles.similarity, expected)


def test_similarity_rows_stochastic_offdiag():
    grid = make_grid(3, 3, 8, seed=2)
    principles = build_principle_matrices(grid)
    assert np.allclose(principles.similarity.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(np.diag(principles.similarity), 0.0)


def test_principles_symmetric_binary():
    grid = make_grid(3, 4, 8, seed=5)
    principles = build_principle_matrices(grid)
    assert np.array_equal(principles.crosshair, principles.crosshair.T)
    assert np.array_equal(principles.proximity, principles.proximity.T)
    assert set(np.unique(principles.crosshair)) <= {0.0, 1.0}


def test_single_patch_similarity_zero():
    principles = build_principle_matrices(grid_from([[1.0, 0.0]]))
    assert principles.similarity.tolist() == [[0.0]]


@pytest.mark.parametrize("radius", [float("nan"), 0.0, -1.0])
def test_radius_must_be_positive(radius):
    with pytest.raises(DegenerateInput, match="radius"):
        build_principle_matrices(make_grid(2, 2, 4, seed=0), radius)


# -- principle weights ------------------------------------------------------

def test_weights_uniform_when_head_is_zero():
    grid = make_grid(2, 2, 6, seed=0)
    weights = principle_weights(grid, zero_mlp(6))
    assert np.allclose(weights, [1 / 3, 1 / 3, 1 / 3])


def test_weights_follow_bias():
    grid = make_grid(2, 2, 6, seed=0)
    weights = principle_weights(grid, zero_mlp(6, b2=[10.0, 0.0, 0.0]))
    expected = np.exp([10.0, 0.0, 0.0])
    expected /= expected.sum()
    assert np.allclose(weights, expected)
    assert weights[0] > 0.9999


def test_weights_shape_mismatch():
    grid = make_grid(2, 2, 6, seed=0)
    with pytest.raises(ShapeMismatch):
        principle_weights(grid, zero_mlp(5))


# -- cluster interaction ----------------------------------------------------

def test_interaction_single_cluster():
    grid = grid_from([[1.0, 0.0], [1.0, 0.0]])
    clusters = ClusterSet(np.zeros(2, dtype=np.int64))
    assert cluster_interaction(grid, clusters).tolist() == [[1.0]]


def test_interaction_orthogonal_centroids():
    grid = grid_from([[1.0, 0.0], [0.0, 1.0]])
    clusters = ClusterSet(np.array([0, 1], dtype=np.int64))
    weights = cluster_interaction(grid, clusters)
    expected_diag = np.exp(1.0) / (np.exp(1.0) + np.exp(0.0))
    assert np.allclose(np.diag(weights), expected_diag)
    assert np.allclose(weights.sum(axis=1), 1.0)
    assert np.allclose(weights[0, 0], 0.7310585786300049)


def test_interaction_identical_centroids_uniform():
    grid = grid_from([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    clusters = ClusterSet(np.array([0, 1, 2], dtype=np.int64))
    weights = cluster_interaction(grid, clusters)
    assert np.allclose(weights, 1 / 3)


def test_interaction_rejects_labels_shorter_than_grid():
    grid = grid_from([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ShapeMismatch, match=r"labels must have shape \(n=3\), got \(2,\)"):
        cluster_interaction(grid, ClusterSet(np.array([0, 1], dtype=np.int64)))


# -- composition ------------------------------------------------------------

def _two_cluster_setup():
    u = [1.0, 0.0, 0.0]
    v = [0.0, 1.0, 0.0]
    grid = PatchGrid(2, 2, np.array([u, u, v, v]))
    clusters = ClusterSet(np.array([0, 0, 1, 1], dtype=np.int64))
    principles = build_principle_matrices(grid)
    return grid, clusters, principles


def test_compose_crosshair_only_uniform_interaction():
    grid, clusters, principles = _two_cluster_setup()
    uniform = np.full((2, 2), 0.5)
    alignment = compose_alignment(np.array([1.0, 0.0, 0.0]), uniform, principles, clusters)
    labels = clusters.labels
    cross = labels[:, None] != labels[None, :]
    assert np.allclose(alignment[cross], 0.5 * principles.crosshair[cross])
    assert np.all(alignment[~cross] == 0.0)


def test_compose_all_same_cluster_is_zero():
    grid = grid_from([[1.0, 0.0], [1.0, 0.0]])
    clusters = ClusterSet(np.zeros(2, dtype=np.int64))
    principles = build_principle_matrices(grid)
    alignment = compose_alignment(
        np.array([0.3, 0.3, 0.4]), np.array([[1.0]]), principles, clusters
    )
    assert np.all(alignment == 0.0)


def test_compose_similarity_bounded_by_interaction():
    grid, clusters, principles = _two_cluster_setup()
    interaction = cluster_interaction(grid, clusters)
    alignment = compose_alignment(np.array([0.0, 0.0, 1.0]), interaction, principles, clusters)
    assert alignment.max() <= interaction.max() + 1e-12


def test_compose_rejects_bad_weight_count():
    grid, clusters, principles = _two_cluster_setup()
    with pytest.raises(ShapeMismatch):
        compose_alignment(np.ones(4), np.full((2, 2), 0.5), principles, clusters)


# -- intra-cluster attention ------------------------------------------------

def test_restricted_equals_masked_dense():
    grid = make_grid(4, 4, 12, seed=9)
    clusters = cluster_patches(grid, 0.35, 12)
    params = make_params(12, seed=9, layers=2)
    refined = intra_cluster_reason(grid, clusters, params.attention)
    reference = dense_masked_refine(grid.embeddings, clusters.labels, params.attention)
    assert np.allclose(refined, reference, atol=1e-6)


def test_singleton_clusters_match_dense_identity_weights():
    grid = make_grid(1, 3, 8, seed=4)
    clusters = ClusterSet(np.array([0, 1, 2], dtype=np.int64))
    params = make_params(8, seed=4, layers=1)
    refined = intra_cluster_reason(grid, clusters, params.attention)
    reference = dense_masked_refine(grid.embeddings, clusters.labels, params.attention)
    assert np.allclose(refined, reference, atol=1e-9)


def test_intra_output_shape():
    grid = make_grid(3, 3, 8, seed=1)
    clusters = cluster_patches(grid, 0.35, 12)
    params = make_params(8, seed=1, layers=2)
    refined = intra_cluster_reason(grid, clusters, params.attention)
    assert refined.shape == (9, 8)
    assert np.all(np.isfinite(refined))


def test_intra_shape_mismatch():
    grid = make_grid(2, 2, 6, seed=0)
    clusters = cluster_patches(grid, 0.35, 12)
    params = make_params(8, seed=0, layers=1)
    with pytest.raises(ShapeMismatch):
        intra_cluster_reason(grid, clusters, params.attention)


# -- annotation -------------------------------------------------------------

def _annotate_params(dim: int, top_k: int = 1) -> AlignParams:
    return make_params(dim, seed=0, layers=1, top_k=top_k)


def test_annotation_propagates_through_alignment():
    n, dim = 6, 4
    refined = np.zeros((n, dim))
    refined[2] = [10.0, 0.0, 0.0, 0.0]  # patch 2 wins the query scores
    query = QueryEmbedding(np.array([1.0, 0.0, 0.0, 0.0]))
    alignment = np.zeros((n, n))
    alignment[2, 5] = 1.0  # the only supra-threshold link
    alignment[2, 4] = 0.4  # below 0.5 * max
    params = _annotate_params(dim)
    annotated = cross_cluster_annotate(refined, query, alignment, params)
    marked = {2, 5}
    for i in range(n):
        for j in range(n):
            boost = ANNOTATION_BOOST if (i in marked or j in marked) else 0.0
            assert annotated[i, j] == pytest.approx(alignment[i, j] + boost)


def test_annotation_top_k_equals_n_boosts_everything():
    n, dim = 4, 4
    refined = np.eye(n, dim)
    query = QueryEmbedding(np.ones(dim))
    alignment = np.zeros((n, n))
    params = _annotate_params(dim, top_k=n)
    annotated = cross_cluster_annotate(refined, query, alignment, params)
    assert np.all(annotated == ANNOTATION_BOOST)


def test_annotation_tie_breaks_toward_low_index():
    n, dim = 5, 3
    refined = np.ones((n, dim))  # all scores equal
    query = QueryEmbedding(np.ones(dim))
    alignment = np.zeros((n, n))
    params = _annotate_params(dim, top_k=2)
    annotated = cross_cluster_annotate(refined, query, alignment, params)
    boosted_rows = {i for i in range(n) if np.any(annotated[i] > 0.0)}
    assert boosted_rows == {0, 1, 2, 3, 4}  # rows touch marks via columns too
    fully_boosted = {i for i in range(n) if np.all(annotated[i] > 0.0)}
    assert fully_boosted == {0, 1}


def test_annotation_monotone_dominance():
    grid = make_grid(3, 3, 8, seed=11)
    clusters = cluster_patches(grid, 0.35, 12)
    principles = build_principle_matrices(grid)
    alignment = compose_alignment(
        np.array([0.2, 0.3, 0.5]), cluster_interaction(grid, clusters), principles, clusters
    )
    params = make_params(8, seed=11, top_k=3)
    annotated = cross_cluster_annotate(grid.embeddings, make_query(8, seed=11), alignment, params)
    assert np.all(annotated >= alignment)


def test_align_params_hold_the_learned_arrays_and_top_k_only():
    assert [field.name for field in dataclasses.fields(AlignParams)] == ["mlp", "attention", "fuse", "top_k"]


def test_annotation_top_k_exceeding_n_rejected():
    refined = np.ones((2, 3))
    query = QueryEmbedding(np.ones(3))
    params = _annotate_params(3, top_k=5)
    with pytest.raises(ShapeMismatch):
        cross_cluster_annotate(refined, query, np.zeros((2, 2)), params)


def test_annotation_rejects_query_of_wrong_width():
    params = _annotate_params(3)
    with pytest.raises(ShapeMismatch, match="q_global"):
        cross_cluster_annotate(np.ones((2, 3)), QueryEmbedding(np.ones(4)), np.zeros((2, 2)), params)


# -- fusion -----------------------------------------------------------------

def test_fuse_zero_context_normalizes_rows():
    rng = np.random.default_rng(0)
    refined = rng.normal(size=(5, 8))
    out = fuse(refined, np.zeros((5, 5)), FuseParams(np.ones(8), np.zeros(8)))
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-6)
    assert np.allclose(out.var(axis=1), 1.0, atol=1e-4)


def test_fuse_gamma_zero_gives_beta():
    refined = np.random.default_rng(1).normal(size=(4, 6))
    beta = np.arange(6, dtype=np.float64)
    out = fuse(refined, np.zeros((4, 4)), FuseParams(np.zeros(6), beta))
    assert np.allclose(out, np.tile(beta, (4, 1)))


def test_fuse_matches_step_by_step_reference():
    rng = np.random.default_rng(5)
    refined = rng.normal(size=(4, 6))
    annotated = np.abs(rng.normal(size=(4, 4)))
    gamma = rng.normal(size=6)
    beta = rng.normal(size=6)
    eps = 1e-6
    out = fuse(refined, annotated, FuseParams(gamma, beta))

    expected = np.empty_like(refined)
    for i in range(4):
        combined = refined[i] + sum(annotated[i, j] * refined[j] for j in range(4))
        mu = combined.mean()
        sigma2 = ((combined - mu) ** 2).mean()
        expected[i] = gamma * (combined - mu) / np.sqrt(sigma2 + eps) + beta
    assert np.allclose(out, expected, atol=1e-9)


def test_fuse_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        fuse(np.ones((3, 4)), np.ones((2, 2)), FuseParams(np.ones(4), np.zeros(4)))


# -- pipeline ---------------------------------------------------------------

def test_pipeline_bundle_passes_all_invariants():
    grid = make_grid(3, 3, 16, seed=7)
    bundle = run_alignment_pipeline(
        grid, make_query(16, seed=7), make_params(16, seed=7), PipelineConfig()
    )
    report = check_bundle(grid, bundle)
    assert all(report.values()), report


def test_pipeline_noise_ablation_breaks_nullity_only_structurally():
    grid = make_grid(3, 3, 16, seed=7)
    config = PipelineConfig(disable_alignment=True, noise_seed=7)
    bundle = run_alignment_pipeline(grid, make_query(16, seed=7), make_params(16, seed=7), config)
    report = check_bundle(grid, bundle)
    assert report["shapes"] is True
    assert report["same_cluster_nullity"] is False
    repeat = run_alignment_pipeline(grid, make_query(16, seed=7), make_params(16, seed=7), config)
    assert np.array_equal(bundle.alignment, repeat.alignment)


def test_pipeline_intra_ablation_returns_raw_embeddings():
    grid = make_grid(3, 3, 16, seed=7)
    config = PipelineConfig(disable_intra=True)
    bundle = run_alignment_pipeline(grid, make_query(16, seed=7), make_params(16, seed=7), config)
    assert np.array_equal(bundle.refined, grid.embeddings)


def test_pipeline_cross_ablation_skips_annotation():
    grid = make_grid(3, 3, 16, seed=7)
    config = PipelineConfig(disable_cross=True)
    bundle = run_alignment_pipeline(grid, make_query(16, seed=7), make_params(16, seed=7), config)
    assert np.array_equal(bundle.annotated, bundle.alignment)


def test_pipeline_permutation_equivariance():
    grid = make_grid(3, 3, 12, seed=13)
    query = make_query(12, seed=13)
    params = make_params(12, seed=13)
    bundle = run_alignment_pipeline(grid, query, params, PipelineConfig())

    rng = np.random.default_rng(99)
    order = rng.permutation(grid.count)
    permuted_bundle = run_alignment_pipeline(permuted_grid(grid, order), query, params, PipelineConfig())

    assert np.allclose(permuted_bundle.alignment, bundle.alignment[order][:, order], atol=1e-8)
    assert np.allclose(permuted_bundle.annotated, bundle.annotated[order][:, order], atol=1e-8)
    assert np.allclose(permuted_bundle.refined, bundle.refined[order], atol=1e-8)
    assert np.allclose(permuted_bundle.fused, bundle.fused[order], atol=1e-8)


# -- working set ------------------------------------------------------------

# One align op (the pipeline plus check_bundle) at 24x24 and d=64 peaked at
# 5.6 patches x patches float64 arrays under numpy 2.4; the bundle itself
# holds five, and building them out of place peaked at 7.3.
MAX_OP_ARRAYS = 6.25


def test_one_align_op_holds_about_six_patch_arrays_at_its_peak():
    dim = 64
    params = make_params(dim, seed=5)

    def op(seed):
        grid = make_grid(24, 24, dim, seed=seed)
        check_bundle(grid, run_alignment_pipeline(grid, make_query(dim, seed=seed), params))

    op(1)  # numpy and BLAS set up their caches outside the measurement
    tracemalloc.start()
    try:
        op(2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (576 * 576 * 8) < MAX_OP_ARRAYS


def _arrays_in(*objects) -> list[np.ndarray]:
    """Every array among objects, looking inside dataclasses and tuples."""
    found = []
    for obj in objects:
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif dataclasses.is_dataclass(obj):
            found.extend(_arrays_in(*(getattr(obj, f.name) for f in dataclasses.fields(obj))))
        elif isinstance(obj, tuple):
            found.extend(_arrays_in(*obj))
    return found


def _stage_calls() -> dict:
    """Each stage that builds arrays in place, with writable copies of its array inputs."""
    grid, query, params = make_grid(6, 5, 8, seed=4), make_query(8, seed=4), make_params(8, seed=4, top_k=3)
    bundle = run_alignment_pipeline(grid, query, params)
    return {
        "cosine_distances": (cosine_distances, (grid.embeddings.copy(),)),
        "build_principle_matrices": (build_principle_matrices, (grid,)),
        "row_softmax": (row_softmax, (bundle.alignment.copy(),)),
        "compose_alignment": (
            compose_alignment,
            (bundle.principle_weights.copy(), bundle.cluster_weights.copy(), bundle.principles, bundle.clusters),
        ),
        "cross_cluster_annotate": (cross_cluster_annotate, (bundle.refined.copy(), query, bundle.alignment.copy(), params)),
        "fuse": (fuse, (bundle.refined.copy(), bundle.annotated.copy(), params.fuse)),
        "check_bundle": (check_bundle, (grid, bundle)),
    }


@pytest.mark.parametrize("stage", [
    "cosine_distances", "build_principle_matrices", "row_softmax", "compose_alignment",
    "cross_cluster_annotate", "fuse", "check_bundle",
])
def test_stage_leaves_writable_inputs_unchanged(stage):
    call, args = _stage_calls()[stage]
    arrays = _arrays_in(*args)
    for array in arrays:  # the types freeze their arrays; a write must not fail but show
        array.setflags(write=True)
    before = [array.tobytes() for array in arrays]
    call(*args)
    assert [array.tobytes() for array in arrays] == before


def test_row_softmax_of_integers_is_float64_and_leaves_them_alone():
    scores = np.array([[3, 1, 2, 2], [-5, 0, 7, 40], [0, 0, 0, 0]])
    kept = scores.copy()
    shifted = scores - scores.max(axis=-1, keepdims=True)
    expected = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
    got = row_softmax(scores)
    assert got.dtype == np.float64
    assert np.array_equal(got, expected)
    assert np.array_equal(scores, kept) and scores.dtype == kept.dtype


# -- invariant checker flags ------------------------------------------------

def test_check_bundle_detects_tampering():
    grid = make_grid(3, 3, 8, seed=21)
    bundle = run_alignment_pipeline(
        grid, make_query(8, seed=21), make_params(8, seed=21), PipelineConfig()
    )
    clean = check_bundle(grid, bundle)
    assert all(clean.values())

    tampered = bundle.alignment.copy()
    tampered[0, 0] = 0.5
    broken = dataclasses.replace(bundle, alignment=tampered)
    report = check_bundle(grid, broken)
    assert report["same_cluster_nullity"] is False


def test_check_bundle_flags_a_bundle_from_another_grid():
    grid = make_grid(3, 3, 8, seed=21)
    bundle = run_alignment_pipeline(grid, make_query(8, seed=21), make_params(8, seed=21), PipelineConfig())
    report = check_bundle(make_grid(2, 2, 8, seed=21), bundle)
    assert report["shapes"] is False
    assert report["partition"] is False


# -- the shape rule ---------------------------------------------------------

# Valid fields for each array type at n=4 (a 2x2 grid), d=3, h=5, d_k=2, k=2.
def _valid_fields() -> dict:
    ones = np.ones
    return {
        PatchGrid: dict(rows=2, cols=2, embeddings=ones((4, 3)), positions=np.zeros((4, 2))),
        QueryEmbedding: dict(q_global=ones(3)),
        PrincipleMatrices: dict(crosshair=ones((4, 4)), proximity=ones((4, 4)), similarity=ones((4, 4))),
        MlpParams: dict(w1=ones((5, 3)), b1=ones(5), w2=ones((3, 5)), b2=ones(3)),
        AttentionLayerParams: dict(
            w_q=ones((3, 2)), w_k=ones((3, 2)), w_v=ones((3, 3)), ff_w1=ones((3, 5)),
            ff_b1=ones(5), ff_w2=ones((5, 3)), ff_b2=ones(3),
        ),
        FuseParams: dict(gamma=ones(3), beta=ones(3)),
        AlignmentBundle: dict(
            clusters=ClusterSet(np.array([0, 0, 1, 1])),
            principles=PrincipleMatrices(ones((4, 4)), ones((4, 4)), ones((4, 4))),
            principle_weights=ones(3), cluster_weights=ones((2, 2)), alignment=ones((4, 4)),
            annotated=ones((4, 4)), refined=ones((4, 3)), fused=ones((4, 3)),
        ),
    }


@pytest.mark.parametrize("cls", list(_valid_fields()), ids=lambda cls: cls.__name__)
def test_type_accepts_its_valid_fields(cls):
    cls(**_valid_fields()[cls])


@pytest.mark.parametrize(
    "cls, field, shape",
    [
        (PatchGrid, "embeddings", (3, 3)),
        (PatchGrid, "embeddings", (4,)),
        (PatchGrid, "positions", (4, 3)),
        (PatchGrid, "positions", (5, 2)),
        (QueryEmbedding, "q_global", (3, 1)),
        (PrincipleMatrices, "crosshair", (4, 3)),
        (PrincipleMatrices, "proximity", (3, 3)),
        (PrincipleMatrices, "similarity", (5, 5)),
        (MlpParams, "w1", (6, 3)),
        (MlpParams, "w1", (15,)),
        (MlpParams, "b1", (6,)),
        (MlpParams, "w2", (3, 6)),
        (MlpParams, "w2", (4, 5)),
        (MlpParams, "b2", (4,)),
        (AttentionLayerParams, "w_q", (3, 3)),
        (AttentionLayerParams, "w_k", (4, 2)),
        (AttentionLayerParams, "w_v", (3, 4)),
        (AttentionLayerParams, "ff_w1", (4, 5)),
        (AttentionLayerParams, "ff_b1", (6,)),
        (AttentionLayerParams, "ff_w2", (5, 4)),
        (AttentionLayerParams, "ff_b2", (4,)),
        (FuseParams, "gamma", (3, 1)),
        (FuseParams, "beta", (4,)),
        (AlignmentBundle, "principles", (5, 5)),
        (AlignmentBundle, "principle_weights", (4,)),
        (AlignmentBundle, "cluster_weights", (2, 3)),
        (AlignmentBundle, "alignment", (4, 5)),
        (AlignmentBundle, "annotated", (5, 5)),
        (AlignmentBundle, "refined", (4,)),
        (AlignmentBundle, "fused", (4, 4)),  # (n, d + 1)
    ],
)
def test_type_rejects_a_wrongly_sized_field(cls, field, shape):
    fields = _valid_fields()[cls]
    if field == "principles":
        fields[field] = PrincipleMatrices(*(np.ones(shape),) * 3)
    else:
        fields[field] = np.ones(shape)
    # The first array to use a size name sets it, so a later array may be the one named.
    with pytest.raises(ShapeMismatch, match=r"^\w+ must have shape \(.*\), got \(.*\)$"):
        cls(**fields)


def test_shape_mismatch_names_the_array_the_wanted_shape_and_the_shape_it_got():
    fields = dict(w1=np.ones((5, 3)), b1=np.ones(5), w2=np.ones((3, 6)), b2=np.ones(3))
    with pytest.raises(ShapeMismatch) as excinfo:
        MlpParams(**fields)
    assert str(excinfo.value) == "w2 must have shape (3, h=5), got (3, 6)"


@pytest.mark.parametrize("labels", [[0, 2], [-1, 0], [1, 1]], ids=["gap", "negative", "no-zero"])
def test_cluster_set_refuses_labels_that_skip_an_id(labels):
    with pytest.raises(DegenerateInput, match=r"^labels must use every id in 0\.\.k-1$"):
        ClusterSet(np.array(labels))


def test_attention_layer_refuses_a_zero_width_query_projection():
    fields = _valid_fields()[AttentionLayerParams]
    fields["w_q"] = np.ones((3, 0))
    with pytest.raises(DegenerateInput, match=r"^d_k must be positive$"):
        AttentionLayerParams(**fields)


def test_cluster_count_and_key_width_read_back_from_the_arrays():
    assert ClusterSet(np.array([1, 0, 2, 1])).k == 3
    assert AttentionLayerParams(**_valid_fields()[AttentionLayerParams]).d_k == 2
    assert [layer.d_k for layer in make_params(9, seed=0, layers=2).attention] == [4, 4]

import warnings

import numpy as np
import pytest

import oracles
from tenhash import kernel
from tenhash.data import gen_gaussian_clusters
from tenhash.exceptions import (
    AnchorCountExceedsSamples,
    InconsistentSampleCounts,
    NonFiniteInput,
    NonPositiveBandwidth,
    TenhashError,
)
from tenhash.kernel import (
    estimate_bandwidth,
    kernelize,
    kernelize_views,
    sample_anchors,
    standardize_features,
)


def test_sample_anchors_all_samples(rng):
    view = rng.standard_normal((3, 8))
    anchors = sample_anchors(view, 8, seed=3)
    assert sorted(anchors.indices) == list(range(8))


def test_sample_anchors_single(rng):
    view = rng.standard_normal((2, 5))
    anchors = sample_anchors(view, 1, seed=4)
    assert anchors.indices.shape == (1,)
    assert 0 <= anchors.indices[0] < 5


def test_sample_anchors_matches_fisher_yates_oracle(rng):
    view = rng.standard_normal((6, 100))
    for seed in (0, 1, 17, 255):
        anchors = sample_anchors(view, 10, seed=seed)
        want = oracles.fisher_yates_sample(100, 10, seed)
        assert sorted(anchors.indices.tolist()) == sorted(want)


def test_sample_anchors_aligned_across_views(rng):
    a = sample_anchors(rng.standard_normal((3, 40)), 7, seed=9)
    b = sample_anchors(rng.standard_normal((11, 40)), 7, seed=9)
    assert np.array_equal(a.indices, b.indices)


def test_sample_anchors_rejects_excess(rng):
    with pytest.raises(AnchorCountExceedsSamples):
        sample_anchors(rng.standard_normal((2, 4)), 5, seed=0)


def test_sample_anchors_columns_copied(rng):
    view = rng.standard_normal((2, 6))
    anchors = sample_anchors(view, 3, seed=0)
    assert np.array_equal(anchors.anchors, view[:, anchors.indices])


def test_bandwidth_degenerate_fallback():
    view = np.ones((3, 4))
    anchors = sample_anchors(view, 1, seed=0)
    assert estimate_bandwidth(view, anchors) == 1.0


def test_bandwidth_tiny_example():
    view = np.array([[0.0, 2.0]])
    assert estimate_bandwidth(view, np.array([[0.0]])) == pytest.approx(2.0)


def test_bandwidth_matches_double_loop_oracle(rng):
    view = rng.standard_normal((5, 30))
    anchors = sample_anchors(view, 6, seed=1)
    got = estimate_bandwidth(view, anchors)
    want = oracles.double_loop_mean_sqdist(view, anchors.anchors)
    assert got == pytest.approx(want, abs=1e-10)


def test_kernelize_coincident_sample_is_exactly_one(rng):
    view = rng.standard_normal((4, 9))
    anchors = sample_anchors(view, 3, seed=2)
    graph = kernelize(view, anchors, delta=1.7)
    for j, idx in enumerate(anchors.indices):
        assert graph[j, idx] == 1.0


def test_squared_distances_match_oracle_on_offset_data(rng):
    # far from the origin the uncentred GEMM form loses ~1e-5 to cancellation
    view = rng.standard_normal((5, 40)) + 1e6
    anchors = sample_anchors(view, 7, seed=3)
    got = kernel._squared_distances(view, anchors.anchors, anchors.indices)
    want = oracles.double_loop_sqdist(view, anchors.anchors)
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_kernelize_duplicate_of_anchor_is_nearly_one(rng):
    view = rng.standard_normal((6, 10))
    anchors = sample_anchors(view, 3, seed=4)
    j = 1
    other = next(i for i in range(10) if i not in anchors.indices)
    view[:, other] = view[:, anchors.indices[j]]
    graph = kernelize(view, anchors, delta=0.5)
    assert graph[j, other] >= 1 - 1e-12


def test_kernelize_view_narrower_than_anchor_indices(rng):
    # an anchor set may be applied to other samples than it was drawn from
    anchors = sample_anchors(rng.standard_normal((3, 20)), 4, seed=8)
    view = rng.standard_normal((3, 5))
    graph = kernelize(view, anchors, delta=2.0)
    want = np.exp(-oracles.double_loop_sqdist(view, anchors.anchors) / 2.0)
    assert np.allclose(graph, want, rtol=1e-12, atol=0)


def test_kernelize_views_matches_explicit_difference_oracle():
    data = gen_gaussian_clusters(k=4, v=2, n=400, dims=[4, 4], sep=8, seed=1)
    got = kernelize_views(data.views, 100, seed=0, standardize=False)
    want = oracles.explicit_difference_graphs(data.views, 100, seed=0)
    assert isinstance(got, np.ndarray)
    assert got.dtype == float and got.shape == (2, 100, 400)
    for g, w in zip(got, want):
        assert np.allclose(g, w, rtol=0, atol=1e-12)


def test_kernelize_views_draws_anchors_once(rng, monkeypatch):
    views = [rng.standard_normal((d, 80)) for d in (20, 2, 7)]
    # each view kernelized against its own draw, as a per-view loop would
    want = []
    for view in views:
        prepared = standardize_features(view)
        anchors = sample_anchors(prepared, 10, seed=3)
        graph = kernel._squared_distances(prepared, anchors.anchors, anchors.indices)
        want.append(kernel._rbf(graph, kernel._bandwidth(graph)))
    calls = []

    def counting(*args):
        calls.append(args)
        return sample_anchors(*args)

    monkeypatch.setattr(kernel, "sample_anchors", counting)
    got = kernelize_views(views, 10, seed=3)
    assert len(calls) == 1
    assert np.array_equal(got, np.stack(want))


def test_kernelize_views_rejects_unequal_sample_counts(rng):
    with pytest.raises(InconsistentSampleCounts):
        kernelize_views([rng.standard_normal((3, 10)), rng.standard_normal((3, 9))], 4, seed=0)


def test_kernelize_views_checks_anchor_count_before_allocating(rng):
    views = [rng.standard_normal((2, 10)), rng.standard_normal((3, 10))]
    with pytest.raises(ValueError, match="anchor count must be >= 1, got -1"):
        kernelize_views(views, -1, seed=0)
    # a v x m x n stack for this m would take 149 GiB
    with pytest.raises(AnchorCountExceedsSamples,
                       match="asked for 1000000000 anchors from 10 samples"):
        kernelize_views(views, 10**9, seed=0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_kernelize_views_rejects_non_finite_naming_position(rng, monkeypatch, value):
    views = [rng.standard_normal((3, 10)), rng.standard_normal((4, 10))]
    views[1][2, 7] = value

    def no_distances(*args):
        raise AssertionError("distances computed before the input check")

    monkeypatch.setattr(kernel, "_squared_distances", no_distances)
    with pytest.raises(NonFiniteInput) as info:
        kernelize_views(views, 4, seed=0)
    assert isinstance(info.value, TenhashError)
    assert "view 2: feature 3, sample 8" in str(info.value)
    assert (info.value.view, info.value.feature, info.value.sample) == (2, 3, 8)


def overflow_views(rng):
    """Three 3 x 40 views, view 1 holding one entry of 1e200 in its
    feature 2: finite, but its square overflows."""
    views = [rng.standard_normal((3, 40)) for _ in range(3)]
    views[0][1, 5] = 1e200
    return views


def test_overflowing_spread_rejected_naming_view_and_feature(rng):
    views = overflow_views(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput, match="^feature 2: ") as info:
            standardize_features(views[0])
        assert (info.value.view, info.value.feature) == (None, 2)
        with pytest.raises(NonFiniteInput, match="^view 1: feature 2: ") as info:
            kernelize_views(views, 10, seed=0)
        assert (info.value.view, info.value.feature) == (1, 2)


def test_overflowing_distances_rejected_naming_view(rng):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonPositiveBandwidth, match="^view 1: kernel width is inf"):
            kernelize_views(overflow_views(rng), 10, seed=0, standardize=False)


def test_graph_depends_on_anchor_values_not_layout(rng):
    view = rng.standard_normal((7, 300))
    fancy = view[:, rng.choice(300, 40, replace=False)]
    c_order = np.ascontiguousarray(fancy)
    assert fancy.flags.f_contiguous and not fancy.flags.c_contiguous
    want = kernelize(view, c_order, delta=2.0)
    for anchors in (np.asfortranarray(c_order), fancy):
        assert np.array_equal(kernelize(view, anchors, delta=2.0), want)


def test_kernelize_scalar_example():
    graph = kernelize(np.array([[0.0]]), np.array([[2.0]]), delta=4.0)
    assert graph[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_kernelize_huge_bandwidth_limit(rng):
    view = rng.standard_normal((3, 6))
    anchors = sample_anchors(view, 2, seed=5)
    graph = kernelize(view, anchors, delta=1e9)
    assert np.all(np.abs(graph - 1.0) <= 1e-6)


def test_kernelize_rejects_nonpositive_delta(rng):
    view = rng.standard_normal((2, 3))
    anchors = sample_anchors(view, 1, seed=0)
    for bad in (0.0, -1.0):
        with pytest.raises(NonPositiveBandwidth):
            kernelize(view, anchors, delta=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kernelize_rejects_non_finite_delta(rng, bad):
    view = rng.standard_normal((2, 3))
    anchors = sample_anchors(view, 1, seed=0)
    with pytest.raises(NonPositiveBandwidth):
        kernelize(view, anchors, delta=bad)


def test_graph_entries_in_unit_interval_and_monotone(rng):
    view = rng.standard_normal((4, 20))
    anchors = sample_anchors(view, 5, seed=6)
    delta = estimate_bandwidth(view, anchors)
    graph = kernelize(view, anchors, delta)
    assert np.all(graph > 0) and np.all(graph <= 1)
    # strictly smaller entry for strictly larger squared distance
    sq = np.array([
        [np.sum((view[:, i] - anchors.anchors[:, j]) ** 2) for i in range(20)]
        for j in range(5)
    ])
    flat_sq = sq.ravel()
    flat_g = graph.ravel()
    order = np.argsort(flat_sq)
    for a, b in zip(order[:-1], order[1:]):
        if flat_sq[b] > flat_sq[a]:
            assert flat_g[b] < flat_g[a]


def test_permutation_equivariance(rng):
    view = rng.standard_normal((3, 12))
    anchors = sample_anchors(view, 4, seed=7)
    delta = 2.0
    graph = kernelize(view, anchors, delta)
    perm = rng.permutation(12)
    graph_perm = kernelize(view[:, perm], anchors, delta)
    assert np.array_equal(graph_perm, graph[:, perm])


def test_determinism(rng):
    view = rng.standard_normal((4, 25))
    first = kernelize_views([view], 6, seed=11)
    second = kernelize_views([view], 6, seed=11)
    assert np.array_equal(first[0], second[0])


def test_standardize_features(rng):
    view = rng.standard_normal((3, 50)) * np.array([[10.0], [0.1], [1.0]]) + 5
    out = standardize_features(view)
    assert np.allclose(out.mean(axis=1), 0, atol=1e-12)
    assert np.allclose(out.std(axis=1), 1, atol=1e-12)
    constant = np.full((1, 5), 3.0)
    assert np.allclose(standardize_features(constant), 0)

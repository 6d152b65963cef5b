import re
import warnings

import numpy as np
import pytest

import oracles
from tenhash import kernel
from tenhash.data import gen_gaussian_clusters
from tenhash.exceptions import (
    AnchorCountExceedsSamples,
    DimensionMismatch,
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


def distances_and_indices(view, m, seed):
    """The squared distances of ``view`` to the m anchors sample_anchors
    draws for it, and their sample indices. The distances are formed in a
    copy, since they overwrite the array they are given."""
    indices = sample_anchors(view.shape[1], m, seed)
    return kernel._squared_distances(view.copy(), indices), indices


def test_sample_anchors_all_samples():
    assert sorted(sample_anchors(8, 8, seed=3)) == list(range(8))


def test_sample_anchors_single():
    indices = sample_anchors(5, 1, seed=4)
    assert indices.shape == (1,)
    assert 0 <= indices[0] < 5


def test_sample_anchors_matches_fisher_yates_oracle():
    # the order, not only the set: anchor j is row j of every graph
    for n, m in [(1, 1), (9, 1), (30, 30), (100, 10), (800, 300), (20000, 1000)]:
        for seed in (0, 17, 2**40 + 3):
            want = oracles.fisher_yates_sample(n, m, seed)
            assert sample_anchors(n, m, seed=seed).tolist() == want


def test_sample_anchors_aligned_across_views(rng):
    views = [rng.standard_normal((d, 40)) for d in (3, 11)]
    indices = sample_anchors(40, 7, seed=9)
    # every view's graph is 1 at the same sample indices
    for graph in kernelize_views(views, 7, seed=9):
        assert np.all(graph[np.arange(7), indices] == 1.0)


def test_sample_anchors_rejects_excess():
    with pytest.raises(AnchorCountExceedsSamples, match="asked for 5 anchors from 4 samples"):
        sample_anchors(4, 5, seed=0)
    with pytest.raises(ValueError, match="anchor count must be >= 1, got 0"):
        sample_anchors(4, 0, seed=0)


def test_bandwidth_degenerate_fallback():
    sqdist, _ = distances_and_indices(np.ones((3, 4)), 1, seed=0)
    assert estimate_bandwidth(sqdist) == 1.0


def test_bandwidth_tiny_example():
    view = np.array([[0.0, 2.0]])
    assert estimate_bandwidth(kernel._squared_distances(view, np.array([0]))) == pytest.approx(2.0)


def test_bandwidth_matches_double_loop_oracle(rng):
    view = rng.standard_normal((5, 30))
    sqdist, indices = distances_and_indices(view, 6, seed=1)
    want = oracles.double_loop_mean_sqdist(view, view[:, indices])
    assert estimate_bandwidth(sqdist) == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("entry, mean", [(np.inf, "inf"), (np.nan, "nan"), (1e308, "inf")])
def test_bandwidth_rejects_overflowed_distances_without_warning(entry, mean):
    # finite entries of 1e308 overflow the sum the mean takes
    sqdist = np.array([[0.0, 1e308], [entry, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonPositiveBandwidth, match=f"^kernel width is {mean}: "):
            estimate_bandwidth(sqdist)


def test_kernelize_coincident_sample_is_exactly_one(rng):
    sqdist, indices = distances_and_indices(rng.standard_normal((4, 9)), 3, seed=2)
    graph = kernelize(sqdist, delta=1.7)
    for j, idx in enumerate(indices):
        assert graph[j, idx] == 1.0


def test_squared_distances_match_oracle_on_offset_data(rng):
    # far from the origin the uncentred GEMM form loses ~1e-5 to cancellation
    view = rng.standard_normal((5, 40)) + 1e6
    got, indices = distances_and_indices(view, 7, seed=3)
    want = oracles.double_loop_sqdist(view, view[:, indices])
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_kernelize_duplicate_of_anchor_is_nearly_one(rng):
    view = rng.standard_normal((6, 10))
    indices = sample_anchors(10, 3, seed=4)
    j = 1
    other = next(i for i in range(10) if i not in indices)
    view[:, other] = view[:, indices[j]]
    graph = kernelize(kernel._squared_distances(view, indices), delta=0.5)
    assert graph[j, other] >= 1 - 1e-12


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
        sqdist, _ = distances_and_indices(standardize_features(view), 10, seed=3)
        want.append(kernelize(sqdist, estimate_bandwidth(sqdist)))
    calls = {}

    def counting(name):
        original = getattr(kernel, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(kernel, name, counted)

    for name in ("sample_anchors", "_squared_distances", "estimate_bandwidth", "kernelize"):
        counting(name)
    got = kernelize_views(views, 10, seed=3)
    assert calls == {
        "sample_anchors": 1, "_squared_distances": 3, "estimate_bandwidth": 3, "kernelize": 3,
    }
    assert np.array_equal(got, np.stack(want))


def test_kernelize_views_rejects_unequal_sample_counts(rng):
    with pytest.raises(InconsistentSampleCounts):
        kernelize_views([rng.standard_normal((3, 10)), rng.standard_normal((3, 9))], 4, seed=0)


def refuse_anchor_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("anchors drawn before the view list was checked")

    monkeypatch.setattr(kernel, "sample_anchors", no_draw)


def test_kernelize_views_rejects_empty_view_list(monkeypatch):
    refuse_anchor_draw(monkeypatch)
    with pytest.raises(InconsistentSampleCounts, match="^need at least one view$"):
        kernelize_views([], 2, seed=0)


@pytest.mark.parametrize("shape", [(), (10,), (2, 10, 10)])
def test_kernelize_views_rejects_view_that_is_not_2d(rng, monkeypatch, shape):
    refuse_anchor_draw(monkeypatch)
    for bad in (0, 1):
        views = [rng.standard_normal((3, 10)) for _ in range(2)]
        views[bad] = rng.standard_normal(shape)
        with pytest.raises(DimensionMismatch,
                           match=rf"^view {bad + 1} must be 2-D .*{re.escape(str(shape))}$"):
            kernelize_views(views, 2, seed=0)


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
    # an F-ordered view (as X.T gives for an n x d array X) must give the
    # same graph as a C-ordered copy of its values
    for d in (7, 50, 400):
        view = rng.standard_normal((d, 300))
        x = np.ascontiguousarray(view.T)
        assert x.T.flags.f_contiguous and not x.T.flags.c_contiguous
        for standardize in (True, False):
            want = kernelize_views([view], 40, seed=1, standardize=standardize)
            for other in (np.asfortranarray(view), x.T):
                got = kernelize_views([other], 40, seed=1, standardize=standardize)
                assert np.array_equal(got, want), (d, standardize)


def test_kernelize_scalar_example():
    graph = kernelize(np.array([[4.0]]), 4.0)
    assert graph[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_kernelize_huge_bandwidth_limit(rng):
    sqdist, _ = distances_and_indices(rng.standard_normal((3, 6)), 2, seed=5)
    graph = kernelize(sqdist, delta=1e9)
    assert np.all(np.abs(graph - 1.0) <= 1e-6)


def test_kernelize_rejects_nonpositive_delta(rng):
    sqdist, _ = distances_and_indices(rng.standard_normal((2, 3)), 1, seed=0)
    for bad in (0.0, -1.0):
        with pytest.raises(NonPositiveBandwidth):
            kernelize(sqdist, delta=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kernelize_rejects_non_finite_delta(rng, bad):
    sqdist, _ = distances_and_indices(rng.standard_normal((2, 3)), 1, seed=0)
    with pytest.raises(NonPositiveBandwidth):
        kernelize(sqdist, delta=bad)


def test_graph_entries_in_unit_interval_and_monotone(rng):
    view = rng.standard_normal((4, 20))
    sqdist, indices = distances_and_indices(view, 5, seed=6)
    graph = kernelize(sqdist, estimate_bandwidth(sqdist))
    assert np.all(graph > 0) and np.all(graph <= 1)
    # strictly smaller entry for strictly larger squared distance
    sq = np.array([
        [np.sum((view[:, i] - view[:, indices[j]]) ** 2) for i in range(20)]
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
    sqdist, indices = distances_and_indices(view, 4, seed=7)
    perm = rng.permutation(12)
    # sample perm[i] is column i of the permuted view, so anchor column
    # indices[j] moves to inv[indices[j]]
    inv = np.argsort(perm)
    permuted = kernel._squared_distances(view[:, perm], inv[indices])
    assert np.array_equal(permuted, sqdist[:, perm])


@pytest.mark.parametrize("standardize", [True, False])
def test_kernelize_views_peak_memory_and_views_untouched(standardize):
    # each view's distances are centred and squared in the one array
    # kernelize_views owns for it (the standardized view, or a copy), so
    # above the graphs it holds at most two views of the largest size;
    # the caller's views are never written
    import tracemalloc

    rng = np.random.default_rng(5)
    views = [rng.standard_normal((d, 800)) for d in (400, 50, 10)]
    copies = [view.copy() for view in views]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        graphs = kernelize_views(views, 300, seed=0, standardize=standardize)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= graphs.nbytes + 2 * views[0].nbytes
    for view, copy in zip(views, copies):
        assert view.tobytes() == copy.tobytes()


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

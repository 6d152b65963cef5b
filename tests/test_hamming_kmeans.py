import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tenhash import hamming_kmeans
from tenhash.exceptions import DimensionMismatch, InvalidK, NonSignCodes, TenhashError
from tenhash.hamming_kmeans import (
    ClusterModel,
    assign_step,
    binary_kmeans,
    binary_kmeans_restarts,
    centroid_step,
    quantization_error,
    sign_pm1,
)


def random_codes(rng, l, n):
    return sign_pm1(rng.standard_normal((l, n)))


# ---------------------------------------------------------------------------
# sign


def where_sign(x):
    """The select form of the tie rule sign(0) = +1."""
    return np.where(np.asarray(x) >= 0, 1.0, -1.0)


def test_sign_edge_values_match_select():
    tiny = np.nextafter(0.0, 1.0)  # 5e-324
    x = np.array([-0.0, 0.0, np.nan, -np.inf, np.inf, tiny, -tiny])
    got = sign_pm1(x)
    assert np.array_equal(got, where_sign(x))
    assert got.tolist() == [1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0]


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, bool])
def test_sign_float64_shape_kept_input_untouched(rng, dtype):
    x = (rng.standard_normal((2, 3, 5)) * 3).astype(dtype)
    before = x.copy()
    got = sign_pm1(x)
    assert got.dtype == np.float64
    assert got.shape == x.shape
    assert np.array_equal(got, where_sign(x))
    assert np.array_equal(x, before)


# ---------------------------------------------------------------------------
# hamming distance


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=64))
def test_hamming_inner_product_identity(pairs):
    # H = (l - b.c) / 2, by which assign_step ranks centroids, and the
    # 4 per disagreeing bit of quantization_error, against a direct count
    b = np.array([1.0 if x else -1.0 for x, _ in pairs])
    c = np.array([1.0 if y else -1.0 for _, y in pairs])
    assert oracles.hamming_count(b, c) == (len(pairs) - b @ c) / 2
    model = ClusterModel(centroids=c[:, None], labels=np.zeros(1, dtype=int))
    assert quantization_error(b[:, None], model) == 4 * oracles.hamming_count(b, c)


# ---------------------------------------------------------------------------
# assignment step


def test_assign_exact_match(rng):
    codes = random_codes(rng, 6, 10)
    centroids = codes[:, [3, 7]].copy()
    assigned = assign_step(codes, centroids)
    assert assigned[3] == 0
    assert assigned[7] == 1


def test_assign_tie_goes_to_lowest_index():
    centroids = np.array([[1.0, -1.0], [1.0, -1.0]])
    sample = np.array([[1.0], [-1.0]])  # distance 1 to both
    assert assign_step(sample, centroids).tolist() == [0]


def test_assign_matches_exhaustive_oracle(rng):
    codes = random_codes(rng, 4, 6)
    centroids = random_codes(rng, 4, 2)
    want = oracles.exhaustive_nearest_centroid(codes, centroids)
    assert np.array_equal(assign_step(codes, centroids), want)


def test_assign_columns_one_hot(rng):
    for _ in range(10):
        codes = random_codes(rng, 5, 12)
        centroids = random_codes(rng, 5, 3)
        assigned = assign_step(codes, centroids)
        # exactly one integer cluster index per sample
        assert assigned.shape == (12,)
        assert np.issubdtype(assigned.dtype, np.integer)
        assert set(np.unique(assigned)) <= {0, 1, 2}


# ---------------------------------------------------------------------------
# centroid step


def test_centroid_single_cluster_identical_codes():
    code = np.array([[1.0], [-1.0], [1.0]])
    codes = np.repeat(code, 5, axis=1)
    assert np.array_equal(centroid_step(codes, np.zeros(5, dtype=int), 1), code)


def test_centroid_tie_bit_positive():
    codes = np.array([[1.0, -1.0]])
    assert centroid_step(codes, np.zeros(2, dtype=int), 1)[0, 0] == 1.0


def test_centroid_matches_exhaustive_oracle(rng):
    codes = random_codes(rng, 3, 8)
    assign = rng.integers(0, 2, size=8)
    got = centroid_step(codes, assign, 2)
    cost_got = sum(
        oracles.hamming_count(codes[:, i], got[:, assign[i]]) for i in range(8)
    )
    _, best_cost = oracles.best_centroids_exhaustive(codes, assign, 3, 2)
    assert cost_got == best_cost


def test_centroid_empty_cluster_reseeded(rng):
    codes = random_codes(rng, 4, 6)
    assigned = np.array([0, 0, 0, 1, 1, 1])  # cluster 2 empty
    centroids = centroid_step(codes, assigned, 3)
    # reseeded centroid must be one of the sample codes
    assert any(
        np.array_equal(centroids[:, 2], codes[:, i]) for i in range(6)
    )


# ---------------------------------------------------------------------------
# full clustering


def test_kmeans_k1_majority():
    rng = np.random.default_rng(33)
    codes = random_codes(rng, 5, 9)
    model = binary_kmeans(codes, 1, seed=0)
    want = sign_pm1(codes.sum(axis=1))
    assert np.array_equal(model.centroids[:, 0], want)
    assert np.all(model.labels == 0)


def test_kmeans_k_equals_n_distinct():
    rng = np.random.default_rng(34)
    codes = np.unique(random_codes(rng, 6, 40), axis=1)
    n = codes.shape[1]
    model = binary_kmeans(codes, n, seed=1)
    assert quantization_error(codes, model) == 0.0
    assert len(set(model.labels.tolist())) == n


def test_kmeans_two_well_separated_groups():
    l, n = 8, 20
    codes = np.hstack([np.ones((l, n // 2)), -np.ones((l, n // 2))])
    model = binary_kmeans(codes, 2, seed=5)
    got = model.labels
    assert len(set(got[: n // 2].tolist())) == 1
    assert len(set(got[n // 2:].tolist())) == 1
    assert got[0] != got[-1]


def test_kmeans_invalid_k(rng):
    codes = random_codes(rng, 3, 5)
    for bad in (0, 6):
        with pytest.raises(InvalidK):
            binary_kmeans(codes, bad)


@pytest.mark.parametrize("call, error, message", [
    (lambda codes: binary_kmeans_restarts(codes, 2.0), InvalidK, "k must be an integer, got 2.0"),
    (lambda codes: binary_kmeans(codes, np.float64(2)), InvalidK,
     "k must be an integer, got np.float64(2.0)"),
    (lambda codes: binary_kmeans_restarts(codes, "2"), InvalidK, "k must be an integer, got '2'"),
    (lambda codes: binary_kmeans_restarts(codes, 2, restarts=2.0), ValueError,
     "restarts must be an integer, got 2.0"),
    (lambda codes: binary_kmeans_restarts(codes, 2, restarts=1.5), ValueError,
     "restarts must be an integer, got 1.5"),
], ids=["k_float", "k_numpy_float", "k_str", "restarts_float", "restarts_fraction"])
def test_kmeans_rejects_non_integer_counts(rng, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(random_codes(rng, 3, 5))


def test_kmeans_takes_numpy_integer_counts(rng):
    codes = random_codes(rng, 3, 5)
    model = binary_kmeans_restarts(codes, np.int64(2), restarts=np.int32(3), seed=1)
    assert model.labels.tolist() == binary_kmeans_restarts(codes, 2, 3, 1).labels.tolist()


def test_kmeans_objective_nonincreasing(rng):
    for trial in range(10):
        codes = random_codes(rng, 6, 30)
        k = 4
        seeded = np.random.default_rng(trial)
        chosen = seeded.choice(30, size=k, replace=False)
        centroids = codes[:, chosen].copy()
        assigned = assign_step(codes, centroids)
        prev = quantization_error(codes, ClusterModel(centroids, assigned))
        for _ in range(20):
            centroids = centroid_step(codes, assigned, k)
            assigned = assign_step(codes, centroids)
            cur = quantization_error(codes, ClusterModel(centroids, assigned))
            assert cur <= prev + 1e-9
            prev = cur


def test_kmeans_assignment_always_one_hot(rng):
    codes = random_codes(rng, 5, 25)
    model = binary_kmeans(codes, 3, seed=2)
    # exactly one cluster index in 0..k-1 per sample
    assert model.labels.shape == (25,)
    assert set(np.unique(model.labels)) <= {0, 1, 2}
    assert np.all(np.isin(model.centroids, (-1.0, 1.0)))


def test_kmeans_deterministic(rng):
    codes = random_codes(rng, 6, 30)
    a = binary_kmeans(codes, 3, seed=9)
    b = binary_kmeans(codes, 3, seed=9)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.labels, b.labels)


# 10 distinct 4-bit codes, one per column
TEN_CODES = np.array(
    [[1.0 if (c >> b) & 1 else -1.0 for c in range(10)] for b in range(4)])


def skewed_codes(rng):
    """One code on 191 of 200 samples and 9 singletons: 10 distinct
    codes, nearly every k=8 sample draw repeats the common one."""
    return TEN_CODES[:, rng.permutation(np.r_[np.zeros(191, int), 1:10])]


def test_kmeans_seeding_matches_unique_oracle(rng):
    # 10 distinct 4-bit codes over 60 samples: k=6 seeds with the first 6
    # distinct codes of a seeded walk, k=12 has fewer distinct codes than
    # clusters and seeds with the first occurrences; the skewed input has
    # 10 distinct codes that a k=8 walk must find past the common one
    cases = [(TEN_CODES[:, rng.permutation(np.arange(60) % 10)], k) for k in (6, 12)]
    cases.append((skewed_codes(rng), 8))
    for codes, k in cases:
        for seed in range(8):
            model = binary_kmeans(codes, k, seed=seed)
            seeds = oracles.first_distinct_seeds(codes, k, seed)
            assert np.unique(codes[:, seeds], axis=1).shape[1] == min(k, 10)
            centroids = codes[:, seeds].copy()
            assigned = assign_step(codes, centroids)
            for _ in range(100):
                centroids = centroid_step(codes, assigned, k)
                new_assigned = assign_step(codes, centroids)
                if np.array_equal(new_assigned, assigned):
                    break
                assigned = new_assigned
            assert np.array_equal(model.centroids, centroids)
            assert np.array_equal(model.labels, assigned)


def test_kmeans_restarts_no_worse_than_single(rng):
    codes = random_codes(rng, 5, 40)
    single = binary_kmeans(codes, 4, seed=0)
    best = binary_kmeans_restarts(codes, 4, restarts=6, seed=0)
    assert quantization_error(codes, best) <= quantization_error(codes, single)


@pytest.mark.parametrize("restarts", [0, -1])
def test_kmeans_restarts_rejects_fewer_than_one(rng, restarts):
    with pytest.raises(ValueError, match=f"^restarts must be >= 1, got {restarts}$"):
        binary_kmeans_restarts(random_codes(rng, 5, 40), 4, restarts=restarts)


def test_labels_extraction():
    model = ClusterModel(centroids=np.ones((2, 3)), labels=np.array([2, 0, 1, 2]))
    assert model.labels.tolist() == [2, 0, 1, 2]


def test_kmeans_matches_one_hot_reference(rng):
    # u >= k: labels and centroids bit-identical to the one-hot formulation,
    # including 3-bit codes with many repeats, u == k (all 8 3-bit codes for
    # k=8) and one code on all but 9 samples
    cases = [(random_codes(rng, l, n), k)
             for l, n, k in ((3, 40, 5), (3, 40, 8), (6, 60, 4), (16, 80, 7))]
    cases.append((skewed_codes(rng), 8))
    for codes, k in cases:
        assert np.unique(codes, axis=1).shape[1] >= k
        for seed in range(6):
            model = binary_kmeans(codes, k, seed=seed)
            centroids, want = oracles.one_hot_binary_kmeans(codes, k, seed=seed)
            assert np.array_equal(model.centroids, centroids)
            assert np.array_equal(model.labels, want)


def test_kmeans_fewer_distinct_codes_than_k(rng, monkeypatch):
    # 3 distinct codes for k=5: each sample is labelled by the rank of its
    # code's first occurrence, whatever the seed, at error 0
    patterns = random_codes(np.random.default_rng(7), 8, 3)
    assert np.unique(patterns, axis=1).shape[1] == 3
    pick = rng.integers(0, 3, size=50)
    codes = patterns[:, pick]
    rank = {p: r for r, p in enumerate(dict.fromkeys(pick.tolist()))}
    want = [rank[p] for p in pick.tolist()]
    for seed in range(10):
        model = binary_kmeans(codes, 5, seed=seed)
        assert model.labels.tolist() == want
        assert model.centroids.shape == (8, 5)
        assert quantization_error(codes, model) == 0.0
    # the first run has error 0, which no later run can beat: stop there
    runs = []
    run = hamming_kmeans._run

    def counted(*args, **kwargs):
        runs.append(1)
        return run(*args, **kwargs)

    monkeypatch.setattr(hamming_kmeans, "_run", counted)
    best = binary_kmeans_restarts(codes, 5, restarts=4, seed=3)
    assert runs == [1]
    assert best.labels.tolist() == want
    assert np.array_equal(
        best.labels, binary_kmeans_restarts(codes, 5, restarts=1, seed=3).labels)


def test_weighted_restarts_match_per_sample_oracle(rng, monkeypatch):
    # restarts run on the distinct codes weighted by their counts; labels,
    # centroids, error and the chosen run must match the per-sample
    # one-hot oracle, on codes with many repeats, including runs that
    # reseed empty clusters and codes with fewer distinct columns than k
    empties = []
    step = hamming_kmeans.centroid_step

    def recording(codes, labels, k, *args):
        empties.append(np.unique(labels).size < k)
        return step(codes, labels, k, *args)

    monkeypatch.setattr(hamming_kmeans, "centroid_step", recording)
    cases = []
    for l, u, n, k in ((3, 6, 40, 5), (4, 9, 60, 7), (6, 12, 50, 4), (8, 5, 30, 8),
                       (2, 3, 25, 6), (16, 20, 80, 10)):
        patterns = random_codes(rng, l, u)
        cases.append((patterns[:, rng.integers(0, u, size=n)], k))
    cases.append((skewed_codes(rng), 8))
    saw_small_u = False
    for codes, k in cases:
        saw_small_u |= np.unique(codes, axis=1).shape[1] < k
        for seed in range(3):
            centroids, labels, error, chosen = oracles.per_sample_kmeans_restarts(
                codes, k, restarts=4, seed=seed)
            runs = []
            run = hamming_kmeans._run

            def counted(*args):
                runs.append(args[-1])
                return run(*args)

            monkeypatch.setattr(hamming_kmeans, "_run", counted)
            model = binary_kmeans_restarts(codes, k, restarts=4, seed=seed)
            monkeypatch.setattr(hamming_kmeans, "_run", run)
            assert np.array_equal(model.centroids, centroids)
            assert np.array_equal(model.labels, labels)
            assert quantization_error(codes, model) == error
            assert runs == list(range(seed, seed + (chosen + 1 if error == 0 else 4)))
            single = binary_kmeans(codes, k, seed=seed + chosen)
            assert np.array_equal(single.labels, labels)
    assert saw_small_u and any(empties)


def test_kmeans_dedupes_once_and_never_redraws(rng, monkeypatch):
    calls = []
    distinct_codes = hamming_kmeans._distinct_codes

    def counted(codes):
        calls.append(1)
        return distinct_codes(codes)

    used = []
    default_rng = np.random.default_rng

    class Recording:
        """A Generator that records the name of every method used."""

        def __init__(self, seed):
            self.rng = default_rng(seed)

        def __getattr__(self, name):
            used.append(name)
            return getattr(self.rng, name)

    monkeypatch.setattr(hamming_kmeans, "_distinct_codes", counted)
    monkeypatch.setattr(np.random, "default_rng", Recording)
    repeated = np.repeat(random_codes(rng, 12, 6), 5, axis=1)  # u = 6
    cases = [(np.unique(random_codes(rng, 12, 30), axis=1), 5),
             (skewed_codes(rng), 8), (repeated, 5), (repeated, 6), (repeated, 9)]
    for codes, k in cases:
        for seed in range(3):
            calls.clear()
            binary_kmeans(codes, k, seed=seed)
            assert calls == [1]
    assert used and "choice" not in used


@pytest.mark.parametrize("value", [0.0, 0.5, -2.0, np.nan])
def test_kmeans_rejects_non_sign_codes(rng, value):
    codes = random_codes(rng, 4, 9)
    codes[2, 6] = value
    with pytest.raises(NonSignCodes) as info:
        binary_kmeans(codes, 2)
    assert isinstance(info.value, TenhashError) and isinstance(info.value, ValueError)
    assert f"code bit 3 of sample 7 is {value}" in str(info.value)


@pytest.mark.parametrize("shape", [(6,), (2, 3, 4), (0, 5)])
@pytest.mark.parametrize("fit", [binary_kmeans, binary_kmeans_restarts])
def test_kmeans_rejects_codes_that_are_not_a_bit_matrix(shape, fit):
    # checked before the entries: a 0 x n matrix has none to reject
    with pytest.raises(DimensionMismatch, match=rf"shape \({shape[0]},"):
        fit(np.ones(shape), 1)

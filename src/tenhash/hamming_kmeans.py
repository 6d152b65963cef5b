"""Binary k-means in Hamming space.

Clusters the columns of an l x n sign matrix by alternating a
nearest-centroid assignment step with a per-bit majority-vote centroid
step, both discrete. Centroids stay in {-1,+1}^l throughout, so distances
are Hamming counts computed from inner products: H(b, c) = (l - b.c) / 2.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidK, NonSignCodes

MAX_ITER = 100  # assignment/centroid rounds per k-means run


@dataclass
class ClusterModel:
    """Binary centroids (l x k sign matrix) and integer labels (n,):
    label i is the cluster of sample i."""

    centroids: np.ndarray
    labels: np.ndarray


def sign_pm1(x, out=None):
    """Elementwise sign into {-1,+1} with the tie rule sign(0) = +1
    (-0.0 too); NaN maps to -1. Computed as 2 * (x >= 0) - 1 in place on
    one float array, several times faster than a select with ``np.where``:
    on ``out`` if given (a float array of x's shape, possibly x itself),
    else on a new one."""
    if out is None:
        signs = (np.asarray(x) >= 0).astype(float)
    else:
        signs = np.greater_equal(x, 0, out=out)
    signs *= 2.0
    signs -= 1.0
    return signs


def assign_step(codes, centroids):
    """Label every sample with its nearest centroid, the one of largest
    inner product since H = (l - b.c) / 2; ties go to the lowest index."""
    return np.argmax(centroids.T @ codes, axis=0)


def centroid_step(codes, labels, k):
    """Per-cluster majority vote on each bit, with sign(0) = +1, from
    per-cluster bit sums (small integers, so exact).

    A cluster that lost all its members is re-seeded with the sample
    currently farthest (in Hamming distance) from its assigned centroid;
    several empty clusters take successively farther distinct samples.
    """
    centroids = sign_pm1(np.stack([np.bincount(labels, row, k) for row in codes]))
    empty = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
    if empty.size:
        # farthest first: the smallest inner product with the own centroid
        inner = np.einsum("li,li->i", codes, centroids[:, labels])
        order = np.argsort(inner, kind="stable")
        for rank, j in enumerate(empty):
            centroids[:, j] = codes[:, order[rank % order.size]]
    return centroids


def quantization_error(codes, model):
    """||codes - centroids[:, labels]||_F^2: 4 per disagreeing +-1 bit."""
    return 4.0 * np.count_nonzero(codes != model.centroids[:, model.labels])


def _check_sign_codes(codes):
    """Raise NonSignCodes naming the first entry that is not -1 or +1
    (bit and sample numbered from 1)."""
    bad = np.abs(codes) != 1
    if bad.any():
        bit, sample = np.argwhere(bad)[0]
        raise NonSignCodes(
            f"code bit {bit + 1} of sample {sample + 1} is "
            f"{codes[bit, sample]}, not -1 or +1")


def _distinct_codes(codes):
    """Each sample's distinct-code id (0..u-1, in key order), from one
    sort of packed-byte keys."""
    keys = np.packbits(np.ascontiguousarray((codes > 0).T), axis=1)  # n x bytes
    keys = keys.view(f"V{keys.shape[1]}").ravel()
    return np.unique(keys, return_inverse=True)[1]


def binary_kmeans(codes, k, seed=0):
    """Alternating discrete k-means on +-1 hash codes.

    Seeds with the first k distinct codes met along one seeded permutation
    of the samples, then alternates assignment and centroid steps until
    the labels stop changing or for MAX_ITER rounds. With u < k distinct
    codes the walk is the sample order instead, and the u codes it meets
    are followed by samples 0..k-u-1 (where the empty-cluster reseed puts
    the other clusters), so each sample's label is its code's rank in that
    order, at error 0.
    """
    codes = np.asarray(codes, dtype=float)
    _check_sign_codes(codes)
    n = codes.shape[1]
    if not 1 <= k <= n:
        raise InvalidK(f"k must be in 1..{n}, got {k}")
    ids = _distinct_codes(codes)
    u = ids.max() + 1
    order = np.arange(n) if u < k else np.random.default_rng(seed).permutation(n)
    # the step of the walk at which each distinct code is first met
    met = np.full(u, n)
    np.minimum.at(met, ids[order], np.arange(n))
    chosen = np.concatenate([order[np.sort(met)[:k]], np.arange(max(k - u, 0))])
    centroids = codes[:, chosen]

    labels = assign_step(codes, centroids)
    for _ in range(MAX_ITER):
        centroids = centroid_step(codes, labels, k)
        new_labels = assign_step(codes, centroids)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return ClusterModel(centroids=centroids, labels=labels)


def binary_kmeans_restarts(codes, k, restarts=8, seed=0):
    """Best of several seeded :func:`binary_kmeans` runs.

    Runs with seeds seed, seed+1, ... and keeps the model with the lowest
    quantization error; ties go to the earliest run, so the runs stop at
    the first one with error 0, which no later run can beat. Deterministic
    per seed. Discrete alternation is as prone to bad initial centroids as
    ordinary k-means, so the usual restart treatment applies.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    best = None
    best_err = np.inf
    for i in range(restarts):
        model = binary_kmeans(codes, k, seed=seed + i)
        err = quantization_error(codes, model)
        if err < best_err:
            best, best_err = model, err
        if best_err == 0:
            break
    return best

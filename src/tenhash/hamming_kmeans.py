"""Binary k-means in Hamming space.

Clusters the columns of an l x n sign matrix by alternating a
nearest-centroid assignment step with a per-bit majority-vote centroid
step, both discrete. Centroids stay in {-1,+1}^l throughout, so distances
are Hamming counts computed from inner products: H(b, c) = (l - b.c) / 2.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, InvalidK, NonSignCodes

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


def centroid_step(codes, labels, k, counts=None, ids=None):
    """Per-cluster majority vote on each bit, with sign(0) = +1, from
    per-cluster bit sums (small integers, so exact).

    The columns of ``codes`` may stand for several samples each:
    ``counts`` gives how many (1 each if None), and ``ids`` the column of
    every sample (the columns in sample order if None).

    A cluster that lost all its members is re-seeded with the sample
    currently farthest (in Hamming distance) from its assigned centroid;
    several empty clusters take successively farther distinct samples,
    ties going to the lower sample index.
    """
    weights = np.zeros((codes.shape[1], k))
    weights[np.arange(codes.shape[1]), labels] = 1.0 if counts is None else counts
    centroids = sign_pm1(codes @ weights)
    empty = np.flatnonzero(~weights.any(axis=0))
    if empty.size:
        # farthest first: the smallest inner product with the own centroid
        inner = np.einsum("li,li->i", codes, centroids[:, labels])
        order = np.argsort(inner if ids is None else inner[ids], kind="stable")
        farthest = order[np.arange(empty.size) % order.size]
        centroids[:, empty] = codes[:, farthest if ids is None else ids[farthest]]
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
    """The distinct code columns of ``codes``, from one sort of
    packed-byte keys: the triple ``(first, ids, counts)`` of the first
    sample holding each (in key order), each sample's distinct-code id
    (0..u-1) and how many samples hold each."""
    keys = np.packbits(np.ascontiguousarray((codes > 0).T), axis=1)  # n x bytes
    keys = keys.view(f"V{keys.shape[1]}").ravel()
    return np.unique(keys, return_index=True, return_inverse=True, return_counts=True)[1:]


def _distinct_columns(codes, k):
    """Check ``codes`` and ``k`` and take the distinct code columns once:
    the triple ``(distinct, counts, ids)`` of the l x u distinct columns,
    how many samples hold each, and each sample's column."""
    codes = np.asarray(codes, dtype=float)
    if codes.ndim != 2 or codes.shape[0] == 0:
        raise DimensionMismatch(
            f"codes must be an l x n matrix with l >= 1 bits, got shape {codes.shape}")
    _check_sign_codes(codes)
    n = codes.shape[1]
    if not isinstance(k, numbers.Integral):
        raise InvalidK(f"k must be an integer, got {k!r}")
    if not 1 <= k <= n:
        raise InvalidK(f"k must be in 1..{n}, got {k}")
    first, ids, counts = _distinct_codes(codes)
    return codes[:, first], counts, ids


def _run(distinct, counts, ids, k, seed):
    """One seeded k-means run over the samples, computed on their
    distinct codes (see :func:`binary_kmeans`); returns the centroids and
    each distinct code's label."""
    n, u = ids.size, counts.size
    order = np.arange(n) if u < k else np.random.default_rng(seed).permutation(n)
    # the step of the walk at which each distinct code is first met
    met = np.full(u, n)
    np.minimum.at(met, ids[order], np.arange(n))
    chosen = np.concatenate([order[np.sort(met)[:k]], np.arange(max(k - u, 0))])
    centroids = distinct[:, ids[chosen]]

    labels = assign_step(distinct, centroids)
    for _ in range(MAX_ITER):
        centroids = centroid_step(distinct, labels, k, counts, ids)
        new_labels = assign_step(distinct, centroids)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centroids, labels


def binary_kmeans(codes, k, seed=0):
    """Alternating discrete k-means on +-1 hash codes.

    Seeds with the first k distinct codes met along one seeded permutation
    of the samples, then alternates assignment and centroid steps until
    the labels stop changing or for MAX_ITER rounds. With u < k distinct
    codes the walk is the sample order instead, and the u codes it meets
    are followed by samples 0..k-u-1 (where the empty-cluster reseed puts
    the other clusters), so each sample's label is its code's rank in that
    order, at error 0.

    Samples with the same code always share a label, so the steps run on
    the u distinct codes, each weighted by its sample count; the bit sums
    of the centroid step are the same integers either way.
    """
    return binary_kmeans_restarts(codes, k, restarts=1, seed=seed)


def binary_kmeans_restarts(codes, k, restarts=8, seed=0):
    """Best of several seeded :func:`binary_kmeans` runs.

    Runs with seeds seed, seed+1, ... and keeps the model with the lowest
    quantization error; ties go to the earliest run, so the runs stop at
    the first one with error 0, which no later run can beat. Deterministic
    per seed. Discrete alternation is as prone to bad initial centroids as
    ordinary k-means, so the usual restart treatment applies.

    The distinct codes are taken once for all runs, and each run's error
    is summed over them, weighted by their sample counts.
    """
    if not isinstance(restarts, numbers.Integral):
        raise ValueError(f"restarts must be an integer, got {restarts!r}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    distinct, counts, ids = _distinct_columns(codes, k)
    best = None
    best_err = np.inf
    for i in range(restarts):
        centroids, labels = _run(distinct, counts, ids, k, seed + i)
        # 4 per disagreeing bit of every sample (integers, so exact)
        err = 4.0 * (counts @ np.count_nonzero(distinct != centroids[:, labels], axis=0))
        if err < best_err:
            best, best_err = (centroids, labels), err
        if best_err == 0:
            break
    centroids, labels = best
    return ClusterModel(centroids=centroids, labels=labels[ids])

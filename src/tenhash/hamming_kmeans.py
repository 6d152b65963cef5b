"""Binary k-means in Hamming space.

Clusters the columns of an l x n sign matrix by alternating a
nearest-centroid assignment step with a per-bit majority-vote centroid
step, both discrete. Centroids stay in {-1,+1}^l throughout, so distances
are Hamming counts computed from inner products: H(b, c) = (l - b.c) / 2.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidK, LengthMismatch


@dataclass
class ClusterModel:
    """Binary centroids (l x k sign matrix) and one-hot assignment (k x n)."""

    centroids: np.ndarray
    assignment: np.ndarray


def sign_pm1(x):
    """Elementwise sign into {-1,+1} with the tie rule sign(0) = +1."""
    return np.where(np.asarray(x) >= 0, 1.0, -1.0)


def hamming_distance(b, c):
    """Number of disagreeing positions between two +-1 vectors."""
    b = np.asarray(b).ravel()
    c = np.asarray(c).ravel()
    if b.size != c.size:
        raise LengthMismatch(f"code lengths differ: {b.size} vs {c.size}")
    return int(np.sum(b != c))


def _distance_table(codes, centroids):
    """k x n Hamming distances via the identity H = (l - b.c) / 2."""
    l = codes.shape[0]
    return (l - centroids.T @ codes) / 2.0


def assign_step(codes, centroids):
    """Assign every sample to its nearest centroid; ties go to the lowest
    centroid index. Returns the k x n one-hot assignment matrix."""
    dists = _distance_table(codes, centroids)
    nearest = np.argmin(dists, axis=0)
    assignment = np.zeros((centroids.shape[1], codes.shape[1]))
    assignment[nearest, np.arange(codes.shape[1])] = 1.0
    return assignment


def centroid_step(codes, assignment):
    """Per-cluster majority vote on each bit, with sign(0) = +1.

    A cluster that lost all its members is re-seeded with the sample
    currently farthest (in Hamming distance) from its assigned centroid;
    several empty clusters take successively farther distinct samples.
    """
    centroids = sign_pm1(codes @ assignment.T)
    sizes = assignment.sum(axis=1)
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        owner = np.argmax(assignment, axis=0)
        per_sample = (codes.shape[0] - np.einsum(
            "li,li->i", codes, centroids[:, owner])) / 2.0
        order = np.argsort(-per_sample, kind="stable")
        for rank, j in enumerate(empty):
            centroids[:, j] = codes[:, order[rank % order.size]]
    return centroids


def quantization_error(codes, model):
    """||codes - centroids @ assignment||_F^2, the alternating objective."""
    return float(np.linalg.norm(
        codes - model.centroids @ model.assignment) ** 2)


def binary_kmeans(codes, k, max_iter=100, seed=0):
    """Alternating discrete k-means on hash codes.

    Starts from k distinct sample codes chosen by seeded sampling
    (duplicate codes re-drawn up to n attempts) and alternates assignment
    and centroid steps until the assignment stops changing or max_iter.
    """
    codes = np.asarray(codes, dtype=float)
    n = codes.shape[1]
    if not 1 <= k <= n:
        raise InvalidK(f"k must be in 1..{n}, got {k}")
    rng = np.random.default_rng(seed)
    chosen = list(rng.choice(n, size=k, replace=False))
    for _ in range(n):
        # byte keys compare +-1 columns exactly, far cheaper than np.unique
        if len({col.tobytes() for col in codes[:, chosen].T}) == k:
            break
        chosen = list(rng.choice(n, size=k, replace=False))
    centroids = codes[:, chosen].copy()

    assignment = assign_step(codes, centroids)
    for _ in range(max_iter):
        centroids = centroid_step(codes, assignment)
        new_assignment = assign_step(codes, centroids)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
    return ClusterModel(centroids=centroids, assignment=assignment)


def binary_kmeans_restarts(codes, k, restarts=8, max_iter=100, seed=0):
    """Best of several seeded :func:`binary_kmeans` runs.

    Runs with seeds seed, seed+1, ... and keeps the model with the lowest
    quantization error; ties go to the earliest run. Deterministic per
    seed. Discrete alternation is as prone to bad initial centroids as
    ordinary k-means, so the usual restart treatment applies.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    best = None
    best_err = np.inf
    for i in range(restarts):
        model = binary_kmeans(codes, k, max_iter=max_iter, seed=seed + i)
        err = quantization_error(codes, model)
        if err < best_err:
            best, best_err = model, err
    return best


def labels(model):
    """Label vector: label i = row index of the 1 in column i of G."""
    return np.argmax(model.assignment, axis=0)

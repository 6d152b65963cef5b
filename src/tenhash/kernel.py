"""Anchor-based RBF kernelization of per-view feature matrices.

A view is a d x n matrix with one sample per column. A small set of m
anchor columns is sampled from it, and the view is replaced by the m x n
bipartite similarity graph exp(-||x_i - s_j||^2 / delta).
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    AnchorCountExceedsSamples,
    InconsistentSampleCounts,
    NonFiniteInput,
    NonPositiveBandwidth,
)


@dataclass
class AnchorSet:
    """Anchor columns of one view plus the sample indices they came from."""

    anchors: np.ndarray  # d x m
    indices: np.ndarray  # m source column indices, distinct


def _check_anchor_count(m, n):
    if m < 1:
        raise ValueError(f"anchor count must be >= 1, got {m}")
    if m > n:
        raise AnchorCountExceedsSamples(f"asked for {m} anchors from {n} samples")


def sample_anchors(view, m, seed):
    """Pick m distinct sample columns uniformly without replacement.

    The draw is a seeded partial Fisher-Yates shuffle, so it depends only
    on (n, m, seed): the same seed selects the same sample indices in
    every view, keeping anchors aligned by sample identity across views.
    """
    view = np.asarray(view, dtype=float)
    d, n = view.shape
    _check_anchor_count(m, n)
    rng = np.random.default_rng(seed)
    pool = np.arange(n)
    for i in range(m):
        j = int(rng.integers(i, n))
        pool[i], pool[j] = pool[j], pool[i]
    indices = pool[:m].copy()
    return AnchorSet(anchors=view[:, indices].copy(), indices=indices)


def _squared_distances(view, anchors, indices=None, out=None):
    """m x n matrix of squared sample-anchor distances, by one GEMM, written
    into ``out`` when given.

    Forms ||x||^2 + ||s||^2 - 2 s.x after centring both operands on the
    anchors' column mean, which does not depend on sample order and
    removes the cancellation the uncentred form suffers on data far from
    the origin; rounding below zero is clamped to 0. When ``indices`` gives
    each anchor's source column, that entry is set to exactly 0 wherever
    the column still equals the anchor, so a sample coincident with its own
    anchor gets graph value exactly 1. Other exact duplicates of an anchor
    get a rounding-level distance instead. The anchors are taken in C
    order, so the result depends on their values, not their memory layout.
    """
    anchors = np.ascontiguousarray(anchors)
    centre = anchors.mean(axis=1, keepdims=True)
    x = view - centre
    s = anchors - centre
    out = np.matmul(s.T, x, out=out)
    out *= -2.0
    out += np.square(x).sum(axis=0)
    out += np.square(s).sum(axis=0)[:, None]
    np.maximum(out, 0.0, out=out)
    if indices is not None:
        # an anchor set may be applied to a view with fewer columns
        rows = np.flatnonzero(indices < x.shape[1])
        cols = indices[rows]
        own = np.all(x[:, cols] == s[:, rows], axis=0)
        out[rows[own], cols[own]] = 0.0
    return out


def _anchor_matrix(anchors):
    """(d x m anchor matrix, source indices or None) of an AnchorSet or array."""
    if isinstance(anchors, AnchorSet):
        return anchors.anchors, anchors.indices
    return np.asarray(anchors, dtype=float), None


def _bandwidth(sqdist):
    """Mean of a squared-distance matrix, or 1.0 if every entry is 0. The
    mean is inf or NaN, and returned as it is, when the distances
    overflowed."""
    delta = float(sqdist.mean())
    return delta if delta != 0 else 1.0


def _rbf(sqdist, delta):
    """exp(-sqdist / delta), computed in place in ``sqdist``."""
    sqdist /= -delta
    return np.exp(sqdist, out=sqdist)


def estimate_bandwidth(view, anchors):
    """Kernel width heuristic: mean squared sample-anchor distance.

    Falls back to 1.0 in the degenerate case where every sample equals
    every anchor, so the result is strictly positive; it is inf or NaN
    when the squared distances overflow, which :func:`kernelize` rejects.
    """
    view = np.asarray(view, dtype=float)
    anchor_mat, indices = _anchor_matrix(anchors)
    if view.size == 0 or anchor_mat.size == 0:
        raise ValueError("view and anchors must be nonempty")
    return _bandwidth(_squared_distances(view, anchor_mat, indices))


def kernelize(view, anchors, delta):
    """RBF bipartite graph: entry (j, i) = exp(-||x_i - s_j||^2 / delta)."""
    # every comparison with NaN is False, so NaN is rejected too
    if not 0 < delta < np.inf:
        raise NonPositiveBandwidth(f"kernel width must be finite and > 0, got {delta}")
    view = np.asarray(view, dtype=float)
    anchor_mat, indices = _anchor_matrix(anchors)
    return _rbf(_squared_distances(view, anchor_mat, indices), delta)


def _check_finite_views(views):
    """Raise NonFiniteInput naming the first NaN or Inf of the first view
    that has one (view, feature and sample numbered from 1)."""
    for p, view in enumerate(views, start=1):
        bad = ~np.isfinite(view)
        if bad.any():
            feature, sample = np.argwhere(bad)[0]
            raise NonFiniteInput(
                f"view {p}: feature {feature + 1}, sample {sample + 1} is "
                f"{view[feature, sample]}",
                view=p, feature=int(feature) + 1, sample=int(sample) + 1,
            )


def standardize_features(view):
    """Per-feature z-scoring; constant features are centered only. A
    feature whose mean or spread overflows raises NonFiniteInput naming
    the feature (numbered from 1)."""
    view = np.asarray(view, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = view.mean(axis=1, keepdims=True)
        std = view.std(axis=1, keepdims=True)
    finite = np.isfinite(std[:, 0])
    if not finite.all():
        feature = int(np.argmin(finite)) + 1
        raise NonFiniteInput(f"feature {feature}: its spread overflows", feature=feature)
    std[std == 0] = 1.0
    return (view - mean) / std


def kernelize_views(views, m, seed, standardize=True):
    """Kernelize every view of a dataset with anchors aligned by sample.

    Returns the v x m x n stack of bipartite graphs, view p's graph being
    ``graphs[p]``. The anchor indices are drawn once and taken from every
    view. Each view's distance matrix is computed once, in its own
    slot of the stack, and turned into the graph in place with its mean as
    the bandwidth. Views holding NaN or Inf are rejected with
    NonFiniteInput, views with different sample counts with
    InconsistentSampleCounts, and an anchor count m < 1 with ValueError or
    m > n with AnchorCountExceedsSamples, before the stack is allocated.
    Finite values too large for the arithmetic are rejected naming the
    view: a feature whose spread overflows in standardization with
    NonFiniteInput, and squared distances that overflow the bandwidth with
    NonPositiveBandwidth.
    """
    views = [np.asarray(view, dtype=float) for view in views]
    _check_finite_views(views)
    counts = sorted({view.shape[1] for view in views})
    if len(counts) > 1:
        raise InconsistentSampleCounts(f"views disagree on sample count: {counts}")
    n = counts[0] if counts else 0
    _check_anchor_count(m, n)
    # the draw depends only on (n, m, seed), so one serves every view
    indices = sample_anchors(views[0], m, seed).indices
    graphs = np.empty((len(views), m, n))
    for p, (view, graph) in enumerate(zip(views, graphs), start=1):
        try:
            prepared = standardize_features(view) if standardize else view
        except NonFiniteInput as exc:
            raise NonFiniteInput(f"view {p}: {exc}", view=p, feature=exc.feature) from None
        # an overflow leaves an inf or NaN bandwidth, rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            _squared_distances(prepared, prepared.take(indices, axis=1), indices, out=graph)
        delta = _bandwidth(graph)
        if not delta < np.inf:  # NaN too
            raise NonPositiveBandwidth(f"view {p}: kernel width is {delta}: distances overflow")
        _rbf(graph, delta)
    return graphs

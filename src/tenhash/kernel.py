"""Anchor-based RBF kernelization of per-view feature matrices.

A view is a d x n matrix with one sample per column. m of its sample
columns are drawn as anchors, and the view is replaced by the m x n
bipartite similarity graph exp(-||x_i - s_j||^2 / delta). The anchors are
always given as sample indices into the view they are taken from.
"""

import numbers

import numpy as np

from .exceptions import (
    AnchorCountExceedsSamples,
    DimensionMismatch,
    InconsistentSampleCounts,
    NonFiniteInput,
    NonPositiveBandwidth,
)


def sample_anchors(n, m, seed):
    """Pick m distinct sample indices out of n uniformly without replacement.

    The draw is a seeded partial Fisher-Yates shuffle, so it depends only
    on (n, m, seed): one draw serves every view of a dataset, keeping
    anchors aligned by sample identity across views. Raises ValueError for
    an m that is not an integer (numpy integers are) or is < 1, and
    AnchorCountExceedsSamples for m > n.
    """
    if not isinstance(m, numbers.Integral):
        raise ValueError(f"anchor count must be an integer, got {m!r}")
    if m < 1:
        raise ValueError(f"anchor count must be >= 1, got {m}")
    if m > n:
        raise AnchorCountExceedsSamples(f"asked for {m} anchors from {n} samples")
    # one call draws the m targets from the same stream as m scalar calls
    targets = np.random.default_rng(seed).integers(np.arange(m), n).tolist()
    pool = np.arange(n)
    for i, j in enumerate(targets):
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:m].copy()


def _squared_distances(view, indices, out=None):
    """m x n matrix of squared distances from every sample of ``view`` to
    its anchor columns ``indices``, by one GEMM, written into ``out`` when
    given. ``view``, a float array, is centred and squared in place, so
    the caller passes an array it owns.

    Forms ||x||^2 + ||s||^2 - 2 s.x after centring both operands on the
    anchors' column mean, which does not depend on sample order and
    removes the cancellation the uncentred form suffers on data far from
    the origin; rounding below zero is clamped to 0. Each anchor's own
    column gets distance exactly 0, so graph value exactly 1. Other exact
    duplicates of an anchor get a rounding-level distance instead.
    """
    anchors = view.take(indices, axis=1)
    centre = anchors.mean(axis=1, keepdims=True)
    view -= centre
    anchors -= centre
    out = np.matmul(anchors.T, view, out=out)
    out *= -2.0
    out += np.square(view, out=view).sum(axis=0)
    out += np.square(anchors, out=anchors).sum(axis=0)[:, None]
    np.maximum(out, 0.0, out=out)
    out[np.arange(len(indices)), indices] = 0.0
    return out


def estimate_bandwidth(sqdist):
    """Kernel width heuristic: the mean of a squared-distance matrix.

    Falls back to 1.0 in the degenerate case where every entry is 0, so the
    result is strictly positive. Raises NonPositiveBandwidth when the mean
    is inf or NaN, which happens when the distances overflowed.
    """
    with np.errstate(over="ignore"):
        delta = float(sqdist.mean())
    if not delta < np.inf:  # NaN too
        raise NonPositiveBandwidth(f"kernel width is {delta}: distances overflow")
    return delta if delta != 0 else 1.0


def kernelize(sqdist, delta):
    """RBF bipartite graph exp(-sqdist / delta), computed in place in
    ``sqdist``: entry (j, i) = exp(-||x_i - s_j||^2 / delta)."""
    # every comparison with NaN is False, so NaN is rejected too
    if not 0 < delta < np.inf:
        raise NonPositiveBandwidth(f"kernel width must be finite and > 0, got {delta}")
    sqdist /= -delta
    return np.exp(sqdist, out=sqdist)


def _check_views(views):
    """Raise InconsistentSampleCounts for an empty view list, then, at the
    first view that is not 2-D or holds a NaN or Inf, DimensionMismatch
    naming its shape or NonFiniteInput naming the entry (view, feature and
    sample numbered from 1)."""
    if not views:
        raise InconsistentSampleCounts("need at least one view")
    for p, view in enumerate(views, start=1):
        if view.ndim != 2:
            raise DimensionMismatch(f"view {p} must be 2-D (features x samples), got {view.shape}")
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
    out = view - mean
    out /= std
    return out


def kernelize_views(views, m, seed, standardize=True):
    """Kernelize every view of a dataset with anchors aligned by sample.

    Returns the v x m x n stack of bipartite graphs, view p's graph being
    ``graphs[p]``. The anchor indices are drawn once by
    :func:`sample_anchors` and taken from every view. Per view,
    :func:`_squared_distances` writes the distance matrix into the view's
    slot of the stack, :func:`estimate_bandwidth` takes its mean, and
    :func:`kernelize` turns it into the graph in place. Each view is taken
    in C order, so a graph depends on the view's values, not its memory
    layout. The views are never written: the distances centre and square
    the standardized copy in place, or a copy of a view that is not
    standardized.

    An empty view list is rejected with InconsistentSampleCounts, a view
    that is not 2-D with DimensionMismatch, views holding NaN or Inf with
    NonFiniteInput, views with different sample counts with
    InconsistentSampleCounts, and an anchor count m that is not an integer
    or is < 1 with ValueError or m > n with AnchorCountExceedsSamples, all
    before the stack is allocated. Finite values too large for the arithmetic are rejected
    naming the view: a feature whose spread overflows in standardization
    with NonFiniteInput, and squared distances that overflow the bandwidth
    with NonPositiveBandwidth.
    """
    views = [np.asarray(view, dtype=float, order="C") for view in views]
    _check_views(views)
    counts = sorted({view.shape[1] for view in views})
    if len(counts) > 1:
        raise InconsistentSampleCounts(f"views disagree on sample count: {counts}")
    n = counts[0]
    indices = sample_anchors(n, m, seed)
    graphs = np.empty((len(views), m, n))
    for p, (view, graph) in enumerate(zip(views, graphs), start=1):
        try:
            prepared = standardize_features(view) if standardize else view.copy()
        except NonFiniteInput as exc:
            raise NonFiniteInput(f"view {p}: {exc}", view=p, feature=exc.feature) from None
        # an overflow leaves an inf or NaN bandwidth, rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            _squared_distances(prepared, indices, out=graph)
        try:
            delta = estimate_bandwidth(graph)
        except NonPositiveBandwidth as exc:
            raise NonPositiveBandwidth(f"view {p}: {exc}") from None
        kernelize(graph, delta)
    return graphs

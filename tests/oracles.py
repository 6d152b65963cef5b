"""Independent reference implementations used only by the test suite.

Everything here is written the slow, obvious way (explicit loops,
exhaustive enumeration, block matrices) and deliberately avoids the
package's own code paths, so it can serve as an oracle for them.
"""

import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# mode-3 transforms, the slow way


def naive_dft_mode3(t):
    """O(d3^2) forward DFT along the third axis via explicit sums."""
    t = np.asarray(t, dtype=float)
    d1, d2, d3 = t.shape
    out = np.zeros((d1, d2, d3), dtype=complex)
    for j in range(d3):
        for k in range(d3):
            out[:, :, j] += t[:, :, k] * np.exp(-2j * np.pi * j * k / d3)
    return out


def naive_idft_mode3(s):
    """O(d3^2) inverse DFT along the third axis (1/d3 normalization)."""
    s = np.asarray(s, dtype=complex)
    d1, d2, d3 = s.shape
    out = np.zeros((d1, d2, d3), dtype=complex)
    for k in range(d3):
        for j in range(d3):
            out[:, :, k] += s[:, :, j] * np.exp(2j * np.pi * j * k / d3)
    return out / d3


# ---------------------------------------------------------------------------
# t-algebra via block-circulant matrices and per-slice SVDs


def bcirc(t):
    """Block-circulant matrix of a d1 x d2 x d3 tensor: d3 x d3 blocks,
    block (i, j) = frontal slice (i - j) mod d3."""
    d1, d2, d3 = t.shape
    out = np.zeros((d1 * d3, d2 * d3))
    for i in range(d3):
        for j in range(d3):
            out[i * d1:(i + 1) * d1, j * d2:(j + 1) * d2] = t[:, :, (i - j) % d3]
    return out


def tproduct_bcirc(a, b):
    """t-product computed as bcirc(a) @ unfold(b), refolded."""
    d1, d2a, d3 = a.shape
    d2b, l, _ = b.shape
    unfold_b = np.vstack([b[:, :, k] for k in range(d3)])
    stacked = bcirc(a) @ unfold_b
    out = np.zeros((d1, l, d3))
    for k in range(d3):
        out[:, :, k] = stacked[k * d1:(k + 1) * d1, :]
    return out


def spectral_singular_values(t):
    """Per-slice singular values of the naive-DFT spectrum; column j of
    the returned min(d1,d2) x d3 matrix belongs to spectral slice j."""
    th = naive_dft_mode3(t)
    d1, d2, d3 = t.shape
    cols = np.zeros((min(d1, d2), d3))
    for j in range(d3):
        cols[:, j] = np.linalg.svd(th[:, :, j], compute_uv=False)
    return cols


def naive_tnn(t):
    """(1/d3) * sum over all spectral slices of the matrix nuclear norm."""
    return spectral_singular_values(t).sum() / t.shape[2]


def naive_tensor_svt(t, tau):
    """Shrink every spectral singular value of every slice by tau, then
    invert with the naive transform."""
    th = naive_dft_mode3(t)
    d3 = t.shape[2]
    out = np.zeros_like(th)
    for j in range(d3):
        u, s, vt = np.linalg.svd(th[:, :, j], full_matrices=False)
        out[:, :, j] = u @ np.diag(np.maximum(s - tau, 0.0)) @ vt
    return naive_idft_mode3(out).real


def svt_objective(x, m, tau):
    """tau*||X||_* + 0.5*||X - m||_F^2, the objective matrix SVT minimizes."""
    return tau * np.linalg.svd(x, compute_uv=False).sum() \
        + 0.5 * np.linalg.norm(x - m) ** 2


def matrix_nuclear_norm(m):
    return np.linalg.svd(m, compute_uv=False).sum()


# ---------------------------------------------------------------------------
# sampling


def fisher_yates_sample(n, m, seed):
    """First m elements of a full seeded Fisher-Yates shuffle of 0..n-1."""
    rng = np.random.default_rng(seed)
    perm = list(range(n))
    for i in range(n - 1):
        j = int(rng.integers(i, n))
        perm[i], perm[j] = perm[j], perm[i]
    return perm[:m]


def double_loop_sqdist(view, anchors):
    """m x n squared sample/anchor distances from explicit differences,
    two loops."""
    out = np.empty((anchors.shape[1], view.shape[1]))
    for j in range(anchors.shape[1]):
        for i in range(view.shape[1]):
            out[j, i] = np.sum((view[:, i] - anchors[:, j]) ** 2)
    return out


def double_loop_mean_sqdist(view, anchors):
    """Mean squared distance over all sample/anchor pairs, two loops."""
    return double_loop_sqdist(view, anchors).mean()


def explicit_difference_graphs(views, m, seed):
    """Anchor graphs of unstandardized views from the definition: anchors
    are the first m columns of the seeded Fisher-Yates shuffle, the width
    is the mean squared distance, entry (j, i) = exp(-d_ji / width)."""
    graphs = []
    for view in views:
        anchors = view[:, fisher_yates_sample(view.shape[1], m, seed)]
        sq = double_loop_sqdist(view, anchors)
        graphs.append(np.exp(-sq / sq.mean()))
    return graphs


# ---------------------------------------------------------------------------
# solver subproblems


def best_sign_matrix(target):
    """Brute-force maximizer of tr(B^T target) over B in {-1,+1}^(l x n).

    Only usable for tiny l*n; enumerates all 2^(l*n) candidates.
    """
    l, n = target.shape
    best, best_val = None, -np.inf
    for bits in itertools.product((-1.0, 1.0), repeat=l * n):
        cand = np.array(bits).reshape(l, n)
        val = np.trace(cand.T @ target)
        if val > best_val:
            best_val = val
            best = cand
    return best, best_val


def q_subproblem_objective(q, phi, b, a, y, alpha, mu):
    """alpha*||Q^T phi - B||_F^2 + (mu/2)*||Q - A + Y/mu||_F^2."""
    return alpha * np.linalg.norm(q.T @ phi - b) ** 2 \
        + 0.5 * mu * np.linalg.norm(q - a + y / mu) ** 2


def projection_residual(graphs, state, config, q):
    """Largest relative residual over the views of the projection step's
    normal equations (2*alpha*phi phi' + mu I) Q = 2*alpha*phi B' + mu A - Y,
    with each view's system matrix assembled explicitly from phi."""
    alpha, mu = config.alpha, state.mu
    worst = 0.0
    for p, phi in enumerate(graphs):
        phi = np.asarray(phi, dtype=float)
        system = 2.0 * alpha * (phi @ phi.T) + mu * np.eye(phi.shape[0])
        rhs = (
            2.0 * alpha * (phi @ state.codes[p].T)
            + mu * state.aux_projection[p]
            - state.dual_projection[p]
        )
        denom = np.linalg.norm(rhs)
        residual = np.linalg.norm(system @ q[p] - rhs) / (denom if denom > 0 else 1.0)
        worst = max(worst, float(residual))
    return worst


# ---------------------------------------------------------------------------
# Hamming-space clustering


def hamming_count(b, c):
    return int(np.sum(np.asarray(b) != np.asarray(c)))


def exhaustive_nearest_centroid(codes, centroids):
    """Per-sample nearest centroid by explicit distance table; ties go to
    the lowest centroid index."""
    n = codes.shape[1]
    k = centroids.shape[1]
    assign = np.zeros(n, dtype=int)
    for i in range(n):
        dists = [hamming_count(codes[:, i], centroids[:, j]) for j in range(k)]
        assign[i] = int(np.argmin(dists))
    return assign


def first_distinct_seeds(codes, k, seed):
    """Initial centroid columns of binary k-means: walk one seeded
    permutation of the samples and keep a sample the first time its code is
    seen, until k are kept. With fewer than k distinct codes in all, the u
    first occurrences in sample order, then samples 0..k-u-1."""
    n = codes.shape[1]
    first = sorted(np.unique(codes, axis=1, return_index=True)[1].tolist())
    if len(first) < k:
        return first + list(range(k - len(first)))
    seen, chosen = set(), []
    for i in np.random.default_rng(seed).permutation(n).tolist():
        code = tuple(codes[:, i])
        if code not in seen:
            seen.add(code)
            chosen.append(i)
    return chosen[:k]


def one_hot_binary_kmeans(codes, k, max_iter=100, seed=0):
    """Binary k-means with the assignment held as a dense k x n one-hot
    matrix: seeds by :func:`first_distinct_seeds`; centroids by the GEMM
    majority vote; empty clusters re-seeded with the samples farthest from
    their centroids. Returns (centroids, labels)."""
    codes = np.asarray(codes, dtype=float)
    l, n = codes.shape

    def assign(centroids):
        assignment = np.zeros((centroids.shape[1], n))
        assignment[np.argmin((l - centroids.T @ codes) / 2.0, axis=0), np.arange(n)] = 1.0
        return assignment

    def centroids_of(assignment):
        centroids = np.where(codes @ assignment.T >= 0, 1.0, -1.0)
        empty = np.flatnonzero(assignment.sum(axis=1) == 0)
        if empty.size:
            owner = np.argmax(assignment, axis=0)
            per_sample = (l - np.einsum("li,li->i", codes, centroids[:, owner])) / 2.0
            order = np.argsort(-per_sample, kind="stable")
            for rank, j in enumerate(empty):
                centroids[:, j] = codes[:, order[rank % order.size]]
        return centroids

    chosen = first_distinct_seeds(codes, k, seed)
    centroids = codes[:, chosen].copy()
    assignment = assign(centroids)
    for _ in range(max_iter):
        centroids = centroids_of(assignment)
        new_assignment = assign(centroids)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
    return centroids, np.argmax(assignment, axis=0)


def best_centroids_exhaustive(codes, assign, l, k):
    """Exhaustive search over all 2^(l*k) centroid matrices for the one
    minimizing total Hamming distance to assigned samples."""
    best, best_cost = None, np.inf
    for bits in itertools.product((-1.0, 1.0), repeat=l * k):
        cand = np.array(bits).reshape(l, k)
        cost = sum(
            hamming_count(codes[:, i], cand[:, assign[i]])
            for i in range(codes.shape[1])
        )
        if cost < best_cost:
            best_cost = cost
            best = cand
    return best, best_cost


# ---------------------------------------------------------------------------
# clustering metrics from scratch


def contingency_from_labels(pred, truth):
    pred_ids = sorted(set(pred))
    truth_ids = sorted(set(truth))
    table = np.zeros((len(pred_ids), len(truth_ids)), dtype=int)
    for p, t in zip(pred, truth):
        table[pred_ids.index(p), truth_ids.index(t)] += 1
    return table


def accuracy_by_permutation(pred, truth):
    """Max matched fraction over all bijections of the smaller label set
    into the larger one. Exponential; keep cluster counts <= ~6."""
    table = contingency_from_labels(pred, truth)
    kp, kt = table.shape
    n = table.sum()
    best = 0
    if kp <= kt:
        for perm in itertools.permutations(range(kt), kp):
            best = max(best, sum(table[i, perm[i]] for i in range(kp)))
    else:
        for perm in itertools.permutations(range(kp), kt):
            best = max(best, sum(table[perm[j], j] for j in range(kt)))
    return best / n


def accuracy_by_subset_dp(pred, truth):
    """Max matched fraction by a DP over subsets of the smaller label set:
    best[mask] is the largest total of a matching of the larger-side labels
    seen so far into the set ``mask`` of smaller-side labels, and each
    larger-side label in turn stays unmatched or takes one free label.
    Costs 2^s * s per larger-side label; keep the smaller set <= ~12."""
    table = contingency_from_labels(pred, truth)
    if table.shape[0] < table.shape[1]:
        table = table.T  # columns: the smaller label set
    s = table.shape[1]
    masks = np.arange(1 << s)
    best = np.full(1 << s, -1, dtype=np.int64)  # -1: mask not reachable
    best[0] = 0
    for row in table:
        grown = best.copy()
        for j in range(s):
            without = masks[(masks >> j) & 1 == 0]
            reach = best[without] >= 0
            target = without[reach] | (1 << j)
            grown[target] = np.maximum(grown[target], best[without[reach]] + int(row[j]))
        best = grown
    return int(best.max()) / int(table.sum())


def nmi_from_scratch(pred, truth):
    table = contingency_from_labels(pred, truth).astype(float)
    # single-cluster partitions have zero entropy by definition
    if table.shape[0] == 1 and table.shape[1] == 1:
        return 1.0
    if table.shape[0] == 1 or table.shape[1] == 1:
        return 0.0
    n = table.sum()
    p_ij = table / n
    p_i = p_ij.sum(axis=1)
    p_j = p_ij.sum(axis=0)
    mi = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            if p_ij[i, j] > 0:
                mi += p_ij[i, j] * math.log(p_ij[i, j] / (p_i[i] * p_j[j]))
    h_pred = -sum(p * math.log(p) for p in p_i if p > 0)
    h_truth = -sum(p * math.log(p) for p in p_j if p > 0)
    return mi / math.sqrt(h_pred * h_truth)


def purity_from_scratch(pred, truth):
    table = contingency_from_labels(pred, truth)
    return table.max(axis=1).sum() / table.sum()


def pair_counts(pred, truth):
    """(tp, fp, fn, tn) over all unordered sample pairs: tp = same cluster
    in both partitions, fp = same in pred only, fn = same in truth only."""
    n = len(pred)
    tp = fp = fn = tn = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_p = pred[i] == pred[j]
            same_t = truth[i] == truth[j]
            if same_p and same_t:
                tp += 1
            elif same_p:
                fp += 1
            elif same_t:
                fn += 1
            else:
                tn += 1
    return tp, fp, fn, tn


def f_score_from_pairs(pred, truth):
    tp, fp, fn, _ = pair_counts(pred, truth)
    if tp + fp == 0 and tp + fn == 0:
        return 1.0
    if tp + fp == 0 or tp + fn == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def ari_from_pairs(pred, truth):
    tp, fp, fn, tn = pair_counts(pred, truth)
    total = tp + fp + fn + tn
    same_p = tp + fp
    same_t = tp + fn
    expected = same_p * same_t / total if total else 0.0
    max_index = (same_p + same_t) / 2
    if max_index == expected:
        return 1.0
    return (tp - expected) / (max_index - expected)

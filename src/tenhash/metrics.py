"""Clustering agreement metrics between a predicted and a true partition.

All five metrics are computed from the contingency table and are
invariant to relabeling either partition. Accuracy solves the optimal
label matching exactly (rectangular assignment), not greedily.
"""

import numpy as np

from .exceptions import EmptyInput, LengthMismatch


def _as_label_arrays(pred, truth):
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.shape != truth.shape:
        raise LengthMismatch(
            f"label vectors differ in length: {pred.size} vs {truth.size}"
        )
    if pred.size == 0:
        raise EmptyInput("label vectors are empty")
    return pred, truth


def contingency_table(pred, truth):
    """k_pred x k_true matrix of co-occurrence counts; entries sum to n."""
    pred, truth = _as_label_arrays(pred, truth)
    _, pred_idx = np.unique(pred, return_inverse=True)
    _, truth_idx = np.unique(truth, return_inverse=True)
    table = np.zeros((pred_idx.max() + 1, truth_idx.max() + 1), dtype=np.int64)
    np.add.at(table, (pred_idx, truth_idx), 1)
    return table


def accuracy(pred, truth):
    """Best matched fraction over label bijections (optimal assignment)."""
    # imported here: scipy is slow to import and only scoring needs it
    from scipy.optimize import linear_sum_assignment

    table = contingency_table(pred, truth)
    rows, cols = linear_sum_assignment(-table)
    return table[rows, cols].sum() / table.sum()


def nmi(pred, truth):
    """Mutual information normalized by the geometric mean of entropies.

    Natural log, 0*log(0) treated as 0. If both partitions have zero
    entropy they are identical single-cluster partitions and the score is
    1; if exactly one has zero entropy the score is 0.
    """
    table = contingency_table(pred, truth).astype(float)
    # entropy is zero exactly when a partition has a single cluster;
    # deciding this structurally avoids sign noise in the float entropy
    if table.shape[0] == 1 and table.shape[1] == 1:
        return 1.0
    if table.shape[0] == 1 or table.shape[1] == 1:
        return 0.0
    n = table.sum()
    p_joint = table / n
    p_pred = p_joint.sum(axis=1)
    p_truth = p_joint.sum(axis=0)
    h_pred = -np.sum(p_pred[p_pred > 0] * np.log(p_pred[p_pred > 0]))
    h_truth = -np.sum(p_truth[p_truth > 0] * np.log(p_truth[p_truth > 0]))
    outer = np.outer(p_pred, p_truth)
    mask = p_joint > 0
    mi = np.sum(p_joint[mask] * np.log(p_joint[mask] / outer[mask]))
    return float(min(max(mi / np.sqrt(h_pred * h_truth), 0.0), 1.0))


def purity(pred, truth):
    """Fraction of samples in the majority true class of their cluster."""
    table = contingency_table(pred, truth)
    return table.max(axis=1).sum() / table.sum()


def _pair_sums(table):
    """Same-cluster pair counts: (both, pred-only total, truth-only total)."""

    def comb2(x):
        return x * (x - 1) // 2

    both = comb2(table).sum()
    pred_pairs = comb2(table.sum(axis=1)).sum()
    truth_pairs = comb2(table.sum(axis=0)).sum()
    return both, pred_pairs, truth_pairs


def f_score(pred, truth):
    """Pair-counting F1 over same-cluster pairs.

    Two all-singleton partitions agree on every pair and score 1; if only
    one side has no same-cluster pairs the score is 0.
    """
    table = contingency_table(pred, truth)
    tp, pred_pairs, truth_pairs = _pair_sums(table)
    if pred_pairs == 0 and truth_pairs == 0:
        return 1.0
    if pred_pairs == 0 or truth_pairs == 0:
        return 0.0
    precision = tp / pred_pairs
    recall = tp / truth_pairs
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def ari(pred, truth):
    """Adjusted Rand index: (RI - E[RI]) / (max RI - E[RI]).

    Degenerate partitions with zero adjustment range (both single-cluster
    or both all-singleton) are identical in pair structure and score 1.
    """
    table = contingency_table(pred, truth)
    tp, pred_pairs, truth_pairs = _pair_sums(table)
    n = table.sum()
    total_pairs = n * (n - 1) // 2
    if total_pairs == 0:
        return 1.0
    expected = pred_pairs * truth_pairs / total_pairs
    max_index = (pred_pairs + truth_pairs) / 2
    if max_index == expected:
        return 1.0
    return float((tp - expected) / (max_index - expected))


def all_metrics(pred, truth):
    """All five metrics as a dict keyed acc/nmi/purity/fscore/ari."""
    return {
        "acc": float(accuracy(pred, truth)),
        "nmi": float(nmi(pred, truth)),
        "purity": float(purity(pred, truth)),
        "fscore": float(f_score(pred, truth)),
        "ari": float(ari(pred, truth)),
    }

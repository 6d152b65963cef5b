import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tenhash.exceptions import EmptyInput, LengthMismatch
from tenhash.metrics import accuracy, all_metrics, ari, contingency_table, f_score, nmi, purity


def random_labels(rng, n, k):
    return rng.integers(0, k, size=n)


# ---------------------------------------------------------------------------
# contingency and guards


def test_contingency_sums_to_n():
    table = contingency_table([0, 0, 1, 2], [1, 1, 0, 0])
    assert table.sum() == 4


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        accuracy([0, 1], [0, 1, 2])


def test_empty_input():
    with pytest.raises(EmptyInput):
        accuracy([], [])


# ---------------------------------------------------------------------------
# accuracy


def test_accuracy_identical():
    assert accuracy([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0


def test_accuracy_relabeling_invariant():
    truth = [0, 0, 1, 1, 2, 2]
    pred = [2, 2, 0, 0, 1, 1]
    assert accuracy(pred, truth) == 1.0


def test_accuracy_spec_example():
    pred = [0, 0, 1, 1, 2, 2]
    truth = [0, 0, 0, 1, 1, 2]
    assert accuracy(pred, truth) == pytest.approx(
        oracles.accuracy_by_permutation(pred, truth), abs=1e-12
    )


def test_accuracy_matches_permutation_oracle_corpus():
    rng = np.random.default_rng(31)
    for _ in range(200):
        k = int(rng.integers(1, 7))
        n = int(rng.integers(k, 30))
        pred = random_labels(rng, n, k)
        truth = random_labels(rng, n, int(rng.integers(1, 7)))
        assert accuracy(pred, truth) == pytest.approx(
            oracles.accuracy_by_permutation(pred, truth), abs=1e-12
        )


def labels_from_table(table):
    """pred/truth label vectors whose contingency table is ``table`` (rows
    and columns without samples drop out, as no label names them)."""
    rows, cols = np.nonzero(table)
    counts = table[rows, cols]
    return np.repeat(rows, counts), np.repeat(cols, counts)


def oracle_tables(rng):
    """Rectangular tables both ways up to 12 x 30, tied columns, a single
    row or column, and tables that are mostly zeros."""
    for kind in range(5):
        for _ in range(30):
            small, large = int(rng.integers(1, 13)), int(rng.integers(1, 31))
            table = rng.integers(0, 20, (small, large))
            if kind == 1:  # tied columns: copies of a few columns
                table = table[:, rng.integers(0, min(3, large), large)]
            elif kind == 2:
                table = table[:1]
            elif kind == 3:  # mostly zeros
                table = table * (rng.random(table.shape) < 0.1)
            elif kind == 4:  # many equal-weight ties
                table = rng.integers(0, 2, table.shape)
            if rng.integers(2):  # larger label set on the pred side
                table = table.T
            if table.sum() == 0:
                table[0, 0] = 1
            yield table


def test_accuracy_matches_subset_dp_oracle_corpus():
    rng = np.random.default_rng(33)
    shapes = set()
    for table in oracle_tables(rng):
        pred, truth = labels_from_table(table)
        shapes.add(contingency_table(pred, truth).shape)
        assert accuracy(pred, truth) == pytest.approx(
            oracles.accuracy_by_subset_dp(pred, truth), abs=1e-12
        )
    assert any(r > c for r, c in shapes) and any(r < c for r, c in shapes)
    assert any(1 in shape for shape in shapes)
    assert any(min(r, c) >= 10 and max(r, c) >= 25 for r, c in shapes)


# ---------------------------------------------------------------------------
# nmi


def test_nmi_identical_nontrivial():
    assert nmi([0, 1, 0, 1], [5, 9, 5, 9]) == pytest.approx(1.0, abs=1e-12)


def test_nmi_independent_product_design():
    # product design: every (row, col) combination once -> independence
    pred = [0, 0, 1, 1]
    truth = [0, 1, 0, 1]
    assert nmi(pred, truth) == pytest.approx(0.0, abs=1e-12)


def test_nmi_matches_oracle(rng):
    pred = random_labels(rng, 50, 4)
    truth = random_labels(rng, 50, 3)
    assert nmi(pred, truth) == pytest.approx(
        oracles.nmi_from_scratch(pred, truth), abs=1e-12
    )


def test_nmi_degenerate_conventions():
    assert nmi([0, 0, 0], [1, 1, 1]) == 1.0
    assert nmi([0, 0, 0], [0, 1, 2]) == 0.0
    assert nmi([0, 1, 2], [7, 7, 7]) == 0.0


# ---------------------------------------------------------------------------
# purity


def test_purity_identical():
    assert purity([0, 1, 1], [4, 2, 2]) == 1.0


def test_purity_singletons():
    assert purity([0, 1, 2, 3], [0, 0, 1, 1]) == 1.0


def test_purity_matches_oracle():
    pred = [0, 0, 1, 1, 2, 2]
    truth = [0, 0, 0, 1, 1, 2]
    assert purity(pred, truth) == pytest.approx(
        oracles.purity_from_scratch(pred, truth), abs=1e-12
    )


# ---------------------------------------------------------------------------
# f-score and ari


def test_f_ari_identical():
    labels = [0, 1, 1, 2, 0]
    assert f_score(labels, labels) == 1.0
    assert ari(labels, labels) == 1.0


def test_f_ari_crossed_example():
    pred = [0, 0, 1, 1]
    truth = [0, 1, 0, 1]
    assert f_score(pred, truth) == pytest.approx(
        oracles.f_score_from_pairs(pred, truth), abs=1e-12
    )
    assert ari(pred, truth) == pytest.approx(
        oracles.ari_from_pairs(pred, truth), abs=1e-12
    )


def test_f_single_cluster_both():
    assert f_score([0, 0, 0], [1, 1, 1]) == 1.0


def test_f_ari_match_pair_oracles_corpus():
    rng = np.random.default_rng(32)
    for _ in range(60):
        n = int(rng.integers(2, 25))
        pred = random_labels(rng, n, int(rng.integers(1, 6)))
        truth = random_labels(rng, n, int(rng.integers(1, 6)))
        assert f_score(pred, truth) == pytest.approx(
            oracles.f_score_from_pairs(pred, truth), abs=1e-12
        )
        assert ari(pred, truth) == pytest.approx(
            oracles.ari_from_pairs(pred, truth), abs=1e-12
        )


# ---------------------------------------------------------------------------
# shared properties


@settings(max_examples=60, deadline=None)
@given(
    labels=st.lists(st.integers(0, 4), min_size=1, max_size=30),
    mapping=st.permutations(range(5)),
)
def test_relabeling_invariance(labels, mapping):
    relabeled = [mapping[v] for v in labels]
    rng = np.random.default_rng(len(labels))
    other = rng.integers(0, 3, size=len(labels))
    for metric in (accuracy, nmi, purity, f_score, ari):
        assert metric(relabeled, other) == pytest.approx(
            metric(labels, other), abs=1e-12
        )
        assert metric(other, relabeled) == pytest.approx(
            metric(other, labels), abs=1e-12
        )


def test_ranges(rng):
    for _ in range(50):
        n = int(rng.integers(1, 30))
        pred = random_labels(rng, n, int(rng.integers(1, 6)))
        truth = random_labels(rng, n, int(rng.integers(1, 6)))
        scores = all_metrics(pred, truth)
        for key in ("acc", "nmi", "purity", "fscore"):
            assert 0.0 <= scores[key] <= 1.0
        assert scores["ari"] <= 1.0


def test_import_tenhash_loads_no_scipy(tmp_path):
    # neither `import tenhash` nor scoring (all_metrics, `eval`, a labeled
    # `cluster`) loads scipy
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    script = f"""
import sys
import tenhash
from tenhash import cli
before = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
tenhash.all_metrics([0, 0, 1, 2], [1, 1, 0, 0])
ds = {str(tmp_path / "ds")!r}
assert cli.main(["synth", "--k", "3", "--n", "60", "--dims", "3,3", "--out", ds]) == 0
assert cli.main(["cluster", ds, "--anchors", "20", "--bits", "8", "--restarts", "2",
                 "--max-iter", "5", "--out", ds + "/report.json",
                 "--labels-out", ds + "/pred.csv"]) == 0
assert cli.main(["eval", ds + "/pred.csv", ds + "/labels.csv",
                 "--out", ds + "/eval.json"]) == 0
after = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
print(before, after)
"""
    loaded = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()[-1]
    assert loaded == "[] []"
    report = json.loads((tmp_path / "ds" / "report.json").read_text())
    assert "acc" in report
    assert set(json.loads((tmp_path / "ds" / "eval.json").read_text())) == {
        "acc", "nmi", "purity", "fscore", "ari"}

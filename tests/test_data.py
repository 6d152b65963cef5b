import os

import numpy as np
import pytest

from tenhash.data import (
    MultiViewData,
    gen_gaussian_clusters,
    load_multiview,
    salt_pepper,
    save_multiview,
)
from tenhash.exceptions import (
    InvalidArgs,
    InvalidRatio,
    LabelLengthMismatch,
    MissingView,
    ParseError,
    RaggedRows,
)
from tenhash.metrics import accuracy


# ---------------------------------------------------------------------------
# loading


def test_load_simple_directory(tmp_path):
    (tmp_path / "view_1.csv").write_text("1,2,3\n4,5,6\n")
    (tmp_path / "labels.csv").write_text("0\n1\n0\n")
    data = load_multiview(tmp_path)
    assert data.n == 3
    assert data.views[0].shape == (2, 3)
    assert data.labels.tolist() == [0, 1, 0]


def test_load_mismatched_sample_counts(tmp_path):
    (tmp_path / "view_1.csv").write_text("1,2,3\n")
    (tmp_path / "view_2.csv").write_text("1,2\n")
    with pytest.raises(RaggedRows) as info:
        load_multiview(tmp_path)
    assert "view_2.csv" in str(info.value)


def test_load_ragged_rows_within_file(tmp_path):
    (tmp_path / "view_1.csv").write_text("1,2,3\n4,5\n")
    with pytest.raises(RaggedRows) as info:
        load_multiview(tmp_path)
    assert "line 2" in str(info.value)


def test_load_parse_error_names_file_and_line(tmp_path):
    (tmp_path / "view_1.csv").write_text("1,2\nx,4\n")
    with pytest.raises(ParseError) as info:
        load_multiview(tmp_path)
    assert "view_1.csv" in str(info.value) and "line 2" in str(info.value)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
def test_load_rejects_non_finite_naming_line_and_column(tmp_path, cell):
    # the blank line must not shift the reported line number
    (tmp_path / "view_1.csv").write_text(f"1,2,3\n\n4,5,{cell}\n")
    with pytest.raises(ParseError) as info:
        load_multiview(tmp_path)
    message = str(info.value)
    assert "view_1.csv" in message
    assert "line 3, column 3" in message
    assert info.value.line == 3


def test_load_missing_views(tmp_path):
    with pytest.raises(MissingView):
        load_multiview(tmp_path)
    (tmp_path / "view_1.csv").write_text("1\n")
    (tmp_path / "view_3.csv").write_text("1\n")
    with pytest.raises(MissingView) as info:
        load_multiview(tmp_path)
    assert "view_2" in str(info.value)


@pytest.mark.parametrize("names", [
    ["view_0.csv"],
    ["view_0.csv", "view_1.csv"],
    ["view_01.csv", "view_1.csv"],
    ["view_1.csv", "view_002.csv"],
])
def test_load_rejects_misnumbered_views(names, tmp_path):
    for name in names:
        (tmp_path / name).write_text("1,2,3\n")
    with pytest.raises(MissingView) as info:
        load_multiview(tmp_path)
    bad = next(name for name in names if name != "view_1.csv")
    assert bad in str(info.value)


def test_load_label_length_mismatch(tmp_path):
    (tmp_path / "view_1.csv").write_text("1,2,3\n")
    (tmp_path / "labels.csv").write_text("0\n1\n")
    with pytest.raises(LabelLengthMismatch):
        load_multiview(tmp_path)


def test_load_validates_meta(tmp_path):
    (tmp_path / "view_1.csv").write_text("1,2,3\n")
    (tmp_path / "meta.json").write_text('{"name": "x", "n": 7}')
    with pytest.raises(RaggedRows) as info:
        load_multiview(tmp_path)
    assert "meta.json" in str(info.value)


@pytest.mark.parametrize("meta", ["[1, 2]", "3", "null", '{"name": 5}'])
def test_load_rejects_malformed_meta(tmp_path, meta):
    (tmp_path / "view_1.csv").write_text("1,2,3\n")
    (tmp_path / "meta.json").write_text(meta)
    with pytest.raises(ParseError) as info:
        load_multiview(tmp_path)
    assert "meta.json" in str(info.value)


# ---------------------------------------------------------------------------
# saving


def test_save_load_round_trip_exact(tmp_path):
    data = gen_gaussian_clusters(k=3, v=2, n=20, dims=[4, 2], sep=5, seed=8)
    out = tmp_path / "ds"
    save_multiview(data, out)
    loaded = load_multiview(out)
    assert loaded.name == data.name
    assert loaded.labels.tolist() == data.labels.tolist()
    for a, b in zip(loaded.views, data.views):
        assert np.array_equal(a, b)


def test_save_without_labels_omits_file(tmp_path):
    data = MultiViewData(views=[np.ones((2, 3))], labels=None, name="x")
    out = tmp_path / "ds"
    save_multiview(data, out)
    assert not os.path.exists(out / "labels.csv")
    assert load_multiview(out).labels is None


def test_save_refuses_overwrite_without_force(tmp_path):
    data = MultiViewData(views=[np.ones((2, 3))], labels=None, name="x")
    out = tmp_path / "ds"
    save_multiview(data, out)
    with pytest.raises(FileExistsError):
        save_multiview(data, out)
    save_multiview(data, out, force=True)


# ---------------------------------------------------------------------------
# synthesis


def test_gen_single_cluster_labels():
    data = gen_gaussian_clusters(k=1, v=2, n=15, dims=[3, 3], sep=4, seed=0)
    assert np.all(data.labels == 0)


def test_gen_zero_separation_runs():
    data = gen_gaussian_clusters(k=3, v=1, n=30, dims=[2], sep=0, seed=0)
    assert data.n == 30
    assert sorted(set(data.labels.tolist())) == [0, 1, 2]


def test_gen_rejects_bad_args():
    with pytest.raises(InvalidArgs):
        gen_gaussian_clusters(k=0, v=1, n=10, dims=[2], sep=1, seed=0)
    with pytest.raises(InvalidArgs):
        gen_gaussian_clusters(k=5, v=1, n=4, dims=[2], sep=1, seed=0)
    with pytest.raises(InvalidArgs):
        gen_gaussian_clusters(k=2, v=2, n=10, dims=[2], sep=1, seed=0)
    for sep in (np.nan, np.inf):
        with pytest.raises(InvalidArgs):
            gen_gaussian_clusters(k=2, v=1, n=10, dims=[2], sep=sep, seed=0)


def test_gen_cluster_sizes_near_equal():
    data = gen_gaussian_clusters(k=4, v=1, n=10, dims=[2], sep=3, seed=0)
    sizes = np.bincount(data.labels)
    assert sorted(sizes.tolist()) == [2, 2, 3, 3]


def test_gen_empirical_means_close_to_design():
    k, v, n, sep = 4, 2, 400, 8.0
    dims = [5, 3]
    data = gen_gaussian_clusters(k=k, v=v, n=n, dims=dims, sep=sep, seed=1)
    # replay the seeded draw order to recover the design means
    rng = np.random.default_rng(1)
    counts = [n // k + (1 if c < n % k else 0) for c in range(k)]
    bound = 3.0 / np.sqrt(n / k)
    for view, d in zip(data.views, dims):
        directions = rng.standard_normal((d, k))
        means = sep * directions / np.linalg.norm(directions, axis=0)
        for c in range(k):
            rng.standard_normal((d, counts[c]))
            empirical = view[:, data.labels == c].mean(axis=1)
            assert np.max(np.abs(empirical - means[:, c])) <= bound


def test_gen_mean_norms_on_sphere():
    data = gen_gaussian_clusters(k=3, v=1, n=900, dims=[4], sep=6, seed=2)
    for c in range(3):
        mean = data.views[0][:, data.labels == c].mean(axis=1)
        assert abs(np.linalg.norm(mean) - 6.0) <= 0.5


def test_gen_deterministic():
    a = gen_gaussian_clusters(k=2, v=2, n=12, dims=[3, 2], sep=4, seed=5)
    b = gen_gaussian_clusters(k=2, v=2, n=12, dims=[3, 2], sep=4, seed=5)
    for x, y in zip(a.views, b.views):
        assert np.array_equal(x, y)


def test_gen_labels_valid_ground_truth():
    data = gen_gaussian_clusters(k=3, v=1, n=21, dims=[2], sep=5, seed=3)
    assert accuracy(data.labels, data.labels) == 1.0


# ---------------------------------------------------------------------------
# noise


def test_salt_pepper_zero_ratio(rng):
    view = rng.standard_normal((6, 7))
    assert np.array_equal(salt_pepper(view, 0.0, seed=0), view)


def test_salt_pepper_full_ratio(rng):
    view = rng.standard_normal((5, 5))
    noised = salt_pepper(view, 1.0, seed=0)
    assert np.all(np.isin(noised, (view.min(), view.max())))


def test_salt_pepper_exact_count(rng):
    view = rng.standard_normal((10, 10))
    noised = salt_pepper(view, 0.1, seed=4)
    assert int(np.sum(noised != view)) == 10


def test_salt_pepper_untouched_entries_identical(rng):
    view = rng.standard_normal((8, 9))
    noised = salt_pepper(view, 0.25, seed=5)
    mask = noised != view
    assert np.array_equal(noised[~mask], view[~mask])
    assert np.all(np.isin(noised[mask], (view.min(), view.max())))


def test_salt_pepper_deterministic(rng):
    view = rng.standard_normal((7, 7))
    a = salt_pepper(view, 0.3, seed=6)
    b = salt_pepper(view, 0.3, seed=6)
    assert np.array_equal(a, b)


def test_salt_pepper_rejects_bad_ratio(rng):
    view = rng.standard_normal((3, 3))
    for bad in (-0.1, 1.1):
        with pytest.raises(InvalidRatio):
            salt_pepper(view, bad, seed=0)

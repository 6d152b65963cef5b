"""The README's Python examples must run as written, its CLI examples
must parse, and its documented trace columns must be the ones
`cluster --trace` writes."""

import argparse
import csv
import pathlib
import re
import shlex

from tenhash.cli import _write_trace, build_parser

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_block_parses():
    section = README.read_text().split("## CLI\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("tenhash ")]
    parser = build_parser()
    parsed = {parser.parse_args(shlex.split(line)[1:]).command for line in commands}
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert parsed == set(subparsers.choices)


def test_readme_trace_columns_match_writer(tmp_path):
    section = README.read_text().split("### Trace CSV", 1)[1].split("\n## ", 1)[0]
    documented = re.search(r"`([a-z_,]+)`", section).group(1).split(",")
    path = tmp_path / "trace.csv"
    _write_trace([], path)
    with open(path) as fh:
        header = next(csv.reader(fh))
    assert documented == header

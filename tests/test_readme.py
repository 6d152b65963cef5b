"""The README's Python examples must run as written, and its documented
trace columns must be the ones `cluster --trace` writes."""

import csv
import pathlib
import re

from tenhash.cli import _write_trace

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_trace_columns_match_writer(tmp_path):
    section = README.read_text().split("### Trace CSV", 1)[1].split("\n## ", 1)[0]
    documented = re.search(r"`([a-z_,]+)`", section).group(1).split(",")
    path = tmp_path / "trace.csv"
    _write_trace([], path)
    with open(path) as fh:
        header = next(csv.reader(fh))
    assert documented == header

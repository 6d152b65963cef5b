"""Tests of the benchmark harness itself, on the seconds-long smoke workload.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from run import END_TO_END, PER_LAYER, COUNTS, label_file_problems, output_problems
from spans import SpanRecorder
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=180, cwd=cwd,
    )


def smoke(trace, seed=1):
    proc = bench("--workload", "smoke", "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_by_name_with_its_unit(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    stdout, result = smoke(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert (END_TO_END if trace == 0 else PER_LAYER) == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name in [*result["metrics"], "error_rate"]:
        assert any(line.split()[:1] == [name] for line in stdout.splitlines()), name


def test_counts_repeat_exactly_between_runs():
    first = smoke(1)[1]["metrics"]
    second = smoke(1)[1]["metrics"]
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_spans_give_self_time_and_result_sizes():
    class Layer:
        @staticmethod
        def inner(n):
            return [0] * n

        @staticmethod
        def outer(n):
            return Layer.inner(n) + Layer.inner(n)

    rec = SpanRecorder()
    rec.run = "r"
    rec.wrap(Layer, "inner", "inner", size=len)
    rec.wrap(Layer, "outer", "outer")
    assert Layer.outer(3) == [0] * 6
    rec.restore()
    assert Layer.outer(1) == [0, 0]
    rows = rec.summary({"r"})
    assert rows["inner"]["calls"] == 2 and rows["inner"]["size"] == 6
    assert rows["outer"]["calls"] == 1 and rows["outer"]["size"] == 0
    assert rows["outer"]["self_s"] == pytest.approx(
        rows["outer"]["total_s"] - rows["inner"]["total_s"])
    assert rec.summary({"other"}) == {}


def test_gate_rejects_corrupted_label_file(tmp_path):
    pred = np.array([0, 1, 2, 3, 1, 0])
    path = tmp_path / "labels.txt"
    np.savetxt(path, pred, fmt="%d")
    assert label_file_problems(path, pred) == []
    corrupted = pred.copy()
    corrupted[2] = 1
    np.savetxt(path, corrupted, fmt="%d")
    assert label_file_problems(path, pred)
    np.savetxt(path, pred[:-1], fmt="%d")
    assert label_file_problems(path, pred)
    path.write_text("0\n1\nx\n")
    assert label_file_problems(path, pred)


def test_gate_rejects_bad_labels_and_codes():
    w = WORKLOADS["smoke"]
    pred = np.zeros(w.n, dtype=int)
    fused = np.ones((w.bits, w.n))
    assert output_problems(fused, pred, w) == []
    assert output_problems(fused, pred[:-1], w)
    assert output_problems(fused, pred + w.k, w)
    assert output_problems(fused[:, :-1], pred, w)
    zeroed = fused.copy()
    zeroed[0, 0] = 0
    assert output_problems(zeroed, pred, w)


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "smoke", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

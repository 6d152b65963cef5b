"""Benchmark of the `tenhash cluster` pipeline, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload hetero-views --seed 1 --seconds 10 --trace 0

One run generates the workload's datasets from --seed in a child process,
times set-up (`import tenhash` plus `load_multiview`) in fresh interpreters,
then makes passes over the loaded datasets, clustering each once per pass
with `tenhash.cli`'s own pipeline, for --seconds and at least two passes,
checking every output. With --trace 0 the clusterings are untraced and the
run reports the end-to-end metrics. With --trace 1 untraced and traced passes alternate and the run
reports per-layer metrics, totalled over one traced pass, from the spans,
plus the tracing overhead. Human-readable lines come first; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The full result, with provenance and spans, is written
under .perfbench_work/results/.
"""

import argparse
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import timed_setup
from spans import SpanRecorder
from workloads import ALPHA, CLUSTER_SEED, DATASETS, MAX_ITER, RESTARTS, TOL, WORKLOADS, ZETA

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 3        # fresh interpreters timed for setup_s, besides this one
MIN_PASSES = 2          # per run, however short --seconds is
MIN_TRACED_PASSES = 3   # untraced, traced, untraced
CHILD_TIMEOUT = 120

END_TO_END = {
    "cluster_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
    "acc": "ratio", "nmi": "ratio",
}

# (module, attribute, span name, size of the result or None). The pipeline
# in tenhash.cli calls each layer's entry point through the name cli
# imported, and solve() calls the tensor_ops functions through the names
# tenhash.solver imported, so those bindings are wrapped.
TRACED = (
    ("cli", "kernelize_views", "kernel.kernelize_views",
     lambda graphs: sum(g.nbytes for g in graphs)),
    ("kernel", "standardize_features", "kernel.standardize_features"),
    ("kernel", "sample_anchors", "kernel.sample_anchors"),
    ("kernel", "estimate_bandwidth", "kernel.estimate_bandwidth"),
    ("kernel", "kernelize", "kernel.kernelize"),
    # one m x n matrix of sample-anchor distances per call
    ("kernel", "_squared_distances", "kernel._squared_distances", lambda d: d.size),
    ("cli", "solve", "solver.solve"),
    ("solver", "init_state", "solver.init_state"),
    ("solver", "update_projections", "solver.update_projections"),
    ("solver", "update_codes", "solver.update_codes"),
    ("solver", "update_aux_projection", "solver.update_aux_projection"),
    ("solver", "update_aux_code", "solver.update_aux_code"),
    ("solver", "objective_value", "solver.objective_value"),
    ("solver", "update_multipliers", "solver.update_multipliers"),
    ("solver", "_check_finite", "solver._check_finite"),
    ("solver", "enhanced_tensor_svt", "tensor_ops.enhanced_tensor_svt"),
    ("solver", "enhanced_tensor_nuclear_norm", "tensor_ops.enhanced_tensor_nuclear_norm"),
    ("cli", "binary_kmeans_restarts", "hamming_kmeans.binary_kmeans_restarts"),
    ("hamming_kmeans", "binary_kmeans", "hamming_kmeans.binary_kmeans"),
    ("hamming_kmeans", "assign_step", "hamming_kmeans.assign_step"),
    ("metrics", "accuracy", "metrics.accuracy"),
    ("metrics", "nmi", "metrics.nmi"),
)

# per-layer time metric -> span whose total time it reports
SPAN_SECONDS = {
    "kernel.busy_s": "kernel.kernelize_views",
    "kernel.standardize_s": "kernel.standardize_features",
    "kernel.sample_anchors_s": "kernel.sample_anchors",
    "kernel.bandwidth_s": "kernel.estimate_bandwidth",
    "kernel.kernelize_s": "kernel.kernelize",
    "solver.busy_s": "solver.solve",
    "solver.init_s": "solver.init_state",
    "solver.q_step_s": "solver.update_projections",
    "solver.b_step_s": "solver.update_codes",
    "solver.a_step_s": "solver.update_aux_projection",
    "solver.e_step_s": "solver.update_aux_code",
    "solver.objective_s": "solver.objective_value",
    "solver.multipliers_s": "solver.update_multipliers",
    "solver.check_finite_s": "solver._check_finite",
    "tensor_ops.svt_s": "tensor_ops.enhanced_tensor_svt",
    "tensor_ops.etnn_s": "tensor_ops.enhanced_tensor_nuclear_norm",
    "hamming_kmeans.busy_s": "hamming_kmeans.binary_kmeans_restarts",
}

# per-layer count metric -> span whose calls it counts
SPAN_CALLS = {
    "solver.iterations": "solver.update_multipliers",
    "tensor_ops.svt_calls": "tensor_ops.enhanced_tensor_svt",
    "tensor_ops.etnn_calls": "tensor_ops.enhanced_tensor_nuclear_norm",
    "hamming_kmeans.restarts": "hamming_kmeans.binary_kmeans",
    "hamming_kmeans.assign_steps": "hamming_kmeans.assign_step",
}

# per-layer count metric -> span whose summed result size it reports
SPAN_SIZES = {
    "kernel.distance_evals": "kernel._squared_distances",
    "kernel.graph_bytes": "kernel.kernelize_views",
}

# counts that must repeat exactly; "computed" ones come from shapes
COUNTS = {
    **{name: "count" for name in SPAN_CALLS},
    "solver.q_solves": "count",
    "kernel.distance_evals": "count (computed)",
    "kernel.graph_bytes": "B (computed)",
    "tensor_ops.complex_slices": "count (computed)",
    "hamming_kmeans.distinct_codes": "count",
}

PER_LAYER = {
    "data.load_s": "s",
    **{name: "s" for name in SPAN_SECONDS},
    "solver.self_s": "s",
    "metrics.busy_s": "s",
    **{name: unit.split()[0] for name, unit in COUNTS.items()},
    "trace.cluster_s": "s",
    "trace.overhead_s": "s",
}


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cap_blas_threads():
    """Cap BLAS and OpenMP threads at the usable cores. Must run before
    numpy is imported; child processes inherit the cap."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def run_child(script, *args):
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *map(str, args)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} failed: {proc.stderr.strip()}")
    return proc.stdout


def cluster(cli, dataset, w):
    """One clustering through the pipeline `tenhash cluster` runs, with the
    arguments it passes for the workload's flags. Returns the fused codes
    and the labels."""
    codes, _, pred, _ = cli._pipeline(
        dataset, w.anchors, w.bits, ALPHA, ZETA, w.k, CLUSTER_SEED, MAX_ITER, TOL,
        w.standardize, RESTARTS,
    )
    return codes.fused, pred


def output_problems(fused, pred, w):
    """The output gate for one clustering."""
    import numpy as np

    problems = []
    if pred.shape != (w.n,):
        problems.append(f"labels have shape {pred.shape}, expected ({w.n},)")
    elif pred.min() < 0 or pred.max() >= w.k:
        problems.append(f"labels outside [0, {w.k})")
    if fused.shape != (w.bits, w.n):
        problems.append(f"fused codes have shape {fused.shape}, expected ({w.bits}, {w.n})")
    elif not np.all((fused == 1) | (fused == -1)):
        problems.append("fused codes are not all +1/-1")
    return problems


def label_file_problems(path, pred):
    """Compare a label file, one integer per line, with ``pred``."""
    import numpy as np

    try:
        written = np.loadtxt(path, dtype=np.int64, ndmin=1)
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable label file ({exc})"]
    if not np.array_equal(written, pred):
        return [f"{path}: labels differ from the benchmark's clustering"]
    return []


def cli_problems(cli, data_dir, w, pred, work):
    """Run `tenhash cluster` in this process and compare the labels it
    writes with ``pred``."""
    labels_path = work / "cli_labels.txt"
    argv = ["cluster", str(data_dir), *w.cluster_flags(),
            "--out", str(work / "cli_report.json"), "--labels-out", str(labels_path)]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    if code != 0:
        return [f"tenhash cluster exited with {code}"]
    return label_file_problems(labels_path, pred)


def install_spans(rec, th):
    for module, attr, name, *size in TRACED:
        rec.wrap(getattr(th, module), attr, name, *size)


def layer_metrics(rec, run, w, fused):
    """Per-layer metrics of one traced clustering."""
    import numpy as np

    rows = rec.summary({run})

    def row(name):
        return rows.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    values = {m: row(span)["total_s"] for m, span in SPAN_SECONDS.items()}
    values.update({m: row(span)["calls"] for m, span in SPAN_CALLS.items()})
    values.update({m: row(span)["size"] for m, span in SPAN_SIZES.items()})
    values["solver.self_s"] = row("solver.solve")["self_s"]
    values["metrics.busy_s"] = row("metrics.accuracy")["total_s"] + row("metrics.nmi")["total_s"]
    # every Q step solves one linear system per view
    values["solver.q_solves"] = row("solver.update_projections")["calls"] * w.views
    # a real tensor's spectral slices 0 and v/2 are real; the other
    # independent slices, (v - 1) // 2 of them, are complex
    values["tensor_ops.complex_slices"] = (w.views - 1) // 2 * (
        values["tensor_ops.svt_calls"] + values["tensor_ops.etnn_calls"])
    values["hamming_kmeans.distinct_codes"] = int(np.unique(fused, axis=1).shape[1])
    values["trace.cluster_s"] = row("cluster")["total_s"]
    return values


def measure(th, datasets, w, seconds, traced):
    """Make passes over ``datasets``, clustering each once per pass, until
    ``seconds`` have passed and at least MIN_PASSES (MIN_TRACED_PASSES with
    ``traced``) are done; check every output. With ``traced``, odd passes
    are traced."""
    import numpy as np

    rec = SpanRecorder()
    out = {"untraced_s": [[] for _ in datasets], "untraced_passes": [], "traced_passes": [],
           "traced_runs": [], "attempted": 0, "failed": 0, "problems": [],
           "references": [None] * len(datasets), "acc": [], "nmi": []}
    deadline = time.perf_counter() + seconds
    min_passes = MIN_TRACED_PASSES if traced else MIN_PASSES
    passes = 0
    while passes < min_passes or time.perf_counter() < deadline:
        tracing = traced and passes % 2 == 1
        done, runs = [], []
        for j, dataset in enumerate(datasets):
            if not traced and passes >= min_passes and time.perf_counter() >= deadline:
                break
            out["attempted"] += 1
            run = f"{w.name}-pass{passes}-data{j}"
            try:
                if tracing:
                    rec.run = run
                    install_spans(rec, th)
                    try:
                        with rec.span("cluster"):
                            fused, pred = cluster(th.cli, dataset, w)
                        th.metrics.accuracy(pred, dataset.labels)
                        th.metrics.nmi(pred, dataset.labels)
                    finally:
                        rec.restore()
                else:
                    t0 = time.perf_counter()
                    fused, pred = cluster(th.cli, dataset, w)
                    elapsed = time.perf_counter() - t0
            except Exception as exc:  # a clustering that raises is counted as failed
                out["failed"] += 1
                out["problems"].append(f"{run} raised {type(exc).__name__}: {exc}")
                continue
            found = output_problems(fused, pred, w)
            reference = out["references"][j]
            if not found and reference is None:
                out["references"][j] = pred
                out["acc"].append(float(th.metrics.accuracy(pred, dataset.labels)))
                out["nmi"].append(float(th.metrics.nmi(pred, dataset.labels)))
            elif reference is not None and not np.array_equal(pred, reference):
                kind = "traced" if tracing else "untraced"
                found.append(f"{kind} labels differ from the first clustering")
            if found:
                out["failed"] += 1
                out["problems"].extend(f"{run}: {p}" for p in found)
            elif tracing:
                done.append(layer_metrics(rec, run, w, fused))
                runs.append(run)
            else:
                done.append(elapsed)
                out["untraced_s"][j].append(elapsed)
        if len(done) == len(datasets):
            if tracing:
                out["traced_passes"].append({m: sum(d[m] for d in done) for m in done[0]})
                out["traced_runs"] = runs
            else:
                out["untraced_passes"].append(sum(done))
        passes += 1
    out["rows"] = rec.summary(set(out["traced_runs"]))
    out["spans"] = rec.as_records()
    return out


def per_layer(m, load_s):
    """Totals over one traced pass, as the median over the traced passes;
    counts must agree exactly between passes."""
    passes = m["traced_passes"]
    values = {"data.load_s": statistics.median(load_s)}
    for name in PER_LAYER:
        if name in COUNTS:
            seen = {p[name] for p in passes}
            if len(seen) != 1:
                m["problems"].append(f"{name} differs between traced passes: {sorted(seen)}")
            values[name] = passes[0][name]
        elif name in passes[0]:
            values[name] = statistics.median(p[name] for p in passes)
    # fastest against fastest, so that the first pass's warm-up and slow
    # spells of the machine do not count as overhead
    values["trace.overhead_s"] = (min(p["trace.cluster_s"] for p in passes)
                                  - min(m["untraced_passes"]))
    return {name: values[name] for name in PER_LAYER}


def self_time_report(rows, cluster_s):
    lines = [f"self time over one traced pass ({cluster_s:.4f} s of clustering):",
             f"  {'span':42s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s} {'share':>7s}"]
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {name:42s} {row['calls']:7d} {row['total_s']:10.4f} "
                     f"{row['self_s']:10.4f} {row['total_s'] / cluster_s:7.1%}")
    return lines


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def openblas_threads(numpy):
    """Threads OpenBLAS reports it will use, or None if it cannot be asked."""
    import ctypes

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(w, seed, nproc):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_cap": nproc,
        "blas_threads": openblas_threads(numpy),
        "commit": git_commit(),
        "workload": w.name,
        "seed": seed,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tenhash" / "__init__.py").is_file():
        print(f"error: no tenhash source under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    w = WORKLOADS[args.workload]
    work = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    data_dirs = [work / "data" / str(j) for j in range(DATASETS)]
    try:
        run_child("gen.py", SRC, w.name, args.seed, work / "data")
        probes = [json.loads(run_child("probe.py", SRC, data_dirs[0]))
                  for _ in range(SETUP_PROBES)]
        import_s, load_s, th, first = timed_setup(str(SRC), str(data_dirs[0]))
        importlib.import_module("tenhash.cli")
        if not Path(th.__file__).resolve().is_relative_to(SRC):
            print(f"error: imported tenhash from {th.__file__}, not {SRC}", file=sys.stderr)
            return 2
        setup_s = [p["import_s"] + p["load_s"] for p in probes] + [import_s + load_s]
        loads = [p["load_s"] for p in probes] + [load_s]
        datasets = [first]
        for path in data_dirs[1:]:
            t0 = time.perf_counter()
            datasets.append(th.load_multiview(str(path)))
            loads.append(time.perf_counter() - t0)

        m = measure(th, datasets, w, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if (any(r is None for r in m["references"]) or not m["untraced_passes"]
                or (args.trace and not m["traced_passes"])):
            print("error: too few clusterings passed the output gate:", *m["problems"],
                  sep="\n  ", file=sys.stderr)
            return 1
        m["attempted"] += 1
        found = cli_problems(th.cli, data_dirs[0], w, m["references"][0], work)
        if found:
            m["failed"] += 1
            m["problems"].extend(found)
        prov = provenance(w, args.seed, nproc)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = []
    if args.trace:
        metrics = per_layer(m, loads)
        units = PER_LAYER
        lines += self_time_report(m["rows"], m["traced_passes"][-1]["trace.cluster_s"])
        lines.append(f"tracing overhead: {metrics['trace.overhead_s']:+.4f} s per pass"
                     f" of {DATASETS} clusterings")
    else:
        times = sorted(t for per_dataset in m["untraced_s"] for t in per_dataset)
        metrics = {
            # the median over every clustering of the run, datasets pooled:
            # a mean over datasets would move with the odd dataset whose
            # codes collapse (k-means seeding then retries up to n times),
            # and a dataset's fastest time with the host's slow spells
            "cluster_s": statistics.median(times),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
            "acc": statistics.fmean(m["acc"]),
            "nmi": statistics.fmean(m["nmi"]),
        }
        units = END_TO_END
        lines.append(f"{len(times)} clusterings timed")
        if len(times) > 10:
            # the highest percentile with ten clusterings above it
            tail = len(times) - 11
            lines.append(f"p{100 * tail // (len(times) - 1)} of clustering time: "
                         f"{times[tail]:.6g} s")
    error_rate = m["failed"] / m["attempted"]
    for name, value in metrics.items():
        label = COUNTS.get(name, units[name])
        lines.append(f"{name:32s} {value:>14.6g} {label}")
    lines.append(f"{'error_rate':32s} {error_rate:>14.6g} ratio "
                 f"({m['failed']} of {m['attempted']} clustering calls)")
    for problem in m["problems"]:
        print(f"gate: {problem}", file=sys.stderr)

    result = {
        "correct": not m["problems"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    record = {**result, "error_rate": error_rate, "provenance": prov,
              "problems": m["problems"], "untraced_cluster_s": m["untraced_s"],
              "setup_s": setup_s, "load_s": loads, "acc": m["acc"], "nmi": m["nmi"]}
    if args.trace:
        record["spans"] = m["spans"]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{w.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

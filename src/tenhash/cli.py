"""Command-line front end.

Subcommands: ``synth`` and ``noise`` produce dataset directories,
``cluster`` runs the full kernelize/solve/cluster pipeline and writes a
flat JSON report (plus an optional per-iteration trace CSV), ``sweep``
repeats it over a grid of trade-off weights, ``bench`` times the solver
across sample counts, and ``eval`` scores two label files.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

import argparse
import contextlib
import csv
import json
import sys
import time
from dataclasses import replace

import numpy as np

from . import data as datamod
from .exceptions import TenhashError
from .hamming_kmeans import binary_kmeans_restarts
from .kernel import kernelize_views
from .metrics import all_metrics
from .solver import SolverConfig, gram_factors, solve

DEFAULT_ALPHA = 1e-3
DEFAULT_BITS = 64


def _ratio(text):
    value = float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _at_least(kind, low, strict=False):
    """argparse type: ``kind`` of the text, rejected below ``low`` (and at
    it when ``strict``); NaN and +-inf are rejected too."""
    relation = ">" if strict else ">="

    def parse(text):
        value = kind(text)
        if not (value > low if strict else value >= low) or value == np.inf:
            raise argparse.ArgumentTypeError(
                f"must be finite and {relation} {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


_positive_int = _at_least(int, 1)
_positive_float = _at_least(float, 0, strict=True)
_nonnegative_float = _at_least(float, 0)


def _list_of(parse, what):
    """argparse type: a comma-separated list, each entry under ``parse``;
    an empty list is rejected with "no {what} given"."""

    def parse_list(text):
        try:
            values = [parse(tok) for tok in text.split(",") if tok]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")
        if not values:
            raise argparse.ArgumentTypeError(f"no {what} given")
        return values

    return parse_list


def _output_path(text):
    """argparse type of every output-path flag: a non-empty path (an empty
    one would write nothing, or fall back to stdout)."""
    if not text:
        raise argparse.ArgumentTypeError("expected a file path, got ''")
    return text


def _output(path):
    """The file at ``path`` opened for writing, or stdout (left open when
    the block ends) if ``path`` is None."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="")


def _write_report(report, path):
    with _output(path) as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _write_csv(header, rows, path):
    """One CSV of dict ``rows`` under ``header``, a missing cell left
    empty, to ``path`` or stdout."""
    with _output(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=header, restval="")
        writer.writeheader()
        writer.writerows(rows)


def _write_trace(history, path):
    # each column's header and how a record fills it
    columns = (
        ("iter", lambda rec: rec.iteration),
        ("objective", lambda rec: f"{rec.objective:.17g}"),
        ("res_qa", lambda rec: f"{rec.res_projection:.17g}"),
        ("res_be", lambda rec: f"{rec.res_code:.17g}"),
        ("mu", lambda rec: f"{rec.mu:.17g}"),
        ("seconds", lambda rec: f"{rec.seconds:.6f}"),
        ("bits_flipped", lambda rec: rec.bits_flipped),
    )
    rows = ({name: cell(rec) for name, cell in columns} for rec in history)
    _write_csv([name for name, _ in columns], rows, path)


def _solver_config(args, alpha):
    """The solver settings the flags of ``cluster``, ``sweep`` or ``bench``
    give, at trade-off weight ``alpha``."""
    return SolverConfig(alpha=alpha, bits=args.bits, zeta=args.zeta,
                        max_iter=args.max_iter, tol=args.tol, seed=args.seed)


def _prepare(views, anchors, seed, standardize):
    """The part of a run that no solver setting changes: the anchor graphs
    of the views and their Gram factors, as the pair ``(graphs, factors)``
    that :func:`_fit` takes."""
    graphs = kernelize_views(views, anchors, seed, standardize=standardize)
    return graphs, gram_factors(graphs)


def _fit(prepared, config, k, restarts, trace=False):
    """solve -> Hamming k-means on a prepared dataset; returns the hash
    codes, the solver history (with the objective when ``trace``), the
    predicted labels and the wall times of both phases."""
    t0 = time.perf_counter()
    codes, history = solve(*prepared, config, trace=trace)
    t1 = time.perf_counter()
    model = binary_kmeans_restarts(codes.fused, k, restarts=restarts, seed=config.seed)
    t2 = time.perf_counter()
    return codes, history, model.labels, {"time_solve": t1 - t0, "time_cluster": t2 - t1}


def _pipeline(dataset, anchors, bits, alpha, zeta, k, seed, max_iter, tol,
              standardize, restarts=8, trace=False):
    """kernelize -> solve -> Hamming k-means, the run of ``cluster``;
    returns what :func:`_fit` does, with ``time_kernelize`` (the graphs
    and their Gram factors) added to the times."""
    t0 = time.perf_counter()
    prepared = _prepare(dataset.views, anchors, seed, standardize)
    time_kernelize = time.perf_counter() - t0
    config = SolverConfig(alpha=alpha, bits=bits, zeta=zeta, max_iter=max_iter, tol=tol, seed=seed)
    codes, history, pred, times = _fit(prepared, config, k, restarts, trace)
    return codes, history, pred, {"time_kernelize": time_kernelize, **times}


def _resolve_anchors_k(args, dataset, parser):
    """Anchor count and cluster count for a run: the flags when given,
    else min(1000, n) anchors and the number of distinct labels."""
    anchors = args.anchors if args.anchors is not None else min(1000, dataset.n)
    if anchors > dataset.n:
        parser.error(f"--anchors: {anchors} exceeds the {dataset.n} samples")
    if args.k is not None:
        if args.k > dataset.n:
            parser.error(f"--k: {args.k} exceeds the {dataset.n} samples")
        return anchors, args.k
    if dataset.labels is not None:
        return anchors, int(len(np.unique(dataset.labels)))
    parser.error("--k is required when the dataset has no labels.csv")


def _view_dims(args, parser):
    """--dims, or 10 features per view; one entry per view (--views)."""
    dims = args.dims if args.dims is not None else [10] * args.views
    if len(dims) != args.views:
        parser.error(f"--dims: {len(dims)} entries for {args.views} views")
    return dims


def cmd_synth(args, parser):
    dims = _view_dims(args, parser)
    if args.k > args.n:
        parser.error(f"--k: {args.k} exceeds --n, {args.n} samples")
    dataset = datamod.gen_gaussian_clusters(
        k=args.k, v=args.views, n=args.n, dims=dims, sep=args.sep, seed=args.seed,
    )
    datamod.save_multiview(dataset, args.out, force=args.force)
    print(f"wrote {dataset.name} ({args.views} views, n={args.n}) to {args.out}")
    return 0


def cmd_noise(args, parser):
    dataset = datamod.load_multiview(args.dataset)
    noisy_views = [
        datamod.salt_pepper(view, args.ratio, args.seed + p)
        for p, view in enumerate(dataset.views)
    ]
    noisy = datamod.MultiViewData(
        views=noisy_views, labels=dataset.labels,
        name=f"{dataset.name}_sp{args.ratio:g}",
    )
    datamod.save_multiview(noisy, args.out, force=args.force)
    print(f"wrote {noisy.name} to {args.out}")
    return 0


def cmd_cluster(args, parser):
    dataset = datamod.load_multiview(args.dataset)
    anchors, k = _resolve_anchors_k(args, dataset, parser)
    codes, history, pred, times = _pipeline(
        dataset, anchors, args.bits, args.alpha, args.zeta, k, args.seed,
        args.max_iter, args.tol, not args.no_standardize, args.restarts,
        trace=args.trace is not None,
    )
    report = {
        "dataset": dataset.name,
        "n": dataset.n,
        "views": len(dataset.views),
        "anchors": anchors,
        "bits": args.bits,
        "alpha": args.alpha,
        "zeta": args.zeta,
        "k": k,
        "seed": args.seed,
        "iterations": len(history),
        "stop_reason": codes.stop_reason,
        "final_res_qa": history[-1].res_projection,
        "final_res_be": history[-1].res_code,
    }
    if dataset.labels is not None:
        report.update(all_metrics(pred, dataset.labels))
    report.update(times)
    _write_report(report, args.out)
    if args.trace is not None:
        _write_trace(history, args.trace)
    if args.labels_out is not None:
        np.savetxt(args.labels_out, pred, fmt="%d")
    if args.codes_out is not None:
        np.savetxt(args.codes_out, codes.fused, fmt="%d", delimiter=",")
    return 0


def cmd_sweep(args, parser):
    dataset = datamod.load_multiview(args.dataset)
    anchors, k = _resolve_anchors_k(args, dataset, parser)
    alphas = args.alphas if args.alphas is not None else [10.0 ** e for e in range(-8, 3)]
    # a failure here fails every alpha alike: it ends the command
    prepared = _prepare(dataset.views, anchors, args.seed, not args.no_standardize)
    rows = []
    failures = 0
    for alpha in alphas:
        try:
            _, history, pred, _ = _fit(prepared, _solver_config(args, alpha), k, args.restarts)
            scores = all_metrics(pred, dataset.labels) if dataset.labels is not None else {}
            rows.append({"alpha": alpha, **scores, "iterations": len(history), "error": ""})
        except (TenhashError, ValueError, OSError) as exc:
            failures += 1
            rows.append({"alpha": alpha, "iterations": 0, "error": str(exc)})
            print(f"alpha={alpha:g} failed: {exc}", file=sys.stderr)
    fields = ["alpha", "acc", "nmi", "purity", "fscore", "ari", "iterations", "error"]
    _write_csv(fields, rows, args.out)
    return 1 if failures else 0


def cmd_bench(args, parser):
    dims = _view_dims(args, parser)
    for flag, value in (("--anchors", args.anchors), ("--k", args.k)):
        if value > min(args.sizes):
            parser.error(f"{flag}: {value} exceeds the smallest --sizes "
                         f"entry, {min(args.sizes)} samples")
    # small untimed run first so BLAS thread pools are already warm
    warm = datamod.gen_gaussian_clusters(
        k=args.k, v=args.views, n=max(10 * args.k, 200), dims=dims,
        sep=args.sep, seed=args.seed,
    )
    config = _solver_config(args, args.alpha)
    solve(*_prepare(warm.views, min(args.anchors, warm.n), args.seed, True),
          replace(config, max_iter=2))
    rows = []
    for n in args.sizes:
        dataset = datamod.gen_gaussian_clusters(
            k=args.k, v=args.views, n=n, dims=dims, sep=args.sep, seed=args.seed,
        )
        graphs = kernelize_views(dataset.views, args.anchors, args.seed)
        # timed with the Gram factors, which a single solve of these graphs needs
        t0 = time.perf_counter()
        _, history = solve(graphs, gram_factors(graphs), config)
        seconds = time.perf_counter() - t0
        iters = len(history)
        per_iter = sum(rec.seconds for rec in history) / iters
        rows.append({
            "n": n,
            "seconds": f"{seconds:.6f}",
            "iterations": iters,
            "sec_per_iter": f"{per_iter:.6f}",
        })
    _write_csv(["n", "seconds", "iterations", "sec_per_iter"], rows, args.out)
    return 0


def cmd_eval(args, parser):
    pred = datamod.parse_labels_file(args.pred)
    truth = datamod.parse_labels_file(args.truth)
    report = all_metrics(pred, truth)
    _write_report(report, args.out)
    return 0


def _add_pipeline_flags(sub):
    sub.add_argument("--anchors", type=_positive_int, default=None,
                     help="anchor count m (default min(1000, n))")
    sub.add_argument("--bits", type=_positive_int, default=DEFAULT_BITS,
                     help="hash code length")
    sub.add_argument("--alpha", type=_nonnegative_float, default=DEFAULT_ALPHA,
                     help="data-fit trade-off weight")
    sub.add_argument("--zeta", type=_nonnegative_float, default=0.1,
                     help="second-stage shrinkage weight")
    sub.add_argument("--k", type=_positive_int, default=None,
                     help="cluster count (default: number of distinct labels)")
    sub.add_argument("--seed", type=_at_least(int, 0), default=0)
    sub.add_argument("--max-iter", type=_positive_int, default=100)
    sub.add_argument("--tol", type=_positive_float, default=1e-6)
    sub.add_argument("--no-standardize", action="store_true",
                     help="skip per-feature z-scoring before kernelization")
    sub.add_argument("--restarts", type=_positive_int, default=8,
                     help="seeded k-means restarts, best quantization error wins")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tenhash",
        description="Multi-view clustering via tensorized projection hashing.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="generate a synthetic dataset directory")
    synth.add_argument("--k", type=_positive_int, required=True)
    synth.add_argument("--views", type=_positive_int, default=2)
    synth.add_argument("--n", type=_positive_int, required=True)
    synth.add_argument("--dims", type=_list_of(_positive_int, "feature dims"), default=None,
                       help="per-view feature dims, e.g. 10,10")
    synth.add_argument("--sep", type=_nonnegative_float, default=8.0)
    synth.add_argument("--seed", type=_at_least(int, 0), default=0)
    synth.add_argument("--out", type=_output_path, required=True)
    synth.add_argument("--force", action="store_true")
    synth.set_defaults(func=cmd_synth)

    noise = subs.add_parser("noise", help="salt-and-pepper corrupt a dataset")
    noise.add_argument("dataset")
    noise.add_argument("--ratio", type=_ratio, required=True)
    noise.add_argument("--seed", type=_at_least(int, 0), default=0)
    noise.add_argument("--out", type=_output_path, required=True)
    noise.add_argument("--force", action="store_true")
    noise.set_defaults(func=cmd_noise)

    cluster = subs.add_parser("cluster", help="end-to-end clustering run")
    cluster.add_argument("dataset")
    _add_pipeline_flags(cluster)
    cluster.add_argument("--out", type=_output_path, default=None,
                         help="report path (default stdout)")
    cluster.add_argument("--trace", type=_output_path, default=None,
                         help="per-iteration CSV path")
    cluster.add_argument("--labels-out", type=_output_path, default=None,
                         help="write predicted labels, one per line")
    cluster.add_argument("--codes-out", type=_output_path, default=None,
                         help="write the fused sign codes as CSV")
    cluster.set_defaults(func=cmd_cluster)

    sweep = subs.add_parser("sweep", help="repeat cluster over an alpha grid")
    sweep.add_argument("dataset")
    _add_pipeline_flags(sweep)
    sweep.add_argument("--alphas", type=_list_of(_nonnegative_float, "alphas"), default=None,
                       help="comma-separated grid (default 1e-8..1e2 decades)")
    sweep.add_argument("--out", type=_output_path, required=True,
                       help="aggregated CSV path")
    sweep.set_defaults(func=cmd_sweep)

    bench = subs.add_parser("bench", help="time the solver across sample counts")
    bench.add_argument("--sizes", type=_list_of(_positive_int, "sample counts"), required=True,
                       help="comma-separated sample counts")
    bench.add_argument("--k", type=_positive_int, default=4)
    bench.add_argument("--views", type=_positive_int, default=2)
    bench.add_argument("--dims", type=_list_of(_positive_int, "feature dims"), default=None)
    bench.add_argument("--sep", type=_nonnegative_float, default=8.0)
    bench.add_argument("--anchors", type=_positive_int, default=500)
    bench.add_argument("--bits", type=_positive_int, default=32)
    bench.add_argument("--alpha", type=_nonnegative_float, default=DEFAULT_ALPHA)
    bench.add_argument("--zeta", type=_nonnegative_float, default=0.1)
    bench.add_argument("--max-iter", type=_positive_int, default=5,
                       help="fixed iteration cap applied at every size")
    bench.add_argument("--tol", type=_positive_float, default=1e-12,
                       help="kept tiny so every size runs the full cap")
    bench.add_argument("--seed", type=_at_least(int, 0), default=0)
    bench.add_argument("--out", type=_output_path, default=None)
    bench.set_defaults(func=cmd_bench)

    evalp = subs.add_parser("eval", help="score predicted labels against truth")
    evalp.add_argument("pred")
    evalp.add_argument("truth")
    evalp.add_argument("--out", type=_output_path, default=None)
    evalp.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (TenhashError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

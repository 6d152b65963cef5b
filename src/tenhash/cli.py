"""Command-line front end.

Subcommands: ``synth`` and ``noise`` produce dataset directories,
``cluster`` runs the full kernelize/solve/cluster pipeline and writes a
flat JSON report (plus an optional per-iteration trace CSV), ``sweep``
repeats it over a grid of trade-off weights, ``bench`` times the solver
across sample counts, and ``eval`` scores two label files.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import data as datamod
from .exceptions import TenhashError
from .hamming_kmeans import binary_kmeans_restarts, labels as model_labels
from .kernel import kernelize_views
from .metrics import all_metrics
from .solver import SolverConfig, solve

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


def _int_list(text):
    """Comma-separated integers, each under the _positive_int rule."""
    try:
        return [_positive_int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _alpha_list(text):
    """Comma-separated --alphas grid, each entry under the --alpha rule."""
    try:
        return [_nonnegative_float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _write_report(report, path):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_trace(history, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "iter", "objective", "res_qa", "res_be", "mu", "seconds",
            "bits_flipped", "projection_residual",
        ])
        for rec in history:
            writer.writerow([
                rec.iteration,
                f"{rec.objective:.17g}",
                f"{rec.res_projection:.17g}",
                f"{rec.res_code:.17g}",
                f"{rec.mu:.17g}",
                f"{rec.seconds:.6f}",
                rec.bits_flipped,
                f"{rec.projection_residual:.17g}",
            ])


def _pipeline(dataset, anchors, bits, alpha, zeta, k, seed, max_iter, tol,
              standardize, restarts=8):
    """kernelize -> solve -> Hamming k-means; returns predictions,
    solver history and per-phase wall times."""
    t0 = time.perf_counter()
    graphs = kernelize_views(dataset.views, anchors, seed, standardize=standardize)
    t1 = time.perf_counter()
    config = SolverConfig(
        alpha=alpha, bits=bits, zeta=zeta, max_iter=max_iter, tol=tol, seed=seed,
    )
    codes, history = solve(graphs, config)
    t2 = time.perf_counter()
    model = binary_kmeans_restarts(codes.fused, k, restarts=restarts, seed=seed)
    pred = model_labels(model)
    t3 = time.perf_counter()
    times = {
        "time_kernelize": t1 - t0,
        "time_solve": t2 - t1,
        "time_cluster": t3 - t2,
    }
    return codes, history, pred, times


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
        "final_res_qa": history[-1].res_projection if history else 0.0,
        "final_res_be": history[-1].res_code if history else 0.0,
    }
    if dataset.labels is not None:
        report.update(all_metrics(pred, dataset.labels))
    report.update(times)
    _write_report(report, args.out)
    if args.trace:
        _write_trace(history, args.trace)
    if args.labels_out:
        np.savetxt(args.labels_out, pred, fmt="%d")
    if args.codes_out:
        np.savetxt(args.codes_out, codes.fused, fmt="%d", delimiter=",")
    return 0


def cmd_sweep(args, parser):
    dataset = datamod.load_multiview(args.dataset)
    anchors, k = _resolve_anchors_k(args, dataset, parser)
    alphas = args.alphas if args.alphas is not None else [10.0 ** e for e in range(-8, 3)]
    rows = []
    failures = 0
    for alpha in alphas:
        try:
            _, history, pred, _ = _pipeline(
                dataset, anchors, args.bits, alpha, args.zeta, k, args.seed,
                args.max_iter, args.tol, not args.no_standardize, args.restarts,
            )
            scores = (
                all_metrics(pred, dataset.labels)
                if dataset.labels is not None else {}
            )
            rows.append({
                "alpha": alpha,
                **scores,
                "iterations": len(history),
                "error": "",
            })
        except (TenhashError, ValueError, OSError) as exc:
            failures += 1
            rows.append({"alpha": alpha, "iterations": 0, "error": str(exc)})
            print(f"alpha={alpha:g} failed: {exc}", file=sys.stderr)
    fields = ["alpha", "acc", "nmi", "purity", "fscore", "ari", "iterations", "error"]
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return 1 if failures else 0


def cmd_bench(args, parser):
    dims = _view_dims(args, parser)
    if args.sizes and args.anchors > min(args.sizes):
        parser.error(f"--anchors: {args.anchors} exceeds the smallest --sizes "
                     f"entry, {min(args.sizes)} samples")
    # small untimed run first so BLAS thread pools are already warm
    warm = datamod.gen_gaussian_clusters(
        k=args.k, v=args.views, n=max(10 * args.k, 200), dims=dims,
        sep=args.sep, seed=args.seed,
    )
    solve(
        kernelize_views(warm.views, min(args.anchors, warm.n), args.seed),
        SolverConfig(alpha=args.alpha, bits=args.bits, zeta=args.zeta,
                     max_iter=2, tol=args.tol, seed=args.seed),
    )
    rows = []
    for n in args.sizes:
        dataset = datamod.gen_gaussian_clusters(
            k=args.k, v=args.views, n=n, dims=dims, sep=args.sep, seed=args.seed,
        )
        graphs = kernelize_views(dataset.views, args.anchors, args.seed)
        config = SolverConfig(
            alpha=args.alpha, bits=args.bits, zeta=args.zeta,
            max_iter=args.max_iter, tol=args.tol, seed=args.seed,
        )
        t0 = time.perf_counter()
        _, history = solve(graphs, config)
        seconds = time.perf_counter() - t0
        iters = len(history)
        per_iter = sum(rec.seconds for rec in history) / iters if iters else 0.0
        rows.append({
            "n": n,
            "seconds": f"{seconds:.6f}",
            "iterations": iters,
            "sec_per_iter": f"{per_iter:.6f}",
        })
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=["n", "seconds", "iterations", "sec_per_iter"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    finally:
        if args.out:
            out.close()
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
    sub.add_argument("--seed", type=int, default=0)
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
    synth.add_argument("--dims", type=_int_list, default=None,
                       help="per-view feature dims, e.g. 10,10")
    synth.add_argument("--sep", type=_nonnegative_float, default=8.0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)
    synth.add_argument("--force", action="store_true")
    synth.set_defaults(func=cmd_synth)

    noise = subs.add_parser("noise", help="salt-and-pepper corrupt a dataset")
    noise.add_argument("dataset")
    noise.add_argument("--ratio", type=_ratio, required=True)
    noise.add_argument("--seed", type=int, default=0)
    noise.add_argument("--out", required=True)
    noise.add_argument("--force", action="store_true")
    noise.set_defaults(func=cmd_noise)

    cluster = subs.add_parser("cluster", help="end-to-end clustering run")
    cluster.add_argument("dataset")
    _add_pipeline_flags(cluster)
    cluster.add_argument("--out", default=None, help="report path (default stdout)")
    cluster.add_argument("--trace", default=None, help="per-iteration CSV path")
    cluster.add_argument("--labels-out", default=None,
                         help="write predicted labels, one per line")
    cluster.add_argument("--codes-out", default=None,
                         help="write the fused sign codes as CSV")
    cluster.set_defaults(func=cmd_cluster)

    sweep = subs.add_parser("sweep", help="repeat cluster over an alpha grid")
    sweep.add_argument("dataset")
    _add_pipeline_flags(sweep)
    sweep.add_argument("--alphas", type=_alpha_list, default=None,
                       help="comma-separated grid (default 1e-8..1e2 decades)")
    sweep.add_argument("--out", required=True, help="aggregated CSV path")
    sweep.set_defaults(func=cmd_sweep)

    bench = subs.add_parser("bench", help="time the solver across sample counts")
    bench.add_argument("--sizes", type=_int_list, required=True,
                       help="comma-separated sample counts")
    bench.add_argument("--k", type=_positive_int, default=4)
    bench.add_argument("--views", type=_positive_int, default=2)
    bench.add_argument("--dims", type=_int_list, default=None)
    bench.add_argument("--sep", type=_nonnegative_float, default=8.0)
    bench.add_argument("--anchors", type=_positive_int, default=500)
    bench.add_argument("--bits", type=_positive_int, default=32)
    bench.add_argument("--alpha", type=_nonnegative_float, default=DEFAULT_ALPHA)
    bench.add_argument("--zeta", type=_nonnegative_float, default=0.1)
    bench.add_argument("--max-iter", type=_positive_int, default=5,
                       help="fixed iteration cap applied at every size")
    bench.add_argument("--tol", type=_positive_float, default=1e-12,
                       help="kept tiny so every size runs the full cap")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", default=None)
    bench.set_defaults(func=cmd_bench)

    evalp = subs.add_parser("eval", help="score predicted labels against truth")
    evalp.add_argument("pred")
    evalp.add_argument("truth")
    evalp.add_argument("--out", default=None)
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

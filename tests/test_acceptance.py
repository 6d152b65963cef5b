"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The synthetic protocol shared by the end-to-end criteria is a 4-cluster,
2-view, 400-sample Gaussian dataset (4 features per view, separation 8,
seed 1) clustered with 100 anchors, 16-bit codes, alpha=0.01, zeta=0.3,
solver seed 0, 8 k-means restarts, and no feature standardization (the
generator already emits unit-variance features).
"""

import csv
import time

import numpy as np
import pytest

import oracles
from conftest import random_tensor_corpus
from tenhash import solver
from tenhash.cli import _write_trace, build_parser, main
from tenhash.data import MultiViewData, gen_gaussian_clusters, salt_pepper
from tenhash.hamming_kmeans import binary_kmeans_restarts
from tenhash.kernel import kernelize_views
from tenhash.metrics import accuracy, all_metrics, ari, f_score, nmi, purity
from tenhash.solver import SolverConfig, gram_factors, init_state, solve, update_codes
from tenhash.tensor_ops import (
    _from_spectrum,
    _spectrum,
    enhanced_tensor_svt,
    matrix_svt,
    t_product,
    t_svd,
    t_transpose,
    tensor_nuclear_norm,
    tensor_svt,
)

README = "README.md"


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def rel_err(a, b):
    denom = np.linalg.norm(b)
    return np.linalg.norm(a - b) / (denom if denom else 1.0)


@pytest.fixture(scope="module")
def synthetic_run():
    """The shared end-to-end run behind criteria 3, 4, 5 and 6."""
    data = gen_gaussian_clusters(k=4, v=2, n=400, dims=[4, 4], sep=8, seed=1)
    t0 = time.perf_counter()
    graphs = kernelize_views(data.views, 100, seed=0, standardize=False)
    config = SolverConfig(alpha=0.01, bits=16, zeta=0.3, seed=0)
    # every projection step of the run, scored against the assembled
    # normal equations (criterion 3)
    q_residuals = []
    step = solver.update_projections

    def scored_step(state, *args):
        q = step(state, *args)
        q_residuals.append(oracles.projection_residual(graphs, state, config, q))
        return q

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "update_projections", scored_step)
        codes, history = solve(graphs, gram_factors(graphs), config, trace=True)
    model = binary_kmeans_restarts(codes.fused, 4, restarts=8, seed=0)
    scores = all_metrics(model.labels, data.labels)
    elapsed = time.perf_counter() - t0
    return {
        "data": data,
        "config": config,
        "history": history,
        "q_residuals": q_residuals,
        "scores": scores,
        "elapsed": elapsed,
    }


def run_noisy_variant(base_run):
    data = base_run["data"]
    noisy = MultiViewData(
        views=[salt_pepper(v, 0.1, 100 + p) for p, v in enumerate(data.views)],
        labels=data.labels,
        name="noisy",
    )
    graphs = kernelize_views(noisy.views, 100, seed=0, standardize=False)
    codes, _ = solve(graphs, gram_factors(graphs), base_run["config"])
    model = binary_kmeans_restarts(codes.fused, 4, restarts=8, seed=0)
    return all_metrics(model.labels, noisy.labels)


def test_criterion_1_tensor_algebra_oracles():
    t0 = time.perf_counter()
    worst_recon = worst_tnn = worst_svt = worst_round = 0.0
    for i, t in enumerate(random_tensor_corpus(100, dmax=8, seed=7)):
        worst_round = max(
            worst_round, rel_err(_from_spectrum(_spectrum(t)), t)
        )
        factors = t_svd(t)
        recon = t_product(factors.U, t_product(factors.S, t_transpose(factors.V)))
        worst_recon = max(worst_recon, rel_err(recon, t))
        worst_tnn = max(
            worst_tnn, abs(tensor_nuclear_norm(t) - oracles.naive_tnn(t))
        )
        if i % 4 == 0:  # svt oracle is O(d3^2); spot-check a quarter
            tau = 0.1 + 0.05 * (i % 7)
            worst_svt = max(
                worst_svt,
                np.max(np.abs(tensor_svt(t, tau) - oracles.naive_tensor_svt(t, tau))),
            )
    elapsed = time.perf_counter() - t0
    ok = (
        worst_recon <= 1e-8
        and worst_tnn <= 1e-8
        and worst_svt <= 1e-8
        and worst_round <= 1e-12
        and elapsed < 10
    )
    report(
        1, ok,
        f"100 tensors: recon {worst_recon:.1e} (<=1e-8), tnn {worst_tnn:.1e} "
        f"(<=1e-8), svt {worst_svt:.1e} (<=1e-8), round-trip {worst_round:.1e} "
        f"(<=1e-12), {elapsed:.1f}s (<10s)",
    )


def test_criterion_2_prox_optimality():
    t0 = time.perf_counter()
    perturb_rng = np.random.default_rng(40)
    svt_ok = True
    for i in range(50):
        m = np.random.default_rng(500 + i).standard_normal((5, 4))
        tau = 0.2 + 0.03 * i
        x = matrix_svt(m, tau)
        base = oracles.svt_objective(x, m, tau)
        for _ in range(1000):
            step = perturb_rng.choice([1e-3, 1e-1, 1.0])
            cand = x + step * perturb_rng.standard_normal((5, 4))
            if base > oracles.svt_objective(cand, m, tau) + 1e-12:
                svt_ok = False
    shrink_ok = True
    param_rng = np.random.default_rng(41)
    for i in range(30):
        shape = tuple(np.random.default_rng(1000 + i).integers(2, 7, size=3))
        t = np.random.default_rng(2000 + i).standard_normal(shape)
        mu = param_rng.uniform(0.5, 4.0)
        zeta = param_rng.uniform(0.0, 0.5)
        lam = param_rng.uniform(0.0, 0.5)
        out = enhanced_tensor_svt(t, mu, zeta, lam)
        if oracles.naive_tnn(out) > oracles.naive_tnn(t) + 1e-9:
            shrink_ok = False
        nn_in = oracles.matrix_nuclear_norm(oracles.spectral_singular_values(t))
        nn_out = oracles.matrix_nuclear_norm(oracles.spectral_singular_values(out))
        if nn_out > nn_in + 1e-9:
            shrink_ok = False
    elapsed = time.perf_counter() - t0
    ok = svt_ok and shrink_ok and elapsed < 30
    report(
        2, ok,
        f"svt beats 1000 perturbations on 50 matrices: {svt_ok}; two-stage prox "
        f"shrinks core nuclear norm and tnn on 30 tensors: {shrink_ok}; "
        f"{elapsed:.1f}s (<30s)",
    )


def test_criterion_3_subproblem_exactness(synthetic_run):
    exact = True
    for i in range(200):
        rng = np.random.default_rng(3000 + i)
        bits = int(rng.integers(1, 5))
        n = int(rng.integers(1, 12 // bits + 1))
        graphs = rng.standard_normal((1, 3, n))
        alpha, mu = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0))
        config = SolverConfig(alpha=alpha, bits=bits, seed=int(rng.integers(1000)))
        state = init_state(graphs, config)
        state.mu = mu
        state.aux_code = rng.standard_normal((1, bits, n))
        state.dual_code = rng.standard_normal((1, bits, n))
        got = update_codes(state, graphs, config)[0]
        target = (
            config.alpha * (state.projections[0].T @ graphs[0])
            + 0.5 * (state.mu * state.aux_code[0] - state.dual_code[0])
        )
        _, best_val = oracles.best_sign_matrix(target)
        if np.trace(got.T @ target) < best_val - 1e-10:
            exact = False
    q_residuals = synthetic_run["q_residuals"]
    every_step = len(q_residuals) == len(synthetic_run["history"])
    worst_residual = max(q_residuals)
    ok = exact and every_step and worst_residual <= 1e-8
    report(
        3, ok,
        f"sign step matches brute force on 200 instances (l*n<=12): {exact}; "
        f"worst projection normal-equation residual {worst_residual:.1e} (<=1e-8) "
        f"over {len(q_residuals)} steps, one per iteration: {every_step}",
    )


def test_criterion_4_end_to_end_synthetic(synthetic_run):
    scores = synthetic_run["scores"]
    elapsed = synthetic_run["elapsed"]
    ok = scores["acc"] >= 0.95 and scores["nmi"] >= 0.90 and elapsed < 60
    report(
        4, ok,
        f"4-cluster synthetic: acc {scores['acc']:.3f} (>=0.95), "
        f"nmi {scores['nmi']:.3f} (>=0.90), {elapsed:.1f}s (<60s)",
    )


def test_criterion_5_salt_pepper_robustness(synthetic_run):
    noisy_scores = run_noisy_variant(synthetic_run)
    drop = synthetic_run["scores"]["acc"] - noisy_scores["acc"]
    ok = drop <= 0.15
    report(
        5, ok,
        f"salt-and-pepper 0.1: acc {noisy_scores['acc']:.3f}, "
        f"drop {drop:+.3f} (<=0.15)",
    )


def test_criterion_6_convergence(synthetic_run, tmp_path):
    history = synthetic_run["history"]
    config = synthetic_run["config"]
    m, bits, n, v = 100, 16, 400, 2
    q_norm = np.sqrt(m * bits * v)
    b_norm = np.sqrt(bits * n * v)
    final = history[-1]
    normalized = max(final.res_projection / q_norm, final.res_code / b_norm)
    trace = tmp_path / "trace.csv"
    _write_trace(history, trace)
    with open(trace) as fh:
        rows = list(csv.DictReader(fh))
    reduction_ok = (
        float(rows[-1]["res_qa"]) <= float(rows[0]["res_qa"]) / 10
        and float(rows[-1]["res_be"]) <= float(rows[0]["res_be"]) / 10
    )
    ok = normalized < 1e-6 and len(history) <= 100 and reduction_ok
    report(
        6, ok,
        f"converged in {len(history)} iterations (<=100), final normalized "
        f"residual {normalized:.1e} (<1e-6), trace residual reduction >=10x: "
        f"{reduction_ok}",
    )


def test_criterion_7_linear_scaling(tmp_path):
    # a wall-clock gate on a shared host: each size's time is the minimum
    # over repeated runs, so one slow spell does not decide it
    runs = []
    for repeat in range(3):
        out = tmp_path / f"bench{repeat}.csv"
        code = main([
            "bench", "--sizes", "5000,10000,20000", "--anchors", "500",
            "--bits", "32", "--max-iter", "5", "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        with open(out) as fh:
            runs.append([float(r["sec_per_iter"]) for r in csv.DictReader(fh)])
    per_iter = [min(times) for times in zip(*runs)]
    ratios = [per_iter[i + 1] / per_iter[i] for i in range(len(per_iter) - 1)]
    ok = all(r <= 2.6 for r in ratios)
    report(
        7, ok,
        f"per-iteration seconds {['%.3f' % s for s in per_iter]} over n=5k/10k/20k, "
        f"doubling ratios {['%.2f' % r for r in ratios]} (<=2.6)",
    )


def test_criterion_8_metric_oracles():
    rng = np.random.default_rng(31)
    acc_ok = True
    for _ in range(200):
        k = int(rng.integers(1, 7))
        n = int(rng.integers(k, 30))
        pred = rng.integers(0, k, size=n)
        truth = rng.integers(0, int(rng.integers(1, 7)), size=n)
        if abs(accuracy(pred, truth) - oracles.accuracy_by_permutation(pred, truth)) > 1e-12:
            acc_ok = False
    others_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 40))
        pred = rng.integers(0, int(rng.integers(1, 7)), size=n)
        truth = rng.integers(0, int(rng.integers(1, 7)), size=n)
        pairs = (
            (nmi, oracles.nmi_from_scratch),
            (purity, oracles.purity_from_scratch),
            (f_score, oracles.f_score_from_pairs),
            (ari, oracles.ari_from_pairs),
        )
        for mine, ref in pairs:
            if abs(mine(pred, truth) - ref(pred, truth)) > 1e-12:
                others_ok = False
    ok = acc_ok and others_ok
    report(
        8, ok,
        f"accuracy equals permutation brute force on 200 instances: {acc_ok}; "
        f"nmi/purity/f-score/ari match independent oracles within 1e-12: {others_ok}",
    )


def test_criterion_9_real_dataset_protocol_documented():
    with open(README) as fh:
        text = fh.read()
    documented = (
        "tenhash cluster data/hundred_leaves" in text
        and "--k 100" in text
        and "view_1.csv" in text
        and "0.86" in text
    )
    # the documented invocation must parse; nothing is executed here and
    # published benchmark numbers are not reproduced at desk scale
    line = next(
        line for line in text.splitlines() if "tenhash cluster data/hundred_leaves" in line
    )
    argv = line.strip().lstrip("$ ").split()[1:]
    parsed = build_parser().parse_args(argv)
    parse_ok = parsed.command == "cluster" and parsed.k == 100
    ok = documented and parse_ok
    report(
        9, ok,
        "hundred-leaves invocation documented and parseable; published-table "
        f"reproduction explicitly not claimed (documented={documented}, "
        f"parses={parse_ok})",
    )

import re
import warnings

import numpy as np
import pytest

import oracles
from tenhash import solver
from tenhash.data import gen_gaussian_clusters, salt_pepper
from tenhash.exceptions import InconsistentSampleCounts, NonFinite, ShapeMismatch
from tenhash.hamming_kmeans import binary_kmeans_restarts
from tenhash.kernel import kernelize_views
from tenhash.solver import (
    MU0,
    HashCodes,
    SolverConfig,
    _primal_gaps,
    fuse_codes,
    gram_factors,
    init_state,
    objective_value,
    solve,
    update_aux_code,
    update_aux_projection,
    update_codes,
    update_multipliers,
    update_projections,
)
from tenhash.tensor_ops import enhanced_tensor_svt


def make_graphs(rng, v=2, m=5, n=12):
    return rng.random((v, m, n))


def make_config(**kw):
    defaults = dict(alpha=0.5, bits=3, zeta=0.1, seed=0)
    defaults.update(kw)
    return SolverConfig(**defaults)


# ---------------------------------------------------------------------------
# initialization


def test_init_deterministic(rng):
    graphs = [np.ones((4, 6))]
    a = init_state(graphs, make_config())
    b = init_state(graphs, make_config())
    for x, y in zip(a.projections, b.projections):
        assert np.array_equal(x, y)
    for x, y in zip(a.codes, b.codes):
        assert np.array_equal(x, y)


def test_init_zero_graphs_codes_all_plus_one():
    graphs = [np.zeros((4, 6)), np.zeros((4, 6))]
    state = init_state(graphs, make_config())
    for b in state.codes:
        assert np.all(b == 1.0)


def test_init_primal_residuals_exactly_zero(rng):
    graphs = make_graphs(rng)
    state = init_state(graphs, make_config())
    assert np.array_equal(state.projections, state.aux_projection)
    assert np.array_equal(state.codes, state.aux_code)
    assert np.all(state.dual_projection == 0)
    assert np.all(state.dual_code == 0)
    assert state.mu == MU0


@pytest.mark.parametrize("field", ["alpha", "zeta", "tol"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        make_config(**{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("bits", 0, "bits must be >= 1, got 0"),
    ("max_iter", -1, "max_iter must be >= 0"),
])
def test_config_rejects_out_of_range_counts(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_config(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("bits", 2.5), ("bits", 8.0), ("max_iter", 3.5), ("max_iter", np.float64(10)),
    ("seed", 1.5), ("seed", "0"),
])
def test_config_rejects_non_integer_counts(field, value):
    message = f"{field} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_config(**{field: value})


def test_config_takes_numpy_integer_counts(rng):
    config = make_config(bits=np.int64(3), max_iter=np.int32(2), seed=np.uint8(4))
    graphs = make_graphs(rng)
    codes, history = solve(graphs, gram_factors(graphs), config)
    assert codes.fused.shape == (3, 12) and len(history) == 2


def test_init_rejects_mismatched_n(rng):
    with pytest.raises(InconsistentSampleCounts):
        init_state([rng.random((3, 5)), rng.random((3, 6))], make_config())


# each entry point on a graph list, with factors for 2 views of 3 anchors
# where it takes them
ENTRIES = {
    "init_state": lambda graphs: init_state(graphs, make_config()),
    "solve": lambda graphs: solve(graphs, gram_factors(np.ones((2, 3, 5))), make_config()),
    "gram_factors": gram_factors,
}


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_graph_lists_checked_before_stacking(rng, entry):
    with pytest.raises(ShapeMismatch):
        ENTRIES[entry]([rng.random((3, 5)), rng.random((4, 5))])
    with pytest.raises(InconsistentSampleCounts):
        ENTRIES[entry]([])
    # a graph that is not 2-D is named by its view and shape
    with pytest.raises(ShapeMismatch, match=r"view 1 is not 2-D: shape \(5,\)"):
        ENTRIES[entry](rng.random((3, 5)))
    with pytest.raises(ShapeMismatch, match=r"view 2 is not 2-D: shape \(5,\)"):
        ENTRIES[entry]([rng.random((3, 5)), rng.random(5)])
    with pytest.raises(ShapeMismatch, match=r"view 1 is not 2-D: shape \(3, 5, 2\)"):
        ENTRIES[entry](rng.random((2, 3, 5, 2)))


@pytest.mark.parametrize("v, m", [(3, 4), (2, 5), (1, 4)])
def test_solve_rejects_factors_of_other_graphs(rng, v, m):
    graphs = make_graphs(rng, v=2, m=4)
    with pytest.raises(ShapeMismatch, match=r"\(2, 4\)"):
        solve(graphs, gram_factors(make_graphs(rng, v=v, m=m)), make_config())


# ---------------------------------------------------------------------------
# projection update


def test_projection_update_alpha_zero(rng):
    graphs = make_graphs(rng, v=1)
    config = make_config(alpha=0.0)
    state = init_state(graphs, config)
    state.aux_projection = rng.standard_normal(state.aux_projection.shape)
    state.dual_projection = rng.standard_normal(state.dual_projection.shape)
    projections = update_projections(
        state, graphs @ state.codes.mT, config, gram_factors(graphs),
    )
    got = projections[0]
    want = state.aux_projection[0] - state.dual_projection[0] / state.mu
    assert np.allclose(got, want, atol=1e-12)


def test_projection_update_large_mu_limit(rng):
    graphs = make_graphs(rng, v=1)
    config = make_config(alpha=0.7)
    state = init_state(graphs, config)
    state.mu = 1e9
    state.aux_projection = rng.standard_normal(state.aux_projection.shape)
    state.dual_projection = rng.standard_normal(state.dual_projection.shape)
    projections = update_projections(
        state, graphs @ state.codes.mT, config, gram_factors(graphs),
    )
    got = projections[0]
    want = state.aux_projection[0] - state.dual_projection[0] / state.mu
    assert np.max(np.abs(got - want)) <= 1e-6


def test_projection_update_beats_perturbations():
    rng = np.random.default_rng(35)
    graphs = rng.random((1, 4, 6))
    config = make_config(alpha=0.9, bits=2)
    state = init_state(graphs, config)
    state.mu = 0.5
    state.aux_projection = rng.standard_normal((1, 4, 2))
    state.dual_projection = rng.standard_normal((1, 4, 2))
    projections = update_projections(
        state, graphs @ state.codes.mT, config, gram_factors(graphs),
    )
    q = projections[0]
    base = oracles.q_subproblem_objective(
        q, graphs[0], state.codes[0],
        state.aux_projection[0], state.dual_projection[0],
        config.alpha, state.mu,
    )
    for _ in range(1000):
        cand = q + rng.standard_normal(q.shape) * rng.choice([1e-3, 1e-1, 1.0])
        other = oracles.q_subproblem_objective(
            cand, graphs[0], state.codes[0],
            state.aux_projection[0], state.dual_projection[0],
            config.alpha, state.mu,
        )
        assert base <= other + 1e-10


def test_factored_projection_update_matches_assembled_solve(rng):
    graphs = make_graphs(rng, v=2, m=6, n=14)
    config = make_config(alpha=0.4, bits=4)
    factors = gram_factors(graphs)
    for mu in (1e-4, 1.0, 1e9):
        state = init_state(graphs, config)
        state.mu = mu
        state.aux_projection = rng.standard_normal(state.aux_projection.shape)
        state.dual_projection = rng.standard_normal(state.dual_projection.shape)
        got = update_projections(state, graphs @ state.codes.mT, config, factors)
        for p, g in enumerate(graphs):
            lhs = 2.0 * config.alpha * (g @ g.T) + mu * np.eye(g.shape[0])
            rhs = (
                2.0 * config.alpha * (g @ state.codes[p].T)
                + mu * state.aux_projection[p]
                - state.dual_projection[p]
            )
            want = np.linalg.solve(lhs, rhs)
            assert np.linalg.norm(got[p] - want) <= 1e-10 * np.linalg.norm(want)


def test_projection_normal_equation_residual(rng):
    graphs = make_graphs(rng, v=3, m=6, n=9)
    config = make_config(bits=4)
    state = init_state(graphs, config)
    q = update_projections(
        state, graphs @ state.codes.mT, config, gram_factors(graphs),
    )
    assert oracles.projection_residual(graphs, state, config, q) <= 1e-8


# ---------------------------------------------------------------------------
# code update


def test_code_update_all_positive_argument(rng):
    graphs = np.ones((1, 3, 4))
    config = make_config(alpha=1.0)
    state = init_state(graphs, config)
    state.projections = np.ones((1, 3, 2))
    state.aux_code = np.ones((1, 2, 4))
    state.dual_code = np.zeros((1, 2, 4))
    codes = update_codes(state, graphs, config)
    assert np.all(codes[0] == 1.0)


def test_code_update_zero_argument_tie(rng):
    graphs = np.zeros((1, 3, 4))
    config = make_config(alpha=1.0)
    state = init_state(graphs, config)
    state.aux_code = np.zeros((state.aux_code.shape))
    state.dual_code = np.zeros((state.dual_code.shape))
    codes = update_codes(state, graphs, config)
    assert np.all(codes[0] == 1.0)


def test_code_update_returns_c_ordered_codes_from_moved_axis_inputs(rng):
    # the auxiliary and dual blocks arrive as np.moveaxis views, the layout
    # _aux_update returns; the residual norms sum in memory order, so the
    # codes must not take that layout
    graphs = make_graphs(rng, v=2, m=5, n=12)
    config = make_config(bits=3)
    state = init_state(graphs, config)
    state.aux_code = np.moveaxis(rng.standard_normal((3, 12, 2)), 2, 0)
    state.dual_code = np.moveaxis(rng.standard_normal((3, 12, 2)), 2, 0)
    assert not state.aux_code.flags.c_contiguous
    codes = update_codes(state, graphs, config)
    assert codes.flags.c_contiguous
    target = config.alpha * (state.projections.mT @ graphs) + 0.5 * (
        state.mu * np.ascontiguousarray(state.aux_code) - state.dual_code)
    assert np.array_equal(codes, np.where(target >= 0, 1.0, -1.0))


def test_code_update_matches_brute_force():
    rng = np.random.default_rng(36)
    for trial in range(30):
        graphs = rng.standard_normal((1, 3, 3))
        alpha, mu = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
        config = make_config(alpha=alpha, bits=2)
        state = init_state(graphs, config)
        state.mu = mu
        state.aux_code = rng.standard_normal((1, 2, 3))
        state.dual_code = rng.standard_normal((1, 2, 3))
        got = update_codes(state, graphs, config)[0]
        target = (
            config.alpha * (state.projections[0].T @ graphs[0])
            + 0.5 * (state.mu * state.aux_code[0] - state.dual_code[0])
        )
        best, best_val = oracles.best_sign_matrix(target)
        got_val = np.trace(got.T @ target)
        assert got_val >= best_val - 1e-10


# ---------------------------------------------------------------------------
# auxiliary tensor updates


def test_aux_projection_subthreshold_is_identity(rng):
    graphs = make_graphs(rng, v=2, m=4, n=8)
    config = make_config(zeta=0.0)
    state = init_state(graphs, config)
    state.mu = 1e12
    state.dual_projection = rng.standard_normal(state.dual_projection.shape)
    target = state.projections + state.dual_projection / state.mu
    got = update_aux_projection(state, config)
    assert np.max(np.abs(got - target)) <= 1e-10


def test_aux_projection_zero_inputs(rng):
    graphs = [np.zeros((4, 8))]
    config = make_config()
    state = init_state(graphs, config)
    state.projections = np.zeros((1, 4, 3))
    assert np.allclose(update_aux_projection(state, config), 0.0)


def test_aux_updates_shrink_core_nuclear_norm(rng):
    graphs = make_graphs(rng, v=3, m=5, n=10)
    config = make_config()
    state = init_state(graphs, config)
    state.mu = 1.0
    state.dual_projection = rng.standard_normal(state.dual_projection.shape)
    state.dual_code = rng.standard_normal(state.dual_code.shape)
    for update, stack, dual in (
        (update_aux_projection, state.projections, state.dual_projection),
        (update_aux_code, state.codes, state.dual_code),
    ):
        # the oracles take the view as mode 3
        target = np.moveaxis(stack + dual / state.mu, 0, 2)
        got = np.moveaxis(update(state, config), 0, 2)
        before = oracles.matrix_nuclear_norm(oracles.spectral_singular_values(target))
        after = oracles.matrix_nuclear_norm(oracles.spectral_singular_values(got))
        assert after <= before + 1e-9


def test_aux_updates_use_documented_shrinkage_weights(rng):
    graphs = make_graphs(rng, v=2, m=5, n=12)
    config = make_config(bits=3)
    state = init_state(graphs, config)
    state.mu = 0.7
    state.dual_projection = rng.standard_normal(state.dual_projection.shape)
    state.dual_code = rng.standard_normal(state.dual_code.shape)
    m, n, v, bits = 5, 12, 2, 3
    want_a = enhanced_tensor_svt(
        np.moveaxis(state.projections + state.dual_projection / state.mu, 0, 2),
        state.mu, config.zeta, 1.0 / np.sqrt(max(m, v) * n),
    )
    want_e = enhanced_tensor_svt(
        np.moveaxis(state.codes + state.dual_code / state.mu, 0, 2),
        state.mu, config.zeta, 1.0 / np.sqrt(max(bits, v) * n),
    )
    assert np.array_equal(update_aux_projection(state, config), np.moveaxis(want_a, 2, 0))
    assert np.array_equal(update_aux_code(state, config), np.moveaxis(want_e, 2, 0))


@pytest.mark.parametrize("v", [1, 2, 3, 4])
def test_aux_updates_return_c_contiguous_view_major_blocks(v, rng):
    # the residual norms sum in memory order, so the layout is part of
    # the result
    graphs = make_graphs(rng, v=v, m=5, n=12)
    config = make_config()
    state = init_state(graphs, config)
    state.mu = 0.7
    for update, stack in ((update_aux_projection, state.projections),
                          (update_aux_code, state.codes)):
        got = update(state, config)
        assert got.shape == stack.shape
        assert got.flags.c_contiguous


# ---------------------------------------------------------------------------
# multipliers


def test_multipliers_no_gap_doubles_mu(rng):
    graphs = make_graphs(rng)
    config = make_config()
    state = init_state(graphs, config)  # aux tensors equal the stacks
    dual_q, dual_b, mu = update_multipliers(state, _primal_gaps(state))
    assert np.array_equal(dual_q, state.dual_projection)
    assert np.array_equal(dual_b, state.dual_code)
    assert mu == 2 * MU0


def test_multipliers_cap(rng):
    graphs = make_graphs(rng)
    config = make_config()
    state = init_state(graphs, config)
    state.mu = 1e10
    _, _, mu = update_multipliers(state, _primal_gaps(state))
    assert mu == 1e10


def test_multipliers_match_hand_rolled(rng):
    graphs = make_graphs(rng, v=2, m=4, n=7)
    config = make_config()
    state = init_state(graphs, config)
    state.aux_projection = rng.standard_normal(state.aux_projection.shape)
    state.aux_code = rng.standard_normal(state.aux_code.shape)
    state.dual_projection = rng.standard_normal(state.dual_projection.shape)
    state.dual_code = rng.standard_normal(state.dual_code.shape)
    dual_q, dual_b, _ = update_multipliers(state, _primal_gaps(state))
    want_q = state.dual_projection + state.mu * (
        state.projections - state.aux_projection
    )
    want_b = state.dual_code + state.mu * (
        state.codes - state.aux_code
    )
    assert np.array_equal(dual_q, want_q)
    assert np.array_equal(dual_b, want_b)


# ---------------------------------------------------------------------------
# objective


def test_objective_zero_graph_constant_tensors():
    v, m, n, bits = 2, 3, 5, 2
    graphs = np.zeros((v, m, n))
    config = make_config(alpha=0.8, bits=bits)
    state = init_state(graphs, config)
    state.projections = np.zeros((v, m, bits))
    got = objective_value(state, graphs, config)
    ones = np.ones((bits, n, v))
    etnn_ones = (
        oracles.matrix_nuclear_norm(oracles.spectral_singular_values(ones))
        + config.zeta * oracles.naive_tnn(ones)
    )
    want = config.alpha * v * bits * n + 0.0 + etnn_ones
    assert got == pytest.approx(want, abs=1e-8)


def test_objective_all_zero_state():
    graphs = np.zeros((1, 3, 4))
    config = make_config(alpha=0.0)
    state = init_state(graphs, config)
    state.projections = np.zeros((1, 3, 3))
    state.codes = np.zeros((1, 3, 4))
    assert objective_value(state, graphs, config) == 0.0


# ---------------------------------------------------------------------------
# fuse


def test_fuse_single_view(rng):
    b = np.sign(rng.standard_normal((3, 5))) + 0.0
    b[b == 0] = 1.0
    fused = fuse_codes([b])
    assert np.array_equal(fused, b)


def test_fuse_majority_and_tie():
    votes = [np.array([[1.0]]), np.array([[1.0]]), np.array([[-1.0]])]
    assert fuse_codes(votes)[0, 0] == 1.0
    tie = [np.array([[1.0]]), np.array([[-1.0]])]
    assert fuse_codes(tie)[0, 0] == 1.0


def test_fuse_ties_go_to_plus_one(rng):
    b = np.where(rng.standard_normal((4, 7)) >= 0, 1.0, -1.0)
    assert np.all(fuse_codes(np.stack([b, -b])) == 1.0)
    assert np.all(fuse_codes(np.stack([b, -b, -b, b])) == 1.0)
    assert np.array_equal(fuse_codes(np.stack([b, -b, b])), b)


def test_fuse_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        fuse_codes([np.ones((2, 3)), np.ones((3, 2))])


def test_fuse_rejects_no_views():
    with pytest.raises(ShapeMismatch, match="^need at least one code matrix$"):
        fuse_codes([])


# ---------------------------------------------------------------------------
# full solve


def test_solve_zero_iterations(rng):
    graphs = make_graphs(rng)
    config = make_config(max_iter=0)
    codes, history = solve(graphs, gram_factors(graphs), config)
    state = init_state(graphs, config)
    for got, want in zip(codes.per_view, state.codes):
        assert np.array_equal(got, want)
    assert history == []


def test_solve_two_cluster_synthetic_converges():
    rng = np.random.default_rng(37)
    n = 60
    centers = np.array([[3.0, -3.0], [-3.0, 3.0]])
    graphs = []
    for _ in range(2):
        pts = np.hstack([
            centers[:, [0]] + 0.3 * rng.standard_normal((2, n // 2)),
            centers[:, [1]] + 0.3 * rng.standard_normal((2, n // 2)),
        ])
        anchors = pts[:, rng.choice(n, 10, replace=False)]
        sq = ((pts[:, None, :] - anchors[:, :, None]) ** 2).sum(axis=0)
        graphs.append(np.exp(-sq / sq.mean()))
    config = make_config(alpha=0.1, bits=8, max_iter=100)
    codes, history = solve(graphs, gram_factors(graphs), config)
    q_norm = np.sqrt(10 * 8 * 2)
    b_norm = np.sqrt(8 * n * 2)
    final = history[-1]
    assert max(final.res_projection / q_norm, final.res_code / b_norm) < config.tol
    assert len(history) <= 100


def test_solve_list_and_stack_inputs_bit_identical(rng):
    graphs = [rng.random((6, 15)) for _ in range(3)]
    config = make_config(alpha=0.2, bits=4, max_iter=20)
    codes_a, hist_a = solve(graphs, gram_factors(graphs), config, trace=True)
    stack = np.stack(graphs)
    codes_b, hist_b = solve(stack, gram_factors(stack), config, trace=True)
    assert np.array_equal(codes_a.per_view, codes_b.per_view)
    assert np.array_equal(codes_a.fused, codes_b.fused)
    assert codes_a.stop_reason == codes_b.stop_reason
    assert [
        (r.objective, r.res_projection, r.res_code, r.mu) for r in hist_a
    ] == [
        (r.objective, r.res_projection, r.res_code, r.mu) for r in hist_b
    ]


def test_solve_deterministic(rng):
    graphs = make_graphs(rng, v=2, m=6, n=15)
    config = make_config(alpha=0.2, bits=4)
    codes_a, hist_a = solve(graphs, gram_factors(graphs), config, trace=True)
    codes_b, hist_b = solve(graphs, gram_factors(graphs), config, trace=True)
    assert np.array_equal(codes_a.fused, codes_b.fused)
    for x, y in zip(codes_a.per_view, codes_b.per_view):
        assert np.array_equal(x, y)
    for ra, rb in zip(hist_a, hist_b):
        assert ra.objective == rb.objective
        assert ra.res_projection == rb.res_projection
        assert ra.res_code == rb.res_code
        assert ra.mu == rb.mu


def test_solve_codes_binary_every_iteration(rng):
    graphs = make_graphs(rng, v=2, m=5, n=10)
    config = make_config(alpha=0.3, bits=3)
    state = init_state(graphs, config)
    factors = gram_factors(graphs)
    for _ in range(12):
        state.projections = update_projections(
            state, graphs @ state.codes.mT, config, factors,
        )
        state.codes = update_codes(state, graphs, config)
        state.aux_projection = update_aux_projection(state, config)
        state.aux_code = update_aux_code(state, config)
        state.dual_projection, state.dual_code, state.mu = update_multipliers(
            state, _primal_gaps(state)
        )
        for b in state.codes:
            assert np.all(np.isin(b, (-1.0, 1.0)))


def test_solve_q_residual_small_every_iteration(rng, monkeypatch):
    graphs = make_graphs(rng, v=2, m=6, n=14)
    config = make_config(alpha=0.4, bits=4, max_iter=60)
    scores = []
    step = solver.update_projections

    def scored_step(state, *args):
        q = step(state, *args)
        scores.append(oracles.projection_residual(graphs, state, config, q))
        return q

    monkeypatch.setattr(solver, "update_projections", scored_step)
    _, history = solve(graphs, gram_factors(graphs), config)
    assert len(scores) == len(history)
    assert max(scores) <= 1e-8


def test_solve_final_residual_below_first(rng):
    graphs = make_graphs(rng, v=2, m=6, n=14)
    config = make_config(alpha=0.4, bits=4, max_iter=80)
    _, history = solve(graphs, gram_factors(graphs), config)
    assert history[-1].res_projection < history[0].res_projection
    assert history[-1].res_code <= history[0].res_code


def test_solve_aborts_on_non_finite():
    graphs = [np.full((3, 5), np.nan)]
    config = make_config()
    with pytest.raises(NonFinite) as info:
        solve(graphs, gram_factors(graphs), config)
    assert info.value.iteration == 1


def test_solve_aborts_on_overflow_in_projection_step(rng):
    # finite input whose Q step overflows; the Gram matrices stay finite
    graphs = make_graphs(rng)
    message = "non-finite value in projections at iteration 1"
    with np.errstate(all="ignore"), pytest.raises(NonFinite, match=message) as info:
        solve(graphs, gram_factors(graphs), make_config(alpha=1e308))
    assert info.value.iteration == 1


def test_solve_overflow_in_projection_step_warns_nothing(rng):
    # a traced run takes the objective after the check, so it reports the
    # same NonFinite instead of failing in the objective
    graphs = make_graphs(rng)
    message = "non-finite value in projections at iteration 1"
    for trace in (False, True):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFinite, match=message) as info:
                solve(graphs, gram_factors(graphs), make_config(alpha=1e308), trace=trace)
        assert info.value.iteration == 1


def recomputing_solve(graphs, config):
    """The ADMM loop built from the public steps, forming every product and
    norm afresh in every iteration and taking the objective after the
    shrinkage steps."""
    state = init_state(graphs, config)
    factors = gram_factors(graphs)
    q_size = np.sqrt(state.aux_projection.size)
    b_size = np.sqrt(state.aux_code.size)
    history = []
    stop_reason = "max_iter"
    for it in range(1, config.max_iter + 1):
        mu_used = state.mu
        state.projections = update_projections(
            state, graphs @ state.codes.mT, config, factors,
        )
        codes = update_codes(state, graphs, config)
        flipped = int(np.sum(codes != state.codes))
        state.codes = codes
        state.aux_projection = update_aux_projection(state, config)
        state.aux_code = update_aux_code(state, config)
        res_q = float(np.linalg.norm(state.projections - state.aux_projection))
        res_b = float(np.linalg.norm(state.codes - state.aux_code))
        obj = objective_value(state, graphs, config)
        state.dual_projection, state.dual_code, state.mu = update_multipliers(
            state, _primal_gaps(state)
        )
        history.append((it, obj, res_q, res_b, mu_used, flipped))
        if max(res_q / q_size, res_b / b_size) < config.tol:
            stop_reason = "tolerance"
            break
    return state.codes, stop_reason, history


def record_graph_codes(monkeypatch):
    """Record, for every projection step of a solve, the phi B' it is
    given, a copy of it and a copy of the codes at that point."""
    seen = []
    step = solver.update_projections

    def recording_step(state, graph_codes, *args):
        seen.append((graph_codes, graph_codes.copy(), state.codes.copy()))
        return step(state, graph_codes, *args)

    monkeypatch.setattr(solver, "update_projections", recording_step)
    return seen


def assert_graph_codes_exact(graphs, seen, history):
    """phi B' is one array, formed again in place: it always equals
    graphs @ codes.mT bit-for-bit, so the slice of a view changes exactly
    after an iteration that flipped a bit of that view. Returns the flips
    of each view in each iteration but the last."""
    assert len({id(graph_codes) for graph_codes, _, _ in seen}) == 1
    for _, graph_codes, codes in seen:
        assert graph_codes.tobytes() == (graphs @ codes.mT).tobytes()
    per_view = []
    for k in range(1, len(seen)):
        (_, before, old), (_, after, new) = seen[k - 1], seen[k]
        flips = [int(np.sum(b != a)) for b, a in zip(new, old)]
        changed = [x.tobytes() != y.tobytes() for x, y in zip(after, before)]
        assert changed == [f > 0 for f in flips]
        assert history[k - 1].bits_flipped == sum(flips)
        per_view.append(flips)
    return per_view


def test_solve_reuse_is_exact_and_happens(monkeypatch):
    graphs = np.random.default_rng(2).random((3, 6, 24))
    config = make_config(alpha=0.5, bits=3)
    want_codes, want_stop, want_history = recomputing_solve(graphs, config)

    etnn_calls = []
    etnn = solver.enhanced_tensor_nuclear_norm

    def counting_etnn(*args):
        etnn_calls.append(1)
        return etnn(*args)

    monkeypatch.setattr(solver, "enhanced_tensor_nuclear_norm", counting_etnn)
    seen = record_graph_codes(monkeypatch)
    codes, history = solve(graphs, gram_factors(graphs), config, trace=True)

    assert np.array_equal(codes.per_view, want_codes)
    assert codes.stop_reason == want_stop
    assert [
        (r.iteration, r.objective, r.res_projection, r.res_code, r.mu, r.bits_flipped)
        for r in history
    ] == want_history
    flips = [r.bits_flipped for r in history]
    # iteration 1 flips, later ones both flip and do not
    assert flips[0] > 0
    assert 0 in flips and any(flips[1:])
    # the enhanced TNNs of Q and B in every traced iteration
    assert len(etnn_calls) == 2 * len(history)
    per_view = assert_graph_codes_exact(graphs, seen, history)
    # some iterations flip bits of every view, some of one view only
    assert [sum(f > 0 for f in flips) for flips in per_view if any(flips)] == [3, 2, 1, 1]


def test_solve_graph_codes_stay_exact_when_some_views_flip(monkeypatch):
    # three views, where most of the flipping iterations after the first
    # flip bits of view 2 alone (the single-view flips above are in view 1)
    graphs = np.random.default_rng(6).random((3, 6, 24))
    seen = record_graph_codes(monkeypatch)
    _, history = solve(graphs, gram_factors(graphs), make_config(alpha=0.5, bits=3))
    per_view = assert_graph_codes_exact(graphs, seen, history)
    assert [flips for flips in per_view if any(flips)] == [
        [1, 1, 2], [0, 1, 0], [0, 1, 0], [0, 2, 0], [0, 1, 0], [0, 1, 0]]


@pytest.mark.parametrize("v", [1, 2, 3])
def test_untraced_solve_matches_traced_without_trace_only_work(v, monkeypatch):
    graphs = np.random.default_rng(5).random((v, 6, 20))
    config = make_config(alpha=0.5, bits=3)
    want_codes, want_history = solve(graphs, gram_factors(graphs), config, trace=True)

    calls = dict.fromkeys(
        ["objective_value", "enhanced_tensor_nuclear_norm", "update_multipliers"], 0)
    for name in calls:
        def counting(*args, _name=name, _step=getattr(solver, name)):
            calls[_name] += 1
            return _step(*args)

        monkeypatch.setattr(solver, name, counting)
    codes, history = solve(graphs, gram_factors(graphs), config)

    assert np.array_equal(codes.per_view, want_codes.per_view)
    assert np.array_equal(codes.fused, want_codes.fused)
    assert codes.stop_reason == want_codes.stop_reason
    assert len(history) > 1
    assert [
        (r.iteration, r.res_projection, r.res_code, r.mu, r.bits_flipped)
        for r in history
    ] == [
        (r.iteration, r.res_projection, r.res_code, r.mu, r.bits_flipped)
        for r in want_history
    ]
    assert all(r.objective is None for r in history)
    assert all(r.objective is not None for r in want_history)
    assert calls == {
        "objective_value": 0,
        "enhanced_tensor_nuclear_norm": 0,
        "update_multipliers": len(history),
    }


def test_solve_returns_hash_codes_type(rng):
    graphs = make_graphs(rng, v=3, m=4, n=8)
    codes, _ = solve(graphs, gram_factors(graphs), make_config(max_iter=3))
    assert isinstance(codes, HashCodes)
    assert codes.fused.shape == (3, 8)
    assert np.all(np.isin(codes.fused, (-1.0, 1.0)))
    assert len(codes.per_view) == 3


@pytest.mark.parametrize("v", [2, 3, 4, 5])
def test_solve_peak_memory_in_code_blocks(v):
    # the steps compute in the blocks they replace: a solve holds B, E and
    # J plus at most one more code block (the code step's target, or the
    # E step's two buffers) and the fused codes; with complex spectral
    # slices (v >= 3) the E step factors them from the real packing in its
    # buffers, with no complex array of the block's size
    import tracemalloc

    rng = np.random.default_rng(11)
    bits, n, m = 64, 1600, 150
    graphs = np.exp(-3.0 * rng.random((v, m, n)))
    factors = gram_factors(graphs)
    config = SolverConfig(alpha=0.01, bits=bits, zeta=0.3, max_iter=30, seed=0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        codes, history = solve(graphs, factors, config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the run goes past the iterations whose E is exactly zero
    assert codes.stop_reason == "tolerance" and len(history) > 10
    assert peak <= 5.5 * v * bits * n * 8


@pytest.mark.parametrize("block", ["aux_projection", "aux_code"])
def test_solve_reports_a_shift_that_overflows_as_non_finite_block(monkeypatch, block):
    # the multiplier stays finite, but multiplier / mu overflows in the
    # next shrinkage step: the shrinkage sees a non-finite norm, its NaN
    # result makes the residual NaN, and the solve names the block and
    # iteration, with no warning and without factoring the block
    graphs = np.random.default_rng(3).random((2, 5, 12))
    step = solver.update_multipliers

    def huge(state, gaps):
        dual_projection, dual_code, mu = step(state, gaps)
        {"aux_projection": dual_projection, "aux_code": dual_code}[block][...] = 1e305
        return dual_projection, dual_code, mu

    monkeypatch.setattr(solver, "update_multipliers", huge)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFinite, match=f"non-finite value in {block} at iteration 2") as info:
            solve(graphs, gram_factors(graphs), make_config(max_iter=5))
    assert info.value.iteration == 2


def test_ordinary_solve_never_scans_dual_code(monkeypatch):
    # a converging solve keeps both residuals finite, so no block is ever
    # scanned, traced or not
    graphs = np.random.default_rng(3).random((3, 5, 12))
    scans = []
    monkeypatch.setattr(solver, "_check_finite", lambda *args: scans.append(args))
    for trace in (False, True):
        codes, history = solve(
            graphs, gram_factors(graphs), make_config(max_iter=60), trace=trace)
        assert codes.stop_reason == "tolerance" and len(history) > 10
    assert scans == []


def inject_after_iteration_1(monkeypatch, block, value, index=(1, 2, 1)):
    """Make the multiplier step of iteration 1 leave ``value`` at ``index``
    of the multiplier ``block`` ("dual_projection" or "dual_code")."""
    step = solver.update_multipliers

    def injecting(state, gaps):
        dual_projection, dual_code, mu = step(state, gaps)
        if state.mu == MU0:
            {"dual_projection": dual_projection, "dual_code": dual_code}[block][index] = value
        return dual_projection, dual_code, mu

    monkeypatch.setattr(solver, "update_multipliers", injecting)


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("block, reported", [
    # J reaches the E step through B + J/mu; the code step maps it to a
    # finite sign
    ("dual_code", "dual_code"),
    # Y reaches the Q step's right-hand side, and Q is scanned first
    ("dual_projection", "projections"),
], ids=["dual_code", "dual_projection"])
def test_solve_reports_a_non_finite_multiplier_in_the_next_iteration(
        monkeypatch, block, reported, value):
    graphs = np.random.default_rng(3).random((2, 5, 12))
    inject_after_iteration_1(monkeypatch, block, value)
    message = f"non-finite value in {reported} at iteration 2"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFinite, match=message) as info:
            solve(graphs, gram_factors(graphs), make_config(max_iter=5))
    assert info.value.iteration == 2


def test_solve_infinite_projection_meeting_an_overflowing_shift_warns_nothing(monkeypatch):
    # Q = +inf meets Y / mu = -inf in the A step: the sum is NaN, which
    # the A step shrinks to NaN without an "invalid value" warning
    graphs = np.random.default_rng(3).random((2, 5, 12))
    inject_after_iteration_1(monkeypatch, "dual_projection", -1e305, index=(0, 0, 0))
    step = solver.update_projections

    def infinite_entry(state, *args):
        projections = step(state, *args)
        if state.mu > MU0:
            projections[0, 0, 0] = np.inf
        return projections

    monkeypatch.setattr(solver, "update_projections", infinite_entry)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFinite, match="non-finite value in projections at iteration 2"):
            solve(graphs, gram_factors(graphs), make_config(max_iter=5))


# ---------------------------------------------------------------------------
# the whole loop against the reference transcription


# name: (features per view, n, Gaussian clusters, k, anchors, bits, alpha,
# salt-and-pepper ratio, cluster separation); every case runs at zeta 0.3
REFERENCE_CASES = {
    "v1-b1": ((6,), 80, 3, 3, 20, 1, 1e-2, 0.0, 8.0),
    "v1-b16-m=n": ((8,), 120, 5, 5, 120, 16, 10.0, 0.0, 8.0),
    "v2-b4": ((5, 5), 120, 4, 4, 40, 4, 1.0, 0.0, 8.0),
    "v3-b16-alpha1e-6": ((6, 4, 3), 120, 4, 4, 30, 16, 1e-6, 0.0, 8.0),
    "v3-b4-m=n": ((5, 5, 5), 90, 3, 3, 90, 4, 1.0, 0.0, 6.0),
    "v5-b1": ((3, 3, 3, 3, 3), 100, 4, 4, 25, 1, 1e-2, 0.0, 8.0),
    "v5-b16-m=n": ((4, 4, 3, 3, 2), 100, 4, 4, 100, 16, 10.0, 0.0, 8.0),
    "salt-and-pepper": ((10, 10), 200, 4, 4, 60, 16, 0.1, 0.1, 8.0),
    # 4-bit codes for k = 20: fewer distinct codes than clusters
    "collapsed-codes": ((10, 10), 200, 4, 20, 40, 4, 1.0, 0.0, 16.0),
}
# Codes, labels, iterations, stop reasons and flips were seen identical to the
# reference under numpy 2.4.6's OpenBLAS with the x86-64 kernels Prescott,
# Nehalem, Sandybridge, Haswell (which OPENBLAS_CORETYPE=Zen also runs) and
# SkylakeX at one and two threads; no other BLAS or CPU was tried. Residuals
# differ by rounding: by at most 2.03e-9 of the largest residual of their
# column (a case's ||Q - A|| or ||B - E|| over its run) as measured over
# SkylakeX, Haswell and Prescott at one and two threads, the most at m = n.
REFERENCE_RESIDUAL_TOL = 1e-7


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_solve_matches_reference_loop(case):
    dims, n, clusters, k, m, bits, alpha, noise, sep = REFERENCE_CASES[case]
    data = gen_gaussian_clusters(k=clusters, v=len(dims), n=n, dims=list(dims), sep=sep, seed=3)
    views = [salt_pepper(view, noise, 3 + p) for p, view in enumerate(data.views)]
    graphs = kernelize_views(views, m, 0)
    config = SolverConfig(alpha=alpha, bits=bits, zeta=0.3, seed=0)
    codes, history = solve(graphs, gram_factors(graphs), config)
    want_codes, want_fused, records, stop = oracles.reference_solve(
        graphs, config, MU0, solver.RHO, solver.MU_MAX)
    assert np.array_equal(codes.per_view, want_codes)
    assert np.array_equal(codes.fused, want_fused)
    assert (len(history), codes.stop_reason) == (len(records), stop)
    assert [rec.bits_flipped for rec in history] == [flips for *_, flips in records]
    labels = binary_kmeans_restarts(codes.fused, k, restarts=8, seed=0).labels
    assert np.array_equal(labels, oracles.per_sample_kmeans_restarts(want_fused, k, 8, 0)[1])
    got = np.array([(rec.res_projection, rec.res_code) for rec in history])
    want = np.array([rec[:2] for rec in records])
    assert np.all(np.abs(got - want) <= REFERENCE_RESIDUAL_TOL * want.max(axis=0))

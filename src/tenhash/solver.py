"""Four-block ADMM for tensorized projection hashing.

Given one anchor bipartite graph per view, the solver learns per-view
projection matrices and sign code matrices whose view-stacked tensors are
pushed toward low rank (core-matrix nuclear norm plus tensor nuclear
norm) through two auxiliary tensors and their multipliers:

    minimize  alpha * sum_p ||Q_p' phi_p - B_p||_F^2
              + enhanced_tnn(stack(Q)) + enhanced_tnn(stack(B))
    subject to B_p in {-1,+1}^(l x n)

The blocks are updated in turn each iteration: a linear solve for every
projection, a closed-form sign step for every code matrix, the two-stage
shrinkage for both auxiliary tensors, then a gradient step on the
multipliers with a geometrically growing penalty: mu starts at MU0 and
is multiplied by RHO every iteration up to MU_MAX. The projection systems
share one matrix per view up to the penalty, and that matrix depends only
on the graphs: each view's Gram matrix is eigendecomposed once per graph
stack (:func:`gram_factors`), the factors are passed to every
:func:`solve` on that stack, and every linear solve is two GEMMs.

No product is formed twice from the same operands: the objective takes
its fit from the code step's Q' phi, and phi B' (for the projection step)
and the enhanced TNN of B (for the objective) are kept for as long as no
code bit flips. Nothing is formed that only a trace reads: the objective
is computed only when :func:`solve` is asked for it (``trace=True``).

Every block is one view-major array with view p at ``x[p]``: graphs are
v x m x n, projections (and A, Y) v x m x bits, codes (and E, J)
v x bits x n. Each update is one batched expression over the views; the
tensor operators take the view as mode 3 through ``np.moveaxis`` views,
which their mode-3 transform reads as a free d3 x (d1*d2) reshape, and
the shrinkage steps return A and E C-contiguous (the residual norms sum
in memory order, so the layout is part of the result).
"""

import time
from dataclasses import dataclass

import numpy as np

from .exceptions import InconsistentSampleCounts, NonFinite, ShapeMismatch
from .hamming_kmeans import sign_pm1
from .tensor_ops import enhanced_tensor_nuclear_norm, enhanced_tensor_svt

MU0 = 1e-4     # initial penalty
RHO = 2.0      # penalty growth factor per iteration
MU_MAX = 1e10  # penalty cap


@dataclass
class SolverConfig:
    alpha: float
    bits: int
    zeta: float = 0.1
    max_iter: int = 100
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        # every comparison with NaN is False, so NaN is rejected too
        if not 0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.bits < 1:
            raise ValueError(f"bits must be >= 1, got {self.bits}")
        if not 0 <= self.zeta < np.inf:
            raise ValueError(f"zeta must be finite and >= 0, got {self.zeta}")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")


@dataclass
class SolverState:
    projections: np.ndarray     # v x m x bits
    codes: np.ndarray           # v x bits x n, entries +-1
    aux_projection: np.ndarray  # v x m x bits
    aux_code: np.ndarray        # v x bits x n
    dual_projection: np.ndarray
    dual_code: np.ndarray
    mu: float


@dataclass
class IterationRecord:
    iteration: int
    objective: float | None  # None unless solve(..., trace=True)
    res_projection: float  # ||Q - A||_F
    res_code: float        # ||B - E||_F
    mu: float
    seconds: float
    bits_flipped: int      # code entries the B step changed


@dataclass
class HashCodes:
    per_view: np.ndarray  # v x bits x n
    fused: np.ndarray
    stop_reason: str  # "tolerance" or "max_iter"


def fuse_codes(per_view):
    """Majority vote across views: sign of the summed code matrices,
    with ties going to +1."""
    if len(per_view) == 0:
        raise ShapeMismatch("need at least one code matrix")
    shape = per_view[0].shape
    for b in per_view:
        if b.shape != shape:
            raise ShapeMismatch(f"code shapes differ: {b.shape} vs {shape}")
    return sign_pm1(np.sum(per_view, axis=0))


def _graph_stack(graphs):
    """The v x m x n float stack of a list or stack of m x n graphs, after
    checking that every view has the same sample and anchor counts."""
    if len(graphs) == 0:
        raise InconsistentSampleCounts("need at least one view")
    m, n = np.shape(graphs[0])
    for rows, cols in map(np.shape, graphs):
        if cols != n:
            raise InconsistentSampleCounts(f"views disagree on sample count: {cols} vs {n}")
        if rows != m:
            raise ShapeMismatch(f"views disagree on anchor count: {rows} vs {m}")
    return np.asarray(graphs, dtype=float)


def init_state(graphs, config):
    """Seeded initialization.

    Projections are i.i.d. normal scaled by 1/sqrt(m); codes are the signs
    of the projected graphs; both auxiliary tensors start as copies of the
    corresponding blocks, so the initial primal residuals are exactly 0.
    """
    graphs = _graph_stack(graphs)
    v, m, _ = graphs.shape
    rng = np.random.default_rng(config.seed)
    projections = rng.standard_normal((v, m, config.bits)) / np.sqrt(m)
    codes = sign_pm1(projections.mT @ graphs)
    return SolverState(
        projections=projections,
        codes=codes,
        aux_projection=projections.copy(),
        aux_code=codes.copy(),
        dual_projection=np.zeros_like(projections),
        dual_code=np.zeros_like(codes),
        mu=MU0,
    )


def gram_factors(graphs):
    """The pair ``(values, basis)`` of a graph stack phi (a list or stack of
    m x n graphs, checked as :func:`solve` checks it): the
    eigendecompositions ``phi[p] @ phi[p].T = basis[p] @ diag(values[p])
    @ basis[p].T`` of its Gram matrices, which are not kept. ``values`` is
    v x m and ``basis`` v x m x m.

    The factors serve every projection step from the first on, so a
    non-finite Gram matrix is reported as :class:`NonFinite` at
    iteration 1, before ``eigh`` fails on it.
    """
    graphs = _graph_stack(graphs)
    gram = graphs @ graphs.mT
    finite = np.isfinite(gram).all(axis=(1, 2))
    if not finite.all():
        view = int(np.argmin(finite)) + 1
        raise NonFinite(f"non-finite Gram matrix of view {view}", iteration=1)
    return np.linalg.eigh(gram)


def update_projections(state, graph_codes, config, factors):
    """Exact minimizer of each view's projection subproblem.

    Solves (2*alpha*phi phi' + mu I) Q = 2*alpha*phi B' + mu A - Y per
    view through the eigendecomposition of phi phi' (``factors``, from
    :func:`gram_factors`); the system is positive definite for any mu > 0.
    ``graph_codes`` is phi B' for the current codes, which :func:`solve`
    forms only when they have changed. Returns the new projections.
    """
    mu = state.mu
    values, basis = factors
    # an alpha large enough to overflow leaves inf/NaN in the result, which
    # the finite check after the code step reports as NonFinite
    with np.errstate(all="ignore"):
        rhs = (
            2.0 * config.alpha * graph_codes
            + mu * state.aux_projection
            - state.dual_projection
        )
        scale = 2.0 * config.alpha * values + mu
        return basis @ ((basis.mT @ rhs) / scale[:, :, None])


def update_codes(state, graphs, config):
    """Closed-form sign step: B = sign(alpha Q' phi + (mu E - J) / 2),
    the exact maximizer of the code subproblem's trace objective. Returns
    the codes and the product Q' phi, which the objective reuses."""
    projected = state.projections.mT @ graphs
    # starting from the C-ordered product keeps the codes C-ordered: the
    # residual norms sum in memory order, so another layout rounds them
    # differently
    target = config.alpha * projected
    # one temporary, updated in place; the target then becomes the codes
    step = state.mu * state.aux_code
    step -= state.dual_code
    step *= 0.5
    target += step
    return sign_pm1(target, out=target), projected


def _aux_update(block, dual, mu, zeta, n):
    """Two-stage shrinkage of the view-major ``block + dual / mu``, with
    the view as mode 3 of the tensor operator."""
    v, rows, _ = block.shape
    lam = 1.0 / np.sqrt(max(rows, v) * n)
    shifted = dual / mu
    shifted += block
    tensor = np.moveaxis(shifted, 0, 2)
    return np.moveaxis(enhanced_tensor_svt(tensor, mu, zeta, lam), 2, 0)


def update_aux_projection(state, config):
    """Two-stage shrinkage of Q + Y/mu with the weight
    1/sqrt(max(m, v) * n)."""
    n = state.codes.shape[2]
    return _aux_update(
        state.projections, state.dual_projection, state.mu, config.zeta, n,
    )


def update_aux_code(state, config):
    """Same shrinkage applied to B + J/mu, weight
    1/sqrt(max(bits, v) * n)."""
    n = state.codes.shape[2]
    return _aux_update(state.codes, state.dual_code, state.mu, config.zeta, n)


def _primal_gaps(state):
    """The constraint gaps (Q - A, B - E); their norms are the primal
    residuals."""
    return state.projections - state.aux_projection, state.codes - state.aux_code


def update_multipliers(state, gaps):
    """Gradient step on both multipliers, Y + mu (Q - A) and J + mu (B - E),
    then grow the shared penalty: mu <- min(RHO * mu, MU_MAX).

    ``gaps`` is the pair (Q - A, B - E) from :func:`_primal_gaps`; the new
    multipliers are written into those arrays and returned with the new mu.
    """
    for gap, dual in zip(gaps, (state.dual_projection, state.dual_code)):
        gap *= state.mu
        gap += dual
    mu = min(RHO * state.mu, MU_MAX)
    return *gaps, mu


def objective_value(state, projected, config, code_norm=None):
    """Data-fit term plus both enhanced tensor nuclear norms, with the fit
    taken from ``projected`` = Q' phi of the current projections.
    ``code_norm``, if given, is the enhanced TNN of the current codes and
    is not recomputed. Returns the objective and that norm."""
    fit = np.linalg.norm(projected - state.codes) ** 2
    projection_norm = enhanced_tensor_nuclear_norm(
        np.moveaxis(state.projections, 0, 2), config.zeta
    )
    if code_norm is None:
        code_norm = enhanced_tensor_nuclear_norm(np.moveaxis(state.codes, 0, 2), config.zeta)
    return float(config.alpha * fit + projection_norm + code_norm), code_norm


def _check_finite(state, iteration, names):
    """Raise NonFinite naming the first of the blocks ``names`` that holds
    a NaN or Inf."""
    for name in names:
        if not np.all(np.isfinite(getattr(state, name))):
            raise NonFinite(
                f"non-finite value in {name} at iteration {iteration}",
                iteration=iteration,
            )


def solve(graphs, factors, config, trace=False):
    """Run the full alternating loop and fuse the learned codes.

    ``factors`` is ``gram_factors(graphs)``. It does not depend on the
    config, so one serves every solve on the same graphs; factors whose
    (views, anchors) shape does not fit the graphs raise ShapeMismatch.

    Stops when the larger of the two primal residuals, each normalized by
    the square root of its element count, drops below config.tol, or
    after config.max_iter iterations; ``HashCodes.stop_reason`` records
    which ("tolerance" or "max_iter"). Returns the hash codes and the
    per-iteration history. Only with ``trace`` does each record carry the
    objective, which nothing in the loop reads; otherwise it is None and
    is not computed. The codes and every other field are the same either
    way.
    """
    graphs = _graph_stack(graphs)
    if np.shape(factors[0]) != graphs.shape[:2]:
        raise ShapeMismatch(f"Gram factors of (views, anchors) {np.shape(factors[0])} "
                            f"do not fit graphs of {graphs.shape[:2]}")
    state = init_state(graphs, config)
    q_size = np.sqrt(state.aux_projection.size)
    b_size = np.sqrt(state.aux_code.size)
    history = []
    stop_reason = "max_iter"
    # phi B' and the enhanced TNN of the current codes, kept until a code
    # bit flips
    graph_codes = code_norm = None
    for it in range(1, config.max_iter + 1):
        t0 = time.perf_counter()
        mu_used = state.mu
        if graph_codes is None:
            graph_codes = graphs @ state.codes.mT
        state.projections = update_projections(state, graph_codes, config, factors)
        new_codes, projected = update_codes(state, graphs, config)
        flipped = int(np.count_nonzero(new_codes != state.codes))
        if flipped:
            graph_codes = code_norm = None
        state.codes = new_codes
        # each block is scanned once, at the first check after it changed
        _check_finite(state, it, ("projections", "dual_projection", "dual_code"))
        # the objective reads only Q, B and phi: take it while Q' phi is at
        # hand, and free that product before the shrinkage steps
        obj = None
        if trace:
            obj, code_norm = objective_value(state, projected, config, code_norm)
        del projected
        # neither shrinkage step reads the old A or E: free them first
        state.aux_projection = state.aux_code = None
        state.aux_projection = update_aux_projection(state, config)
        state.aux_code = update_aux_code(state, config)
        _check_finite(state, it, ("aux_projection", "aux_code"))
        # each difference gives its residual norm, then becomes its
        # multiplier in place
        gaps = _primal_gaps(state)
        res_q, res_b = (float(np.linalg.norm(gap)) for gap in gaps)
        state.dual_projection, state.dual_code, state.mu = update_multipliers(
            state, gaps
        )
        history.append(IterationRecord(
            iteration=it,
            objective=obj,
            res_projection=res_q,
            res_code=res_b,
            mu=mu_used,
            seconds=time.perf_counter() - t0,
            bits_flipped=flipped,
        ))
        if max(res_q / q_size, res_b / b_size) < config.tol:
            stop_reason = "tolerance"
            break
    codes = HashCodes(
        per_view=state.codes, fused=fuse_codes(state.codes), stop_reason=stop_reason,
    )
    return codes, history

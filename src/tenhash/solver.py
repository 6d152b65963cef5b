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

Each step returns only the block it updates. One product is kept across
iterations: phi B' (for the projection step), formed again, in place and
for every view, only after a code step flips some bit. The objective
reads only the state and the graphs, and nothing is formed that only a
trace reads: the objective is computed only when :func:`solve` is asked
for it (``trace=True``).

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
from .tensor_ops import enhanced_tensor_nuclear_norm
# the shrinkage steps' entry: enhanced_tensor_svt without the input scan,
# since a block the steps shift that is not finite makes a primal residual
# NaN, which solve reports; bound under the public name, through which
# perfbench times the shrinkage
from .tensor_ops import shrink_unchecked as enhanced_tensor_svt

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
    checking that every view is 2-D with the same sample and anchor
    counts."""
    if len(graphs) == 0:
        raise InconsistentSampleCounts("need at least one view")
    first = np.shape(graphs[0])
    # view 1 is checked first, so first is 2-D wherever it is indexed
    for p, shape in enumerate(map(np.shape, graphs), 1):
        if len(shape) != 2:
            raise ShapeMismatch(f"the graph of view {p} is not 2-D: shape {shape}")
        if shape[1] != first[1]:
            raise InconsistentSampleCounts(
                f"views disagree on sample count: {shape[1]} vs {first[1]}")
        if shape[0] != first[0]:
            raise ShapeMismatch(f"views disagree on anchor count: {shape[0]} vs {first[0]}")
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

    The views are factored one at a time, into the two result arrays: a
    batched ``eigh`` would hold the v x m x m Gram stack beside its own
    v x m x m result, a transient that can set the memory high-water mark
    of a whole clustering.
    """
    graphs = _graph_stack(graphs)
    v, m, _ = graphs.shape
    values, basis = np.empty((v, m)), np.empty((v, m, m))
    for p, phi in enumerate(graphs):
        gram = phi @ phi.T
        if not np.isfinite(gram).all():
            raise NonFinite(f"non-finite Gram matrix of view {p + 1}", iteration=1)
        values[p], basis[p] = np.linalg.eigh(gram)
    return values, basis


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
    # makes the A step's residual NaN, and solve reports it as NonFinite
    with np.errstate(all="ignore"):
        rhs = (
            2.0 * config.alpha * graph_codes
            + mu * state.aux_projection
            - state.dual_projection
        )
        scale = 2.0 * config.alpha * values + mu
        return basis @ ((basis.mT @ rhs) / scale[:, :, None])


def update_codes(state, graphs, config, scratch=None):
    """Closed-form sign step: B = sign(alpha Q' phi + (mu E - J) / 2),
    the exact maximizer of the code subproblem's trace objective. Returns
    the codes.

    It is formed as sign(2 alpha Q' phi + mu E - J): scaling by 2 commutes
    with rounding away from overflow and subnormals, so the signs are the
    same and the halving pass is saved. The temporary mu E - J is formed
    in ``scratch`` (a v x bits x n float array, which may be
    ``state.aux_code`` itself: E is read before it is written) if given,
    else in a new array.
    """
    # starting from the C-ordered product keeps the codes C-ordered: the
    # residual norms sum in memory order, so another layout rounds them
    # differently
    target = state.projections.mT @ graphs
    # an alpha large enough to overflow has left non-finite projections,
    # and a J that is not finite makes the E step's residual NaN: solve
    # reports both; a product that overflows here from finite projections
    # keeps its sign
    with np.errstate(over="ignore", invalid="ignore"):
        target *= 2.0 * config.alpha
        # one temporary, updated in place; the target then becomes the codes
        step = np.multiply(state.aux_code, state.mu, out=scratch)
        step -= state.dual_code
        target += step
    return sign_pm1(target, out=target)


def _aux_update(block, dual, mu, zeta, n, out, work):
    """Two-stage shrinkage of the view-major ``block + dual / mu``, with
    the view as mode 3 of the tensor operator. The sum is formed in
    ``work`` and the result in ``out``, two distinct arrays of the
    block's shape (new ones where None); ``work`` is left overwritten."""
    v, rows, _ = block.shape
    lam = 1.0 / np.sqrt(max(rows, v) * n)
    # a block or shift that is not finite, or a shift that overflows (or
    # meets an infinite block of the other sign), shrinks to NaN: its norm
    # is not finite, and solve reports the NaN residual
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = np.divide(dual, mu, out=work)
        shifted += block
    tensor = np.moveaxis(shifted, 0, 2)
    result = enhanced_tensor_svt(tensor, mu, zeta, lam, out=out, work=shifted)
    return np.moveaxis(result, 2, 0)


def update_aux_projection(state, config, out=None, work=None):
    """Two-stage shrinkage of Q + Y/mu with the weight
    1/sqrt(max(m, v) * n). ``out`` and ``work`` are optional buffers
    (v x m x bits float arrays, e.g. the old A and Q, which the step does
    not read): the result goes into ``out``, and ``work`` is overwritten."""
    n = state.codes.shape[2]
    return _aux_update(
        state.projections, state.dual_projection, state.mu, config.zeta, n, out, work,
    )


def update_aux_code(state, config, out=None, work=None):
    """Same shrinkage applied to B + J/mu, weight
    1/sqrt(max(bits, v) * n), with buffers of the codes' shape (e.g. the
    old E and B)."""
    n = state.codes.shape[2]
    return _aux_update(state.codes, state.dual_code, state.mu, config.zeta, n, out, work)


def _primal_gaps(state, out=(None, None)):
    """The constraint gaps (Q - A, B - E), written into the pair of
    arrays ``out`` where given; their norms are the primal residuals."""
    return (np.subtract(state.projections, state.aux_projection, out=out[0]),
            np.subtract(state.codes, state.aux_code, out=out[1]))


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


def objective_value(state, graphs, config):
    """Data-fit term plus both enhanced tensor nuclear norms of the current
    projections and codes on the graphs phi."""
    fit = np.linalg.norm(state.projections.mT @ graphs - state.codes) ** 2
    projection_norm = enhanced_tensor_nuclear_norm(
        np.moveaxis(state.projections, 0, 2), config.zeta
    )
    code_norm = enhanced_tensor_nuclear_norm(np.moveaxis(state.codes, 0, 2), config.zeta)
    return float(config.alpha * fit + projection_norm + code_norm)


def _check_finite(state, iteration):
    """Raise NonFinite naming the first block of the state that holds a
    NaN or Inf, in the order Q, Y, J, A, E (the codes are always +-1)."""
    for name in ("projections", "dual_projection", "dual_code",
                 "aux_projection", "aux_code"):
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

    A NaN or Inf in the state raises NonFinite naming the block and the
    iteration. The solve checks one thing for it: the sum of the two
    primal residuals, which the stopping test needs anyway. Only when that
    sum is not finite does :func:`_check_finite` scan the blocks, in the
    order Q, Y, J, A, E. A shrinkage step shrinks an input whose norm is
    not finite to all NaN, and a finite one to a finite result, so the
    check reports every block in the iteration it stops being finite:

    - a Q that is not finite gives the A step an input of infinite norm,
      so A is NaN and ||Q - A|| is NaN in the same iteration;
    - a Y or J that is not finite entering iteration k makes Q_k not
      finite (through the right-hand side of the Q step) or E_k NaN
      (through B + J/mu), so the scan of iteration k finds it;
    - a shift Y/mu or J/mu that overflows makes A or E NaN with finite
      Q, Y, J, and the scan names A or E;
    - B is always +-1.

    The objective is computed after the check, so a traced run reports
    the same NonFinite as an untraced one.
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
    # phi B': formed in iteration 1 and again in the iteration after any
    # code bit flipped, by one batched product; it depends only on the
    # codes, so it is bit-identical to forming it afresh every iteration
    graph_codes = np.empty(state.projections.shape)
    flips = 1
    for it in range(1, config.max_iter + 1):
        t0 = time.perf_counter()
        mu_used = state.mu
        if flips:
            np.matmul(graphs, state.codes.mT, out=graph_codes)
        # the blocks each step replaces are reused as the buffers of later
        # steps, so an iteration allocates one new code-sized array (the
        # codes) and frees one (the old J): the old Q is dead after the Q
        # step, the old E once the code step has formed its temporary in
        # it, and the old B once the flips are counted; neither shrinkage
        # step reads the old A or E
        old_projections = state.projections
        state.projections = update_projections(state, graph_codes, config, factors)
        old_codes = state.codes
        state.codes = update_codes(state, graphs, config, scratch=state.aux_code)
        # on +-1 codes, old . new = size - 2 * flips; the sum is exact
        flips = (state.codes.size - int(np.vdot(state.codes, old_codes))) // 2
        state.aux_projection = update_aux_projection(
            state, config, out=state.aux_projection, work=old_projections)
        state.aux_code = update_aux_code(state, config, out=state.aux_code, work=old_codes)
        # each difference gives its residual norm, then becomes its
        # multiplier in place
        gaps = _primal_gaps(state, out=(old_projections, old_codes))
        res_q, res_b = (float(np.linalg.norm(gap)) for gap in gaps)
        # the one non-finite check (see the docstring)
        if not np.isfinite(res_q + res_b):
            _check_finite(state, it)
        # Q and B are the iteration's own: the shrinkage steps did not
        # write them
        obj = objective_value(state, graphs, config) if trace else None
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
            bits_flipped=flips,
        ))
        if max(res_q / q_size, res_b / b_size) < config.tol:
            stop_reason = "tolerance"
            break
    codes = HashCodes(
        per_view=state.codes, fused=fuse_codes(state.codes), stop_reason=stop_reason,
    )
    return codes, history

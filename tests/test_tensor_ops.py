import itertools
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import oracles
from conftest import random_tensor_corpus
from tenhash.exceptions import DimensionMismatch
from tenhash.tensor_ops import (
    _dft_matrices,
    _from_spectrum,
    _spectrum,
    enhanced_tensor_nuclear_norm,
    enhanced_tensor_svt,
    matrix_svt,
    t_product,
    t_svd,
    t_transpose,
    tensor_nuclear_norm,
    tensor_svt,
)


def identity_tensor(d, d3):
    t = np.zeros((d, d, d3))
    t[:, :, 0] = np.eye(d)
    return t


def rel_err(a, b):
    denom = np.linalg.norm(b)
    return np.linalg.norm(a - b) / (denom if denom else 1.0)


def low_rank_tensor(rng, shape, rank):
    """Sum of ``rank`` random outer products a o b o c."""
    return sum(
        np.einsum("i,j,k->ijk", *(rng.standard_normal(d) for d in shape))
        for _ in range(rank)
    )


# slices much wider than tall (or the reverse); the Gram factorization
# leaves rounding noise where a singular value is zero
GRAM_SHAPES = ((3, 40, 2), (40, 3, 3), (2, 29, 4), (5, 60, 5), (60, 5, 1), (8, 100, 3))


# near-square slices with d3 <= 2, whose spectral stack is real (the
# shapes above include d3 = 1 and 2 with far-from-square slices)
REAL_SVD_SHAPES = ((4, 4, 2), (5, 3, 1), (3, 5, 2))


def real_svd_inputs(seed):
    """Full-rank and rank-1 tensors of every REAL_SVD_SHAPES shape."""
    rng = np.random.default_rng(seed)
    for shape in REAL_SVD_SHAPES:
        yield rng.standard_normal(shape)
        yield low_rank_tensor(rng, shape, 1)


def gram_branch_inputs(seed):
    """Full-rank, rank-1 and rank-2 tensors of every GRAM_SHAPES shape."""
    rng = np.random.default_rng(seed)
    for shape in GRAM_SHAPES:
        yield rng.standard_normal(shape)
        for rank in (1, 2):
            yield low_rank_tensor(rng, shape, rank)


# ---------------------------------------------------------------------------
# mode-3 transforms


def test_spectrum_is_real_for_depth_up_to_two(rng):
    # and beyond: every depth has one real d3 x d1 x d2 packing
    for d3 in (1, 2, 3, 4, 5):
        packed = _spectrum(rng.standard_normal((3, 4, d3)))
        assert packed.shape == (d3, 3, 4)
        assert packed.dtype == float
        assert packed.flags.c_contiguous


def test_spectrum_depth_two_matches_naive_oracle():
    t = np.random.default_rng(41).standard_normal((5, 3, 2))
    want = oracles.naive_dft_mode3(t)
    stack = _spectrum(t)
    for j in (0, 1):
        assert rel_err(stack[j], want[:, :, j]) <= 1e-12


def spectrum_inputs(rng, d3):
    """A C-contiguous d1 x d2 x d3 tensor, and the mode-3 view of a
    contiguous view-major block (the layout the solver passes)."""
    yield rng.standard_normal((4, 5, d3))
    yield np.moveaxis(rng.standard_normal((d3, 3, 6)), 0, 2)


def packing_of(half, d3):
    """The packed rows of the d3//2+1 independent complex slices ``half``
    (slice axis first): their real parts, then the imaginary parts of
    slices 1..d3-h."""
    return np.concatenate([half.real, half.imag[1 : d3 - d3 // 2]])


@pytest.mark.parametrize("d3", range(1, 10))
def test_spectrum_matches_rfft_and_naive_oracle(d3, rng):
    for t in spectrum_inputs(rng, d3):
        packed = _spectrum(t)
        assert packed.flags.c_contiguous
        want = np.moveaxis(np.fft.rfft(t, axis=2), 2, 0)
        assert rel_err(packed, packing_of(want, d3)) <= 1e-13
        want = np.moveaxis(oracles.naive_dft_mode3(t)[:, :, : d3 // 2 + 1], 2, 0)
        assert rel_err(packed, packing_of(want, d3)) <= 1e-13


@pytest.mark.parametrize("d3", range(1, 10))
def test_from_spectrum_round_trip(d3, rng):
    for t in spectrum_inputs(rng, d3):
        back = _from_spectrum(_spectrum(t))
        assert rel_err(back, t) <= 1e-14
        # the mode-3 view of one contiguous view-major array
        assert np.moveaxis(back, 2, 0).flags.c_contiguous


def test_dft_rows_exact_at_quarter_turns():
    for d3 in (1, 2, 4):
        forward, inverse = _dft_matrices(d3)
        assert set(np.unique(forward)) <= {-1.0, 0.0, 1.0}
        assert np.array_equal(inverse @ forward, np.eye(d3))


def test_depth_two_spectrum_is_exact_sum_and_difference(rng):
    # the 0/+-1 and 1/2 coefficients add no rounding beyond the sum itself
    t = np.moveaxis(rng.standard_normal((2, 7, 9)), 0, 2)
    stack = _spectrum(t)
    assert np.array_equal(stack[0], t[:, :, 0] + t[:, :, 1])
    assert np.array_equal(stack[1], t[:, :, 0] - t[:, :, 1])
    back = _from_spectrum(stack)
    assert np.array_equal(back[:, :, 0], (stack[0] + stack[1]) * 0.5)
    assert np.array_equal(back[:, :, 1], (stack[0] - stack[1]) * 0.5)


def test_round_trip_over_corpus():
    for t in random_tensor_corpus(100):
        assert rel_err(_from_spectrum(_spectrum(t)), t) <= 1e-12


NO_FFT_SCRIPT = """
import sys
import numpy as np
from tenhash import tensor_ops as ops
from tenhash.solver import SolverConfig, gram_factors, solve

t = np.random.default_rng(0).standard_normal((4, 3, 3))
factors = ops.t_svd(t)
ops.t_product(t, ops.t_transpose(t))
ops.tensor_nuclear_norm(t)
ops.enhanced_tensor_nuclear_norm(t, 0.5)
ops.matrix_svt(t[:, :, 0], 0.1)
ops.tensor_svt(t, 0.1)
ops.enhanced_tensor_svt(t, 1.0, 0.1, 0.1)
graphs = np.random.default_rng(1).random((3, 5, 12))
solve(graphs, gram_factors(graphs),
      SolverConfig(alpha=0.5, bits=3, zeta=0.1, max_iter=3, seed=0), trace=True)
print("numpy.fft" in sys.modules)
"""


def test_tensor_operators_and_solve_load_no_numpy_fft():
    # numpy loads numpy.fft on first use: the spectral path must not use it
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    loaded = subprocess.run(
        [sys.executable, "-c", NO_FFT_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    assert loaded == "False"


# ---------------------------------------------------------------------------
# t-product


def test_t_product_identity(rng):
    a = rng.standard_normal((3, 4, 3))
    ident = identity_tensor(4, 3)
    assert rel_err(t_product(a, ident), a) <= 1e-12


def test_t_product_depth_one_is_matmul(rng):
    a = rng.standard_normal((3, 4, 1))
    b = rng.standard_normal((4, 2, 1))
    got = t_product(a, b)
    assert np.allclose(got[:, :, 0], a[:, :, 0] @ b[:, :, 0])


def test_t_product_matches_block_circulant_oracle():
    rng = np.random.default_rng(13)
    for d3 in (2, 1, 3, 4, 5, 6, 7, 8):
        a = rng.standard_normal((3, 4, d3))
        b = rng.standard_normal((4, 2, d3))
        assert rel_err(t_product(a, b), oracles.tproduct_bcirc(a, b)) <= 1e-10


def test_t_product_dimension_mismatch(rng):
    with pytest.raises(DimensionMismatch):
        t_product(rng.standard_normal((3, 4, 2)), rng.standard_normal((5, 2, 2)))
    with pytest.raises(DimensionMismatch):
        t_product(rng.standard_normal((3, 4, 2)), rng.standard_normal((4, 2, 3)))


def test_t_transpose_involution(rng):
    t = rng.standard_normal((3, 5, 4))
    assert np.array_equal(t_transpose(t_transpose(t)), t)


# ---------------------------------------------------------------------------
# t-SVD


def test_t_svd_identity_tensor():
    ident = identity_tensor(3, 4)
    factors = t_svd(ident)
    assert rel_err(factors.S, ident) <= 1e-10
    sv = oracles.spectral_singular_values(factors.S)
    assert np.allclose(sv, 1.0)


def test_t_svd_zero_tensor():
    factors = t_svd(np.zeros((3, 2, 2)))
    assert np.allclose(factors.S, 0.0)


def test_t_svd_reconstruction_and_oracle_values():
    rng = np.random.default_rng(14)
    for shape in ((6, 4, 3), *REAL_SVD_SHAPES, (3, 40, 2), (60, 5, 1)):
        t = rng.standard_normal(shape)
        factors = t_svd(t)
        recon = t_product(factors.U, t_product(factors.S, t_transpose(factors.V)))
        assert rel_err(recon, t) <= 1e-8
        got = oracles.spectral_singular_values(factors.S)
        want = oracles.spectral_singular_values(t)
        assert np.max(np.abs(got - want)) <= 1e-8


def test_t_svd_corpus_reconstruction_and_unitarity():
    for t in random_tensor_corpus(40, seed=21):
        factors = t_svd(t)
        recon = t_product(factors.U, t_product(factors.S, t_transpose(factors.V)))
        assert rel_err(recon, t) <= 1e-8
        for mat, d in ((factors.U, t.shape[0]), (factors.V, t.shape[1])):
            spec = np.fft.fft(mat, axis=2)
            for j in range(t.shape[2]):
                m = spec[:, :, j]
                assert np.linalg.norm(m.conj().T @ m - np.eye(d)) <= 1e-10


def test_t_svd_singular_values_sorted():
    # every spectral slice of S is diagonal, with the slice's singular
    # values sorted non-increasing
    for t in random_tensor_corpus(20, seed=22):
        spec = oracles.naive_dft_mode3(t_svd(t).S)
        diag = np.diagonal(spec, axis1=0, axis2=1).copy()
        idx = np.arange(diag.shape[1])
        spec[idx, idx] = 0
        assert np.abs(spec).max() <= 1e-12
        assert np.abs(diag.imag).max() <= 1e-12
        assert np.all(np.diff(diag.real, axis=1) <= 1e-12)


# ---------------------------------------------------------------------------
# tensor nuclear norm


def test_tnn_zero():
    assert tensor_nuclear_norm(np.zeros((3, 3, 2))) == 0.0


def test_tnn_depth_one_diagonal():
    t = np.diag([3.0, 1.0])[:, :, None]
    assert tensor_nuclear_norm(t) == pytest.approx(4.0, abs=1e-12)


def test_tnn_matches_oracle():
    for t in (np.random.default_rng(15).standard_normal((4, 4, 3)),
              *real_svd_inputs(34), *gram_branch_inputs(32)):
        assert tensor_nuclear_norm(t) == pytest.approx(oracles.naive_tnn(t), abs=1e-8)


def test_spectral_norms_share_one_rounding_floor(rng):
    # a near-square slice goes through the same Gram factorization as a
    # wide one, so a singular value below about sqrt(long_side * eps) of
    # the largest counts as zero
    u, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    t = ((u[:, :4] * [1.0, 1e-10, 0.0, 0.0]) @ v.T)[:, :, None]
    assert tensor_nuclear_norm(t) == pytest.approx(1.0, abs=1e-13)
    assert enhanced_tensor_nuclear_norm(t, 1.0) == pytest.approx(2.0, abs=1e-13)


def test_tnn_norm_properties():
    rng = np.random.default_rng(16)
    for _ in range(20):
        shape = tuple(rng.integers(1, 7, size=3))
        a = rng.standard_normal(shape)
        b = rng.standard_normal(shape)
        c = rng.standard_normal()
        na, nb = tensor_nuclear_norm(a), tensor_nuclear_norm(b)
        assert na >= 0
        assert tensor_nuclear_norm(c * a) == pytest.approx(abs(c) * na, abs=1e-10)
        assert tensor_nuclear_norm(a + b) <= na + nb + 1e-10


# ---------------------------------------------------------------------------
# shrinkage operators


def test_matrix_svt_diagonal():
    got = matrix_svt(np.diag([3.0, 1.0]), 1.0)
    assert np.allclose(got, np.diag([2.0, 0.0]), atol=1e-12)


def test_matrix_svt_zero_threshold(rng):
    m = rng.standard_normal((4, 3))
    assert rel_err(matrix_svt(m, 0.0), m) <= 1e-12


def test_matrix_svt_rejects_negative_tau(rng):
    with pytest.raises(ValueError):
        matrix_svt(rng.standard_normal((3, 3)), -0.1)


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda t: tensor_svt(t, NAN),
    lambda t: matrix_svt(t[:, :, 0], NAN),
    lambda t: enhanced_tensor_svt(t, NAN, 0.3, 1.0),
    lambda t: enhanced_tensor_svt(t, 1.0, NAN, 1.0),
    lambda t: enhanced_tensor_svt(t, 1.0, 0.3, NAN),
    lambda t: enhanced_tensor_nuclear_norm(t, NAN),
], ids=["tensor_svt", "matrix_svt", "etsvt_mu", "etsvt_zeta", "etsvt_lam", "etnn"])
def test_operators_reject_nan_parameters(rng, call):
    with pytest.raises(ValueError):
        call(rng.standard_normal((4, 3, 3)))


def test_matrix_svt_beats_random_perturbations():
    rng = np.random.default_rng(19)
    m = rng.standard_normal((5, 4))
    tau = 0.7
    x = matrix_svt(m, tau)
    base = oracles.svt_objective(x, m, tau)
    for _ in range(10_000):
        cand = x + rng.standard_normal(x.shape) * rng.choice([1e-3, 1e-1, 1.0])
        assert base <= oracles.svt_objective(cand, m, tau) + 1e-12


def test_matrix_svt_optimal_over_small_corpus():
    rng = np.random.default_rng(23)
    for _ in range(10):
        m = rng.standard_normal((3, 3))
        tau = rng.uniform(0.05, 1.5)
        x = matrix_svt(m, tau)
        base = oracles.svt_objective(x, m, tau)
        for _ in range(1000):
            cand = x + rng.standard_normal((3, 3)) * rng.choice([1e-2, 1e-1, 1.0])
            assert base <= oracles.svt_objective(cand, m, tau) + 1e-12


def test_tensor_svt_zero_threshold():
    t = np.random.default_rng(24).standard_normal((3, 4, 2))
    assert rel_err(tensor_svt(t, 0.0), t) <= 1e-12


def test_tensor_svt_depth_one_equals_matrix_svt(rng):
    t = rng.standard_normal((4, 3, 1))
    assert np.allclose(tensor_svt(t, 0.4)[:, :, 0], matrix_svt(t[:, :, 0], 0.4))


def test_tensor_svt_matches_oracle():
    for t in (np.random.default_rng(25).standard_normal((4, 4, 3)),
              *real_svd_inputs(35), *gram_branch_inputs(33)):
        assert rel_err(tensor_svt(t, 0.5), oracles.naive_tensor_svt(t, 0.5)) <= 1e-8


def test_enhanced_svt_zero_params_identity(rng):
    t = rng.standard_normal((4, 3, 2))
    assert np.array_equal(enhanced_tensor_svt(t, 1.0, 0.0, 0.0), t)


def test_enhanced_svt_zero_tensor():
    for mu, zeta, lam in [(1.0, 0.1, 0.2), (0.5, 0.0, 1.0), (2.0, 3.0, 0.0)]:
        out = enhanced_tensor_svt(np.zeros((3, 3, 2)), mu, zeta, lam)
        assert np.allclose(out, 0.0)


def test_enhanced_svt_shrinks_both_norms():
    t = np.random.default_rng(26).standard_normal((4, 4, 3))
    lam = 1.0 / np.sqrt(max(4, 3) * 4)
    out = enhanced_tensor_svt(t, 1.0, 0.1, lam)
    assert oracles.naive_tnn(out) <= oracles.naive_tnn(t) + 1e-10
    cm_in = oracles.spectral_singular_values(t)
    cm_out = oracles.spectral_singular_values(out)
    assert oracles.matrix_nuclear_norm(cm_out) \
        <= oracles.matrix_nuclear_norm(cm_in) + 1e-10


def test_enhanced_svt_equals_public_composition():
    rng = np.random.default_rng(29)
    random_shapes = (tuple(rng.integers(2, 6, size=3)) for _ in range(8))
    for shape in itertools.chain(random_shapes, REAL_SVD_SHAPES):
        t = rng.standard_normal(shape)
        mu, zeta, lam = rng.uniform(0.5, 2.0), rng.uniform(0, 0.4), rng.uniform(0, 0.4)
        want = oracles.naive_enhanced_tensor_svt(t, mu, zeta, lam)
        got = enhanced_tensor_svt(t, mu, zeta, lam)
        assert np.max(np.abs(got - want)) <= 1e-9


def test_enhanced_svt_rectangular_fast_path_matches_composition():
    # far-from-square slices, factored through the Gram matrix of a short side
    rng = np.random.default_rng(30)
    for shape in ((3, 40, 2), (40, 3, 3), (2, 29, 4), (60, 5, 1)):
        t = rng.standard_normal(shape)
        mu, zeta, lam = 1.3, 0.2, 0.15
        want = oracles.naive_enhanced_tensor_svt(t, mu, zeta, lam)
        got = enhanced_tensor_svt(t, mu, zeta, lam)
        assert np.max(np.abs(got - want)) <= 1e-9


# complex spectral slices (d3 >= 3) on wide, tall and square slices, full
# rank and of rank 2, against the per-slice SVDs of the naive transform


def complex_slice_inputs(d3):
    rng = np.random.default_rng(60 + d3)
    for shape in ((4, 30, d3), (30, 4, d3), (6, 6, d3)):
        yield rng.standard_normal(shape)
        yield low_rank_tensor(rng, shape, 2)


@pytest.mark.parametrize("d3", range(3, 9))
def test_tensor_svt_matches_oracle_with_complex_slices(d3):
    for t in complex_slice_inputs(d3):
        assert rel_err(tensor_svt(t, 0.5), oracles.naive_tensor_svt(t, 0.5)) <= 1e-8


@pytest.mark.parametrize("d3", range(3, 9))
def test_tnn_matches_oracle_with_complex_slices(d3):
    for t in complex_slice_inputs(d3):
        assert tensor_nuclear_norm(t) == pytest.approx(oracles.naive_tnn(t), abs=1e-8)


@pytest.mark.parametrize("d3", range(3, 9))
def test_enhanced_norm_matches_oracle_with_complex_slices(d3):
    for t in complex_slice_inputs(d3):
        cm = oracles.spectral_singular_values(t)
        want = oracles.matrix_nuclear_norm(cm) + 0.4 * oracles.naive_tnn(t)
        assert enhanced_tensor_nuclear_norm(t, 0.4) == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("d3", range(3, 9))
def test_enhanced_svt_matches_oracle_with_complex_slices(d3):
    for t in complex_slice_inputs(d3):
        for mu, zeta, lam in ((1.3, 0.2, 0.15), (0.7, 0.0, 0.4), (2.0, 0.5, 0.0)):
            got = enhanced_tensor_svt(t, mu, zeta, lam)
            want = oracles.naive_enhanced_tensor_svt(t, mu, zeta, lam)
            assert np.max(np.abs(got - want)) <= 1e-9


def test_enhanced_norm_value_matches_oracle_sum():
    import oracles
    from tenhash.tensor_ops import enhanced_tensor_nuclear_norm

    rng = np.random.default_rng(31)
    inputs = [rng.standard_normal(shape) for shape in ((4, 4, 3), (3, 30, 2), (25, 2, 3))]
    inputs += [low_rank_tensor(rng, shape, rank) for shape in GRAM_SHAPES for rank in (1, 2)]
    inputs += real_svd_inputs(36)
    for t in inputs:
        cm = oracles.spectral_singular_values(t)
        want = oracles.matrix_nuclear_norm(cm) + 0.4 * oracles.naive_tnn(t)
        assert enhanced_tensor_nuclear_norm(t, 0.4) == pytest.approx(want, abs=1e-8)


def test_enhanced_svt_monotone_over_corpus():
    rng = np.random.default_rng(27)
    for t in random_tensor_corpus(15, dmax=6, seed=28):
        mu = rng.uniform(0.5, 4.0)
        zeta = rng.uniform(0.0, 0.5)
        lam = rng.uniform(0.0, 0.5)
        out = enhanced_tensor_svt(t, mu, zeta, lam)
        assert oracles.naive_tnn(out) <= oracles.naive_tnn(t) + 1e-9
        nn_in = oracles.matrix_nuclear_norm(oracles.spectral_singular_values(t))
        nn_out = oracles.matrix_nuclear_norm(oracles.spectral_singular_values(out))
        assert nn_out <= nn_in + 1e-9


@pytest.mark.parametrize("v", [1, 2, 3, 4])
def test_enhanced_svt_zero_bound_is_exact(v, monkeypatch):
    # every stage-two coefficient is 0 once sqrt(d3) ||t||_F - lam/mu <=
    # zeta/mu (up to the 1e-6 margin); a tensor constant along mode 3 with
    # rank-1 slices has one core-matrix entry, sqrt(d3) ||t||_F, so it meets
    # the bound with equality and just above it shrinks to nonzero
    import tenhash.tensor_ops as ops

    rng = np.random.default_rng(40 + v)
    mu, zeta, lam = 0.8, 0.3, 0.2
    edge = (zeta + lam) / mu / (np.sqrt(v) * (1 + 1e-6))
    rank_one = np.outer(rng.standard_normal(5), rng.standard_normal(7))
    shapes = [np.repeat(rank_one[:, :, None], v, axis=2),
              np.repeat(rank_one.T[:, :, None], v, axis=2),
              rng.standard_normal((6, 4, v)), rng.standard_normal((3, 9, v))]
    spectrum = ops._spectrum
    for t in shapes:
        t = t / np.linalg.norm(t)
        monkeypatch.setattr(ops, "_spectrum", None)
        below = enhanced_tensor_svt(t * edge * (1 - 1e-6), mu, zeta, lam)
        monkeypatch.setattr(ops, "_spectrum", spectrum)
        assert below.shape == t.shape
        assert np.moveaxis(below, 2, 0).flags.c_contiguous
        assert np.all(below == 0) and not np.signbit(below).any()
        above = t * edge * 1.01
        got = enhanced_tensor_svt(above, mu, zeta, lam)
        want = oracles.naive_enhanced_tensor_svt(above, mu, zeta, lam)
        assert np.max(np.abs(got - want)) <= 1e-9
    # the tight case shrinks to a nonzero result just above the bound
    tight = np.repeat(rank_one[:, :, None], v, axis=2)
    tight *= edge * 1.01 / np.linalg.norm(tight)
    assert np.max(np.abs(enhanced_tensor_svt(tight, mu, zeta, lam))) > 1e-3 * edge


@pytest.mark.parametrize("d3", range(1, 7))
def test_enhanced_svt_gram_bound_is_exact(d3, monkeypatch):
    # every stage-two coefficient is 0 once max_j sqrt(||G_j||_F) <=
    # (zeta - lam)/mu (up to the 1e-6 margin), with G_j the Gram matrix of
    # spectral slice j, whose Frobenius norm is sqrt(sum(sigma^4)); the
    # inputs sit just below and just above that edge, where the norm bound
    # does not show the result is 0
    rng = np.random.default_rng(70 + d3)
    mu, zeta, lam = 1.0, 0.3, 0.03
    edge = (zeta - lam) / mu
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    for shape in ((4, 9, d3), (9, 4, d3), (6, 6, d3)):
        t = rng.standard_normal(shape)
        t /= np.max(np.sum(oracles.spectral_singular_values(t) ** 4, axis=0) ** 0.25)
        for side in (1 - 1e-4, 1 + 1e-4):
            x = t * edge * side
            assert np.sqrt(d3) * np.linalg.norm(x) - lam / mu > zeta / mu
            calls.clear()
            got = enhanced_tensor_svt(x, mu, zeta, lam)
            want = oracles.naive_enhanced_tensor_svt(x, mu, zeta, lam)
            assert np.max(np.abs(got - want)) <= 1e-9
            assert np.moveaxis(got, 2, 0).flags.c_contiguous
            if side < 1:
                assert not calls
                assert np.all(got == 0) and not np.signbit(got).any()
            else:
                # the edge is (zeta - lam)/mu, not zeta/mu: stage one can
                # raise an entry by up to lam/mu, so above it the slices
                # are factored
                assert calls


@pytest.mark.parametrize("value", [np.inf, np.nan, 1e200])
def test_shrinkage_of_a_non_finite_norm_is_nan(value, rng):
    # an Inf or NaN entry, or finite entries whose norm overflows, with no
    # warning and without factoring
    from tenhash.tensor_ops import shrink_unchecked

    block = rng.standard_normal((2, 4, 6))
    block[1, 2, 3] = value
    out = np.empty_like(block)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = shrink_unchecked(np.moveaxis(block, 0, 2), 0.5, 0.1, 0.2, out=out)
    assert np.shares_memory(got, out) and np.isnan(out).all()

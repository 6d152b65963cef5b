"""Third-order tensor algebra in the mode-3 Fourier domain.

A third-order tensor is a real d1 x d2 x d3 ndarray. All products and
decompositions here are defined slice-wise after a DFT along the third
mode: the t-product, t-SVD, tensor nuclear norm, the core-matrix view of
the t-SVD core, and the shrinkage (proximal) operators built on them.

Every operator goes through one spectral path. The spectrum of a real
tensor is conjugate-symmetric along mode 3, so only its d3//2+1
independent slices are computed, as one contiguous stack that batched
``numpy.linalg`` calls factor at once. The transform is one product with
the real DFT matrix of length d3 (built once per d3, exact at quarter
turns) over the tensor's d3 x (d1*d2) view-major matrix, and the inverse
one product with its inverse: mode 3 is the short view axis, where the
d3^2 multiply-adds per entry cost less than an FFT over a strided axis.
For d3 <= 2 every independent slice is real and the matrices hold only
0, +-1 and +-1/2, so the spectrum is exactly the slice (d3 = 1) or the sum
and the difference of the two slices (d3 = 2) and the factorizations run
in real arithmetic. For d3 >= 3 the stack is complex and agrees with an
FFT to rounding level. No FFT runs anywhere: a caller who wants the full
complex spectrum of a tensor calls ``numpy.fft.fft(t, axis=2)``.

Slice singular values come from one factorization, the eigendecomposition
of the Gram matrix of the slices' short side (BLAS-3 work linear in the
long side). Squaring the slice sets one rounding floor: eigenvalues below
long_side * eps times the largest of their slice count as zero, i.e.
singular values below about sqrt(long_side * eps) of the largest. t_svd
and matrix_svt use LAPACK's SVD, with RANK_TOL as their cutoff.
"""

import functools
from typing import NamedTuple

import numpy as np

from .exceptions import (
    ConjugateSymmetryViolation,
    DimensionMismatch,
    SvdNonConvergence,
)

# relative cutoff below which t_svd and matrix_svt singular values are zero
RANK_TOL = 1e-12

# antisymmetric part above this fraction of its norm means a core matrix
# would not fold into a real tensor
IMAG_TOL = 1e-8


class TSvd(NamedTuple):
    """Factors of a t-SVD: ``t = U * S * t_transpose(V)``.

    U is d1 x d1 x d3, S is f-diagonal d1 x d2 x d3, V is d2 x d2 x d3;
    every spectral slice of U and V is unitary.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def _as_tensor3(t, name="tensor"):
    t = np.asarray(t, dtype=float)
    if t.ndim != 3:
        raise DimensionMismatch(f"{name} must be 3-D, got shape {t.shape}")
    if t.size == 0:
        raise DimensionMismatch(f"{name} has an empty dimension: {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError(f"{name} contains non-finite entries")
    return t


def _clean_singvals(s):
    """Zero out singular values below RANK_TOL relative to the largest of
    their row (each row sorted non-increasing)."""
    return np.where(s < RANK_TOL * s[..., :1], 0.0, s)


def _svd(mat, full_matrices=False, compute_uv=True):
    try:
        return np.linalg.svd(mat, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise SvdNonConvergence(str(exc)) from exc


@functools.lru_cache(maxsize=16)
def _dft_matrices(d3):
    """The real DFT matrix of length d3 and its inverse, both d3 x d3 and
    read-only.

    Applied to the d3 slices of a real tensor, the forward matrix gives its
    spectrum packed as real numbers: rows 0..h-1 (h = d3//2+1) are the real
    parts of the independent spectral slices 0..h-1, and rows h..d3-1 the
    imaginary parts of slices 1..d3-h, the only ones that have one. The
    inverse weighs slice 0 (and slice d3/2 for even d3) by 1/d3 and every
    other slice by 2/d3, for its mirror. Entries at quarter turns are exact,
    so for d3 <= 2 and d3 = 4 the forward matrix holds only 0 and +-1 and
    the inverse only 0 and +-1/d3, +-2/d3.
    """
    h = d3 // 2 + 1
    sines = slice(1, d3 - h + 1)
    turns = np.outer(np.arange(h), np.arange(d3)) % d3
    quarter, rest = np.divmod(4 * turns, d3)
    angle = 2 * np.pi * turns / d3
    exact = rest == 0
    cos = np.where(exact, np.array([1.0, 0.0, -1.0, 0.0])[quarter], np.cos(angle))
    # the imaginary part of exp(-i angle)
    neg_sin = np.where(exact, np.array([0.0, -1.0, 0.0, 1.0])[quarter], -np.sin(angle))
    weight = np.full(h, 1.0 / d3)
    weight[sines] = 2.0 / d3
    forward = np.vstack([cos, neg_sin[sines]])
    inverse = np.hstack([cos.T * weight, neg_sin[sines].T * weight[sines]])
    forward.flags.writeable = inverse.flags.writeable = False
    return forward, inverse


def _spectrum(t):
    """The d3//2+1 independent spectral slices of a real tensor, as a
    contiguous (d3//2+1) x d1 x d2 stack (batched matrix products on
    non-contiguous stacks fall off BLAS); real for d3 <= 2, complex
    otherwise.

    One product of the real DFT matrix with the view-major d3 x (d1*d2)
    reshape of ``t``; that reshape is free when ``t`` is the mode-3 view of
    a contiguous view-major block, and a copy otherwise.
    """
    d1, d2, d3 = t.shape
    h = d3 // 2 + 1
    packed = _dft_matrices(d3)[0] @ np.moveaxis(t, 2, 0).reshape(d3, d1 * d2)
    if d3 <= 2:
        return packed.reshape(h, d1, d2)
    stack = np.zeros((h, d1 * d2), dtype=complex)
    stack.real = packed[:h]
    stack.imag[1 : d3 - h + 1] = packed[h:]
    return stack.reshape(h, d1, d2)


def _from_spectrum(stack, d3):
    """Real d1 x d2 x d3 tensor whose independent spectral slices are
    ``stack`` (inverse of :func:`_spectrum`); the mirrored slices are
    their conjugates by construction.

    One product of the inverse real DFT matrix with the packed spectrum,
    written into a contiguous view-major d3 x d1 x d2 array; the result is
    its mode-3 view.
    """
    h, d1, d2 = stack.shape
    if d3 <= 2:
        packed = stack.reshape(h, d1 * d2)
    else:
        packed = np.empty((d3, d1, d2))
        packed[:h] = stack.real
        packed[h:] = stack.imag[1 : d3 - h + 1]
        packed = packed.reshape(d3, d1 * d2)
    out = _dft_matrices(d3)[1] @ packed
    return np.moveaxis(out.reshape(d3, d1, d2), 0, 2)


def _all_slices(half, d3):
    """Extend values indexed by independent slice (last axis) to all d3
    slices; slice j and its mirror d3 - j share values."""
    j = np.arange(d3)
    return half[..., np.minimum(j, d3 - j)]


def _factor(stack, vectors=True):
    """Singular values of every slice of a spectral stack, and a rebuild.

    Returns ``(s, rebuild)``: ``s`` is (slices, min(d1, d2)), each row
    non-increasing and zero below the rounding floor; ``rebuild(coeff)``
    returns the stack with those singular values replaced by the real
    ``coeff`` of the same shape. With ``vectors=False`` no eigenvectors
    are computed and ``rebuild`` is None.
    """
    _, d1, d2 = stack.shape
    long = max(d1, d2)
    # work on the wide orientation: a tall stack is handled through its
    # slice transposes, whose singular values and vectors mirror its own
    tall = d1 > d2
    wide = stack.mT if tall else stack
    gram = wide @ wide.conj().mT
    try:
        vals, basis = np.linalg.eigh(gram) if vectors else (np.linalg.eigvalsh(gram), None)
    except np.linalg.LinAlgError as exc:
        raise SvdNonConvergence(str(exc)) from exc
    vals = vals[:, ::-1]
    vals = np.where(vals > long * np.finfo(float).eps * vals[:, :1], vals, 0.0)
    s = np.sqrt(vals)
    if not vectors:
        return s, None
    basis = basis[:, :, ::-1]

    def rebuild(coeff):
        # the slice itself is reused, so spurious null-space directions
        # of the Gram matrix self-cancel
        ratio = np.divide(coeff, s, out=np.zeros_like(coeff), where=s > 0)
        out = (basis * ratio[:, None, :]) @ (basis.conj().mT @ wide)
        return out.mT if tall else out

    return s, rebuild


def t_transpose(t):
    """Tensor transpose: transpose each frontal slice and reverse the
    order of slices 2..d3 (conjugate transpose in the spectral domain)."""
    t = _as_tensor3(t)
    return np.ascontiguousarray(t.transpose(1, 0, 2)[:, :, -np.arange(t.shape[2])])


def t_product(a, b):
    """t-product of two third-order tensors.

    Slice-wise matrix product in the spectral domain followed by
    the inverse transform; equivalent to block-circulant matrix
    multiplication along mode 3.
    """
    a = _as_tensor3(a, "left operand")
    b = _as_tensor3(b, "right operand")
    if a.shape[1] != b.shape[0] or a.shape[2] != b.shape[2]:
        raise DimensionMismatch(
            f"cannot t-multiply shapes {a.shape} and {b.shape}"
        )
    return _from_spectrum(_spectrum(a) @ _spectrum(b), a.shape[2])


def t_svd(t):
    """t-SVD of a third-order tensor.

    Returns :class:`TSvd` factors with
    ``t_product(U, t_product(S, t_transpose(V)))`` reconstructing ``t``.
    Spectral singular values are sorted non-increasing within each slice.
    Only the first d3//2+1 spectral slices are decomposed; the rest
    follow from conjugate symmetry of the real input.
    """
    t = _as_tensor3(t)
    d1, d2, d3 = t.shape
    u, s, vh = _svd(_spectrum(t), full_matrices=True)
    return TSvd(
        U=_from_spectrum(u, d3),
        S=fold_core_matrix(_all_slices(_clean_singvals(s).T, d3), d1, d2, d3),
        V=_from_spectrum(vh.conj().mT, d3),
    )


def tensor_nuclear_norm(t):
    """Tensor nuclear norm: mean over spectral slices of the matrix
    nuclear norm, i.e. (1/d3) * sum_j ||fft(t)[:, :, j]||_*."""
    t = _as_tensor3(t)
    s, _ = _factor(_spectrum(t), vectors=False)
    return _all_slices(s.T, t.shape[2]).sum() / t.shape[2]


def enhanced_tensor_nuclear_norm(t, zeta):
    """Nuclear norm of the core matrix plus zeta times the tensor
    nuclear norm of ``t``."""
    # every comparison with NaN is False, so NaN is rejected too
    if not 0 <= zeta:
        raise ValueError(f"zeta must be >= 0, got {zeta}")
    t = _as_tensor3(t)
    s, _ = _factor(_spectrum(t), vectors=False)
    cm = _all_slices(s.T, t.shape[2])
    return float(_svd(cm, compute_uv=False).sum() + zeta * cm.sum() / t.shape[2])


def extract_core_matrix(factors):
    """Map the f-diagonal core tensor to its D x d3 singular-value matrix.

    Entry (i, j) is the i-th diagonal entry of the j-th spectral slice of
    S, with D = min(d1, d2). Accepts either :class:`TSvd` factors or the
    core tensor itself.
    """
    s = factors.S if isinstance(factors, TSvd) else factors
    s = _as_tensor3(s, "core tensor")
    diag = np.diagonal(_spectrum(s), axis1=1, axis2=2).real
    return np.maximum(_all_slices(diag.T, s.shape[2]), 0.0)


def fold_core_matrix(cm, d1, d2, d3):
    """Inverse of :func:`extract_core_matrix`: build the f-diagonal
    d1 x d2 x d3 core tensor whose spectral slice j has column j of ``cm``
    on its diagonal.

    Raises
    ------
    ConjugateSymmetryViolation
        If columns j and d3 - j of ``cm`` differ by more than IMAG_TOL of
        its norm (the folded tensor would not be real).
    """
    cm = np.asarray(cm, dtype=float)
    dmin = min(d1, d2)
    if cm.shape != (dmin, d3):
        raise DimensionMismatch(
            f"core matrix shape {cm.shape} incompatible with target "
            f"({d1}, {d2}, {d3}); expected ({dmin}, {d3})"
        )
    # the antisymmetric part of cm is what would become the imaginary
    # residue of the folded tensor, at the same fraction of its norm
    imag = np.linalg.norm(cm - cm[:, -np.arange(d3)]) / 2
    total = np.linalg.norm(cm)
    if imag > IMAG_TOL * total:
        raise ConjugateSymmetryViolation(
            f"imaginary residue {imag:.3e} exceeds {IMAG_TOL:g} of norm {total:.3e}"
        )
    sh = np.zeros((d3 // 2 + 1, d1, d2))
    idx = np.arange(dmin)
    sh[:, idx, idx] = cm[:, : d3 // 2 + 1].T
    return _from_spectrum(sh, d3)


def matrix_svt(m, tau):
    """Singular value thresholding: the proximal operator of the matrix
    nuclear norm.

    Returns the unique minimizer of ``tau*||X||_* + 0.5*||X - m||_F^2``,
    i.e. U @ diag(max(sigma - tau, 0)) @ Vt.
    """
    if not 0 <= tau:
        raise ValueError(f"threshold must be >= 0, got {tau}")
    m = np.asarray(m)
    u, s, vt = _svd(m)
    s = np.maximum(_clean_singvals(s) - tau, 0.0)
    return (u * s) @ vt


def tensor_svt(t, tau):
    """Proximal operator of the tensor nuclear norm.

    Applies :func:`matrix_svt` with threshold ``tau`` to every spectral
    slice, then transforms back. With the 1/d3 norm convention this is
    the exact minimizer of ``tau*||X||_tnn + 0.5*||X - t||_F^2``.
    """
    if not 0 <= tau:
        raise ValueError(f"threshold must be >= 0, got {tau}")
    t = _as_tensor3(t)
    s, rebuild = _factor(_spectrum(t))
    return _from_spectrum(rebuild(np.maximum(s - tau, 0.0)), t.shape[2])


def enhanced_tensor_svt(t, mu, zeta, lam):
    """Two-stage shrinkage behind the enhanced tensor nuclear norm.

    Stage one decomposes ``t``, extracts the core matrix and applies
    :func:`matrix_svt` with threshold ``lam/mu``, forcing the core matrix
    itself to be low rank. Stage two folds the shrunk core back, rebuilds
    the tensor through the t-product with the original orthogonal
    factors, and applies :func:`tensor_svt` with threshold ``zeta/mu``.

    With ``lam == zeta == 0`` both stages are the identity and the input
    is returned unchanged.

    Works on the spectral slices with economy factorizations, which is
    algebraically identical to composing the public operations
    (decompose, extract, shrink, fold, rebuild, shrink) but never forms
    the full square orthogonal factors.
    """
    if not 0 < mu:
        raise ValueError(f"mu must be > 0, got {mu}")
    if not (0 <= zeta and 0 <= lam):
        raise ValueError("zeta and lam must be >= 0")
    t = _as_tensor3(t)
    if zeta == 0 and lam == 0:
        return t.copy()
    d3 = t.shape[2]
    s, rebuild = _factor(_spectrum(t))
    cm = _all_slices(s.T, d3)
    # stage one: global SVT on the core matrix couples the slices
    cm_low = matrix_svt(cm, lam / mu)
    # stage two: the rebuilt slice U diag(c) V^H has singular values |c|,
    # so its SVT shrinks each coefficient toward zero by zeta/mu
    shrunk = np.sign(cm_low) * np.maximum(np.abs(cm_low) - zeta / mu, 0.0)
    # a vanished singular value leaves no principled direction to put
    # re-grown energy on; keep those coefficients at zero
    shrunk = np.where(cm > 0, shrunk, 0.0)
    return _from_spectrum(rebuild(shrunk[:, : d3 // 2 + 1].T), d3)

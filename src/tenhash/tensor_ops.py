"""Third-order tensor algebra in the mode-3 Fourier domain.

A third-order tensor is a real d1 x d2 x d3 ndarray. All products and
decompositions here are defined slice-wise after a DFT along the third
mode: the t-product, t-SVD, tensor nuclear norm, and the shrinkage
(proximal) operators built on them.

Every operator goes through one spectral path, in real arithmetic. The
spectrum of a real tensor is conjugate-symmetric along mode 3, so d3 real
d1 x d2 slices hold all of it, packed into one contiguous d3 x d1 x d2
array: rows 0..h-1 (h = d3//2+1) are the real parts of the independent
spectral slices 0..h-1, and rows h..d3-1 the imaginary parts of slices
1..d3-h, the only ones that have one. The packing is one product of the
real DFT matrix of length d3 (built once per d3, exact at quarter turns)
with the tensor's d3 x (d1*d2) view-major matrix, and the inverse one
product with its inverse: mode 3 is the short view axis, where the d3^2
multiply-adds per entry cost less than an FFT over a strided axis. For
d3 <= 2 the matrices hold only 0, +-1 and +-1/2, so the packing is exactly
the slice (d3 = 1) or the sum and the difference of the two slices
(d3 = 2); for d3 >= 3 it agrees with an FFT to rounding level. No FFT
runs anywhere: a caller who wants the full complex spectrum of a tensor
calls ``numpy.fft.fft(t, axis=2)``.

Slice 0, and slice d3/2 for even d3, are their own conjugates, hence
real, and are factored in real arithmetic. Every other independent slice
R + iI is factored through its Hermitian Gram matrix
RR^T + II^T + i(IR^T - RI^T), formed from real products: complex numbers
appear only in that short-side square matrix and its eigendecomposition,
and a rebuild writes the real and imaginary parts of each slice straight
into the rows of a packing.

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

from .exceptions import DimensionMismatch, SvdNonConvergence

# relative cutoff below which t_svd and matrix_svt singular values are zero
RANK_TOL = 1e-12


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


def _rows(d3):
    """Where a packing of depth d3 keeps its slices: three basic slices of
    its first axis, for the real slices (0, and d3/2 for even d3), the
    real parts of the complex slices 1..d3-h and their imaginary parts.
    The first two also pick those slices out of a per-slice array of the
    d3//2+1 independent slices in slice order."""
    h = d3 // 2 + 1
    real = slice(0, h, h - 1) if d3 % 2 == 0 else slice(0, 1)
    return real, slice(1, d3 - h + 1), slice(h, d3)


def _spectrum(t, out=None):
    """The packed spectrum of a real tensor: a contiguous d3 x d1 x d2
    float array laid out as :func:`_rows` says (``out`` if given, which is
    not ``t``'s memory).

    One product of the real DFT matrix with the view-major d3 x (d1*d2)
    reshape of ``t``; that reshape is free when ``t`` is the mode-3 view of
    a contiguous view-major block, and a copy otherwise.
    """
    d1, d2, d3 = t.shape
    if out is None:
        out = np.empty((d3, d1, d2))
    np.matmul(_dft_matrices(d3)[0], np.moveaxis(t, 2, 0).reshape(d3, d1 * d2),
              out=out.reshape(d3, d1 * d2))
    return out


def _from_spectrum(packed, out=None):
    """Real d1 x d2 x d3 tensor whose packed spectrum is ``packed``, a
    contiguous d3 x d1 x d2 float array (inverse of :func:`_spectrum`).

    One product of the inverse real DFT matrix with the packing, written
    into a contiguous view-major d3 x d1 x d2 array (``out`` if given, else
    a new one); the result is its mode-3 view.
    """
    d3, d1, d2 = packed.shape
    if out is None:
        out = np.empty((d3, d1, d2))
    np.matmul(_dft_matrices(d3)[1], packed.reshape(d3, d1 * d2), out=out.reshape(d3, d1 * d2))
    return np.moveaxis(out, 0, 2)


def _all_slices(half, d3):
    """Extend values indexed by independent slice (last axis) to all d3
    slices; slice j and its mirror d3 - j share values."""
    j = np.arange(d3)
    return half[..., np.minimum(j, d3 - j)]


def _factor(packed, vectors=True, zero_bound=None):
    """Singular values of every independent slice of a packed spectrum,
    and a rebuild.

    Returns ``(s, rebuild)``: ``s`` is (d3//2+1, min(d1, d2)), row j for
    slice j, each row non-increasing and zero below the rounding floor;
    ``rebuild(coeff)`` returns the packing with those singular values
    replaced by the real ``coeff`` of the same shape, written into ``out``
    if given (a contiguous array of the packing's shape that is not the
    packing). Once it has read the packing's rows of the complex slices'
    real parts it uses them as scratch, so it runs once per packing and
    leaves those rows overwritten. With ``vectors=False`` no eigenvectors
    are computed and ``rebuild`` is None.

    The real slices are factored in real arithmetic, the complex slices
    R + iI through their Hermitian Gram matrices, formed from real
    products. The rebuild forms, per slice, the short-side square matrix
    P = basis diag(coeff / s) basis^H and applies it to the slice: P X for
    a real slice, and P_r R - P_i I and P_r I + P_i R for the real and
    imaginary parts of a complex one, each written into its row of the
    result. That is one product with P in place of two with the basis over
    the long side, and agrees with the two-product form to rounding level.

    With ``zero_bound``, returns None instead, before any
    eigendecomposition, when max_j sqrt(||G_j||_F) (1 + 1e-6) <=
    zero_bound over the slice Gram matrices G_j: that bounds every
    singular value, since sigma_max(X_j)^2 = lambda_max(G_j) <= ||G_j||_F,
    and the factor covers the rounding of the computed singular values.
    """
    d3, d1, d2 = packed.shape
    real, re, im = _rows(d3)
    long = max(d1, d2)
    # work on the wide orientation: a tall packing is handled through its
    # slice transposes, whose singular values and vectors mirror its own
    tall = d1 > d2
    wide = packed.mT if tall else packed
    own = wide[real]
    grams = [(real, own @ own.mT)]
    if d3 >= 3:
        # (R + iI)(R + iI)^H
        r, i = wide[re], wide[im]
        cross = i @ r.mT
        grams.append((re, r @ r.mT + i @ i.mT + 1j * (cross - cross.mT)))
    if zero_bound is not None:
        largest = max(np.linalg.norm(gram, axis=(1, 2)).max() for _, gram in grams)
        if np.sqrt(largest) * (1 + 1e-6) <= zero_bound:
            return None
    vals = np.empty((d3 // 2 + 1, min(d1, d2)))
    bases = []
    try:
        for rows, gram in grams:
            if vectors:
                vals[rows], basis = np.linalg.eigh(gram)
                bases.append((rows, basis[:, :, ::-1]))
            else:
                vals[rows] = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise SvdNonConvergence(str(exc)) from exc
    vals = vals[:, ::-1]
    vals = np.where(vals > long * np.finfo(float).eps * vals[:, :1], vals, 0.0)
    s = np.sqrt(vals)
    if not vectors:
        return s, None

    def apply(p, x, out):
        # a tall packing's slices take P from the right: (P X^T)^T = X P^T
        return np.matmul(x, p.mT, out=out) if tall else np.matmul(p, x, out=out)

    def rebuild(coeff, out=None):
        if out is None:
            out = np.empty_like(packed)
        # the slice itself is reused, so spurious null-space directions
        # of the Gram matrix self-cancel
        ratio = np.divide(coeff, s, out=np.zeros_like(coeff), where=s > 0)
        proj = [(basis * ratio[rows][:, None, :]) @ basis.conj().mT for rows, basis in bases]
        apply(proj[0], packed[real], out[real])
        if d3 >= 3:
            p_r, p_i = np.ascontiguousarray(proj[1].real), np.ascontiguousarray(proj[1].imag)
            r, i, out_r, out_i = packed[re], packed[im], out[re], out[im]
            apply(p_r, r, out_r)
            apply(p_i, r, out_i)
            # R is read by now, so its rows hold P_i I, then P_r I
            out_r -= apply(p_i, i, r)
            out_i += apply(p_r, i, r)
        return out

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
    d3 = a.shape[2]
    real, re, im = _rows(d3)
    pa, pb = _spectrum(a), _spectrum(b)
    out = np.empty((d3, a.shape[0], b.shape[1]))
    np.matmul(pa[real], pb[real], out=out[real])
    # (R_a + i I_a)(R_b + i I_b), in real products
    out[re] = pa[re] @ pb[re] - pa[im] @ pb[im]
    out[im] = pa[re] @ pb[im] + pa[im] @ pb[re]
    return _from_spectrum(out)


def t_svd(t):
    """t-SVD of a third-order tensor.

    Returns :class:`TSvd` factors with
    ``t_product(U, t_product(S, t_transpose(V)))`` reconstructing ``t``.
    Spectral singular values are sorted non-increasing within each slice
    and sit on the diagonal of S's spectral slices. Only the first d3//2+1
    spectral slices are decomposed; the rest follow from conjugate
    symmetry of the real input.
    """
    t = _as_tensor3(t)
    d1, d2, d3 = t.shape
    real, re, im = _rows(d3)
    packed = _spectrum(t)
    u_r, s_r, vh_r = _svd(packed[real], full_matrices=True)
    u_c, s_c, vh_c = _svd(packed[re] + 1j * packed[im], full_matrices=True)

    def pack(real_slices, complex_slices):
        out = np.empty((d3, *real_slices.shape[1:]))
        out[real], out[re], out[im] = real_slices, complex_slices.real, complex_slices.imag
        return out

    core = np.zeros((d3, d1, d2))
    diag = np.arange(min(d1, d2))
    core[real, diag, diag], core[re, diag, diag] = _clean_singvals(s_r), _clean_singvals(s_c)
    return TSvd(
        U=_from_spectrum(pack(u_r, u_c)),
        S=_from_spectrum(core),
        V=_from_spectrum(pack(vh_r.mT, vh_c.conj().mT)),
    )


def tensor_nuclear_norm(t):
    """Tensor nuclear norm: mean over spectral slices of the matrix
    nuclear norm, i.e. (1/d3) * sum_j ||fft(t)[:, :, j]||_*."""
    t = _as_tensor3(t)
    s, _ = _factor(_spectrum(t), vectors=False)
    return _all_slices(s.T, t.shape[2]).sum() / t.shape[2]


def enhanced_tensor_nuclear_norm(t, zeta):
    """Nuclear norm of the core matrix (column j the singular values of
    spectral slice j) plus zeta times the tensor nuclear norm of ``t``."""
    # every comparison with NaN is False, so NaN is rejected too
    if not 0 <= zeta:
        raise ValueError(f"zeta must be >= 0, got {zeta}")
    t = _as_tensor3(t)
    s, _ = _factor(_spectrum(t), vectors=False)
    cm = _all_slices(s.T, t.shape[2])
    return float(_svd(cm, compute_uv=False).sum() + zeta * cm.sum() / t.shape[2])


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
    return _from_spectrum(rebuild(np.maximum(s - tau, 0.0)))


def enhanced_tensor_svt(t, mu, zeta, lam):
    """Two-stage shrinkage behind the enhanced tensor nuclear norm.

    Stage one factors every spectral slice of ``t``, gathers the singular
    values into the core matrix (column j for slice j) and applies
    :func:`matrix_svt` with threshold ``lam/mu``, forcing the core matrix
    itself to be low rank. Stage two rebuilds every slice from its own
    singular vectors with the shrunk core column as its singular values,
    and applies :func:`tensor_svt` with threshold ``zeta/mu``, which
    shrinks each core entry toward zero by ``zeta/mu``.

    With ``lam == zeta == 0`` both stages are the identity and the input
    is returned unchanged.

    Works on the spectral slices with economy factorizations and never
    forms the full square orthogonal factors of a t-SVD. The work is done
    by :func:`shrink_unchecked`, which returns +0.0 everywhere without
    factoring when the norm of ``t`` or the Gram matrices of its spectral
    slices show the result is 0 (where the full path could give -0.0), and
    all NaN when that norm overflows.
    """
    if not 0 < mu:
        raise ValueError(f"mu must be > 0, got {mu}")
    if not (0 <= zeta and 0 <= lam):
        raise ValueError("zeta and lam must be >= 0")
    t = _as_tensor3(t)
    if zeta == 0 and lam == 0:
        return t.copy()
    return shrink_unchecked(t, mu, zeta, lam)


def shrink_unchecked(t, mu, zeta, lam, out=None, work=None):
    """:func:`enhanced_tensor_svt` of a 3-D float ``t`` without its
    argument checks, for a caller that has made them (``mu > 0`` and
    ``zeta, lam >= 0`` not both 0). The result is written into ``out``, a
    contiguous d3 x d1 x d2 float array, else into a new one, and returned
    as its mode-3 view. ``work``, another such array, holds the rebuilt
    packed spectrum if given; ``t`` may be the mode-3 view of ``work`` (it
    is read before either array is written) but not of ``out``. With both
    buffers the call allocates no array of t's size, real or complex, for
    any d3.

    A tensor whose Frobenius norm is not finite (a NaN or Inf entry, or
    one so large its square overflows) shrinks to all NaN, so the caller's
    finiteness check reports it.

    When a bound shows that every coefficient stage two keeps is 0, the
    result is +0.0 everywhere (where the full path could give -0.0) and
    nothing is factored. Two bounds are tried, each with a factor 1 + 1e-6
    for the rounding of the computed singular values. First the norm: by
    Parseval the core matrix has Frobenius norm sqrt(d3) * ||t||_F, which
    bounds its largest singular value, so no entry exceeds
    sqrt(d3) * ||t||_F - lam/mu after stage one, and stage two zeroes
    every entry of magnitude at most zeta/mu; this skips the spectrum too.
    Then the slice Gram matrices G_j, before they are eigendecomposed:
    sqrt(||G_j||_F) bounds every singular value of slice j, hence every
    core entry, and stage one moves each entry by at most lam/mu (the
    part it removes, U min(S, lam/mu) V^T, has spectral norm at most
    lam/mu), so max_j sqrt(||G_j||_F) <= (zeta - lam)/mu leaves nothing
    for stage two to keep.
    """
    d1, d2, d3 = t.shape
    if out is None:
        out = np.empty((d3, d1, d2))
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(t)
    if not np.isfinite(norm):
        out.fill(np.nan)
        return np.moveaxis(out, 0, 2)
    # the packed spectrum is taken into out, rebuilt into work, and
    # transformed back into out
    factored = None
    if np.sqrt(d3) * norm * (1 + 1e-6) - lam / mu > zeta / mu:
        factored = _factor(_spectrum(t, out=out), zero_bound=(zeta - lam) / mu)
    if factored is None:
        out.fill(0.0)
        return np.moveaxis(out, 0, 2)
    s, rebuild = factored
    cm = _all_slices(s.T, d3)
    # stage one: global SVT on the core matrix couples the slices
    cm_low = matrix_svt(cm, lam / mu)
    # stage two: the rebuilt slice U diag(c) V^H has singular values |c|,
    # so its SVT shrinks each coefficient toward zero by zeta/mu
    shrunk = np.sign(cm_low) * np.maximum(np.abs(cm_low) - zeta / mu, 0.0)
    # a vanished singular value leaves no principled direction to put
    # re-grown energy on; keep those coefficients at zero
    shrunk = np.where(cm > 0, shrunk, 0.0)
    return _from_spectrum(rebuild(shrunk[:, : d3 // 2 + 1].T, out=work), out=out)

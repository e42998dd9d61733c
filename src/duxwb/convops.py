"""2D correlation kernels used by the convolutional estimator.

The estimator cross-correlates a full-resolution filter with an equally sized
histogram under zero padding, keeping the output the same size. That path runs
through FFTs: fft_image transforms the histograms once (they are fixed across a
training run, so the transforms are reused every epoch) and
corr_same_multi_fft finishes the channel-summed correlation. Its adjoint
(gradient w.r.t. the kernel) reuses the same padded transforms:
grad_kernel_from_products(fft_image(img), fft_flipped(dout)).

The transforms are circular, so they are padded only as far as the kept
window needs (fft_size), not to the n + k - 1 of a full linear correlation.
The correlation keeps the window [c, c + n) of a full result of length
n + k - 1, with c = k - 1 - (k - 1)//2. A circular size S adds full[t] into
t mod S, so the window is clean iff S >= c + n (no window index lies S past
index 0) and S >= n + k - 1 - c (none lies S before the last index); the
first bound is the larger: S >= n + (k - 1) - (k - 1)//2. The kernel gradient
keeps [n - 1 - (k - 1)//2, + k) of a full result of length 2n - 1, which
gives the same bound. A 64x64 histogram and filter therefore transform at
96x96, where a full linear correlation would need 128x128.

The Sobel smoothness penalty has two paths. On a map itself it works by
explicit shifts (corr_valid_3x3, conv_full_3x3); the full-bias ECCC variant
penalises its bias this way. On a map given as coefficients x of a linear
upsampling, up @ x @ up.T, it is the fixed quadratic form sobel_form(up)
over x, which is how ECCC penalises its quarter-resolution filters and
biases. The shift path is the test oracle of the quadratic form.

The FFT library follows the precision (_fft_lib). Double-precision transforms,
which inference, evaluation and the test oracles use, run through numpy.fft:
numpy 2's pocketfft computes them to the same bits as scipy.fft, and importing
scipy.fft was about two thirds of the CPU time of a cold `duxwb infer`.
Single-precision transforms, which only ECCC training uses, run through
scipy.fft, imported on first use: numpy.fft is about 2.5 times slower there
and not bit-equal. The inverse transform applies its 1/size² scale once, after
both passes, as scipy.fft does; numpy.fft's irfft2 scales each pass by 1/size,
which rounds differently unless size is a power of two.

Conventions, with o = (K-1)//2 for a K x K kernel over an N x N image:
    same-size:  out[i, j] = sum_{a,b} ker[a, b] * img[i + a - o, j + b - o]
    valid:      out[i, j] = sum_{a,b} ker[a, b] * img[i + a, j + b]
All functions broadcast over leading batch dimensions.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

SOBEL_U = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
SOBEL_V = SOBEL_U.T.copy()


@lru_cache(maxsize=None)
def fft_size(n: int, k: int) -> int:
    """Transform size for the same-size correlation of N x N with K x K and
    for its kernel gradient: the smallest 2-3-5-smooth integer
    >= N + (K - 1) - (K - 1)//2. Smaller circular sizes wrap part of the full
    correlation into the kept window (module docstring)."""
    m = max(n + (k - 1) - (k - 1) // 2, 1)
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _fft_lib(dtype):
    """numpy.fft for double precision, scipy.fft for single (see module docstring)."""
    if dtype in (np.float32, np.complex64):
        import scipy.fft
        return scipy.fft
    return np.fft


def _irfft2_crop(prod: np.ndarray, size: int, start: int, n: int) -> np.ndarray:
    """The [start, start + n) window of irfft2(prod, (size, size)) on both axes.

    The row window is cut between the two passes, so the real inverse runs on
    the n kept rows only; the scale is applied last, on the window.
    """
    fft = _fft_lib(prod.dtype)
    rows = fft.ifft(prod, n=size, axis=-2, norm="forward")[..., start:start + n, :]
    full = fft.irfft(rows, n=size, axis=-1, norm="forward")
    return full[..., start:start + n] * (1.0 / (size * size))


def fft_image(img: np.ndarray, size: int) -> np.ndarray:
    """Padded forward transform, cacheable across repeated correlations.

    rfft2(img, s=(size, size)) as two passes: the real transform runs on the
    image's own rows only, and the zero rows enter with the second pass.
    """
    fft = _fft_lib(img.dtype)
    return fft.fft(fft.rfft(img, n=size, axis=-1), n=size, axis=-2)


def corr_same_multi_fft(
    f_hists: np.ndarray,
    kernels: np.ndarray,
    n: int,
    f_kernels: np.ndarray = None,
) -> np.ndarray:
    """Channel-summed same-size correlation: f_hists (..., J, S, Sc) against kernels (J, K, K).

    The result has the precision of f_hists: complex64 transforms give a
    float32 correlation and complex128 ones a float64 one, and the kernels are
    transformed at that precision. ECCC keeps its elementwise work in this
    output's dtype, so single precision carries through a training step
    (training tolerates the ~1e-6 rounding) and inference and the oracle
    checks stay double. A precomputed kernel transform skips that work for
    fixed-parameter inference.
    """
    k = kernels.shape[-1]
    size = fft_size(n, k)
    if f_kernels is None:
        f_kernels = fft_flipped(kernels.astype(np.finfo(f_hists.dtype).dtype, copy=False), size)
    # channel sum accumulated in place: same bits as (f_hists * f_kernels).sum(axis=-3)
    prod = f_hists[..., 0, :, :] * f_kernels[0]
    for j in range(1, f_kernels.shape[0]):
        prod += f_hists[..., j, :, :] * f_kernels[j]
    return _irfft2_crop(prod, size, k - 1 - (k - 1) // 2, n)


def fft_flipped(dout: np.ndarray, size: int) -> np.ndarray:
    """Padded transform of the axis-reversed array, for kernel-gradient paths."""
    return fft_image(dout[..., ::-1, ::-1], size)


def grad_kernel_from_products(f_img: np.ndarray, f_dout: np.ndarray, n: int, ksize: int) -> np.ndarray:
    """Finish a kernel-gradient from the transforms of its two factors: sum
    f_img[b] * f_dout[b] over the leading batch axis of f_dout, invert, slice.
    An (S, Sc) f_dout has no batch axis. Against a (B, S, Sc) f_dout, f_img
    (B, S, Sc) gives one (K, K) gradient and (B, J, S, Sc) gives (J, K, K),
    with one inverse. The batch sum accumulates in place, b = 0, 1, ...: the
    bits of the (B, J, S, Sc) product summed over axis 0, without that
    temporary."""
    size = fft_size(n, ksize)
    if f_dout.ndim == 2:
        prod = f_img * f_dout
    else:
        prod = f_img[0] * f_dout[0]
        term = np.empty_like(prod)
        for b in range(1, len(f_dout)):
            prod += np.multiply(f_img[b], f_dout[b], out=term)
    return _irfft2_crop(prod, size, n - 1 - (ksize - 1) // 2, ksize)


def corr_valid_3x3(img: np.ndarray, ker: np.ndarray) -> np.ndarray:
    """Valid-mode correlation with a 3x3 kernel via nine shifted views."""
    n0, n1 = img.shape[-2], img.shape[-1]
    out = ker[0, 0] * img[..., 0:n0 - 2, 0:n1 - 2].copy()
    for a in range(3):
        for b in range(3):
            if a == 0 and b == 0:
                continue
            if ker[a, b] != 0.0:
                out += ker[a, b] * img[..., a:a + n0 - 2, b:b + n1 - 2]
    return out


def conv_full_3x3(y: np.ndarray, ker: np.ndarray) -> np.ndarray:
    """Full-mode convolution with a 3x3 kernel: the adjoint of corr_valid_3x3."""
    m0, m1 = y.shape[-2], y.shape[-1]
    out = np.zeros(y.shape[:-2] + (m0 + 2, m1 + 2), dtype=np.float64)
    for a in range(3):
        for b in range(3):
            if ker[a, b] != 0.0:
                out[..., a:a + m0, b:b + m1] += ker[a, b] * y
    return out


def sobel_form(up: np.ndarray) -> np.ndarray:
    """(m², m²) matrix L with sobel_smoothness(up @ x @ up.T) equal to
    vec(x)ᵀ L vec(x) for an (m, m) map x (row-major vec) and an (n, m)
    upsampling matrix up.

    SOBEL_U = [1,2,1]ᵀ ⊗ [-1,0,1], so the valid-mode response to up x upᵀ is
    (S up) x (D up)ᵀ, with S and D the banded (n-2, n) [1,2,1] and [-1,0,1]
    operators; SOBEL_V = SOBEL_Uᵀ swaps the two factors. Hence
    L = kron(Gs, Gd) + kron(Gd, Gs) with Gs = (S up)ᵀ(S up), Gd = (D up)ᵀ(D up).
    """
    s_up = up[:-2] + 2.0 * up[1:-1] + up[2:]
    d_up = up[2:] - up[:-2]
    gs, gd = s_up.T @ s_up, d_up.T @ d_up
    return np.kron(gs, gd) + np.kron(gd, gs)


def sobel_smoothness(map2d: np.ndarray, form: np.ndarray = None) -> tuple:
    """Sum of squared Sobel responses of a map and its gradient.

    Returns (value, grad) where value = ||map * d_u||^2 + ||map * d_v||^2 in
    valid mode, so constant maps score exactly zero. Batched input returns a
    value per batch item and a matching gradient stack.

    With form = sobel_form(up), map2d is a stack (k, m, m) of coefficient maps
    x: the value is that of the upsampled maps up @ x @ up.T, computed as
    vec(x)ᵀ L vec(x), and grad = 2 L vec(x) is taken w.r.t. x. up's rows must
    sum to 1 (interpolation), so that constants upsample to constants and L
    annihilates them; each map is centred on its first entry before L is
    applied, which leaves the value unchanged and makes a constant map score
    exactly zero (its mean is not always that constant in floating point).
    """
    if form is not None:
        flat = map2d.reshape(map2d.shape[0], -1)
        flat = flat - flat[:, :1]
        lx = flat @ form
        return (lx * flat).sum(axis=1), 2.0 * lx.reshape(map2d.shape)
    yu = corr_valid_3x3(map2d, SOBEL_U)
    yv = corr_valid_3x3(map2d, SOBEL_V)
    value = (yu * yu).sum(axis=(-2, -1)) + (yv * yv).sum(axis=(-2, -1))
    grad = 2.0 * (conv_full_3x3(yu, SOBEL_U) + conv_full_3x3(yv, SOBEL_V))
    return value, grad

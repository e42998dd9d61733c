import numpy as np
import pytest

from duxwb.convops import (
    SOBEL_U,
    SOBEL_V,
    conv_full_3x3,
    corr_same_multi_fft,
    corr_valid_3x3,
    fft_flipped,
    fft_image,
    fft_size,
    grad_kernel_from_products,
    sobel_smoothness,
)


def naive_corr_same(img, ker):
    """Direct sliding-window cross-correlation with zero padding."""
    n = img.shape[0]
    k = ker.shape[0]
    o = (k - 1) // 2
    padded = np.zeros((n + 2 * k, n + 2 * k))
    padded[k:k + n, k:k + n] = img
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            window = padded[i + k - o:i + 2 * k - o, j + k - o:j + 2 * k - o]
            out[i, j] = float((ker * window).sum())
    return out


def corr_same(img, ker):
    """Single-channel same-size correlation through the production FFT path."""
    n, k = img.shape[-1], ker.shape[-1]
    return corr_same_multi_fft(fft_image(img[..., None, :, :], fft_size(n, k)), ker[None], n)


def grad_kernel(img, dout, ksize):
    """Kernel gradient of corr_same through the production FFT path."""
    size = fft_size(img.shape[-1], ksize)
    return grad_kernel_from_products(fft_image(img, size) * fft_flipped(dout, size), img.shape[-1], ksize)


@pytest.mark.parametrize("n,k", [(8, 8), (8, 4), (6, 3), (16, 16), (64, 64)])
def test_corr_same_matches_naive(rng, n, k):
    img = rng.standard_normal((n, n))
    ker = rng.standard_normal((k, k))
    assert np.abs(corr_same(img, ker) - naive_corr_same(img, ker)).max() < 1e-10


def test_corr_same_multi_sums_channels(rng):
    hists = rng.standard_normal((3, 2, 16, 16))
    kernels = rng.standard_normal((2, 16, 16))
    out = corr_same_multi_fft(fft_image(hists, fft_size(16, 16)), kernels, 16)
    for b in range(3):
        ref = naive_corr_same(hists[b, 0], kernels[0]) + naive_corr_same(hists[b, 1], kernels[1])
        assert np.abs(out[b] - ref).max() < 1e-10


def test_corr_same_grad_kernel_finite_difference(rng):
    n = 8
    img = rng.standard_normal((n, n))
    ker = rng.standard_normal((n, n))
    dout = rng.standard_normal((n, n))
    grad = grad_kernel(img, dout, n)
    h = 1e-6
    for a, b in [(0, 0), (3, 5), (7, 7), (1, 6)]:
        kp = ker.copy()
        kp[a, b] += h
        km = ker.copy()
        km[a, b] -= h
        fd = ((naive_corr_same(img, kp) * dout).sum() - (naive_corr_same(img, km) * dout).sum()) / (2 * h)
        assert grad[a, b] == pytest.approx(fd, abs=1e-6)


def test_corr_same_grad_kernel_batched_sums(rng):
    imgs = rng.standard_normal((5, 8, 8))
    douts = rng.standard_normal((5, 8, 8))
    batched = grad_kernel(imgs, douts, 8)
    summed = sum(grad_kernel(imgs[i], douts[i], 8) for i in range(5))
    assert np.abs(batched - summed).max() < 1e-12


def test_corr_valid_and_adjoint(rng):
    x = rng.standard_normal((10, 10))
    y = corr_valid_3x3(x, SOBEL_U)
    assert y.shape == (8, 8)
    # adjoint identity: <corr_valid(x, K), y> == <x, conv_full(y, K)>
    probe = rng.standard_normal((8, 8))
    lhs = float((corr_valid_3x3(x, SOBEL_U) * probe).sum())
    rhs = float((x * conv_full_3x3(probe, SOBEL_U)).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_sobel_constants():
    assert np.array_equal(SOBEL_U, np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=float))
    assert np.array_equal(SOBEL_V, SOBEL_U.T)


def test_smoothness_zero_on_constant_maps():
    value, grad = sobel_smoothness(np.full((12, 12), 3.7))
    assert value == pytest.approx(0.0, abs=1e-20)
    assert np.abs(grad).max() < 1e-12


def test_smoothness_gradient_finite_difference(rng):
    x = rng.standard_normal((8, 8))
    _, grad = sobel_smoothness(x)
    h = 1e-6
    for i, j in [(0, 0), (4, 4), (7, 2)]:
        xp = x.copy()
        xp[i, j] += h
        xm = x.copy()
        xm[i, j] -= h
        fd = (sobel_smoothness(xp)[0] - sobel_smoothness(xm)[0]) / (2 * h)
        assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_smoothness_batched(rng):
    xs = rng.standard_normal((4, 8, 8))
    values, grads = sobel_smoothness(xs)
    assert values.shape == (4,)
    for i in range(4):
        v, g = sobel_smoothness(xs[i])
        assert values[i] == pytest.approx(v, rel=1e-12)
        assert np.abs(grads[i] - g).max() < 1e-12


# ============================================================
# FFT library contract: numpy.fft in double precision must give scipy.fft's
# bits and sizes; single precision stays single
# ============================================================

def test_fft_size_matches_scipy_next_fast_len():
    sfft = pytest.importorskip("scipy.fft")
    for total in range(1, 601):
        for k in (1, (total + 1) // 2):
            assert fft_size(total - k + 1, k) == sfft.next_fast_len(total, real=True)


@pytest.mark.parametrize("bins", [12, 16, 32, 48, 64, 128])
@pytest.mark.parametrize("batch", [1, 7])
def test_double_precision_transforms_match_scipy_bits(rng, bins, batch):
    sfft = pytest.importorskip("scipy.fft")
    size = fft_size(bins, bins)
    start = bins - 1 - (bins - 1) // 2  # same-size window, for correlation and kernel gradient alike
    hists = rng.random((batch, 2, bins, bins))
    kernels = rng.standard_normal((2, bins, bins))
    dout = rng.standard_normal((batch, bins, bins))

    f_hists = fft_image(hists, size)
    assert np.array_equal(f_hists, sfft.rfft2(hists, (size, size)))
    f_kernels = fft_flipped(kernels, size)
    assert np.array_equal(f_kernels, sfft.rfft2(kernels[..., ::-1, ::-1], (size, size)))

    ref = sfft.irfft2((f_hists * f_kernels).sum(axis=-3), (size, size))
    assert np.array_equal(corr_same_multi_fft(f_hists, kernels, bins), ref[..., start:start + bins, start:start + bins])

    prod = f_hists[:, 0] * fft_flipped(dout, size)
    ref = sfft.irfft2(prod.sum(axis=0), (size, size))
    assert np.array_equal(grad_kernel_from_products(prod, bins, bins), ref[start:start + bins, start:start + bins])


def test_single_precision_stays_single(rng):
    hists = rng.random((3, 2, 16, 16)).astype(np.float32)
    size = fft_size(16, 16)
    f_hists = fft_image(hists, size)
    assert f_hists.dtype == np.complex64
    assert fft_flipped(hists[:, 0], size).dtype == np.complex64
    out = corr_same_multi_fft(f_hists, rng.standard_normal((2, 16, 16)), 16)
    assert out.dtype == np.float32

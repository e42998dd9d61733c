import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duxwb.convops import (
    _irfft2_crop,
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
    return grad_kernel_from_products(fft_image(img, size), fft_flipped(dout, size), img.shape[-1], ksize)


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
# Transform contract: the padded size holds the same-size window and no more;
# numpy.fft in double precision gives scipy.fft's bits; single precision
# stays single
# ============================================================

def _smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def test_fft_size_is_smallest_smooth_size_holding_the_window():
    size_of = fft_size.__wrapped__  # uncached: 180k (n, k) pairs
    for n in range(1, 600):
        for k in range(1, 601 - n):
            bound = n + (k - 1) - (k - 1) // 2
            size = size_of(n, k)
            assert size >= bound and _smooth(size), (n, k, size)
            assert not any(_smooth(m) for m in range(bound, size)), (n, k, size)


def test_fft_size_at_the_model_sizes():
    assert [fft_size(n, n) for n in (16, 32, 48, 64, 128)] == [24, 48, 72, 96, 192]


def naive_grad_kernel(img, dout, k):
    """Gradient w.r.t. the kernel of sum(naive_corr_same(img, ker) * dout)."""
    n = img.shape[0]
    o = (k - 1) // 2
    padded = np.zeros((n + 2 * k, n + 2 * k))
    padded[k:k + n, k:k + n] = img
    grad = np.empty((k, k))
    for a in range(k):
        for b in range(k):
            grad[a, b] = float((dout * padded[k + a - o:k + a - o + n, k + b - o:k + b - o + n]).sum())
    return grad


def _circular_corr_and_grad(img, ker, dout, size):
    """Same-size correlation and kernel gradient read from size x size circular
    correlations, each window taken modulo size."""
    n, k = img.shape[-1], ker.shape[-1]
    f_img = fft_image(img, size)

    def window(prod, start, length):
        full = np.fft.irfft2(prod, s=(size, size))
        idx = np.arange(start, start + length) % size
        return full[np.ix_(idx, idx)]

    corr = window(f_img * fft_flipped(ker, size), k - 1 - (k - 1) // 2, n)
    grad = window(f_img * fft_flipped(dout, size), n - 1 - (k - 1) // 2, k)
    return corr, grad


def test_fft_size_is_minimal_for_the_same_window():
    """fft_size holds the window exactly; at the next smaller smooth size the
    circular correlation or its kernel gradient wraps into it."""
    rng = np.random.default_rng(7)
    for n in range(1, 25):
        for k in range(1, n + 1):
            img, ker, dout = rng.standard_normal((n, n)), rng.standard_normal((k, k)), rng.standard_normal((n, n))
            ref_corr, ref_grad = naive_corr_same(img, ker), naive_grad_kernel(img, dout, k)
            size = fft_size(n, k)
            corr, grad = _circular_corr_and_grad(img, ker, dout, size)
            assert np.abs(corr - ref_corr).max() < 1e-10 and np.abs(grad - ref_grad).max() < 1e-10, (n, k)
            smaller = max((m for m in range(1, size) if _smooth(m)), default=0)
            if smaller < max(n, k):
                continue  # fft_image cannot zero-pad to fewer samples than it is given
            corr, grad = _circular_corr_and_grad(img, ker, dout, smaller)
            assert max(np.abs(corr - ref_corr).max(), np.abs(grad - ref_grad).max()) > 1e-6, (n, k)


@pytest.mark.parametrize("bins", [8, 16, 48, 64])
@pytest.mark.parametrize("shape", [(), (5,), (3, 2)])
def test_single_precision_fft_image_matches_scipy_rfft2_bits(rng, bins, shape):
    sfft = pytest.importorskip("scipy.fft")
    size = fft_size(bins, bins)
    img = rng.random(shape + (bins, bins)).astype(np.float32)
    assert np.array_equal(fft_image(img, size), sfft.rfft2(img, s=(size, size)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(2, 24), data=st.data())
def test_same_window_identity_property(n, data):
    """Production corr_same and grad_kernel equal the spatial oracle for any
    image size, kernel size (odd or even, up to the image's) and batch."""
    k = data.draw(st.integers(1, n), label="k")
    batch = data.draw(st.integers(1, 4), label="batch")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    imgs = rng.standard_normal((batch, n, n))
    ker = rng.standard_normal((k, k))
    douts = rng.standard_normal((batch, n, n))
    out = corr_same(imgs, ker)
    for b in range(batch):
        assert np.abs(out[b] - naive_corr_same(imgs[b], ker)).max() < 1e-10
    ref = sum(naive_grad_kernel(imgs[b], douts[b], k) for b in range(batch))
    assert np.abs(grad_kernel(imgs, douts, k) - ref).max() < 1e-10


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_grad_kernel_sums_the_batch_axis_only(rng, dtype):
    """A (B, J, S, Sc) product gives the J gradients the J separate calls give."""
    n, k = 16, 16
    size = fft_size(n, k)
    f_hists = fft_image(rng.random((5, 3, n, n)).astype(dtype), size)
    f_dout = fft_flipped(rng.standard_normal((5, n, n)).astype(dtype), size)
    stacked = grad_kernel_from_products(f_hists, f_dout, n, k)
    assert stacked.shape == (3, k, k)
    separate = np.stack([grad_kernel_from_products(f_hists[:, j], f_dout, n, k) for j in range(3)])
    assert np.array_equal(stacked, separate)


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

    f_dout = fft_flipped(dout, size)
    ref = sfft.irfft2((f_hists[:, 0] * f_dout).sum(axis=0), (size, size))
    assert np.array_equal(grad_kernel_from_products(f_hists[:, 0], f_dout, bins, bins),
                          ref[start:start + bins, start:start + bins])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("j", [1, 2])
def test_channel_sum_in_place_matches_the_reduction_bits(rng, dtype, j):
    """corr_same_multi_fft accumulates its channel sum in place; that is the
    bits of (f_hists * f_kernels).sum(axis=-3) in either precision."""
    n = 16
    size = fft_size(n, n)
    f_hists = fft_image(rng.random((5, j, n, n)).astype(dtype), size)
    kernels = rng.standard_normal((j, n, n)).astype(dtype)
    f_kernels = fft_flipped(kernels, size)
    ref = _irfft2_crop((f_hists * f_kernels).sum(axis=-3), size, n - 1 - (n - 1) // 2, n)
    out = corr_same_multi_fft(f_hists, kernels, n)
    assert out.dtype == dtype
    assert np.array_equal(out, ref)
    assert np.array_equal(corr_same_multi_fft(f_hists, kernels, n, f_kernels=f_kernels), ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_sum_in_place_matches_the_product_reduction_bits(rng, dtype):
    """grad_kernel_from_products accumulates its batch sum in place; at every
    batch size up to 64 that is the bits of the full (B, J, S, Sc) product
    summed over axis 0."""
    n = 64
    size = fft_size(n, n)
    start = n - 1 - (n - 1) // 2
    f_hists = fft_image(rng.random((64, 2, n, n)).astype(dtype), size)
    f_dout = fft_flipped(rng.standard_normal((64, n, n)).astype(dtype), size)
    for b in range(1, 65):
        ref = _irfft2_crop((f_hists[:b] * f_dout[:b, None]).sum(axis=0), size, start, n)
        out = grad_kernel_from_products(f_hists[:b], f_dout[:b], n, n)
        assert out.dtype == dtype
        assert np.array_equal(out, ref), b


def test_single_precision_stays_single(rng):
    hists = rng.random((3, 2, 16, 16)).astype(np.float32)
    size = fft_size(16, 16)
    f_hists = fft_image(hists, size)
    assert f_hists.dtype == np.complex64
    assert fft_flipped(hists[:, 0], size).dtype == np.complex64
    out = corr_same_multi_fft(f_hists, rng.standard_normal((2, 16, 16)), 16)
    assert out.dtype == np.float32

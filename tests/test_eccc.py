import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duxwb.core import DualExposurePair, Illuminant, RawImage, angular_error
from duxwb.eccc import (
    _backward_batch,
    _forward_batch,
    _smoothness_form,
    _upsampler,
    VARIANTS,
    count_eccc_params,
    eccc_forward,
    hists_for_chunk,
    hists_for_pair,
    init_eccc,
    prepare_predictor,
    tensor_shapes,
    LAMBDA_BIAS,
    LAMBDA_FILTER,
)
from duxwb.convops import corr_same_multi_fft, fft_image, fft_size, sobel_smoothness
from duxwb.core import bilinear_upsample
from duxwb.errors import DomainError, EmptyHistogramError
from duxwb.histogram import bin_centers, illuminant_to_uv

from conftest import random_image


def _random_hists(rng, j=2, bins=64):
    h = np.abs(rng.standard_normal((j, bins, bins))) + 1e-3
    return h / h.sum(axis=(1, 2), keepdims=True)


def _predict(params, hists, feat=None):
    """Unit estimate and probability map for one (J, h, h) stack, run as a batch of one."""
    defs = None if feat is None else feat[None]
    return eccc_forward(params, hists[None], defs)[0], _forward_batch(params, hists[None], defs)["p"][0]


def _forward_pair(params, pair, feature):
    return _predict(params, hists_for_pair(pair, params.variant, params.bins), feature)


def _loss_and_grads(params, hists, feat, gt):
    """One-sample loss and gradients through the batch cores."""
    defs = None if feat is None else feat[None]
    return _backward_batch(params, _forward_batch(params, hists[None], defs), gt[None])


# ============================================================
# Parameter accounting
# ============================================================

@pytest.mark.parametrize(
    "kwargs,expected",
    [
        (dict(bins=64, n=20), 6156),
        (dict(bins=64, n=5), 2166),
        (dict(bins=64, n=10), 3496),
        (dict(bins=64, n=15), 4826),
        (dict(bins=64, n=20, variant="long"), 5900),
        (dict(bins=64, n=20, variant="short"), 5900),
        (dict(bins=64, n=20, variant="avg"), 5900),
        (dict(bins=32, n=20), 1932),
        (dict(bins=64, n=20, use_def=False), 4608),
    ],
)
def test_parameter_counts(kwargs, expected):
    assert count_eccc_params(**kwargs) == expected
    params = init_eccc(seed=0, **kwargs)
    assert sum(a.size for a in params.tensors().values()) == expected


@pytest.mark.parametrize("use_def", [True, False])
@pytest.mark.parametrize("variant", ["both", "long"])
def test_tensor_shapes_list_the_model_tensors_in_order(use_def, variant):
    params = init_eccc(bins=32, n=4, variant=variant, use_def=use_def, def_dim=9, seed=0)
    shapes = tensor_shapes(32, variant, use_def, 4, 9)
    assert list(shapes) == list(params.tensors())
    assert shapes == {name: a.shape for name, a in params.tensors().items()}


# ============================================================
# Forward
# ============================================================

def test_zero_filters_uniform_bias_neutral_output(rng):
    params = init_eccc(bins=64, n=1, seed=0)
    params.biases[0][:] = 1.0
    hists = _random_hists(rng)
    est, p = _predict(params, hists, np.zeros(15))
    assert np.allclose(p, 1.0 / (64 * 64), atol=1e-12)
    assert np.allclose(est, np.ones(3) / np.sqrt(3.0), atol=1e-9)


def test_delta_probability_map_decodes_known_illuminant():
    # P concentrated where the bin centers are (log 2, 0) decodes to
    # a vector proportional to (1/2, 1, 1)
    centers = bin_centers(64)
    iu = int(np.argmin(np.abs(centers - np.log(2.0))))
    iv = int(np.argmin(np.abs(centers)))
    u0, v0 = centers[iu], centers[iv]
    expected = np.array([np.exp(-u0), 1.0, np.exp(-v0)])
    expected /= np.linalg.norm(expected)
    # drive the softmax to a near-delta with a huge bias at that bin
    params = init_eccc(bins=64, n=20, use_def=False)
    params.full_bias[iu, iv] = 200.0
    hists = np.zeros((2, 64, 64))
    hists[:, 10, 10] = 1.0
    est, p = _predict(params, hists)
    assert p[iu, iv] > 0.999999
    assert angular_error(est, expected) < 1e-4


def test_probability_map_is_distribution(rng):
    params = init_eccc(bins=64, n=20, seed=1)
    t = params.tensors()
    for _, a in t.items():
        a += rng.standard_normal(a.shape) * 0.3
    for _ in range(5):
        est, p = _predict(params, _random_hists(rng), rng.standard_normal(15))
        assert p.min() >= 0.0
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(est) == pytest.approx(1.0, abs=1e-9)


def test_forward_conv_path_matches_spatial_oracle(rng):
    params = init_eccc(bins=64, n=20, seed=2)
    params.filters += rng.standard_normal(params.filters.shape) * 0.2
    hists = _random_hists(rng)
    f_up = np.stack([bilinear_upsample(f, 4) for f in params.filters])
    fast = corr_same_multi_fft(fft_image(hists, fft_size(64, 64)), f_up, 64)

    def naive(img, ker):
        n, k = img.shape[0], ker.shape[0]
        o = (k - 1) // 2
        out = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                ilo, ihi = max(0, o - i), min(k, n + o - i)
                acc = 0.0
                for a in range(ilo, ihi):
                    jlo, jhi = max(0, o - j), min(k, n + o - j)
                    row = ker[a, jlo:jhi] * img[i + a - o, j + jlo - o:j + jhi - o]
                    acc += row.sum()
                out[i, j] = acc
        return out

    ref = naive(hists[0], f_up[0]) + naive(hists[1], f_up[1])
    assert np.abs(fast - ref).max() < 1e-5


@pytest.mark.parametrize("bins", [16, 32, 64])
@pytest.mark.parametrize("use_def", [True, False])
def test_prepared_forward_matches_unprepared(rng, bins, use_def):
    """prepare_predictor's cached filter transforms change no prediction."""
    params = init_eccc(bins=bins, n=5, use_def=use_def, seed=3)
    for _, a in params.tensors().items():
        a += rng.standard_normal(a.shape) * 0.3
    hists = np.stack([_random_hists(rng, bins=bins) for _ in range(3)])
    defs = rng.standard_normal((3, 15)) if use_def else None
    plain = _forward_batch(params, hists, defs)
    prepared = _forward_batch(params, hists, defs, prepared=prepare_predictor(params))
    assert np.abs(prepared["direction"] - plain["direction"]).max() <= 1e-12
    assert np.abs(prepared["p"] - plain["p"]).max() <= 1e-12


def test_softmax_weighted_bias_convexity(rng):
    params = init_eccc(bins=64, n=6, seed=3)
    common = rng.standard_normal((16, 16))
    params.biases[:] = common  # all banks equal -> blend equals the common map
    hists = _random_hists(rng)
    est_a, p_a = _predict(params, hists, rng.standard_normal(15))
    params2 = init_eccc(bins=64, n=1, seed=3)
    params2.biases[0] = common
    # weighting MLP differs (different output width) but softmax over one
    # logit is exactly 1, so both models add the same upsampled bias
    est_b, p_b = _predict(params2, hists, rng.standard_normal(15))
    assert np.abs(p_a - p_b).max() < 1e-12
    assert est_a == pytest.approx(est_b, abs=1e-12)


def test_histogram_variants(rng):
    img = random_image(rng, 8, 8)
    pair = DualExposurePair(long=img, short=RawImage(img.data.copy()), exposure_factor=2.0)
    h_avg = hists_for_pair(pair, "avg")
    h_long = hists_for_pair(pair, "long")
    h_short = hists_for_pair(pair, "short")
    h_both = hists_for_pair(pair, "both")
    # identical frames: average image equals the long frame bitwise
    assert np.array_equal(h_avg, h_long)
    assert np.array_equal(h_long, h_short)
    assert h_both.shape == (2, 64, 64)
    assert h_avg.shape == (1, 64, 64)


_FRAME_KINDS = ("valid", "zero_pixels", "zero_channel")


def _frame(kind: str, rng, k: int) -> np.ndarray:
    """A (3, k) frame: all pixels valid, some pixels black or with one
    channel at zero, or one channel zero throughout (no valid pixel)."""
    frame = rng.uniform(0.01, 1.0, (3, k))
    if kind == "zero_pixels":
        frame[:, rng.random(k) < 0.3] = 0.0
        frame[rng.integers(0, 3, k), np.arange(k)] *= rng.random(k) < 0.7
    elif kind == "zero_channel":
        frame[rng.integers(0, 3)] = 0.0
    return frame


@settings(derandomize=True, max_examples=60, deadline=None)
@given(kinds=st.lists(st.tuples(st.sampled_from(_FRAME_KINDS), st.sampled_from(_FRAME_KINDS)), min_size=1, max_size=6),
       size=st.sampled_from([(1, 1), (4, 4), (5, 7)]), bins=st.sampled_from([8, 64]), seed=st.integers(0, 2**16))
def test_hists_for_chunk_gives_each_row_the_bits_of_its_pair_alone(kinds, size, bins, seed):
    """For every input variant, each row of hists_for_chunk on a stack that
    mixes valid pairs with pairs holding black pixels, zero channels in some
    pixels and zeroed channels has the bytes of hists_for_pair on its pair.
    A stack holding pairs whose histogram is empty raises
    EmptyHistogramError naming exactly those pairs."""
    rng = np.random.default_rng(seed)
    h, w = size
    longs = np.stack([_frame(kind, rng, h * w) for kind, _ in kinds])
    shorts = np.stack([_frame(kind, rng, h * w) for _, kind in kinds])
    names = [f"s{i}" for i in range(len(kinds))]
    for variant in VARIANTS:
        alone, empty = {}, []
        for i, name in enumerate(names):
            pair = DualExposurePair(long=RawImage(longs[i].reshape(3, h, w)),
                                    short=RawImage(shorts[i].reshape(3, h, w)), exposure_factor=8.0)
            try:
                alone[i] = hists_for_pair(pair, variant, bins, [name])
            except EmptyHistogramError:
                empty.append(name)
        if empty:
            with pytest.raises(EmptyHistogramError, match=re.escape(": " + ", ".join(empty)) + "$"):
                hists_for_chunk(longs, shorts, variant, bins, names)
        keep = sorted(alone)
        if keep:
            rows = hists_for_chunk(longs[keep], shorts[keep], variant, bins, [names[i] for i in keep])
            for row, i in zip(rows, keep):
                assert row.tobytes() == alone[i].tobytes(), (variant, kinds[i])


def test_single_hist_variant_forward(rng):
    params = init_eccc(bins=64, n=20, variant="long", seed=4)
    img = random_image(rng, 8, 8)
    pair = DualExposurePair(long=img, short=RawImage(img.data * 0.2), exposure_factor=2.0)
    est, p = _forward_pair(params, pair, rng.standard_normal(15))
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    # zero filters + zero bias bank -> uniform map -> neutral estimate
    assert np.allclose(est, np.ones(3) / np.sqrt(3.0), atol=1e-9)


def test_duplicate_pixels_leave_forward_invariant(rng):
    params = init_eccc(bins=64, n=5, seed=5)
    params.filters += rng.standard_normal(params.filters.shape) * 0.1
    img_l = random_image(rng, 4, 6)
    img_s = random_image(rng, 4, 6)
    pair = DualExposurePair(long=img_l, short=img_s, exposure_factor=2.0)
    doubled = DualExposurePair(
        long=RawImage(np.tile(img_l.data, (1, 1, 2))),
        short=RawImage(np.tile(img_s.data, (1, 1, 2))),
        exposure_factor=2.0,
    )
    feat = rng.standard_normal(15)
    _, p_a = _forward_pair(params, pair, feat)
    _, p_b = _forward_pair(params, doubled, feat)
    assert np.abs(p_a - p_b).max() < 1e-12


def test_empty_histogram_raises():
    params = init_eccc(bins=64, n=5, seed=0)
    zero = RawImage(np.zeros((3, 4, 4)))
    pair = DualExposurePair(long=zero, short=zero, exposure_factor=2.0)
    with pytest.raises(EmptyHistogramError):
        _forward_pair(params, pair, np.zeros(15))


def test_feature_length_validated(rng):
    params = init_eccc(bins=64, n=5, seed=0)
    with pytest.raises(DomainError):
        eccc_forward(params, _random_hists(rng)[None], np.zeros((1, 9)))


def test_feature_path_requires_features(rng):
    params = init_eccc(bins=64, n=5, seed=0)
    with pytest.raises(DomainError):
        eccc_forward(params, _random_hists(rng)[None])


def test_forward_rows_are_decoded_directions_normalized_like_vectors(rng):
    """eccc_forward is the batched core's direction, each row scaled by its 1-D norm."""
    params = init_eccc(bins=32, n=5, seed=7)
    for _, a in params.tensors().items():
        a += rng.standard_normal(a.shape) * 0.3
    hists = np.stack([_random_hists(rng, bins=32) for _ in range(6)])
    defs = rng.standard_normal((6, 15))
    est = eccc_forward(params, hists, defs)
    direction = _forward_batch(params, hists, defs)["direction"]
    assert est.shape == (6, 3)
    for i in range(6):
        assert np.array_equal(est[i], direction[i] / np.linalg.norm(direction[i]))


# ============================================================
# Backward
# ============================================================

@pytest.mark.parametrize("bins", [16, 32, 64, 128])
def test_smoothness_form_matches_upsampled_sobel_oracle(rng, bins):
    r = _upsampler(bins)
    maps = rng.standard_normal((5, bins // 4, bins // 4)) + 3.0
    value, grad = sobel_smoothness(maps, _smoothness_form(bins))
    ref_value, ref_grad_up = sobel_smoothness(r @ maps @ r.T)
    ref_grad = r.T @ ref_grad_up @ r
    assert np.abs(value - ref_value).max() <= 1e-12 * np.abs(ref_value).max()
    assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()


@pytest.mark.parametrize("bins", [16, 32, 64, 128])
def test_smoothness_form_symmetric(bins):
    form = _smoothness_form(bins)
    assert form.shape == ((bins // 4) ** 2,) * 2
    assert np.array_equal(form, form.T)


def test_smoothness_form_exactly_zero_for_constant_maps(rng):
    consts = np.concatenate([[0.0, 2.0, -1.5, 3.7], rng.standard_normal(60) * 10.0 ** rng.uniform(-3, 3, 60)])
    maps = consts[:, None, None] * np.ones((1, 16, 16))
    value, grad = sobel_smoothness(maps, _smoothness_form(64))
    assert np.all(value == 0.0)
    assert np.all(grad == 0.0)


def test_smoothness_terms_zero_for_constant_maps(rng):
    params = init_eccc(bins=64, n=1, seed=0)
    params.biases[0][:] = 2.0
    params.filters[:] = 1.5  # constant filters upsample to constant maps
    hists = _random_hists(rng)
    gt = np.array([0.5, 0.8, 0.6])
    loss, grads, parts = _loss_and_grads(params, hists, np.zeros(15), gt)
    assert parts["smooth_bias_mean"] == pytest.approx(0.0, abs=1e-15)
    assert parts["smooth_filter"] == pytest.approx(0.0, abs=1e-15)


def test_loss_assembles_three_terms(rng):
    params = init_eccc(bins=16, n=3, seed=6)
    t = params.tensors()
    for _, a in t.items():
        a += rng.standard_normal(a.shape) * 0.2
    hists = _random_hists(rng, bins=16)
    feat = rng.standard_normal(15)
    gt = np.abs(rng.standard_normal(3)) + 0.2
    loss, grads, parts = _loss_and_grads(params, hists, feat, gt)
    est, _ = _predict(params, hists, feat)
    ang = angular_error(est, gt)
    r = bilinear_upsample
    f_up = [r(f, 4) for f in params.filters]
    s_f = LAMBDA_FILTER * sum(sobel_smoothness(f)[0] for f in f_up)
    # recompute the blended bias map for the smoothness term
    cache = _forward_batch(params, hists[np.newaxis], feat[np.newaxis])
    s_b = LAMBDA_BIAS * sobel_smoothness(cache["b_up"][0])[0]
    assert loss == pytest.approx(ang + s_b + s_f, abs=1e-12)


def _fd_worst(params, hists, feat, gt, h=1e-3):
    _, grads, _ = _loss_and_grads(params, hists, feat, gt)
    worst = 0.0
    for name, arr in params.tensors().items():
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            lp, _, _ = _loss_and_grads(params, hists, feat, gt)
            arr[idx] = orig - h
            lm, _, _ = _loss_and_grads(params, hists, feat, gt)
            arr[idx] = orig
            fd = (lp - lm) / (2 * h)
            an = grads[name][idx]
            denom = max(abs(fd), abs(an))
            if denom < 1e-8:
                continue
            worst = max(worst, abs(fd - an) / denom)
    return worst


def test_gradients_all_groups_finite_difference(rng):
    params = init_eccc(bins=16, n=3, seed=8)
    for _, a in params.tensors().items():
        a += rng.standard_normal(a.shape) * 0.15
    hists = _random_hists(rng, bins=16)
    feat = rng.standard_normal(15)
    gt = np.abs(rng.standard_normal(3)) + 0.1
    assert _fd_worst(params, hists, feat, gt) < 1e-3


def test_gradients_full_bias_variant(rng):
    params = init_eccc(bins=16, n=3, use_def=False, seed=9)
    for _, a in params.tensors().items():
        a += rng.standard_normal(a.shape) * 0.15
    hists = _random_hists(rng, bins=16)
    gt = np.abs(rng.standard_normal(3)) + 0.1
    assert _fd_worst(params, hists, None, gt) < 1e-3


def test_batched_backward_matches_singles(rng):
    params = init_eccc(bins=16, n=3, seed=10)
    for _, a in params.tensors().items():
        a += rng.standard_normal(a.shape) * 0.1
    hists = np.stack([_random_hists(rng, bins=16) for _ in range(4)])
    feats = rng.standard_normal((4, 15))
    gts = np.abs(rng.standard_normal((4, 3))) + 0.2
    cache = _forward_batch(params, hists, feats)
    loss_b, grads_b, _ = _backward_batch(params, cache, gts)
    losses, grads_s = [], None
    for i in range(4):
        li, gi, _ = _loss_and_grads(params, hists[i], feats[i], gts[i])
        losses.append(li)
        grads_s = gi if grads_s is None else {k: grads_s[k] + gi[k] for k in gi}
    assert loss_b == pytest.approx(np.mean(losses), rel=1e-12)
    for k in grads_b:
        assert np.abs(grads_b[k] - grads_s[k] / 4.0).max() < 1e-10


@pytest.mark.parametrize("use_def", [True, False])
def test_single_precision_step_follows_the_double_step(rng, use_def):
    """The elementwise work follows the correlation's precision: complex64
    transforms, as train_eccc builds them, give a float32 probability map,
    and the step's loss and float64 gradients agree with the double step's."""
    params = init_eccc(bins=64, n=20, use_def=use_def, seed=11)
    for _, a in params.tensors().items():
        a += rng.standard_normal(a.shape) * 0.1
    hists = np.stack([_random_hists(rng) for _ in range(32)])
    feats = rng.standard_normal((32, 15)) if use_def else None
    gts = np.abs(rng.standard_normal((32, 3))) + 0.2
    single = _forward_batch(params, defs=feats, hists_fft=fft_image(hists.astype(np.float32), fft_size(64, 64)))
    double = _forward_batch(params, hists, feats)
    assert single["p"].dtype == np.float32 and double["p"].dtype == np.float64
    loss_s, grads_s, _ = _backward_batch(params, single, gts)
    loss_d, grads_d, _ = _backward_batch(params, double, gts)
    assert loss_s == pytest.approx(loss_d, rel=1e-6)
    for name, grad in grads_d.items():
        assert grads_s[name].dtype == np.float64
        assert np.abs(grads_s[name] - grad).max() <= 1e-5 * np.abs(grad).max(), name

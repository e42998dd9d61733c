from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from duxwb import training
from duxwb.convops import fft_image, fft_size
from duxwb.core import DualExposurePair, Illuminant, RawImage, angular_errors
from duxwb.eccc import _backward_batch, _forward_batch, init_eccc
from duxwb.errors import DomainError
from duxwb.mlp import (COS_CLAMP, LEAKY_SLOPE, MlpParams, emlp_init, init_mlp, mlp_backward, mlp_forward,
                       mlp_forward_trace)
from duxwb.pipeline import build_feature_set
from duxwb.synth import SceneSpec, generate_dataset
from duxwb.training import (
    EMLP_BATCH_SIZE,
    MODEL_DEFAULTS,
    TrainConfig,
    _eccc_batch_size,
    adam_init,
    adam_step,
    cosine_lr,
    dilate_diamond,
    ensemble,
    init_eccc_biases,
    kmeans,
    relight_pair,
    train_eccc,
    train_emlp,
    von_kries_gains,
)

from conftest import random_image


# ============================================================
# Adam
# ============================================================

def _step(state, grads, lr):
    """adam_step on the given gradients, written into Adam's gradient views."""
    for k, g in state.grads().items():
        g[...] = grads[k]
    return adam_step(state, lr)


def test_adam_zero_gradients_fixed_point():
    state = adam_init({"w": np.array([1.0, -2.0, 3.0])})
    params = state.tensors()
    ok = _step(state, {"w": np.zeros(3)}, 1e-2)
    assert ok
    assert np.array_equal(params["w"], [1.0, -2.0, 3.0])


def test_adam_weight_decay_shrinks():
    state = adam_init({"w": np.array([1.0])}, weight_decay=0.5)
    params = state.tensors()
    _step(state, {"w": np.zeros(1)}, 0.1)
    assert params["w"][0] == pytest.approx(1.0 - 0.1 * 0.5)


def test_adam_first_step_is_signed_lr():
    state = adam_init({"w": np.array([0.0])})
    params = state.tensors()
    g = 0.37
    _step(state, {"w": np.array([g])}, 1e-3)
    # bias-corrected first step: -lr * g / (|g| + eps) ~ -lr
    assert params["w"][0] == pytest.approx(-1e-3, rel=1e-6)


def test_adam_quadratic_bowl_convergence():
    state = adam_init({"x": np.array([1.0])})
    params = state.tensors()
    for _ in range(500):
        _step(state, {"x": 2.0 * params["x"]}, 1e-2)
    assert abs(params["x"][0]) < 1e-3


def test_adam_matches_textbook_trajectory():
    state = adam_init({"x": np.array([3.0])})
    params = state.tensors()
    x, m, v = 3.0, 0.0, 0.0
    for t in range(1, 101):
        _step(state, {"x": 2.0 * params["x"]}, 1e-2)
        g = 2.0 * x
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x -= 1e-2 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert params["x"][0] == pytest.approx(x, abs=1e-14)


def test_adam_rejects_nonfinite_gradient():
    state = adam_init({"w": np.array([1.0])})
    params = state.tensors()
    ok = _step(state, {"w": np.array([np.nan])}, 1e-2)
    assert not ok
    assert state.rejected == 1
    assert params["w"][0] == 1.0
    assert state.step == 0


def _reference_adam_step(state, params, grads, lr):
    """The per-tensor Adam the flat-vector step must match bit for bit;
    ``state`` holds dicts ``m`` and ``v`` and a ``step`` count."""
    for g in grads.values():
        if not np.all(np.isfinite(g)):
            return False
    state["step"] += 1
    c1 = 1.0 - 0.9 ** state["step"]
    c2 = 1.0 - 0.999 ** state["step"]
    for k, p in params.items():
        g = grads[k]
        state["m"][k] = 0.9 * state["m"][k] + (1.0 - 0.9) * g
        state["v"][k] = 0.999 * state["v"][k] + (1.0 - 0.999) * (g * g)
        m_hat = state["m"][k] / c1
        v_hat = state["v"][k] / c2
        p -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        if state["wd"] > 0.0:
            p -= lr * state["wd"] * p
    return True


_MIXED_SHAPES = {"w": (9, 15), "b": (9,), "maps": (2, 16, 16), "s": (1,)}


@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
@pytest.mark.parametrize("lr_varies", [False, True])
def test_flat_adam_matches_per_tensor_reference_bitwise(weight_decay, lr_varies):
    rng = np.random.default_rng(11)
    ref_params = {k: rng.standard_normal(shape) for k, shape in _MIXED_SHAPES.items()}
    state = adam_init(ref_params, weight_decay=weight_decay)
    params = state.tensors()
    ref = {"m": {k: np.zeros_like(p) for k, p in params.items()},
           "v": {k: np.zeros_like(p) for k, p in params.items()}, "step": 0, "wd": weight_decay}
    for t in range(50):
        grads = {k: rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3) for k, shape in _MIXED_SHAPES.items()}
        lr = 5e-3 * (1 + np.cos(t)) if lr_varies else 1e-2
        assert _step(state, grads, lr=lr)
        assert _reference_adam_step(ref, ref_params, grads, lr=lr)
    assert state.step == ref["step"] == 50
    for k, (sl, shape) in state.layout.items():
        assert params[k].tobytes() == ref_params[k].tobytes()
        assert state.m[sl].reshape(shape).tobytes() == ref["m"][k].tobytes()
        assert state.v[sl].reshape(shape).tobytes() == ref["v"][k].tobytes()


def test_adam_nan_in_one_tensor_rejects_the_whole_step():
    rng = np.random.default_rng(12)
    state = adam_init({k: rng.standard_normal(shape) for k, shape in _MIXED_SHAPES.items()}, weight_decay=1e-2)
    params = state.tensors()
    grads = {k: rng.standard_normal(shape) for k, shape in _MIXED_SHAPES.items()}
    assert _step(state, grads, 1e-2)
    before = {k: p.copy() for k, p in params.items()}
    m, v = state.m.copy(), state.v.copy()
    bad = {k: rng.standard_normal(shape) for k, shape in _MIXED_SHAPES.items()}
    bad["maps"][1, 7, 3] = np.nan
    assert not _step(state, bad, 1e-2)
    assert state.rejected == 1 and state.step == 1
    assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
    for k in params:
        assert params[k].tobytes() == before[k].tobytes()


def test_cosine_schedule_endpoints():
    assert cosine_lr(1.0, 0, 100) == pytest.approx(1.0)
    assert cosine_lr(1.0, 99, 100) == pytest.approx(0.0, abs=1e-12)
    assert cosine_lr(1.0, 50, 100) == pytest.approx(0.5, abs=0.02)


# ============================================================
# K-means
# ============================================================

def test_kmeans_single_cluster_is_mean(rng):
    x = rng.standard_normal((40, 5))
    model = kmeans(x, 1, seed=0)
    assert np.allclose(model.centroids[0], x.mean(axis=0), atol=1e-12)


def test_kmeans_separated_blobs(rng):
    a = rng.standard_normal((30, 4)) + 0.0
    b = rng.standard_normal((30, 4)) + 40.0  # 10 sigma separation
    x = np.vstack([a, b])
    model = kmeans(x, 2, seed=1)
    labels = model.labels
    assert len(set(labels[:30])) == 1
    assert len(set(labels[30:])) == 1
    assert labels[0] != labels[30]


def test_kmeans_beats_random_centroids(rng):
    x = rng.standard_normal((200, 6))
    model = kmeans(x, 8, seed=2)
    for _ in range(100):
        centroids = x[rng.choice(200, 8, replace=False)]
        d2 = ((x[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        inertia = d2.min(axis=1).sum()
        assert model.inertia <= inertia + 1e-9


def test_kmeans_inertia_non_increasing(rng):
    x = rng.standard_normal((150, 6))
    model = kmeans(x, 7, seed=3)
    hist = model.inertia_history
    assert len(hist) >= 2
    assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))


def test_kmeans_deterministic(rng):
    x = rng.standard_normal((100, 3))
    a = kmeans(x, 5, seed=9)
    b = kmeans(x, 5, seed=9)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.labels, b.labels)


def test_kmeans_requires_enough_points(rng):
    with pytest.raises(DomainError):
        kmeans(rng.standard_normal((3, 2)), 5, seed=0)


# ============================================================
# Von Kries augmentation
# ============================================================

def test_von_kries_identity(rng):
    img = random_image(rng)
    gt = Illuminant(0.4, 0.9, 0.5)
    pair = DualExposurePair(long=img, short=RawImage(img.data * 0.1), exposure_factor=8.0, ground_truth=gt)
    out = relight_pair(pair, gt)
    assert np.allclose(out.long.data, pair.long.data, atol=1e-12)
    assert np.allclose(out.short.data, pair.short.data, atol=1e-12)


def test_von_kries_round_trip(rng):
    img = random_image(rng, lo=0.05, hi=0.4)  # headroom so no clipping
    old = Illuminant(0.5, 0.9, 0.6)
    new = Illuminant(0.8, 0.7, 0.4)
    pair = DualExposurePair(long=img, short=RawImage(img.data * 0.1), exposure_factor=8.0, ground_truth=old)
    there = relight_pair(pair, new)
    back = relight_pair(there, old)
    assert np.abs(back.long.data - pair.long.data).max() < 1e-6
    assert np.abs(back.short.data - pair.short.data).max() < 1e-6


def test_von_kries_label_consistency(rng):
    # white balancing the augmented frame by its new label recovers the
    # white-balanced original on unclipped pixels
    img = random_image(rng, lo=0.05, hi=0.4)
    old = Illuminant(0.5, 0.9, 0.6).normalized()
    new = Illuminant(0.7, 0.8, 0.5).normalized()
    pair = DualExposurePair(long=img, short=RawImage(img.data * 0.1), exposure_factor=8.0, ground_truth=old)
    out = relight_pair(pair, new)
    o, n = old.as_array(), out.ground_truth.as_array()
    wb_orig = pair.long.data / (o / o[1])[:, None, None]
    wb_aug = out.long.data / (n / n[1])[:, None, None]
    assert np.abs(wb_orig - wb_aug).max() < 1e-6


@pytest.fixture(scope="module")
def augment_data(tmp_path_factory):
    """Twelve small train scenes for the augmentation loop of build_feature_set."""
    root = str(tmp_path_factory.mktemp("aug") / "d")
    manifest = generate_dataset(root, 14, e_list=(8,), seed=3,
                                spec=SceneSpec(width=16, height=12), splits=(12, 1, 1))
    return root, manifest


def test_augment_dataset_size_and_identity_count(augment_data):
    root, manifest = augment_data
    fs = build_feature_set(root, manifest, "train", 8, augment=True,
                           augment_clusters=3, augment_copies=3, seed=4)
    n = 12
    assert len(fs) == 4 * n
    assert 0 <= fs.identity_copies <= 3 * n
    assert np.all(np.isfinite(fs.gts[n:]))
    assert np.allclose(np.linalg.norm(fs.gts[n:], axis=1), 1.0, atol=1e-12)


def test_von_kries_rejects_nonpositive():
    with pytest.raises(DomainError):
        von_kries_gains(np.array([0.0, 1.0, 1.0]), np.array([1.0, 1.0, 1.0]))


def test_augment_singleton_clusters_reuse_illuminant(augment_data):
    root, manifest = augment_data
    n = 12
    # as many clusters as train scenes: every cluster is a singleton
    fs = build_feature_set(root, manifest, "train", 8, augment=True,
                           augment_clusters=n, augment_copies=3, seed=1)
    assert fs.identity_copies == 3 * n
    for i in range(3 * n):
        assert np.allclose(fs.gts[n + i], fs.gts[i // 3], atol=1e-12)


# ============================================================
# Bias initialization
# ============================================================

def test_dilation_single_hot_diamond():
    grid = np.zeros((5, 5))
    grid[2, 2] = 1.0
    out = dilate_diamond(grid)
    expected = np.zeros((5, 5))
    for dy, dx in ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)):
        expected[2 + dy, 2 + dx] = 1.0
    assert np.array_equal(out, expected)


def test_dilation_idempotent_on_ones():
    grid = np.ones((6, 6))
    assert np.array_equal(dilate_diamond(grid), grid)


def test_bias_init_identical_gts(rng):
    defs = rng.standard_normal((40, 15))
    gts = np.tile(np.array([0.5, 0.8, 0.6]) / np.linalg.norm([0.5, 0.8, 0.6]), (40, 1))
    bank, model = init_eccc_biases(defs, gts, n=4, bins=64, seed=0)
    assert bank.shape == (4, 16, 16)
    for i in range(1, 4):
        assert np.array_equal(bank[0], bank[i])
    assert np.count_nonzero(bank[0]) == 5  # dilated one-hot diamond


def test_bias_init_range(rng):
    defs = rng.standard_normal((60, 15))
    gts = np.abs(rng.standard_normal((60, 3))) + 0.2
    gts /= np.linalg.norm(gts, axis=1, keepdims=True)
    bank, _ = init_eccc_biases(defs, gts, n=5, bins=64, seed=1)
    for b in bank:
        assert b.max() == pytest.approx(1.0)
        assert b.min() >= 0.0


# ============================================================
# Training loops
# ============================================================

def test_emlp_overfit_one_sample(rng):
    x = rng.standard_normal((1, 15))
    g = np.array([[0.6, 0.8, 0.2]])
    g /= np.linalg.norm(g)
    cfg = TrainConfig(model="emlp", epochs=200, seed=0)
    params, result = train_emlp(x, g, cfg)
    assert result.log[-1].loss_mean_deg < 0.5


def test_emlp_training_deterministic(rng):
    x = rng.standard_normal((40, 15))
    g = np.abs(rng.standard_normal((40, 3))) + 0.2
    cfg = TrainConfig(model="emlp", epochs=20, seed=3)
    p1, _ = train_emlp(x, g, cfg)
    p2, _ = train_emlp(x, g, cfg)
    for a, b in zip(p1.tensors().values(), p2.tensors().values()):
        assert np.array_equal(a, b)


def test_emlp_loss_trend(rng):
    # informative synthetic mapping: gt direction linearly encoded in the feature
    g = np.abs(rng.standard_normal((200, 3))) + 0.2
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    x = np.hstack([g, rng.standard_normal((200, 12)) * 0.1])
    cfg = TrainConfig(model="emlp", epochs=60, seed=1)
    params, result = train_emlp(x, g, cfg)
    first = np.mean([r.loss_mean_deg for r in result.log[:10]])
    last = np.mean([r.loss_mean_deg for r in result.log[-10:]])
    assert last < first


def test_eccc_training_smoke_and_determinism(rng):
    n, bins = 30, 16
    hists = np.abs(rng.standard_normal((n, 2, bins, bins))) + 1e-3
    hists /= hists.sum(axis=(2, 3), keepdims=True)
    defs = rng.standard_normal((n, 15))
    gts = np.abs(rng.standard_normal((n, 3))) + 0.2
    cfg = TrainConfig(model="eccc", epochs=6, n_biases=3, hist_bins=bins, seed=2)
    p1, r1 = train_eccc(hists, defs, gts, cfg)
    p2, r2 = train_eccc(hists, defs, gts, cfg)
    for a, b in zip(p1.tensors().values(), p2.tensors().values()):
        assert np.array_equal(a, b)
    assert len(r1.log) == 6
    assert all(np.isfinite(row.loss_mean_deg) for row in r1.log)


def test_eccc_incremental_batch_schedule(rng):
    n, bins = 20, 16
    hists = np.abs(rng.standard_normal((n, 2, bins, bins))) + 1e-3
    hists /= hists.sum(axis=(2, 3), keepdims=True)
    defs = rng.standard_normal((n, 15))
    gts = np.abs(rng.standard_normal((n, 3))) + 0.2
    cfg = TrainConfig(model="eccc", epochs=9, n_biases=2, hist_bins=bins, seed=0)
    _, result = train_eccc(hists, defs, gts, cfg)
    sizes = [row.batch_size for row in result.log]
    assert sizes == [16, 16, 16, 32, 32, 32, 64, 64, 64]
    lrs = [row.lr for row in result.log]
    assert lrs[0] == pytest.approx(5e-3)
    assert lrs[-1] == pytest.approx(0.0, abs=1e-12)
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


def test_train_empty_dataset_raises():
    with pytest.raises(DomainError):
        train_emlp(np.zeros((0, 15)), np.zeros((0, 3)), TrainConfig(model="emlp", epochs=1))


def test_train_emlp_zero_ground_truth_raises():
    gts = np.ones((5, 3))
    gts[2] = 0.0
    with pytest.raises(DomainError):
        train_emlp(np.ones((5, 15)), gts, TrainConfig(model="emlp", epochs=1))


def test_train_eccc_feature_path_without_features_raises(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("training started")
    monkeypatch.setattr(training, "init_eccc_biases", no_work)
    monkeypatch.setattr(training, "fft_image", no_work)
    hists = np.full((4, 2, 16, 16), 1.0 / 256)
    with pytest.raises(DomainError, match="features"):
        train_eccc(hists, None, np.ones((4, 3)), TrainConfig(model="eccc"))


def test_resolved_reads_the_model_defaults():
    for model, defaults in MODEL_DEFAULTS.items():
        cfg = TrainConfig(model=model).resolved()
        assert (cfg.epochs, cfg.lr) == (defaults["epochs"], defaults["lr"])
        given = TrainConfig(model=model, epochs=3, lr=0.25).resolved()
        assert (given.epochs, given.lr) == (3, 0.25)
    with pytest.raises(DomainError):
        TrainConfig(model="cnn").resolved()


# ============================================================
# Training loops against the per-tensor reference, bit for bit
# ============================================================

def _reference_forward(params, x):
    """MLP forward with LeakyReLU as np.where; keeps pre-activations."""
    a, zs = [x], []
    for i in range(3):
        z = a[-1] @ params.weights[i].T + params.biases[i]
        zs.append(z)
        a.append(np.where(z >= 0.0, z, LEAKY_SLOPE * z))
    return a[-1] @ params.weights[3].T + params.biases[3], a, zs


def _reference_backward(params, a, zs, dout):
    """MLP backward that recomputes the LeakyReLU mask from the pre-activations."""
    grads = {"w4": dout.T @ a[3], "b4": dout.sum(axis=0)}
    da = dout @ params.weights[3]
    for i in (2, 1, 0):
        dz = da * np.where(zs[i] >= 0.0, 1.0, LEAKY_SLOPE)
        grads[f"w{i + 1}"] = dz.T @ a[i]
        grads[f"b{i + 1}"] = dz.sum(axis=0)
        da = dz @ params.weights[i]
    return grads


def _reference_angular_loss(raw, gts):
    """Angular loss normalizing the batch's ground truths, with np.clip and
    unconditional masking of degenerate rows."""
    ghat = gts / np.linalg.norm(gts, axis=1)[:, np.newaxis]
    norms = np.linalg.norm(raw, axis=1)
    valid = norms >= 1e-12
    safe = np.where(valid, norms, 1.0)
    cos = np.einsum("ij,ij->i", raw, ghat) / safe
    cos_c = np.clip(cos, -1.0, 1.0)
    loss = np.degrees(np.arccos(cos_c))
    loss[~valid] = np.nan
    cg = np.clip(cos, -COS_CLAMP, COS_CLAMP)
    factor = -(180.0 / np.pi) / np.sqrt(1.0 - cg * cg)
    rhat = raw / safe[:, np.newaxis]
    draw = factor[:, np.newaxis] * (ghat - cos_c[:, np.newaxis] * rhat) / safe[:, np.newaxis]
    draw[~valid] = 0.0
    return loss, draw, valid


def _reference_state(tensors, weight_decay):
    return {"m": {k: np.zeros_like(p) for k, p in tensors.items()},
            "v": {k: np.zeros_like(p) for k, p in tensors.items()}, "step": 0, "wd": weight_decay}


def _reference_train_emlp(x, gts, cfg):
    cfg = cfg.resolved()
    params = emlp_init(d_in=x.shape[1], seed=cfg.seed)
    tensors = params.tensors()
    state = _reference_state(tensors, MODEL_DEFAULTS[cfg.model]["weight_decay"])
    rng = np.random.default_rng(cfg.seed)
    log = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(x))
        sum_loss, count = 0.0, 0
        for start in range(0, len(x), EMLP_BATCH_SIZE):
            idx = order[start:start + EMLP_BATCH_SIZE]
            raw, a, zs = _reference_forward(params, x[idx])
            loss, draw, valid = _reference_angular_loss(raw, gts[idx])
            n_valid = int(np.count_nonzero(valid))
            assert _reference_adam_step(state, tensors, _reference_backward(params, a, zs, draw / n_valid), lr=cfg.lr)
            sum_loss += float(np.nansum(loss))
            count += n_valid
        log.append(sum_loss / count)
    return tensors, log


def _reference_train_eccc(hists, feats, gts, cfg):
    cfg = cfg.resolved()
    bank = None
    if cfg.use_def and cfg.bias_init:
        bank, _ = init_eccc_biases(feats, gts, cfg.n_biases, cfg.hist_bins, seed=cfg.seed)
    params = init_eccc(bins=cfg.hist_bins, n=cfg.n_biases, variant=cfg.variant, use_def=cfg.use_def,
                       def_dim=15, seed=cfg.seed, biases=bank)
    tensors = params.tensors()
    state = _reference_state(tensors, MODEL_DEFAULTS[cfg.model]["weight_decay"])
    rng = np.random.default_rng(cfg.seed)
    hists_fft = fft_image(hists.astype(np.float32), fft_size(cfg.hist_bins, cfg.hist_bins))
    log = []
    for epoch in range(cfg.epochs):
        lr = cosine_lr(cfg.lr, epoch, cfg.epochs)
        bs = _eccc_batch_size(epoch, cfg.epochs)
        order = rng.permutation(len(gts))
        sum_loss, sum_smooth, batches = 0.0, 0.0, 0
        for start in range(0, len(gts), bs):
            idx = order[start:start + bs]
            cache = _forward_batch(params, defs=None if feats is None else feats[idx], hists_fft=hists_fft[idx])
            loss, grads, parts = _backward_batch(params, cache, gts[idx])
            assert _reference_adam_step(state, tensors, grads, lr=lr)
            sum_loss += loss
            sum_smooth += parts["smooth_bias_mean"] + parts["smooth_filter"]
            batches += 1
        log.append((sum_loss / batches, sum_smooth / batches))
    return tensors, log


def _assert_same_tensors(got: dict, want: dict):
    assert list(got) == list(want)
    for k in want:
        assert got[k].shape == want[k].shape
        assert np.array_equal(got[k], want[k]), k


def test_train_emlp_matches_per_tensor_reference_bitwise():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((100, 15))  # 32 + 32 + 32 + 4 per epoch
    gts = (np.abs(rng.standard_normal((100, 3))) + 0.2) * rng.uniform(0.5, 3.0, (100, 1))
    cfg = TrainConfig(model="emlp", epochs=12, seed=4)
    params, result = train_emlp(x, gts, cfg)
    want, want_log = _reference_train_emlp(x, gts, cfg)
    _assert_same_tensors(params.tensors(), want)
    assert np.array_equal([row.loss_mean_deg for row in result.log], want_log)
    assert result.skipped_steps == 0 and not result.aborted


@pytest.mark.parametrize("batch", [1, 2, 3, 5, 12, 16, 31, 32, 33, 64, 160, 300])
@pytest.mark.parametrize("d_in, d_out", [(15, 3), (12, 20)])
def test_training_products_write_the_reference_bits_into_adams_gradient(batch, d_in, d_out):
    """The training forward and backward take their products through np.dot,
    and the backward writes into Adam's gradient views. At every batch size
    and at both network shapes (EMLP, ECCC's bias-weight MLP) the outputs
    and the flat gradient equal the @-based reference byte for byte."""
    rng = np.random.default_rng(batch)
    state = adam_init(init_mlp(d_in, d_out, seed=batch).tensors())
    params = MlpParams.from_tensors(state.tensors())
    x, dout = rng.standard_normal((batch, d_in)), rng.standard_normal((batch, d_out))
    raw, trace = mlp_forward_trace(params, x)
    want_raw, a, zs = _reference_forward(params, x)
    assert raw.tobytes() == want_raw.tobytes()
    grads = state.grads()
    assert mlp_backward(params, trace, dout, out=grads) is grads
    want = _reference_backward(params, a, zs, dout)
    assert state.grad.tobytes() == np.concatenate([want[k].ravel() for k in state.layout]).tobytes()


@pytest.mark.parametrize("use_def", [True, False])
def test_train_eccc_matches_per_tensor_reference_bitwise(use_def):
    rng = np.random.default_rng(22)
    n, bins = 36, 32
    hists = np.abs(rng.standard_normal((n, 2, bins, bins))) + 1e-3
    hists /= hists.sum(axis=(2, 3), keepdims=True)
    feats = rng.standard_normal((n, 15)) if use_def else None
    gts = np.abs(rng.standard_normal((n, 3))) + 0.2
    cfg = TrainConfig(model="eccc", epochs=6, n_biases=3, hist_bins=bins, seed=3, use_def=use_def)
    params, result = train_eccc(hists, feats, gts, cfg)
    want, want_log = _reference_train_eccc(hists, feats, gts, cfg)
    _assert_same_tensors(params.tensors(), want)
    assert np.array_equal([(row.loss_mean_deg, row.smoothness_terms) for row in result.log], want_log)


def test_emlp_abort_restores_the_last_good_epoch(monkeypatch, rng):
    """A non-finite epoch mean ends the run at the end of the epoch before it;
    the rate is constant, so a run of that many epochs is the reference."""
    x = rng.standard_normal((70, 15))  # 3 steps per epoch
    gts = np.abs(rng.standard_normal((70, 3))) + 0.2
    bad_epoch = 3
    calls = Counter()
    original = training.angular_loss_unit

    def poisoned(raw, ghat):
        loss, draw, valid = original(raw, ghat)
        calls["step"] += 1
        if calls["step"] == 3 * bad_epoch + 2:  # the second step of bad_epoch
            loss = loss.copy()
            loss[0] = np.nan  # the row stays valid, so its gradient is finite
        return loss, draw, valid

    monkeypatch.setattr(training, "angular_loss_unit", poisoned)
    params, result = train_emlp(x, gts, TrainConfig(model="emlp", epochs=8, seed=1))
    monkeypatch.undo()
    want, ref = train_emlp(x, gts, TrainConfig(model="emlp", epochs=bad_epoch, seed=1))

    assert result.aborted and not ref.aborted
    assert result.skipped_steps == 0  # the bad epoch's steps were applied, then undone
    assert len(result.log) == bad_epoch + 1
    assert np.isnan(result.log[-1].loss_mean_deg)
    assert [row.loss_mean_deg for row in result.log[:-1]] == [row.loss_mean_deg for row in ref.log]
    _assert_same_tensors(params.tensors(), want.tensors())


def test_eccc_abort_restores_the_last_good_epoch(monkeypatch, rng):
    bins, n = 16, 40  # batches 16, 16, 32, 32, 64, 64: 3 + 3 + 2 + 2 + 1 + 1 steps
    hists = np.abs(rng.standard_normal((n, 2, bins, bins))) + 1e-3
    hists /= hists.sum(axis=(2, 3), keepdims=True)
    defs = rng.standard_normal((n, 15))
    gts = np.abs(rng.standard_normal((n, 3))) + 0.2
    cfg = TrainConfig(model="eccc", epochs=6, n_biases=2, hist_bins=bins, seed=0)
    bad_epoch, first_bad_step = 3, 3 + 3 + 2 + 1
    calls, last_good = Counter(), {}
    original = training._backward_batch

    def poisoned(params, cache, g, out):
        loss, grads, parts = original(params, cache, g, out=out)
        calls["step"] += 1
        if calls["step"] == first_bad_step:  # no update since the last good epoch ended
            last_good.update({k: t.copy() for k, t in params.tensors().items()})
            loss = np.nan
        return loss, grads, parts

    monkeypatch.setattr(training, "_backward_batch", poisoned)
    params, result = train_eccc(hists, defs, gts, cfg)
    monkeypatch.undo()
    _, ref = train_eccc(hists, defs, gts, cfg)

    assert result.aborted and not ref.aborted
    assert result.skipped_steps == 0
    assert len(result.log) == bad_epoch + 1
    assert np.isnan(result.log[-1].loss_mean_deg)
    assert [row.loss_mean_deg for row in result.log[:-1]] == [row.loss_mean_deg for row in ref.log[:bad_epoch]]
    _assert_same_tensors(params.tensors(), last_good)


def test_training_calls_each_traced_lookup_once_per_step(monkeypatch, rng):
    """The training loops reach these functions through the training module,
    once per step; tracing tools patch them there and count steps by them."""
    counts = Counter()
    names = ("mlp_forward_trace", "mlp_backward", "adam_step", "_forward_batch", "_backward_batch")
    for name in names:
        def counted(*args, _name=name, _original=getattr(training, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(training, name, counted)

    # 70 samples at batch 32: 3 steps per epoch
    train_emlp(rng.standard_normal((70, 15)), np.abs(rng.standard_normal((70, 3))) + 0.2,
               TrainConfig(model="emlp", epochs=4, seed=0))
    assert counts == {"mlp_forward_trace": 12, "mlp_backward": 12, "adam_step": 12}

    # 40 scenes over 6 epochs at batch 16, 16, 32, 32, 64, 64: 3 + 3 + 2 + 2 + 1 + 1 steps
    counts.clear()
    bins = 16
    hists = np.abs(rng.standard_normal((40, 2, bins, bins))) + 1e-3
    hists /= hists.sum(axis=(2, 3), keepdims=True)
    train_eccc(hists, rng.standard_normal((40, 15)), np.abs(rng.standard_normal((40, 3))) + 0.2,
               TrainConfig(model="eccc", epochs=6, n_biases=2, hist_bins=bins, seed=0))
    assert counts == {"_forward_batch": 12, "_backward_batch": 12, "adam_step": 12}


# ============================================================
# Ensemble
# ============================================================

def test_ensemble_identical_inputs():
    ill = Illuminant(0.3, 0.8, 0.5).normalized().as_array()[np.newaxis]
    assert np.allclose(ensemble(ill, ill), ill, atol=1e-12)


def test_ensemble_mean_direction():
    out = ensemble(np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]]))
    assert np.allclose(out, np.array([[1.0, 1.0, 0.0]]) / np.sqrt(2.0))


def test_ensemble_moves_toward_first_argument(rng):
    a = rng.uniform(0.05, 1.0, (200, 3))
    b = rng.uniform(0.05, 1.0, (200, 3))
    assert np.all(angular_errors(ensemble(a, b), a) <= angular_errors(b, a) + 1e-9)


def test_ensemble_rows_have_the_bits_of_each_pair_alone(rng):
    a = rng.uniform(0.05, 1.0, (50, 3)) * rng.choice([1e-3, 1.0, 1e3], (50, 1))
    b = rng.uniform(0.05, 1.0, (50, 3))
    alone = np.concatenate([ensemble(a[i:i + 1], b[i:i + 1]) for i in range(len(a))])
    assert ensemble(a, b).tobytes() == alone.tobytes()


_ROW3 = st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=3, max_size=3).map(lambda v: np.array([v]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(a=_ROW3, b=_ROW3)
def test_ensemble_is_symmetric_and_unit(a, b):
    assume(np.linalg.norm(a) > 1e-6 and np.linalg.norm(b) > 1e-6)
    try:
        ab = ensemble(a, b)
    except DomainError:  # antipodal inputs, in either order
        with pytest.raises(DomainError):
            ensemble(b, a)
        return
    assert ab.tobytes() == ensemble(b, a).tobytes()
    assert np.linalg.norm(ab) == pytest.approx(1.0, abs=1e-12)

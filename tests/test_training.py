import numpy as np
import pytest

from duxwb.core import DualExposurePair, Illuminant, RawImage, angular_error
from duxwb.errors import DomainError
from duxwb.mlp import emlp_init, mlp_forward
from duxwb.pipeline import build_feature_set
from duxwb.synth import SceneSpec, generate_dataset
from duxwb.training import (
    TrainConfig,
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

def test_adam_zero_gradients_fixed_point():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    state = adam_init(params, lr=1e-2)
    ok = adam_step(state, params, {"w": np.zeros(3)})
    assert ok
    assert np.array_equal(params["w"], [1.0, -2.0, 3.0])


def test_adam_weight_decay_shrinks():
    params = {"w": np.array([1.0])}
    state = adam_init(params, lr=0.1, weight_decay=0.5)
    adam_step(state, params, {"w": np.zeros(1)})
    assert params["w"][0] == pytest.approx(1.0 - 0.1 * 0.5)


def test_adam_first_step_is_signed_lr():
    params = {"w": np.array([0.0])}
    state = adam_init(params, lr=1e-3)
    g = 0.37
    adam_step(state, params, {"w": np.array([g])})
    # bias-corrected first step: -lr * g / (|g| + eps) ~ -lr
    assert params["w"][0] == pytest.approx(-1e-3, rel=1e-6)


def test_adam_quadratic_bowl_convergence():
    params = {"x": np.array([1.0])}
    state = adam_init(params, lr=1e-2)
    for _ in range(500):
        adam_step(state, params, {"x": 2.0 * params["x"]})
    assert abs(params["x"][0]) < 1e-3


def test_adam_matches_textbook_trajectory():
    params = {"x": np.array([3.0])}
    state = adam_init(params, lr=1e-2)
    x, m, v = 3.0, 0.0, 0.0
    for t in range(1, 101):
        adam_step(state, params, {"x": 2.0 * params["x"]})
        g = 2.0 * x
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x -= 1e-2 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert params["x"][0] == pytest.approx(x, abs=1e-14)


def test_adam_rejects_nonfinite_gradient():
    params = {"w": np.array([1.0])}
    state = adam_init(params, lr=1e-2)
    ok = adam_step(state, params, {"w": np.array([np.nan])})
    assert not ok
    assert state.rejected == 1
    assert params["w"][0] == 1.0
    assert state.step == 0


def _reference_adam_step(state, params, grads, lr=None):
    """The per-tensor Adam the flat-vector step must match bit for bit;
    ``state`` holds dicts ``m`` and ``v`` and a ``step`` count."""
    for g in grads.values():
        if not np.all(np.isfinite(g)):
            return False
    rate = 1e-2 if lr is None else lr
    state["step"] += 1
    c1 = 1.0 - 0.9 ** state["step"]
    c2 = 1.0 - 0.999 ** state["step"]
    for k, p in params.items():
        g = grads[k]
        state["m"][k] = 0.9 * state["m"][k] + (1.0 - 0.9) * g
        state["v"][k] = 0.999 * state["v"][k] + (1.0 - 0.999) * (g * g)
        m_hat = state["m"][k] / c1
        v_hat = state["v"][k] / c2
        p -= rate * m_hat / (np.sqrt(v_hat) + 1e-8)
        if state["wd"] > 0.0:
            p -= rate * state["wd"] * p
    return True


_MIXED_SHAPES = {"w": (9, 15), "b": (9,), "maps": (2, 16, 16), "s": (1,)}


@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
@pytest.mark.parametrize("lr_override", [False, True])
def test_flat_adam_matches_per_tensor_reference_bitwise(weight_decay, lr_override):
    rng = np.random.default_rng(11)
    params = {k: rng.standard_normal(shape) for k, shape in _MIXED_SHAPES.items()}
    ref_params = {k: p.copy() for k, p in params.items()}
    state = adam_init(params, lr=1e-2, weight_decay=weight_decay)
    ref = {"m": {k: np.zeros_like(p) for k, p in params.items()},
           "v": {k: np.zeros_like(p) for k, p in params.items()}, "step": 0, "wd": weight_decay}
    for t in range(50):
        grads = {k: rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3) for k, shape in _MIXED_SHAPES.items()}
        lr = 5e-3 * (1 + np.cos(t)) if lr_override else None
        assert adam_step(state, params, grads, lr=lr)
        assert _reference_adam_step(ref, ref_params, grads, lr=lr)
    assert state.step == ref["step"] == 50
    for k, (sl, shape) in state.layout.items():
        assert params[k].tobytes() == ref_params[k].tobytes()
        assert state.m[sl].reshape(shape).tobytes() == ref["m"][k].tobytes()
        assert state.v[sl].reshape(shape).tobytes() == ref["v"][k].tobytes()


def test_adam_nan_in_one_tensor_rejects_the_whole_step():
    rng = np.random.default_rng(12)
    params = {k: rng.standard_normal(shape) for k, shape in _MIXED_SHAPES.items()}
    state = adam_init(params, lr=1e-2, weight_decay=1e-2)
    grads = {k: rng.standard_normal(shape) for k, shape in _MIXED_SHAPES.items()}
    assert adam_step(state, params, grads)
    before = {k: p.copy() for k, p in params.items()}
    m, v = state.m.copy(), state.v.copy()
    bad = {k: rng.standard_normal(shape) for k, shape in _MIXED_SHAPES.items()}
    bad["maps"][1, 7, 3] = np.nan
    assert not adam_step(state, params, bad)
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


# ============================================================
# Ensemble
# ============================================================

def test_ensemble_identical_inputs():
    ill = Illuminant(0.3, 0.8, 0.5).normalized()
    out = ensemble(ill, ill)
    assert np.allclose(out.as_array(), ill.as_array(), atol=1e-12)


def test_ensemble_mean_direction():
    out = ensemble(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    assert np.allclose(out.as_array(), np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))


def test_ensemble_moves_toward_first_argument(rng):
    for _ in range(200):
        a = rng.uniform(0.05, 1.0, 3)
        b = rng.uniform(0.05, 1.0, 3)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        assert angular_error(ensemble(a, b), a) <= angular_error(b, a) + 1e-9

import numpy as np
import pytest

from duxwb.core import DualExposurePair, Illuminant, RawImage
from duxwb.def_feature import (
    DefConfig,
    DefVector,
    affine_map,
    compute_def,
    homography_map,
    ratio_image,
)
from duxwb.errors import DomainError

from conftest import covariance_block, mapping_block, random_image, scaled_pair


# ============================================================
# ratio_image
# ============================================================

def test_ratio_identical_frames_all_ones(rng):
    img = random_image(rng)
    pair = DualExposurePair(long=img, short=img, exposure_factor=2.0)
    assert np.allclose(ratio_image(pair.long.as_matrix(), pair.short.as_matrix(), eps=0.0), 1.0)


def test_ratio_zero_short_is_zero(rng):
    long_img = random_image(rng)
    short_img = RawImage(np.zeros_like(long_img.data))
    pair = DualExposurePair(long=long_img, short=short_img, exposure_factor=2.0)
    assert np.all(ratio_image(pair.long.as_matrix(), pair.short.as_matrix(), eps=0.0) == 0.0)


def test_ratio_direct_division():
    long_img = RawImage(np.full((3, 4, 4), 0.5))
    short_img = RawImage(np.full((3, 4, 4), 0.25))
    pair = DualExposurePair(long=long_img, short=short_img, exposure_factor=2.0)
    assert np.allclose(ratio_image(pair.long.as_matrix(), pair.short.as_matrix(), eps=0.0), 0.5)


def test_ratio_zero_over_zero_finite():
    zero = RawImage(np.zeros((3, 2, 2)))
    pair = DualExposurePair(long=zero, short=zero, exposure_factor=2.0)
    out = ratio_image(pair.long.as_matrix(), pair.short.as_matrix(), eps=0.0)
    assert np.all(np.isfinite(out)) and np.all(out == 0.0)


# ============================================================
# compute_def
# ============================================================

def test_neutral_pair_collapse(rng):
    cfg = DefConfig(eps_ratio=0.0, eps_chroma=0.0)
    for _ in range(10):
        pair = scaled_pair(rng, alpha=0.125)
        vec = compute_def(pair, cfg)
        c_c = mapping_block(vec)
        c_v = covariance_block(vec)
        assert np.linalg.norm(c_c - np.eye(3)) < 1e-6
        assert np.linalg.norm(c_v) < 1e-10


def test_per_channel_scaling_recovered(rng):
    long_img = random_image(rng, 16, 16)
    gains = np.array([0.5, 0.25, 0.125])
    short_img = RawImage(long_img.data * gains[:, None, None])
    pair = DualExposurePair(long=long_img, short=short_img, exposure_factor=8.0)
    cfg = DefConfig(color_repr="rgb", eps_ratio=0.0, eps_chroma=0.0)
    vec = compute_def(pair, cfg)
    # short -> long mapping inverts the gains
    assert np.allclose(mapping_block(vec), np.diag(1.0 / gains), atol=1e-6)


def test_clipped_pair_breaks_neutrality(rng):
    base = random_image(rng, 16, 16, lo=0.2, hi=0.9)
    clean_long = RawImage(base.data)
    clipped_long = RawImage(np.minimum(base.data * 2.0, 1.0) / 2.0)  # 2x exposure then clip
    short_img = RawImage(base.data * 0.125)
    clean = compute_def(DualExposurePair(clean_long, short_img, 8.0), DefConfig())
    clipped = compute_def(DualExposurePair(clipped_long, short_img, 8.0), DefConfig())
    assert np.linalg.norm(clean.values - clipped.values) > 0.01


def test_global_exposure_invariance_bitwise(rng):
    cfg = DefConfig(eps_ratio=0.0, eps_chroma=0.0)
    long_img = random_image(rng, 8, 8, lo=0.1, hi=0.45)
    short_img = random_image(rng, 8, 8, lo=0.05, hi=0.4)
    pair = DualExposurePair(long=long_img, short=short_img, exposure_factor=2.0)
    base = compute_def(pair, cfg)
    for s in (0.5, 2.0):  # power-of-two scaling is exact in floating point
        scaled = DualExposurePair(
            long=RawImage(long_img.data * s),
            short=RawImage(short_img.data * s),
            exposure_factor=2.0,
        )
        vec = compute_def(scaled, cfg)
        assert np.array_equal(vec.values, base.values)


def test_pixel_permutation_invariance(rng):
    cfg = DefConfig()
    long_img = random_image(rng, 8, 8)
    short_img = random_image(rng, 8, 8)
    pair = DualExposurePair(long=long_img, short=short_img, exposure_factor=2.0)
    base = compute_def(pair, cfg)
    perm = rng.permutation(64)
    shuffled = DualExposurePair(
        long=RawImage(long_img.as_matrix()[:, perm].reshape(3, 8, 8)),
        short=RawImage(short_img.as_matrix()[:, perm].reshape(3, 8, 8)),
        exposure_factor=2.0,
    )
    vec = compute_def(shuffled, cfg)
    assert np.abs(vec.values - base.values).max() < 1e-12


def test_feature_lengths_match_parameter_count_rows():
    assert DefConfig().feature_length == 15
    assert DefConfig(include_covariance=False).feature_length == 9
    assert DefConfig(mapping="homography3x3", include_covariance=False).feature_length == 9
    assert DefConfig(mapping="affine3x4", include_covariance=False).feature_length == 12
    assert DefConfig(mapping="affine3x4").feature_length == 18
    assert DefConfig(mapping="homography3x3").feature_length == 15


@pytest.mark.parametrize("eps", [-1e-9, float("nan"), float("inf"), 10**400])
@pytest.mark.parametrize("field", ["eps_ratio", "eps_chroma"])
def test_config_rejects_eps_not_finite_and_nonnegative(field, eps):
    with pytest.raises(DomainError, match="eps"):
        DefConfig(**{field: eps})


def test_compute_def_respects_lengths(rng):
    pair = scaled_pair(rng)
    for cfg in (
        DefConfig(),
        DefConfig(include_covariance=False),
        DefConfig(mapping="affine3x4"),
        DefConfig(mapping="homography3x3", include_covariance=False),
        DefConfig(color_repr="rg_chroma"),
        DefConfig(color_repr="rgb"),
    ):
        assert len(compute_def(pair, cfg)) == cfg.feature_length


def test_degenerate_rank_flagged():
    flat = RawImage(np.full((3, 8, 8), 0.3))  # gray scene: chroma rank 1
    pair = DualExposurePair(long=flat, short=RawImage(flat.data * 0.5), exposure_factor=2.0)
    vec = compute_def(pair, DefConfig())
    assert vec.degenerate
    assert np.all(np.isfinite(vec.values))


def test_def_requires_min_pixels():
    img = RawImage(np.ones((3, 3, 3)))
    pair = DualExposurePair(long=img, short=img, exposure_factor=2.0)
    with pytest.raises(DomainError):
        compute_def(pair, DefConfig())


def test_covariance_block_reconstruction(rng):
    pair = DualExposurePair(
        long=random_image(rng, 10, 10), short=random_image(rng, 10, 10), exposure_factor=2.0
    )
    vec = compute_def(pair, DefConfig())
    cov = covariance_block(vec)
    assert np.allclose(cov, cov.T)
    assert np.linalg.eigvalsh(cov).min() > -1e-8


# ============================================================
# affine_map
# ============================================================

def test_affine_identity(rng):
    pts = rng.standard_normal((3, 40))
    res = affine_map(pts, pts)
    assert np.allclose(res.rotation, np.eye(3), atol=1e-8)
    assert res.alpha == pytest.approx(1.0, abs=1e-12)
    mapped = res.alpha * res.rotation @ pts + res.translation[:, None]
    assert np.allclose(mapped, pts, atol=1e-9)


def _random_rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_affine_recovers_rotation(rng):
    for _ in range(10):
        src = rng.standard_normal((3, 60))
        q0 = _random_rotation(rng)
        centroid = src.mean(axis=1, keepdims=True)
        tgt = q0 @ (src - centroid) + centroid
        res = affine_map(src, tgt)
        assert np.abs(res.rotation - q0).max() < 1e-6


def test_affine_recovers_scale(rng):
    src = rng.standard_normal((3, 50))
    c = src.mean(axis=1, keepdims=True)
    tgt = 2.0 * (src - c) + c
    res = affine_map(src, tgt)
    assert res.alpha == pytest.approx(2.0, abs=1e-9)


def test_affine_degenerate_coincident_points():
    pts = np.tile(np.array([[0.3], [0.4], [0.3]]), (1, 10))
    res = affine_map(pts, pts)
    assert res.degenerate
    assert np.allclose(res.rotation, np.eye(3))
    assert res.alpha == 1.0
    assert np.all(res.translation == 0.0)


# ============================================================
# homography_map
# ============================================================

def _apply_homography(h, pts_rg1):
    """Map (r, g, 1) rows through a homography with perspective division."""
    out = h @ pts_rg1
    return out / out[2:3, :]


def _rg1(rng, k):
    pts = rng.uniform(0.1, 0.8, (2, k))
    return np.vstack([pts, np.ones(k)])


def test_homography_identity(rng):
    pts = _rg1(rng, 30)
    res = homography_map(pts, pts)
    assert np.abs(res.matrix - np.eye(3)).max() < 1e-8


def test_homography_recovers_affine_map(rng):
    pts = _rg1(rng, 40)
    a = np.array([[1.2, 0.1, 0.05], [-0.2, 0.9, 0.02], [0.0, 0.0, 1.0]])
    tgt = a @ pts
    res = homography_map(pts, tgt)
    assert np.abs(res.matrix - a / a[2, 2]).max() < 1e-6


def test_homography_recovers_projective_map(rng):
    for _ in range(5):
        h_true = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
        h_true /= h_true[2, 2]
        src = _rg1(rng, 25)
        tgt = _apply_homography(h_true, src)
        res = homography_map(src, np.vstack([tgt[0], tgt[1], np.ones(src.shape[1])]))
        assert np.abs(res.matrix - h_true).max() < 1e-6


def test_homography_exact_four_points(rng):
    h_true = np.array([[1.1, 0.05, 0.01], [0.03, 0.95, -0.02], [0.2, -0.1, 1.0]])
    src = _rg1(rng, 4)
    tgt = _apply_homography(h_true, src)
    res = homography_map(src, tgt)
    assert np.abs(res.matrix - h_true).max() < 1e-6


def test_homography_degenerate_flagged(rng):
    # all points identical: DLT system is rank deficient
    col = np.array([[0.3], [0.5], [1.0]])
    pts = np.tile(col, (1, 10))
    res = homography_map(pts, pts)
    assert res.degenerate


def test_def_vector_rejects_nonfinite():
    with pytest.raises(DomainError):
        DefVector(values=np.array([np.nan] * 15))

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duxwb.core import DualExposurePair, Illuminant, RawImage
from duxwb.def_feature import (
    COLOR_REPRS,
    MAPPINGS,
    DefConfig,
    DefVector,
    affine_map,
    compute_def,
    def_rows,
    homography_map,
    ratio_image,
)
from duxwb.errors import DomainError
from duxwb.synth import SceneSpec, render_pair

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
# affine_map, on stacks of one
# ============================================================

def _affine(src, tgt):
    """affine_map of one pair: alpha, R and T read from [alpha R | T] (the
    columns of alpha R have norm alpha)."""
    m = affine_map(src[np.newaxis], tgt[np.newaxis]).matrix[0]
    alpha = np.linalg.norm(m[:, :3]) / np.sqrt(3.0)
    return alpha, m[:, :3] / alpha, m[:, 3]


def test_affine_identity(rng):
    pts = rng.standard_normal((3, 40))
    alpha, rot, translation = _affine(pts, pts)
    assert np.allclose(rot, np.eye(3), atol=1e-8)
    assert alpha == pytest.approx(1.0, abs=1e-12)
    mapped = alpha * rot @ pts + translation[:, None]
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
        _, rot, _ = _affine(src, tgt)
        assert np.abs(rot - q0).max() < 1e-6


def test_affine_recovers_scale(rng):
    src = rng.standard_normal((3, 50))
    c = src.mean(axis=1, keepdims=True)
    tgt = 2.0 * (src - c) + c
    alpha, _, _ = _affine(src, tgt)
    assert alpha == pytest.approx(2.0, abs=1e-9)


def test_affine_degenerate_coincident_points():
    pts = np.tile(np.array([[0.3], [0.4], [0.3]]), (1, 10))
    fit = affine_map(pts[np.newaxis], pts[np.newaxis])
    assert fit.degenerate.tolist() == [True]
    assert np.all(fit.matrix[0] == np.eye(3, 4))  # alpha 1, R = I, T = 0


# ============================================================
# homography_map, on stacks of one
# ============================================================

def _homography(src, tgt):
    fit = homography_map(src[np.newaxis], tgt[np.newaxis])
    return fit.matrix[0], bool(fit.degenerate[0])


def _apply_homography(h, pts_rg1):
    """Map (r, g, 1) rows through a homography with perspective division."""
    out = h @ pts_rg1
    return out / out[2:3, :]


def _rg1(rng, k):
    pts = rng.uniform(0.1, 0.8, (2, k))
    return np.vstack([pts, np.ones(k)])


def test_homography_identity(rng):
    pts = _rg1(rng, 30)
    matrix, _ = _homography(pts, pts)
    assert np.abs(matrix - np.eye(3)).max() < 1e-8


def test_homography_recovers_affine_map(rng):
    pts = _rg1(rng, 40)
    a = np.array([[1.2, 0.1, 0.05], [-0.2, 0.9, 0.02], [0.0, 0.0, 1.0]])
    tgt = a @ pts
    matrix, _ = _homography(pts, tgt)
    assert np.abs(matrix - a / a[2, 2]).max() < 1e-6


def test_homography_recovers_projective_map(rng):
    for _ in range(5):
        h_true = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
        h_true /= h_true[2, 2]
        src = _rg1(rng, 25)
        tgt = _apply_homography(h_true, src)
        matrix, _ = _homography(src, np.vstack([tgt[0], tgt[1], np.ones(src.shape[1])]))
        assert np.abs(matrix - h_true).max() < 1e-6


def test_homography_exact_four_points(rng):
    h_true = np.array([[1.1, 0.05, 0.01], [0.03, 0.95, -0.02], [0.2, -0.1, 1.0]])
    src = _rg1(rng, 4)
    tgt = _apply_homography(h_true, src)
    matrix, _ = _homography(src, tgt)
    assert np.abs(matrix - h_true).max() < 1e-6


def test_homography_degenerate_flagged(rng):
    # all points identical: DLT system is rank deficient
    col = np.array([[0.3], [0.5], [1.0]])
    pts = np.tile(col, (1, 10))
    _, degenerate = _homography(pts, pts)
    assert degenerate


# ============================================================
# def_rows: each row of a stack is its pair alone
# ============================================================

_PAIR_KINDS = ("rendered", "invalid", "gray", "constant")


def _stack_pair(kind: str, h: int, w: int, seed: int) -> tuple:
    """The (3, h*w) long and short frames of one pair of the given kind."""
    rng = np.random.default_rng(seed)
    if kind == "constant":
        long, short = (np.full((3, h * w), v) for v in rng.uniform(0.0, 1.0, 2))
        return long, short
    pair = render_pair(SceneSpec(width=w, height=h), 8.0, seed)
    long, short = pair.long.as_matrix().copy(), pair.short.as_matrix().copy()
    if kind == "invalid":  # zeroed channels and pixels, in one frame or both
        for frame in (long, short)[rng.integers(0, 2):]:
            frame[rng.integers(0, 3, h * w // 3), rng.integers(0, h * w, h * w // 3)] = 0.0
    elif kind == "gray":  # one channel repeated: a rank-1 source
        long, short = long[[1, 1, 1]], short[[1, 1, 1]]
    return long, short


@settings(derandomize=True, max_examples=60, deadline=None)
@given(kinds=st.lists(st.sampled_from(_PAIR_KINDS), min_size=1, max_size=5),
       size=st.sampled_from([(4, 4), (6, 8), (5, 12)]), seed=st.integers(0, 2**16))
def test_def_rows_gives_each_row_the_bits_of_its_pair_alone(kinds, size, seed):
    """For every mapping and color representation, each row of a mixed stack
    (rendered pairs, pairs with invalid pixels, gray rank-deficient pairs,
    constant frames) has the features and degeneracy flag of a stack of one."""
    pairs = [_stack_pair(kind, *size, seed + i) for i, kind in enumerate(kinds)]
    longs, shorts = (np.stack(frames) for frames in zip(*pairs))
    for mapping in MAPPINGS:
        for color_repr in COLOR_REPRS:
            cfg = DefConfig(color_repr=color_repr, mapping=mapping)
            values, degenerate = def_rows(longs, shorts, cfg)
            for i in range(len(kinds)):
                alone, alone_degenerate = def_rows(longs[i:i + 1], shorts[i:i + 1], cfg)
                assert values[i].tobytes() == alone[0].tobytes(), (mapping, color_repr, kinds[i])
                assert degenerate[i] == alone_degenerate[0], (mapping, color_repr, kinds[i])


def test_def_vector_rejects_nonfinite():
    with pytest.raises(DomainError):
        DefVector(values=np.array([np.nan] * 15))

import numpy as np
import pytest

from duxwb.core import Illuminant, RawImage, angular_error
from duxwb.errors import DomainError, EmptyHistogramError
from duxwb.histogram import (
    CHROMA_MAX,
    CHROMA_MIN,
    ChromaHistogram,
    bin_centers,
    bin_width,
    build_histogram,
    decode_uv,
    illuminant_to_uv,
)


def test_bin_width_exact_value():
    assert bin_width(64) == 0.0890625


def test_single_gray_pixel():
    c = 0.4
    img = RawImage(np.full((3, 1, 1), c))
    hist = build_histogram(img)
    assert hist.total_mass == pytest.approx(c * np.sqrt(3.0), rel=1e-12)
    # (u, v) = (0, 0) falls in the bin whose center interval contains zero
    idx = int(np.floor((0.0 - CHROMA_MIN) / bin_width(64)))
    assert hist.mass[idx, idx] == hist.total_mass


def test_two_identical_pixels_double_mass():
    one = RawImage(np.array([0.2, 0.5, 0.3]).reshape(3, 1, 1))
    two = RawImage(np.tile(one.data, (1, 1, 2)))
    h1 = build_histogram(one)
    h2 = build_histogram(two)
    assert np.allclose(h2.mass, 2.0 * h1.mass)


def test_mass_conservation(rng):
    for _ in range(20):
        img = RawImage(rng.uniform(0.0, 1.0, (3, 10, 10)))
        hist = build_histogram(img)
        m = img.as_matrix()
        valid = (m[0] > 0) & (m[1] > 0) & (m[2] > 0)
        expected = np.sqrt((m[:, valid] ** 2).sum(axis=0)).sum()
        assert hist.total_mass == pytest.approx(expected, rel=1e-6)
        assert hist.skipped == int((~valid).sum())


def test_nonpositive_pixels_skipped():
    img = RawImage(np.array([[0.0, 0.5], [0.5, 0.5], [0.5, 0.5]]).reshape(3, 1, 2))
    hist = build_histogram(img)
    assert hist.skipped == 1
    assert hist.total_mass == pytest.approx(np.sqrt(3 * 0.25))


def test_out_of_range_chroma_clamps_to_edges():
    # extreme ratio pushes u far beyond the boundary
    img = RawImage(np.array([1e-6, 1.0, 1.0]).reshape(3, 1, 1))
    hist = build_histogram(img)
    assert hist.total_mass > 0
    assert hist.mass[63].sum() == hist.total_mass  # u clamps to the last bin


def test_empty_histogram_normalize_raises():
    img = RawImage(np.zeros((3, 4, 4)))
    hist = build_histogram(img)
    assert hist.total_mass == 0.0
    with pytest.raises(EmptyHistogramError):
        hist.normalized()


def test_normalized_unit_mass(rng):
    img = RawImage(rng.uniform(0.1, 1.0, (3, 8, 8)))
    assert build_histogram(img).normalized().sum() == pytest.approx(1.0, abs=1e-12)


def test_histogram_rejects_negative_mass():
    with pytest.raises(DomainError):
        ChromaHistogram(mass=-np.ones((4, 4)))


def test_bin_centers_symmetric():
    centers = bin_centers(64)
    assert centers.sum() == pytest.approx(0.0, abs=1e-12)
    assert centers[0] == pytest.approx(CHROMA_MIN + 0.5 * bin_width(64))
    assert centers[-1] == pytest.approx(CHROMA_MAX - 0.5 * bin_width(64))


def test_uv_round_trip_continuous(rng):
    for _ in range(100):
        ill = rng.uniform(0.1, 1.0, 3)
        u, v = illuminant_to_uv(ill)
        back = decode_uv(u, v)
        # direction is recovered exactly up to exp/log rounding
        assert np.allclose(back / back[1], ill / ill[1], rtol=1e-12)
        assert np.linalg.norm(back) == pytest.approx(1.0, abs=1e-12)


def test_uv_encoding_requires_positive_channels():
    with pytest.raises(DomainError):
        illuminant_to_uv(np.array([0.0, 1.0, 1.0]))


def test_gray_pixel_maps_to_illuminant_bin():
    # a gray surface under illuminant L produces pixel = L, so the pixel's
    # (u, v) equals the illuminant's encoding
    ill = Illuminant(0.8, 1.0, 0.6)
    img = RawImage(np.array([ill.r, ill.g, ill.b]).reshape(3, 1, 1))
    hist = build_histogram(img)
    u, v = illuminant_to_uv(ill)
    eps = bin_width(64)
    iu = int(np.floor((u - CHROMA_MIN) / eps))
    iv = int(np.floor((v - CHROMA_MIN) / eps))
    assert hist.mass[iu, iv] == hist.total_mass


def _reference_histogram(img: RawImage, bins: int):
    """build_histogram's formula with the masking copies taken on every frame."""
    m = img.as_matrix()
    r, g, b = m[0], m[1], m[2]
    valid = (r > 0.0) & (g > 0.0) & (b > 0.0)
    skipped = int(m.shape[1] - np.count_nonzero(valid))
    if not valid.any():
        return np.zeros((bins, bins)), skipped
    safe_r = np.where(valid, r, 1.0)
    safe_g = np.where(valid, g, 1.0)
    safe_b = np.where(valid, b, 1.0)
    inv_eps = 1.0 / bin_width(bins)
    iu = np.clip(((np.log(safe_g / safe_r) - CHROMA_MIN) * inv_eps).astype(np.intp), 0, bins - 1)
    iv = np.clip(((np.log(safe_g / safe_b) - CHROMA_MIN) * inv_eps).astype(np.intp), 0, bins - 1)
    w = np.sqrt(r * r + g * g + b * b) * valid
    return np.bincount(iu * bins + iv, weights=w, minlength=bins * bins).reshape(bins, bins), skipped


def _frame(kind: str) -> RawImage:
    rng = np.random.default_rng(7)
    data = rng.uniform(0.0, 1.0, size=(3, 48, 40)) ** 3  # wide chroma range, edge bins included
    data[data == 0.0] = 1e-9
    # pixels within a few ulps of every 64-bin edge in u and in v (the 16-bin
    # edges are among them): a reordered formula moves some across an edge
    edges = np.linspace(CHROMA_MIN, CHROMA_MAX, 65)
    near = (np.exp(-edges)[:, None] * (1.0 + np.arange(-4, 5) * 2.2e-16)).ravel()
    flat = data.reshape(3, -1)
    flat[1, :near.size] = 0.05
    flat[0, :near.size] = 0.05 * near
    flat[2, :near.size] = 0.05 * near[::-1]
    if kind == "invalid_18pct":
        dark = rng.uniform(size=(48, 40)) < 0.18
        data[rng.integers(0, 3, size=int(dark.sum())), dark] = 0.0
    elif kind == "one_valid":
        data[1] = 0.0
        data[1, 5, 7] = 0.3
    elif kind == "none_valid":
        data[2] = 0.0
    return RawImage(data)


@pytest.mark.parametrize("bins", [16, 64])
@pytest.mark.parametrize("kind", ["all_valid", "invalid_18pct", "one_valid", "none_valid"])
def test_histogram_matches_masked_formula_bitwise(kind, bins):
    img = _frame(kind)
    hist = build_histogram(img, bins)
    mass, skipped = _reference_histogram(img, bins)
    assert np.array_equal(hist.mass, mass)
    assert hist.skipped == skipped
    n = img.as_matrix().shape[1]
    expected_skipped = {"all_valid": 0, "one_valid": n - 1, "none_valid": n}.get(kind)
    if expected_skipped is None:
        assert 0.15 * n < skipped < 0.21 * n
    else:
        assert skipped == expected_skipped

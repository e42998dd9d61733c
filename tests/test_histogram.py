import numpy as np
import pytest

from duxwb.core import Illuminant, RawImage, angular_error
from duxwb.errors import DomainError, EmptyHistogramError
from duxwb.histogram import (
    CHROMA_MAX,
    CHROMA_MIN,
    bin_centers,
    bin_width,
    build_histogram,
    decode_uv,
    illuminant_to_uv,
    unit_mass,
)

from conftest import reference_histogram


def _mass(img: RawImage, bins: int = 64) -> np.ndarray:
    """The (bins, bins) grid of one image: build_histogram on a stack of one."""
    return build_histogram(img.as_matrix()[np.newaxis], bins)[0]


def test_bin_width_exact_value():
    assert bin_width(64) == 0.0890625


def test_single_gray_pixel():
    c = 0.4
    img = RawImage(np.full((3, 1, 1), c))
    mass = _mass(img)
    assert mass.sum() == pytest.approx(c * np.sqrt(3.0), rel=1e-12)
    # (u, v) = (0, 0) falls in the bin whose center interval contains zero
    idx = int(np.floor((0.0 - CHROMA_MIN) / bin_width(64)))
    assert mass[idx, idx] == mass.sum()


def test_two_identical_pixels_double_mass():
    one = RawImage(np.array([0.2, 0.5, 0.3]).reshape(3, 1, 1))
    two = RawImage(np.tile(one.data, (1, 1, 2)))
    assert np.allclose(_mass(two), 2.0 * _mass(one))


def test_mass_conservation(rng):
    for _ in range(20):
        img = RawImage(rng.uniform(0.0, 1.0, (3, 10, 10)))
        m = img.as_matrix()
        valid = (m[0] > 0) & (m[1] > 0) & (m[2] > 0)
        expected = np.sqrt((m[:, valid] ** 2).sum(axis=0)).sum()
        assert _mass(img).sum() == pytest.approx(expected, rel=1e-6)


def test_nonpositive_pixels_skipped():
    img = RawImage(np.array([[0.0, 0.5], [0.5, 0.5], [0.5, 0.5]]).reshape(3, 1, 2))
    mass = _mass(img)
    assert np.count_nonzero(mass) == 1  # the gray pixel's bin alone
    assert mass.sum() == pytest.approx(np.sqrt(3 * 0.25))


def test_out_of_range_chroma_clamps_to_edges():
    # extreme ratio pushes u far beyond the boundary
    img = RawImage(np.array([1e-6, 1.0, 1.0]).reshape(3, 1, 1))
    mass = _mass(img)
    assert mass.sum() > 0
    assert mass[63].sum() == mass.sum()  # u clamps to the last bin


def test_empty_histogram_normalize_raises():
    masses = build_histogram(np.zeros((1, 3, 16)))
    assert masses.sum() == 0.0
    with pytest.raises(EmptyHistogramError):
        unit_mass(masses)


def test_normalized_unit_mass(rng):
    img = RawImage(rng.uniform(0.1, 1.0, (3, 8, 8)))
    assert unit_mass(_mass(img)[np.newaxis])[0].sum() == pytest.approx(1.0, abs=1e-12)


def test_negative_channels_deposit_no_mass(rng):
    frames = rng.uniform(-1.0, 1.0, (4, 3, 50))
    masses = build_histogram(frames, 16)
    assert masses.shape == (4, 16, 16)
    assert (masses >= 0.0).all()
    valid = (frames > 0.0).all(axis=1)
    expected = np.sqrt((frames ** 2).sum(axis=1)) * valid
    assert np.allclose(masses.sum(axis=(1, 2)), expected.sum(axis=1), rtol=1e-12)


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
    mass = _mass(img)
    u, v = illuminant_to_uv(ill)
    eps = bin_width(64)
    iu = int(np.floor((u - CHROMA_MIN) / eps))
    iv = int(np.floor((v - CHROMA_MIN) / eps))
    assert mass[iu, iv] == mass.sum()


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
    mass, skipped = reference_histogram(img, bins)
    assert np.array_equal(_mass(img, bins), mass)
    n = img.as_matrix().shape[1]
    expected_skipped = {"all_valid": 0, "one_valid": n - 1, "none_valid": n}.get(kind)
    if expected_skipped is None:
        assert 0.15 * n < skipped < 0.21 * n
    else:
        assert skipped == expected_skipped


@pytest.mark.parametrize("bins", [16, 64])
def test_stack_matches_masked_formula_per_frame_bitwise(bins):
    kinds = ["all_valid", "invalid_18pct", "one_valid", "none_valid"]
    frames = np.stack([_frame(kind).as_matrix() for kind in kinds])
    expected = np.stack([reference_histogram(_frame(kind), bins)[0] for kind in kinds])
    assert build_histogram(frames, bins).tobytes() == expected.tobytes()

import numpy as np
import pytest

from duxwb.core import (
    DualExposurePair,
    Illuminant,
    RawImage,
    angular_error,
    angular_errors,
    bilinear_upsample,
    check_frames,
    check_illuminants,
    chromaticity_matrix,
    interp_matrix,
    pinv_map,
    unit_illuminants,
)
from duxwb.errors import DomainError

from conftest import covariance3


# ============================================================
# angular_error
# ============================================================

def test_angular_error_parallel():
    assert angular_error([0.5, 0.5, 0.5], [2.0, 2.0, 2.0]) == pytest.approx(0.0, abs=1e-9)


def test_angular_error_orthogonal():
    assert angular_error([1, 0, 0], [0, 1, 0]) == pytest.approx(90.0, abs=1e-12)


def test_angular_error_known_value():
    # acos(2/sqrt(6)) in degrees, evaluated independently at high precision
    expected = np.degrees(np.arccos(2.0 / np.sqrt(6.0)))
    assert angular_error([1, 1, 1], [1, 1, 0]) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(35.26438968, abs=1e-6)


def test_angular_error_symmetry_and_scale_invariance(rng):
    for _ in range(200):
        a = rng.uniform(0.01, 1.0, 3)
        b = rng.uniform(0.01, 1.0, 3)
        s, t = rng.uniform(0.1, 10.0, 2)
        assert angular_error(a, b) == pytest.approx(angular_error(b, a), abs=1e-12)
        assert angular_error(s * a, t * b) == pytest.approx(angular_error(a, b), abs=1e-9)


def test_angular_error_accepts_illuminants():
    a = Illuminant(1.0, 0.0, 0.0)
    b = Illuminant(0.0, 2.0, 0.0)
    assert angular_error(a, b) == pytest.approx(90.0)


def test_angular_error_zero_vector_raises():
    with pytest.raises(DomainError):
        angular_error([0, 0, 0], [1, 1, 1])


def test_angular_errors_rows_have_the_1d_formula_bits(rng):
    a = rng.uniform(0.0, 1.0, (500, 3)) * rng.choice([1e-3, 1.0, 1e3], (500, 1))
    b = rng.uniform(0.0, 1.0, (500, 3))
    b[:5] = a[:5] * 7.0  # parallel rows, whose cosine may round past 1

    def one(va, vb):
        c = float(np.dot(va, vb) / (np.linalg.norm(va) * np.linalg.norm(vb)))
        return float(np.degrees(np.arccos(min(1.0, max(-1.0, c)))))

    want = [one(va, vb) for va, vb in zip(a, b)]
    assert angular_errors(a, b).tolist() == want
    assert [angular_error(va, vb) for va, vb in zip(a, b)] == want


@pytest.mark.parametrize("row", [[np.nan, 1.0, 1.0], [np.inf, 0.0, 0.0], [1.0, -np.inf, 1.0], [0.2, -0.1, 1.0],
                                 [0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [1.0, 0.0, 0.0], [1e-300, 0.0, 0.0]])
def test_check_illuminants_agrees_with_illuminant(row):
    rows = np.array([[0.3, 0.4, 0.5], row, [1.0, 1.0, 1.0]])
    try:
        Illuminant.from_array(row)
    except DomainError as exc:
        with pytest.raises(DomainError, match=f"^s1: {exc}$"):
            check_illuminants(rows, ["s0", "s1", "s2"])
        with pytest.raises(DomainError, match=f"^{exc}$"):
            check_illuminants(rows)
    else:
        assert check_illuminants(rows) is rows


def test_unit_illuminants_have_the_bits_of_normalized(rng):
    rows = rng.uniform(0.0, 1.0, (300, 3)) * rng.choice([1e-6, 1.0, 1e6], (300, 1))
    want = np.stack([Illuminant.from_array(r).normalized().as_array() for r in rows])
    assert unit_illuminants(rows).tobytes() == want.tobytes()
    assert unit_illuminants(rows.tolist()).tobytes() == want.tobytes()


def test_check_frames_reports_what_raw_image_reports():
    stack = np.full((4, 3, 5, 6), 0.5)
    check_frames(stack)
    for bad, message in ((np.nan, "non-finite"), (-1.0, "negative")):
        stack[2, 1, 3, 4] = bad
        with pytest.raises(DomainError, match=message):
            check_frames(stack)
        with pytest.raises(DomainError, match=message):
            RawImage(stack[2])
        check_frames(stack[:2])
        stack[2, 1, 3, 4] = 0.5


# ============================================================
# Illuminant / RawImage / DualExposurePair invariants
# ============================================================

def test_illuminant_rejects_bad_values():
    with pytest.raises(DomainError):
        Illuminant(0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        Illuminant(-1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        Illuminant(float("nan"), 1.0, 1.0)


def test_illuminant_normalized():
    ill = Illuminant(3.0, 4.0, 0.0).normalized()
    assert np.linalg.norm(ill.as_array()) == pytest.approx(1.0, abs=1e-12)


def test_raw_image_invariants():
    with pytest.raises(DomainError):
        RawImage(np.ones((2, 4, 4)))
    with pytest.raises(DomainError):
        RawImage(-np.ones((3, 4, 4)))
    with pytest.raises(DomainError):
        RawImage(np.full((3, 4, 4), np.inf))
    img = RawImage(np.zeros((3, 5, 7)))
    assert img.height == 5 and img.width == 7 and img.pixel_count == 35


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_raw_image_non_finite_reported_before_negative(bad):
    data = np.full((3, 4, 4), 0.5)
    data[0, 0, 0] = -1.0
    data[2, 3, 3] = bad
    with pytest.raises(DomainError, match="non-finite"):
        RawImage(data)
    data[2, 3, 3] = 0.5
    with pytest.raises(DomainError, match="negative"):
        RawImage(data)


def test_raw_image_with_zero_pixels():
    img = RawImage(np.zeros((3, 0, 7), dtype=np.float32))
    assert img.data.dtype == np.float64 and img.pixel_count == 0


def test_pair_requires_matching_shapes():
    a = RawImage(np.zeros((3, 4, 4)))
    b = RawImage(np.zeros((3, 4, 5)))
    with pytest.raises(DomainError):
        DualExposurePair(long=a, short=b, exposure_factor=2.0)
    with pytest.raises(DomainError):
        DualExposurePair(long=a, short=a, exposure_factor=1.0)


# ============================================================
# chromaticity_matrix
# ============================================================

def test_chromaticity_gray_pixel():
    out = chromaticity_matrix(np.full((3, 1), 0.2), eps=0.0)
    assert np.allclose(out, 1.0 / 3.0)


def test_chromaticity_unit_sum_identity():
    out = chromaticity_matrix(np.array([[0.6], [0.3], [0.1]]), eps=0.0)
    assert np.allclose(out.reshape(3), [0.6, 0.3, 0.1])


def test_chromaticity_zero_pixel_stays_zero():
    m = np.zeros((3, 1))
    assert np.all(chromaticity_matrix(m, eps=1e-6) == 0.0)
    assert np.all(chromaticity_matrix(m, eps=0.0) == 0.0)


def test_chromaticity_sums_bounded(rng):
    out = chromaticity_matrix(rng.uniform(0.0, 1.0, (3, 36)), eps=1e-6)
    assert np.all(out.sum(axis=0) <= 1.0 + 1e-12)


# ============================================================
# pinv_map
# ============================================================

def test_pinv_identity(rng):
    src = rng.uniform(0.1, 1.0, (1, 3, 50))
    res = pinv_map(src, src)
    assert np.allclose(res.matrix, np.eye(3), atol=1e-10)
    assert res.degenerate.tolist() == [False]


def test_pinv_exact_diagonal(rng):
    src = rng.uniform(0.1, 1.0, (3, 50))
    d = np.diag([2.0, 3.0, 4.0])
    res = pinv_map(src, d @ src)
    assert np.allclose(res.matrix, d, atol=1e-9)


def _lstsq_gd_oracle(source, target, iters=5000):
    """Steepest descent with exact quadratic line search, independent of SVD."""
    c = np.zeros((3, 3))
    sst = source @ source.T
    tst = target @ source.T
    for _ in range(iters):
        grad = 2.0 * (c @ sst - tst)
        gn = np.sum(grad * grad)
        if gn < 1e-24:
            break
        denom = 2.0 * np.sum(grad * (grad @ sst))
        step = gn / denom
        c = c - step * grad
    return c


def test_pinv_matches_iterative_least_squares(rng):
    for _ in range(10):
        src = rng.standard_normal((3, 100)) + 2.0
        tgt = rng.standard_normal((3, 100))
        res = pinv_map(src, tgt)
        oracle = _lstsq_gd_oracle(src, tgt)
        r_pinv = np.linalg.norm(res.matrix @ src - tgt)
        r_gd = np.linalg.norm(oracle @ src - tgt)
        assert abs(r_pinv - r_gd) < 1e-6
        assert r_pinv <= r_gd + 1e-9


def test_pinv_optimality_against_perturbations(rng):
    src = rng.uniform(0.1, 1.0, (3, 60))
    tgt = rng.uniform(0.1, 1.0, (3, 60))
    res = pinv_map(src, tgt)
    best = np.linalg.norm(res.matrix @ src - tgt)
    for _ in range(1000):
        perturbed = res.matrix + rng.standard_normal((3, 3)) * 10 ** rng.uniform(-6, 0)
        assert np.linalg.norm(perturbed @ src - tgt) >= best - 1e-12


def test_pinv_rank_deficient_flagged(rng):
    row = rng.uniform(0.1, 1.0, 20)
    src = np.vstack([row, row, row])  # rank 1
    tgt = rng.uniform(0.1, 1.0, (3, 20))
    res = pinv_map(src[np.newaxis], tgt[np.newaxis])
    assert res.degenerate.tolist() == [True]
    assert np.all(np.isfinite(res.matrix))
    # minimum norm: directions the source never spans map to zero
    null = np.linalg.svd(src)[0][:, 1:]
    assert np.abs(res.matrix[0] @ null).max() < 1e-12


def test_pinv_requires_min_pixels():
    with pytest.raises(DomainError):
        pinv_map(np.ones((3, 2)), np.ones((3, 2)))


# ============================================================
# covariance_triu, through the test-local covariance3
# ============================================================

def test_covariance_constant_columns():
    x = np.tile(np.array([[1.0], [2.0], [3.0]]), (1, 10))
    assert np.all(covariance3(x) == 0.0)


def test_covariance_hand_example():
    x = np.array([[1.0, -1.0], [0.0, 0.0], [0.0, 0.0]])
    cov = covariance3(x)
    assert np.allclose(cov, np.diag([1.0, 0.0, 0.0]))


def test_covariance_matches_double_loop_oracle(rng):
    x = rng.standard_normal((3, 50))
    cov = covariance3(x)
    mean = [sum(x[i]) / 50 for i in range(3)]
    oracle = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            acc = 0.0
            for t in range(50):
                acc += (x[i, t] - mean[i]) * (x[j, t] - mean[j])
            oracle[i, j] = acc / 50
    assert np.abs(cov - oracle).max() < 1e-10


def test_covariance_bitwise_symmetric(rng):
    for _ in range(20):
        cov = covariance3(rng.standard_normal((3, 37)))
        assert np.array_equal(cov, cov.T)
        eig = np.linalg.eigvalsh(cov)
        assert eig.min() > -1e-12


# ============================================================
# bilinear_upsample
# ============================================================

def test_upsample_constant():
    out = bilinear_upsample(np.full((4, 4), 7.0), 4)
    assert out.shape == (16, 16)
    assert np.allclose(out, 7.0)


def test_upsample_factor_one_identity(rng):
    grid = rng.standard_normal((5, 5))
    assert np.array_equal(bilinear_upsample(grid, 1), grid)


def test_upsample_closed_form_ramp():
    grid = np.array([[0.0, 1.0], [0.0, 1.0]])
    out = bilinear_upsample(grid, 2)
    expected_row = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    for r in range(4):
        assert np.allclose(out[r], expected_row)


def test_upsample_preserves_range(rng):
    for _ in range(20):
        m = int(rng.integers(2, 9))
        factor = int(rng.integers(1, 5))
        grid = rng.standard_normal((m, m))
        out = bilinear_upsample(grid, factor)
        assert out.min() >= grid.min() - 1e-12
        assert out.max() <= grid.max() + 1e-12


def test_interp_matrix_rows_sum_to_one(rng):
    m = interp_matrix(16, 64)
    assert np.allclose(m.sum(axis=1), 1.0)
    assert m.shape == (64, 16)

"""Core image/color types and the small dense linear algebra the estimators need.

Everything here is a pure function over immutable inputs. Images are planar
float arrays of shape (3, height, width), normalized so the sensor white level
is 1.0. Reductions rely on numpy's fixed-order kernels, so results are
bit-reproducible on a given platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError

# Singular values below RANK_TOL * sigma_max are truncated in pseudoinverse
# paths. The pseudoinverse runs through the 3x3 Gram eigenproblem (the 3 x k
# SVD factors, without materializing the k-sided factor), whose eigenvalues
# resolve to ~1e-15 of the largest; the threshold sits safely above that.
RANK_TOL = 1e-7


# ============================================================
# Domain types
# ============================================================

@dataclass(frozen=True)
class Illuminant:
    """RGB color of the global scene light; direction is what matters, not scale."""

    r: float
    g: float
    b: float

    def __post_init__(self):
        v = np.array([self.r, self.g, self.b], dtype=np.float64)
        if not np.all(np.isfinite(v)):
            raise DomainError("illuminant components must be finite")
        if np.any(v < 0.0):
            raise DomainError("illuminant components must be nonnegative")
        if not np.any(v > 0.0):
            raise DomainError("illuminant must have at least one positive component")

    @classmethod
    def from_array(cls, v) -> "Illuminant":
        v = np.asarray(v, dtype=np.float64).reshape(3)
        return cls(float(v[0]), float(v[1]), float(v[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.r, self.g, self.b], dtype=np.float64)

    def normalized(self) -> "Illuminant":
        """Canonical unit-Euclidean-norm form."""
        v = self.as_array()
        return Illuminant.from_array(v / np.linalg.norm(v))


@dataclass
class RawImage:
    """Planar 3-channel nonnegative raw image, values in [0, 1] after normalization."""

    data: np.ndarray  # shape (3, height, width), float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3 or self.data.shape[0] != 3:
            raise DomainError(f"raw image must have shape (3, h, w), got {self.data.shape}")
        if self.data.size == 0:
            return
        # two reductions instead of two full-size boolean temporaries: NaN
        # propagates through both, and an infinity surfaces as an extreme
        lo, hi = self.data.min(), self.data.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise DomainError("raw image contains non-finite values")
        if lo < 0.0:
            raise DomainError("raw image contains negative values")

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def pixel_count(self) -> int:
        return self.height * self.width

    def as_matrix(self) -> np.ndarray:
        """View the image as a 3 x k matrix of pixel columns."""
        return self.data.reshape(3, -1)

    @classmethod
    def from_matrix(cls, m: np.ndarray, height: int, width: int) -> "RawImage":
        return cls(np.asarray(m, dtype=np.float64).reshape(3, height, width))


@dataclass
class DualExposurePair:
    """Aligned long/short exposure frames of one scene, plus the exposure factor."""

    long: RawImage
    short: RawImage
    exposure_factor: float
    ground_truth: Optional[Illuminant] = None

    def __post_init__(self):
        if self.long.data.shape != self.short.data.shape:
            raise DomainError("long and short frames must have identical dimensions")
        if not self.exposure_factor > 1.0:
            raise DomainError("exposure factor must exceed 1")


# ============================================================
# Angular error and chromaticity
# ============================================================

def _as_vec3(v) -> np.ndarray:
    if isinstance(v, Illuminant):
        return v.as_array()
    return np.asarray(v, dtype=np.float64).reshape(3)


def angular_error(a, b) -> float:
    """Angle between two color vectors in degrees; symmetric and scale-invariant."""
    va, vb = _as_vec3(a), _as_vec3(b)
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na < 1e-300 or nb < 1e-300:
        raise DomainError("angular error undefined for zero-norm vectors")
    c = float(np.dot(va, vb) / (na * nb))
    c = min(1.0, max(-1.0, c))
    return float(np.degrees(np.arccos(c)))


def chromaticity_matrix(m: np.ndarray, eps: float) -> np.ndarray:
    """rgb-chromaticity of a 3 x k matrix; zero pixels stay zero."""
    if eps < 0.0:
        raise DomainError("eps must be nonnegative")
    denom = m[0] + m[1] + m[2] + eps
    if eps == 0.0:
        safe = np.where(denom > 0.0, denom, 1.0)
        return m / safe
    return m / denom


def to_rgb_chromaticity(img: RawImage, eps: float = 0.0) -> RawImage:
    """Divide each pixel by its channel sum (plus eps), removing intensity."""
    out = chromaticity_matrix(img.as_matrix(), eps)
    return RawImage.from_matrix(out, img.height, img.width)


# ============================================================
# Small dense linear algebra
# ============================================================

class PinvResult(NamedTuple):
    matrix: np.ndarray  # 3x3 least-squares map
    rank: int           # numerical rank of the source
    degenerate: bool    # rank < 3: minimum-norm solution was used


def pinv_map(source: np.ndarray, target: np.ndarray) -> PinvResult:
    """Best 3x3 map C minimizing ||C @ source - target||_F via the pseudoinverse.

    Singular values of the source below RANK_TOL * sigma_max are truncated,
    which yields the minimum-norm solution on rank-deficient data instead of
    an error; the deficiency is reported in the result.

    The SVD factors come from the eigendecomposition of the 3x3 Gram matrix
    (U = eigenvectors, sigma^2 = eigenvalues), so the cost stays O(k) with a
    tiny constant even for megapixel inputs.
    """
    source = np.asarray(source, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if source.ndim != 2 or source.shape[0] != 3 or target.shape != source.shape:
        raise DomainError("pinv_map expects matching 3 x k matrices")
    if source.shape[1] < 3:
        raise DomainError("pinv_map requires k >= 3 pixels")
    gram = source @ source.T
    cross = target @ source.T
    evals, u = np.linalg.eigh(gram)
    lam_max = evals[-1] if evals.size else 0.0
    keep = evals > (RANK_TOL * RANK_TOL) * lam_max if lam_max > 0.0 else np.zeros(3, dtype=bool)
    inv_lam = np.where(keep, 1.0 / np.where(keep, evals, 1.0), 0.0)
    # C = target @ pinv(source) = (target S^T) U diag(1/sigma^2) U^T
    c = (cross @ u) * inv_lam[np.newaxis, :] @ u.T
    rank = int(np.count_nonzero(keep))
    return PinvResult(matrix=c, rank=rank, degenerate=rank < 3)


def covariance3(x: np.ndarray) -> np.ndarray:
    """Population covariance E[(X-E[X])(X-E[X])^T] of a 3 x k sample matrix.

    The upper triangle is computed once and mirrored, so the output is
    bitwise symmetric.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != 3:
        raise DomainError("covariance3 expects a 3 x k matrix")
    k = x.shape[1]
    if k < 2:
        raise DomainError("covariance3 requires k >= 2 samples")
    xc = x - x.mean(axis=1, keepdims=True)
    cov = np.empty((3, 3), dtype=np.float64)
    for i in range(3):
        for j in range(i, 3):
            v = float(np.dot(xc[i], xc[j])) / k
            cov[i, j] = v
            cov[j, i] = v
    return cov


def interp_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Align-corners linear interpolation matrix mapping n_in samples to n_out."""
    if n_in < 1 or n_out < 1:
        raise DomainError("interpolation sizes must be positive")
    m = np.zeros((n_out, n_in), dtype=np.float64)
    if n_in == 1:
        m[:, 0] = 1.0
        return m
    if n_out == 1:
        m[0, 0] = 1.0
        return m
    scale = (n_in - 1) / (n_out - 1)
    for j in range(n_out):
        x = j * scale
        i0 = min(int(np.floor(x)), n_in - 2)
        frac = x - i0
        m[j, i0] = 1.0 - frac
        m[j, i0 + 1] = frac
    return m


def bilinear_upsample(grid: np.ndarray, factor: int) -> np.ndarray:
    """Upscale an m x m grid to (m*factor) x (m*factor) with align-corners bilinear."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise DomainError("bilinear_upsample expects a square grid")
    if grid.shape[0] < 2:
        raise DomainError("bilinear_upsample requires m >= 2")
    if factor < 1:
        raise DomainError("factor must be >= 1")
    if factor == 1:
        return grid.copy()
    m = grid.shape[0]
    r = interp_matrix(m, m * factor)
    return r @ grid @ r.T

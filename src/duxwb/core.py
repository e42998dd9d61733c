"""Core image/color types and the small dense linear algebra the estimators need.

Everything here is a pure function over immutable inputs. Images are planar
float arrays of shape (3, height, width), normalized so the sensor white level
is 1.0. Reductions rely on numpy's fixed-order kernels, so results are
bit-reproducible on a given platform.
"""

from __future__ import annotations

import math
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
        # plain float checks: every ground truth and estimate passes here
        v = (self.r, self.g, self.b)
        if not all(map(math.isfinite, v)):
            raise DomainError("illuminant components must be finite")
        if min(v) < 0.0:
            raise DomainError("illuminant components must be nonnegative")
        if not max(v) > 0.0:
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
        if self.data.size:
            check_frames(self.data)

    @classmethod
    def of_checked(cls, data: np.ndarray) -> "RawImage":
        """A RawImage over float64 (3, h, w) data whose values have passed
        check_frames, such as a view into a checked frame stack: no copy and no
        second pass."""
        img = cls.__new__(cls)
        img.data = data
        return img

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
# Frame, illuminant and angular-error checks over stacks
# ============================================================

def check_frames(data: np.ndarray) -> None:
    """Raise DomainError unless every value of an image, or of a whole stack
    of them, is finite and nonnegative. Two reductions instead of two
    full-size boolean temporaries: NaN propagates through both, and an
    infinity surfaces as an extreme."""
    lo, hi = data.min(), data.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("raw image contains non-finite values")
    if lo < 0.0:
        raise DomainError("raw image contains negative values")


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (B, 3) array, with the bits of the 1-D
    np.linalg.norm of that row (a dot product; norm(axis=1) rounds otherwise)."""
    return np.sqrt(np.vecdot(v, v))


def check_illuminants(rows: np.ndarray, names=None) -> np.ndarray:
    """Illuminant's checks on every row of an (N, 3) array at once. The first
    failing row raises the DomainError Illuminant raises for it, prefixed by
    its name from names when given. Returns rows."""
    lo, hi = rows.min(axis=1), rows.max(axis=1)
    ok = (lo >= 0.0) & (hi > 0.0) & (hi < math.inf)  # False on NaN, like each check
    if not ok.all():
        i = int(np.argmin(ok))
        try:
            Illuminant.from_array(rows[i])
        except DomainError as exc:
            raise DomainError(str(exc) if names is None else f"{names[i]}: {exc}") from None
    return rows


def unit_illuminants(rows, names=None) -> np.ndarray:
    """Illuminant.from_array(row).normalized() for every row of an (N, 3)
    array, checks and bits included, as one (N, 3) float64 array."""
    rows = check_illuminants(np.asarray(rows, dtype=np.float64).reshape(-1, 3), names)
    return check_illuminants(rows / row_norms(rows)[:, np.newaxis], names)


def _as_vec3(v) -> np.ndarray:
    if isinstance(v, Illuminant):
        return v.as_array()
    return np.asarray(v, dtype=np.float64).reshape(3)


def angular_errors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angle in degrees between matching rows of two (N, 3) arrays; symmetric
    and scale-invariant. A zero-norm row raises DomainError."""
    na, nb = row_norms(a), row_norms(b)
    if np.any(na < 1e-300) or np.any(nb < 1e-300):
        raise DomainError("angular error undefined for zero-norm vectors")
    c = np.clip(np.vecdot(a, b) / (na * nb), -1.0, 1.0)
    return np.degrees(np.arccos(c))


def angular_error(a, b) -> float:
    """Angle between two color vectors in degrees: angular_errors on one row."""
    return float(angular_errors(_as_vec3(a)[np.newaxis], _as_vec3(b)[np.newaxis])[0])


# ============================================================
# Chromaticity
# ============================================================

def chromaticity_matrix(m: np.ndarray, eps: float) -> np.ndarray:
    """rgb-chromaticity of a 3 x k matrix, or of a (..., 3, k) stack of them;
    zero pixels stay zero."""
    if eps < 0.0:
        raise DomainError("eps must be nonnegative")
    denom = m[..., 0, :] + m[..., 1, :] + m[..., 2, :] + eps
    if eps == 0.0:
        denom = np.where(denom > 0.0, denom, 1.0)
    return m / denom[..., np.newaxis, :]


# ============================================================
# Small dense linear algebra
# ============================================================

def row_products(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m for a (B, d) batch and a (d, k) matrix or (d,) vector, with each
    row as its own one-row product: row i has the bits of a[i:i+1] @ m in any
    batch, and a batch of one has the bits of a @ m.

    A (B, d) @ (d, k) product goes to gemm, whose rounding depends on B; the
    stacked form makes numpy run one gemv (or dot) per row instead.
    """
    return (a[:, np.newaxis, :] @ m)[:, 0]


class MapFit(NamedTuple):
    """A stack of fitted colour maps, the result of every DEF mapping fit."""

    matrix: np.ndarray      # (..., 3, m) maps
    degenerate: np.ndarray  # (...) the fit had no unique solution


def pinv_map(source: np.ndarray, target: np.ndarray) -> MapFit:
    """Best 3x3 map C minimizing ||C @ source - target||_F via the pseudoinverse,
    for a 3 x k source and target or for (..., 3, k) stacks of them.

    Singular values of the source below RANK_TOL * sigma_max are truncated,
    which yields the minimum-norm solution on rank-deficient data instead of
    an error; such a fit is flagged degenerate.

    The SVD factors come from the eigendecomposition of the 3x3 Gram matrix
    (U = eigenvectors, sigma^2 = eigenvalues), so the cost stays O(k) with a
    tiny constant even for megapixel inputs. A stack gives each of its maps
    the bits that map gets on its own.
    """
    source = np.asarray(source, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if source.ndim < 2 or source.shape[-2] != 3 or target.shape != source.shape:
        raise DomainError("pinv_map expects matching 3 x k matrices")
    if source.shape[-1] < 3:
        raise DomainError("pinv_map requires k >= 3 pixels")
    gram = source @ source.mT
    cross = target @ source.mT
    evals, u = np.linalg.eigh(gram)
    # when the largest eigenvalue is not positive, no eigenvalue exceeds its
    # (RANK_TOL**2)-fraction and the map is zero
    keep = evals > (RANK_TOL * RANK_TOL) * evals[..., -1:]
    inv_lam = np.where(keep, 1.0 / np.where(keep, evals, 1.0), 0.0)
    # C = target @ pinv(source) = (target S^T) U diag(1/sigma^2) U^T
    c = (cross @ u) * inv_lam[..., np.newaxis, :] @ u.mT
    return MapFit(matrix=c, degenerate=~keep.all(axis=-1))


def covariance_triu(x: np.ndarray) -> np.ndarray:
    """Upper triangle (0,0), (0,1), (0,2), (1,1), (1,2), (2,2) of the
    population covariance E[(X-E[X])(X-E[X])^T] of a 3 x k sample matrix, or
    of each matrix of a (..., 3, k) stack.

    Each entry is one dot product over the samples, so a stack gives each
    matrix the bits it gets on its own.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-2] != 3:
        raise DomainError("covariance_triu expects a 3 x k matrix")
    k = x.shape[-1]
    if k < 2:
        raise DomainError("covariance_triu requires k >= 2 samples")
    xc = x - x.mean(axis=-1, keepdims=True)
    # row i against rows i.., as broadcast views
    rows = [np.vecdot(xc[..., i:i + 1, :], xc[..., i:, :]) for i in range(3)]
    return np.concatenate(rows, axis=-1) / k


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

"""The dual-exposure feature: a compact vector describing how the short and
long frames of a pair disagree chromatically.

The default feature has 15 entries: the flattened 3x3 chromaticity mapping
matrix between the two frames (9) plus the unique entries of the covariance of
the per-pixel short/long ratio image (6). Ablation variants swap the mapping
family (affine 3x4, homography on rg-chroma) or the color representation, and
may drop the covariance block.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import DualExposurePair, chromaticity_matrix, covariance_triu, pinv_map
from .errors import DomainError

COLOR_REPRS = ("rgb", "rg_chroma", "rgb_chroma")
MAPPINGS = ("linear3x3", "affine3x4", "homography3x3")


@dataclass(frozen=True)
class DefConfig:
    """Knobs for feature extraction; defaults reproduce the 15-element feature.

    eps_ratio bounds the ratio image where the long frame is at the noise
    floor: on [0, 1] data quantized to 10 bits with ~2e-3 read noise, 1e-2
    keeps zero-signal pixels from dominating the covariance block.
    """

    color_repr: str = "rgb_chroma"
    mapping: str = "linear3x3"
    eps_ratio: float = 1e-2
    eps_chroma: float = 1e-6
    include_covariance: bool = True

    def __post_init__(self):
        if self.color_repr not in COLOR_REPRS:
            raise DomainError(f"unknown color_repr {self.color_repr!r}")
        if self.mapping not in MAPPINGS:
            raise DomainError(f"unknown mapping {self.mapping!r}")
        # false for NaN, infinities and integers too large for a float
        if not (0.0 <= self.eps_ratio <= sys.float_info.max and 0.0 <= self.eps_chroma <= sys.float_info.max):
            raise DomainError("eps values must be finite and nonnegative")

    @property
    def feature_length(self) -> int:
        n = 12 if self.mapping == "affine3x4" else 9
        return n + (6 if self.include_covariance else 0)


@dataclass
class DefVector:
    """Extracted feature plus a degeneracy diagnostic from the mapping fit."""

    values: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(self.values)):
            raise DomainError("feature vector contains non-finite values")

    def __len__(self) -> int:
        return self.values.shape[0]


class AffineResult(NamedTuple):
    matrix: np.ndarray      # 3x4: [alpha * R | T]
    rotation: np.ndarray    # 3x3 orthogonal factor
    alpha: float
    translation: np.ndarray
    degenerate: bool


class HomographyResult(NamedTuple):
    matrix: np.ndarray      # 3x3, normalized so H[2,2] = 1 when possible
    degenerate: bool


# ============================================================
# Building blocks
# ============================================================

def ratio_image(long: np.ndarray, short: np.ndarray, eps: float) -> np.ndarray:
    """Elementwise short / (long + eps) of two frames of the same shape, as
    3 x k matrices or (N, 3, k) stacks."""
    if eps < 0.0:
        raise DomainError("eps must be nonnegative")
    denom = long + eps
    if eps == 0.0:
        # 0/0 pixels are defined as 0 so the ratio stays finite
        safe = np.where(denom > 0.0, denom, 1.0)
        return np.where(denom > 0.0, short / safe, 0.0)
    return short / denom


def _represent(frames: np.ndarray, cfg: DefConfig) -> np.ndarray:
    """The frames of an (N, 3, k) stack in the configured color representation."""
    if cfg.color_repr == "rgb":
        return frames
    ch = chromaticity_matrix(frames, cfg.eps_chroma)
    if cfg.color_repr == "rgb_chroma":
        return ch
    # rg_chroma: keep a 3-row layout (r, g, 1-r-g) so one fitting path serves
    # every representation; the third row is redundant when eps_chroma = 0.
    return np.stack([ch[:, 0], ch[:, 1], 1.0 - ch[:, 0] - ch[:, 1]], axis=1)


def _rg1_rows(frames: np.ndarray, cfg: DefConfig) -> np.ndarray:
    ch = chromaticity_matrix(frames, cfg.eps_chroma)
    return np.stack([ch[:, 0], ch[:, 1], np.ones_like(ch[:, 0])], axis=1)


def affine_map(source_chroma: np.ndarray, target_chroma: np.ndarray) -> AffineResult:
    """Procrustes-style similarity fit: scale, rotation, and centroid translation.

    Maps source points onto target points as x -> alpha * R @ x + T. The
    constant last row of the full 4x4 form is dropped, leaving a 3x4 matrix.
    """
    src = np.asarray(source_chroma, dtype=np.float64)
    tgt = np.asarray(target_chroma, dtype=np.float64)
    if src.shape != tgt.shape or src.ndim != 2 or src.shape[0] != 3:
        raise DomainError("affine_map expects matching 3 x k matrices")
    if src.shape[1] < 4:
        raise DomainError("affine_map requires k >= 4 points")
    cs = src.mean(axis=1)
    ct = tgt.mean(axis=1)
    src_c = src - cs[:, np.newaxis]
    tgt_c = tgt - ct[:, np.newaxis]
    norm_s = np.linalg.norm(src_c)
    norm_t = np.linalg.norm(tgt_c)
    if norm_s < 1e-12 or norm_t < 1e-12:
        rot = np.eye(3)
        matrix = np.hstack([rot, np.zeros((3, 1))])
        return AffineResult(matrix, rot, 1.0, np.zeros(3), True)
    alpha = float(norm_t / norm_s)
    u, _, vt = np.linalg.svd(tgt_c @ src_c.T)
    rot = u @ vt
    translation = ct - alpha * (rot @ cs)
    matrix = np.hstack([alpha * rot, translation[:, np.newaxis]])
    return AffineResult(matrix, rot, alpha, translation, False)


def homography_map(source_rg1: np.ndarray, target_rg1: np.ndarray) -> HomographyResult:
    """DLT homography between (r, g, 1) chroma rows, normalized so H[2,2] = 1."""
    src = np.asarray(source_rg1, dtype=np.float64)
    tgt = np.asarray(target_rg1, dtype=np.float64)
    if src.shape != tgt.shape or src.ndim != 2 or src.shape[0] != 3:
        raise DomainError("homography_map expects matching 3 x k matrices")
    k = src.shape[1]
    if k < 4:
        raise DomainError("homography_map requires k >= 4 points")
    x, y = src[0], src[1]
    xp, yp = tgt[0], tgt[1]
    ones = np.ones(k)
    zeros = np.zeros(k)
    rows_a = np.stack([x, y, ones, zeros, zeros, zeros, -xp * x, -xp * y, -xp], axis=1)
    rows_b = np.stack([zeros, zeros, zeros, x, y, ones, -yp * x, -yp * y, -yp], axis=1)
    a = np.concatenate([rows_a, rows_b], axis=0)
    # Smallest eigenvector of A^T A is the algebraic least-squares solution.
    ata = a.T @ a
    w, v = np.linalg.eigh(ata)
    h = v[:, 0]
    degenerate = False
    if w.size > 1:
        scale = max(w[-1], 1e-300)
        if w[1] / scale < 1e-12:
            degenerate = True  # null space wider than 1: solution not unique
    hm = h.reshape(3, 3)
    if abs(hm[2, 2]) > 1e-12 * np.max(np.abs(hm)):
        hm = hm / hm[2, 2]
    else:
        degenerate = True
        hm = hm / np.max(np.abs(hm))
    return HomographyResult(hm, degenerate)


# ============================================================
# Feature assembly
# ============================================================

def def_rows(longs: np.ndarray, shorts: np.ndarray, cfg: DefConfig | None = None) -> tuple:
    """The dual-exposure features of a chunk of aligned pairs: longs and
    shorts are (N, 3, k) frame stacks. Returns the (N, d) features and the
    (N,) degeneracy flags of the mapping fits.

    Every row has the bits compute_def gives its pair alone. The linear map
    and the covariance run once for the whole stack; the affine and
    homography fits go one pair at a time.
    """
    cfg = cfg or DefConfig()
    if longs.shape[-1] < 16:
        raise DomainError("compute_def requires at least 16 pixels")

    # the map carries the short frame onto the long one
    if cfg.mapping == "linear3x3":
        fit = pinv_map(_represent(shorts, cfg), _represent(longs, cfg))
        entries, degenerate = fit.matrix.reshape(len(longs), -1), fit.degenerate
    else:
        if cfg.mapping == "homography3x3":  # always works on (r, g, 1) chroma rows
            src, tgt, fit_one = _rg1_rows(shorts, cfg), _rg1_rows(longs, cfg), homography_map
        else:
            src, tgt, fit_one = _represent(shorts, cfg), _represent(longs, cfg), affine_map
        fits = [fit_one(s, t) for s, t in zip(src, tgt)]
        entries = np.stack([f.matrix.reshape(-1) for f in fits])
        degenerate = np.array([f.degenerate for f in fits])

    if cfg.include_covariance:
        entries = np.concatenate([entries, covariance_triu(ratio_image(longs, shorts, cfg.eps_ratio))], axis=1)
    if not np.isfinite(entries).all():
        raise DomainError("feature vector contains non-finite values")
    return entries, degenerate


def compute_def(pair: DualExposurePair, cfg: DefConfig | None = None) -> DefVector:
    """Extract the dual-exposure feature from an aligned pair: def_rows on a
    batch of one, whose frames go in as views."""
    values, degenerate = def_rows(pair.long.as_matrix()[np.newaxis], pair.short.as_matrix()[np.newaxis], cfg)
    return DefVector(values=values[0], degenerate=bool(degenerate[0]))

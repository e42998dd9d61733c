"""The dual-exposure feature: a compact vector describing how the short and
long frames of a pair disagree chromatically.

The default feature has 15 entries: the flattened 3x3 chromaticity mapping
matrix between the two frames (9) plus the unique entries of the covariance of
the per-pixel short/long ratio image (6). Ablation variants swap the mapping
family (affine 3x4, homography on rg-chroma) or the color representation, and
may drop the covariance block.

Each mapping family is one fit over (N, 3, k) stacks of source and target
rows that returns a core.MapFit; def_rows runs the configured fit once per
frame stack, and a stacked fit gives each pair the bits it gets alone.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .core import DualExposurePair, MapFit, chromaticity_matrix, covariance_triu, pinv_map, row_norms
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


def affine_map(source: np.ndarray, target: np.ndarray) -> MapFit:
    """Procrustes-style similarity fit of each pair of (N, 3, k) stacks: scale,
    rotation, and centroid translation.

    Maps source points onto target points as x -> alpha * R @ x + T, returned
    as the (N, 3, 4) matrices [alpha * R | T] (the constant last row of the
    full 4x4 form is dropped). A pair whose centred source or target has
    vanishing norm is degenerate and gets [I | 0].
    """
    cs = source.mean(axis=-1, keepdims=True)
    ct = target.mean(axis=-1, keepdims=True)
    src_c = source - cs
    tgt_c = target - ct
    # each pair's Frobenius norms, with the bits of np.linalg.norm on the pair
    norm_s, norm_t = row_norms(src_c.reshape(len(src_c), -1)), row_norms(tgt_c.reshape(len(tgt_c), -1))
    degenerate = (norm_s < 1e-12) | (norm_t < 1e-12)
    alpha = (norm_t / np.where(degenerate, 1.0, norm_s))[:, np.newaxis, np.newaxis]
    u, _, vt = np.linalg.svd(tgt_c @ src_c.mT)
    rot = u @ vt
    matrix = np.concatenate([alpha * rot, ct - alpha * (rot @ cs)], axis=-1)
    matrix[degenerate] = np.eye(3, 4)
    return MapFit(matrix, degenerate)


def homography_map(source: np.ndarray, target: np.ndarray) -> MapFit:
    """DLT homography between the (r, g, 1) chroma rows of each pair of
    (N, 3, k) stacks, as (N, 3, 3) matrices normalized so H[2,2] = 1."""
    n, _, k = source.shape
    # the DLT system's transpose: for each point, a column [x y 1 0 0 0
    # -x'x -x'y -x'] and a column [0 0 0 x y 1 -y'x -y'y -y']; kept as
    # (N, 9, 2k) rows, its Gram matrix is one product per pair
    b = np.zeros((n, 9, 2 * k))
    b[:, 0:3, :k] = source
    b[:, 3:6, k:] = source
    np.multiply(np.concatenate([source, source], axis=-1),
                -np.concatenate([target[:, 0:1], target[:, 1:2]], axis=-1), out=b[:, 6:9])
    # smallest eigenvector of A^T A is the algebraic least-squares solution
    w, v = np.linalg.eigh(b @ b.mT)
    # null space wider than 1: solution not unique
    degenerate = w[:, 1] / np.maximum(w[:, -1], 1e-300) < 1e-12
    hm = v[:, :, 0].reshape(n, 3, 3)
    corner = hm[:, 2, 2]
    peak = np.abs(hm).max(axis=(1, 2))
    normal = np.abs(corner) > 1e-12 * peak
    return MapFit(hm / np.where(normal, corner, peak)[:, np.newaxis, np.newaxis], degenerate | ~normal)


# ============================================================
# Feature assembly
# ============================================================

# each mapping's fit and the rows it fits: the homography always works on
# (r, g, 1) chroma rows, the others on the configured color representation
_FITS = {
    "linear3x3": (pinv_map, _represent),
    "affine3x4": (affine_map, _represent),
    "homography3x3": (homography_map, _rg1_rows),
}


def def_rows(longs: np.ndarray, shorts: np.ndarray, cfg: DefConfig | None = None) -> tuple:
    """The dual-exposure features of a chunk of aligned pairs: longs and
    shorts are (N, 3, k) frame stacks. Returns the (N, d) features and the
    (N,) degeneracy flags of the mapping fits.

    The map fit and the covariance each run once for the whole stack, and
    every row has the bits compute_def gives its pair alone.
    """
    cfg = cfg or DefConfig()
    if longs.shape[-1] < 16:
        raise DomainError("compute_def requires at least 16 pixels")

    # the map carries the short frame onto the long one
    fit_map, rows = _FITS[cfg.mapping]
    fit = fit_map(rows(shorts, cfg), rows(longs, cfg))
    entries = fit.matrix.reshape(len(longs), -1)
    if cfg.include_covariance:
        entries = np.concatenate([entries, covariance_triu(ratio_image(longs, shorts, cfg.eps_ratio))], axis=1)
    if not np.isfinite(entries).all():
        raise DomainError("feature vector contains non-finite values")
    return entries, fit.degenerate


def compute_def(pair: DualExposurePair, cfg: DefConfig | None = None) -> DefVector:
    """Extract the dual-exposure feature from an aligned pair: def_rows on a
    batch of one, whose frames go in as views."""
    values, degenerate = def_rows(pair.long.as_matrix()[np.newaxis], pair.short.as_matrix()[np.newaxis], cfg)
    return DefVector(values=values[0], degenerate=bool(degenerate[0]))

"""Log-chroma histograms over (u, v) = (log G/R, log G/B) with fixed bounds.

Each valid pixel (all three channels strictly positive) deposits its Euclidean
norm into one hard-assigned bin; out-of-range chroma clamps to the edge bins.
The same (u, v) convention carries illuminants in and out: an illuminant maps
to (log g/r, log g/b), and a decoded (u, v) pair maps back to the unit vector
proportional to (exp(-u), 1, exp(-v)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import RawImage, _as_vec3
from .errors import DomainError, EmptyHistogramError

CHROMA_MIN = -2.85
CHROMA_MAX = 2.85
DEFAULT_BINS = 64


def bin_width(bins: int = DEFAULT_BINS) -> float:
    return (CHROMA_MAX - CHROMA_MIN) / bins


@lru_cache(maxsize=None)
def bin_centers(bins: int = DEFAULT_BINS) -> np.ndarray:
    """Bin-center chroma values, cached per bin count and read-only."""
    eps = bin_width(bins)
    centers = CHROMA_MIN + (np.arange(bins) + 0.5) * eps
    centers.flags.writeable = False
    return centers


@dataclass
class ChromaHistogram:
    """h x h nonnegative mass grid; axis 0 indexes u bins, axis 1 indexes v bins."""

    mass: np.ndarray
    skipped: int = 0  # pixels dropped because some channel was nonpositive

    def __post_init__(self):
        self.mass = np.asarray(self.mass, dtype=np.float64)
        if self.mass.ndim != 2 or self.mass.shape[0] != self.mass.shape[1]:
            raise DomainError("histogram mass must be a square grid")
        if np.any(self.mass < 0.0):
            raise DomainError("histogram mass must be nonnegative")

    @property
    def size(self) -> int:
        return self.mass.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.mass.sum())

    def normalized(self) -> np.ndarray:
        """Unit-total-mass grid, the form the estimator convolves over."""
        total = self.total_mass
        if total <= 0.0:
            raise EmptyHistogramError("histogram holds no mass")
        return self.mass / total


def build_histogram(img: RawImage, bins: int = DEFAULT_BINS) -> ChromaHistogram:
    """Accumulate ||pixel||_2 into hard-assigned (u, v) bins.

    Invalid pixels (any nonpositive channel) keep zero weight and land in bin
    zero, so no gather passes are needed; their count is reported.
    """
    m = img.as_matrix()
    r, g, b = m[0], m[1], m[2]
    valid = (r > 0.0) & (g > 0.0) & (b > 0.0)
    n_valid = int(np.count_nonzero(valid))
    skipped = int(m.shape[1] - n_valid)
    if n_valid == 0:
        return ChromaHistogram(np.zeros((bins, bins)), skipped=skipped)
    safe_r = np.where(valid, r, 1.0)
    safe_g = np.where(valid, g, 1.0)
    safe_b = np.where(valid, b, 1.0)
    inv_eps = 1.0 / bin_width(bins)
    iu = ((np.log(safe_g / safe_r) - CHROMA_MIN) * inv_eps).astype(np.intp)
    iv = ((np.log(safe_g / safe_b) - CHROMA_MIN) * inv_eps).astype(np.intp)
    np.clip(iu, 0, bins - 1, out=iu)
    np.clip(iv, 0, bins - 1, out=iv)
    w = np.sqrt(r * r + g * g + b * b)
    w *= valid
    iu *= bins
    iu += iv
    flat = np.bincount(iu, weights=w, minlength=bins * bins)
    return ChromaHistogram(flat.reshape(bins, bins), skipped=skipped)


def illuminant_to_uv(ill) -> tuple:
    """(u, v) coordinates of an illuminant direction with positive channels."""
    v = _as_vec3(ill)
    if np.any(v <= 0.0):
        raise DomainError("illuminant must have strictly positive channels for uv encoding")
    return float(np.log(v[1] / v[0])), float(np.log(v[1] / v[2]))


def decode_uv(lu: float, lv: float) -> np.ndarray:
    """Unit-norm illuminant [exp(-u), 1, exp(-v)] / q for decoded coordinates."""
    eu = np.exp(-lu)
    ev = np.exp(-lv)
    q = np.sqrt(eu * eu + ev * ev + 1.0)
    return np.array([eu / q, 1.0 / q, ev / q])

"""Log-chroma histograms over (u, v) = (log G/R, log G/B) with fixed bounds.

Each valid pixel (all three channels strictly positive) deposits its Euclidean
norm into one hard-assigned bin; out-of-range chroma clamps to the edge bins.
The same (u, v) convention carries illuminants in and out: an illuminant maps
to (log g/r, log g/b), and a decoded (u, v) pair maps back to the unit vector
proportional to (exp(-u), 1, exp(-v)).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import _as_vec3
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


def build_histogram(frames: np.ndarray, bins: int = DEFAULT_BINS) -> np.ndarray:
    """Accumulate ||pixel||_2 into hard-assigned (u, v) bins, for every frame
    of an (N, 3, k) stack at once; returns the (N, bins, bins) mass grids,
    axis 1 indexing u bins and axis 2 v bins. One image is a stack of one,
    whose frame goes in as a view: img.as_matrix()[np.newaxis].

    Invalid pixels (any nonpositive channel) keep zero weight. Their chroma is
    not finite or meaningless, and the clip puts them in some bin, where
    their zero weight changes no bit; so no masking or gather pass is needed.
    One bincount over frame * bins**2 + bin fills every grid. It adds a
    grid's pixels in the order the frame alone would, so each grid has the
    same bits in any stack.
    """
    r, g, b = frames[:, 0], frames[:, 1], frames[:, 2]
    n = len(frames)
    inv_eps = 1.0 / bin_width(bins)
    # in place where it can be, so a chunk's temporaries stay few and in cache
    idx = []
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0, x/0, log 0 and their casts
        for den in (r, b):
            x = np.divide(g, den)
            np.log(x, out=x)
            x -= CHROMA_MIN
            x *= inv_eps
            i = x.astype(np.intp)
            np.clip(i, 0, bins - 1, out=i)
            idx.append(i)
    iu, iv = idx
    w = r * r
    w += g * g
    w += b * b
    np.sqrt(w, out=w)
    w *= (r > 0.0) & (g > 0.0) & (b > 0.0)
    iu *= bins
    iu += iv
    if n > 1:
        iu += (bins * bins) * np.arange(n)[:, np.newaxis]
    flat = np.bincount(iu.reshape(-1), weights=w.reshape(-1), minlength=n * bins * bins)
    return flat.reshape(n, bins, bins)


def unit_mass(masses: np.ndarray, names=None) -> np.ndarray:
    """Each (h, h) grid of a contiguous (..., h, h) stack divided, in place,
    by its total mass; returns the stack.

    A grid without mass (no pixel with three positive channels) raises
    EmptyHistogramError. names, when given, label the entries of axis 0, and
    the message lists those that hold an empty grid.
    """
    h = masses.shape[-1]
    flat = masses.reshape(-1, h * h)
    totals = flat.sum(axis=1)
    if not (totals > 0.0).all():
        message = "histogram holds no mass"
        if names is not None:
            empty = ~(totals > 0.0).reshape(len(masses), -1).all(axis=1)
            message += " for scenes: " + ", ".join(names[i] for i in np.flatnonzero(empty))
        raise EmptyHistogramError(message)
    flat /= totals[:, np.newaxis]
    return masses


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

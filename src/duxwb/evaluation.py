"""Angular-error metric suite and the statistical baselines.

The report carries the seven statistics used throughout color constancy
benchmarks: mean, median, trimean, best-25% mean, worst-25% mean, worst-5%
mean, and max. Quantiles use linear interpolation; the best/worst subsets take
the ceiling of the requested fraction.

The harness asks its predictor once for the whole split's (N, 3) estimates,
checks them and scores them as returned against the unit ground truths, with
the bits each scene gets on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .core import Illuminant, RawImage, angular_errors, check_illuminants, unit_illuminants
from .errors import DataError, DomainError
from .synth import DatasetManifest, SceneEntry, load_image


@dataclass
class ErrorReport:
    mean: float
    median: float
    trimean: float
    best25_mean: float
    worst25_mean: float
    worst5_mean: float
    max: float
    errors: List[float]

    def __post_init__(self):
        chain = (self.best25_mean, self.mean, self.worst25_mean, self.worst5_mean, self.max)
        for lo, hi in zip(chain, chain[1:]):
            if lo > hi + 1e-9:
                raise DomainError("error statistics violate their ordering chain")

    def to_dict(self, model: str = "", split: str = "", e: Optional[int] = None) -> dict:
        return {
            "model": model,
            "split": split,
            "e": e,
            "n_scenes": len(self.errors),
            "mean": self.mean,
            "median": self.median,
            "trimean": self.trimean,
            "best25": self.best25_mean,
            "worst25": self.worst25_mean,
            "worst5": self.worst5_mean,
            "max": self.max,
        }


def _quantile_linear(sorted_vals: np.ndarray, q: float) -> float:
    """Linearly interpolated quantile (the numpy/R type-7 convention)."""
    n = len(sorted_vals)
    if n == 1:
        return float(sorted_vals[0])
    pos = q * (n - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return float(sorted_vals[lo] * (1.0 - frac) + sorted_vals[hi] * frac)


def compute_report(errors: Sequence[float]) -> ErrorReport:
    """Seven-statistic summary of per-scene angular errors (degrees)."""
    vals = np.asarray(list(errors), dtype=np.float64)
    if vals.size == 0:
        raise DomainError("cannot summarize an empty error list")
    if not np.all(np.isfinite(vals)):
        raise DomainError("error list contains non-finite values")
    s = np.sort(vals)
    n = s.size
    q1 = _quantile_linear(s, 0.25)
    q2 = _quantile_linear(s, 0.50)
    q3 = _quantile_linear(s, 0.75)
    n25 = math.ceil(0.25 * n)
    n5 = math.ceil(0.05 * n)
    return ErrorReport(
        mean=float(s.mean()),
        median=q2,
        trimean=(q1 + 2.0 * q2 + q3) / 4.0,
        best25_mean=float(s[:n25].mean()),
        worst25_mean=float(s[-n25:].mean()),
        worst5_mean=float(s[-n5:].mean()),
        max=float(s[-1]),
        errors=[float(v) for v in vals],
    )


# ============================================================
# Statistical baselines (single-frame)
# ============================================================

def gray_world(img: RawImage) -> Illuminant:
    """Per-channel mean direction."""
    means = img.as_matrix().mean(axis=1)
    if np.any(means <= 0.0):
        raise DomainError("gray world needs a positive mean in every channel")
    return Illuminant.from_array(means / np.linalg.norm(means))


def shades_of_gray(img: RawImage, p: float = 6.0) -> Illuminant:
    """Minkowski p-mean direction; p = 1 reduces to gray world."""
    if p < 1.0:
        raise DomainError("Minkowski norm requires p >= 1")
    m = img.as_matrix()
    means = np.power(np.power(m, p).mean(axis=1), 1.0 / p)
    if np.any(means <= 0.0):
        raise DomainError("shades of gray needs a positive response in every channel")
    return Illuminant.from_array(means / np.linalg.norm(means))


BASELINES = {"gray-world": gray_world, "shades-of-gray": shades_of_gray}


# ============================================================
# Harness
# ============================================================

@dataclass
class SceneResult:
    scene_id: str
    error_deg: float
    predicted: List[float]
    gt: List[float]


def evaluate_scenes(
    predict: Callable[[List[SceneEntry]], np.ndarray],
    manifest: DatasetManifest,
    split: str,
) -> tuple:
    """Run a predictor over a split; returns (ErrorReport, [SceneResult]).

    predict(entries) is called once, with the split's scenes in manifest
    order, and returns their estimates as an (N, 3) array. The estimates are
    checked and scored as returned, against the normalised ground truths;
    each scene gets the bits of angular_error on its own, and a failed check
    names its scene.
    """
    scenes = manifest.scenes_for(split)
    if not scenes:
        raise DataError(f"split {split!r} holds no scenes")
    ids = [entry.scene_id for entry in scenes]
    gts = unit_illuminants([entry.gt for entry in scenes], ids)
    preds = np.asarray(predict(scenes), dtype=np.float64)
    if preds.shape != gts.shape:
        raise DataError(f"predictor gave an array of shape {preds.shape} for {len(scenes)} scenes")
    errors = angular_errors(check_illuminants(preds, ids), gts)
    results = [SceneResult(scene_id=i, error_deg=err, predicted=p, gt=g)
               for i, err, p, g in zip(ids, errors.tolist(), preds.tolist(), gts.tolist())]
    return compute_report(errors), results


def baseline_predictor(name: str, root: str) -> Callable[[List[SceneEntry]], np.ndarray]:
    """Baselines consume only the auto-exposure frame, one scene at a time."""
    if name not in BASELINES:
        raise DomainError(f"unknown baseline {name!r}")
    fn = BASELINES[name]

    def predict(entries: List[SceneEntry]) -> np.ndarray:
        return np.stack([fn(load_image(root, entry, "auto")).as_array() for entry in entries])

    return predict


def results_csv_rows(results: Sequence[SceneResult]) -> List[List]:
    rows = [["scene_id", "error_deg", "pred_r", "pred_g", "pred_b", "gt_r", "gt_g", "gt_b"]]
    for r in results:
        rows.append([r.scene_id, repr(r.error_deg)] + [repr(v) for v in r.predicted + r.gt])
    return rows

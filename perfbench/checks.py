"""Correctness checks computed apart from the program.

Each check recomputes an output from the stored inputs with plain numpy, or
tests a property the method must have, and raises CheckFailed on a mismatch.
Nothing here imports duxwb: the constants below are the documented feature and
histogram defaults, so a change to them shows up as a failed check.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Dict, List, Sequence

import numpy as np

EPS_CHROMA = 1e-6  # rgb-chromaticity denominator offset
EPS_RATIO = 1e-2  # short / (long + eps_ratio)
CHROMA_RANGE = (-2.85, 2.85)  # log-chroma histogram bounds
BINS = 64
REPORT_KEYS = ("mean", "median", "trimean", "best25", "worst25", "worst5", "max")


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_dxt(path: str) -> np.ndarray:
    """(3, h, w) float64 image from the planar DXT1 tensor format."""
    with open(path, "rb") as fh:
        raw = fh.read()
    require(raw[:4] == b"DXT1", f"{path}: bad magic")
    nl = raw.index(b"\n")
    h, w, c, dtype, order = raw[4:nl].decode("ascii").split()
    require((c, dtype, order) == ("3", "f32", "le"), f"{path}: unexpected header")
    data = np.frombuffer(raw[nl + 1:], dtype="<f4")
    require(data.size == 3 * int(h) * int(w), f"{path}: payload size")
    return data.reshape(3, int(h), int(w)).astype(np.float64)


def angular_deg(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise angle in degrees between (N, 3) arrays."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    c = (a * b).sum(axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
    return np.degrees(np.arccos(np.clip(c, -1.0, 1.0)))


def unit(v: np.ndarray) -> np.ndarray:
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ============================================================
# Feature and histogram oracles
# ============================================================

def numpy_def(long_img: np.ndarray, short_img: np.ndarray) -> np.ndarray:
    """15-element feature: least-squares 3x3 map from short to long
    rgb-chromaticities (row-major) plus the upper triangle of the population
    covariance of short / (long + eps)."""
    lm = long_img.reshape(3, -1)
    sm = short_img.reshape(3, -1)
    lc = lm / (lm.sum(axis=0) + EPS_CHROMA)
    sc = sm / (sm.sum(axis=0) + EPS_CHROMA)
    # C @ sc ~= lc  <=>  sc.T @ C.T ~= lc.T
    c_t, *_ = np.linalg.lstsq(sc.T, lc.T, rcond=None)
    cov = np.cov(sm / (lm + EPS_RATIO), bias=True)
    rows, cols = np.triu_indices(3)
    return np.concatenate([c_t.T.reshape(-1), cov[rows, cols]])


def numpy_hist(img: np.ndarray, bins: int = BINS) -> np.ndarray:
    """Unit-mass log-chroma histogram, u = log G/R on axis 0, v = log G/B on
    axis 1, each valid pixel weighted by its norm, coordinates clipped into range."""
    r, g, b = img.reshape(3, -1)
    valid = (r > 0) & (g > 0) & (b > 0)
    lo, hi = CHROMA_RANGE
    u = np.clip(np.log(g[valid] / r[valid]), lo, hi)
    v = np.clip(np.log(g[valid] / b[valid]), lo, hi)
    w = np.sqrt(r[valid] ** 2 + g[valid] ** 2 + b[valid] ** 2)
    mass, _, _ = np.histogram2d(u, v, bins=bins, range=[CHROMA_RANGE, CHROMA_RANGE], weights=w)
    return mass / mass.sum()


def check_features(label: str, defs: np.ndarray, hists: np.ndarray, frames: Sequence[tuple]) -> None:
    """Program features of sampled pairs against the numpy oracles.

    frames: (long, short) images, in the order of the defs/hists rows.
    """
    for i, (long_img, short_img) in enumerate(frames):
        ref = numpy_def(long_img, short_img)
        require(
            np.allclose(defs[i], ref, rtol=1e-6, atol=1e-9),
            f"{label}: DEF of pair {i} differs from the lstsq/covariance oracle "
            f"(max abs diff {np.abs(defs[i] - ref).max():.3g})",
        )
        for j, img in enumerate((long_img, short_img)):
            ref_h = numpy_hist(img)
            require(
                np.allclose(hists[i, j], ref_h, rtol=0.0, atol=1e-12),
                f"{label}: histogram {j} of pair {i} differs from np.histogram2d "
                f"(max abs diff {np.abs(hists[i, j] - ref_h).max():.3g})",
            )


def gray_world(auto_img: np.ndarray) -> np.ndarray:
    means = auto_img.reshape(3, -1).mean(axis=1)
    return means / np.linalg.norm(means)


# ============================================================
# Reports
# ============================================================

def read_results_csv(text: str) -> Dict[str, object]:
    """Columns of a per-scene results CSV, given as text."""
    rows = list(csv.reader(io.StringIO(text)))
    require(rows[0] == ["scene_id", "error_deg", "pred_r", "pred_g", "pred_b", "gt_r", "gt_g", "gt_b"],
            f"unexpected results CSV header {rows[0]}")
    body = rows[1:]
    return {
        "ids": [r[0] for r in body],
        "errors": np.array([float(r[1]) for r in body]),
        "pred": np.array([[float(v) for v in r[2:5]] for r in body]).reshape(-1, 3),
        "gt": np.array([[float(v) for v in r[5:8]] for r in body]).reshape(-1, 3),
    }


def report_stats(errors: np.ndarray) -> Dict[str, float]:
    s = np.sort(errors)
    n = len(s)
    q1, q2, q3 = np.percentile(s, [25, 50, 75])
    n25 = math.ceil(0.25 * n)
    n5 = math.ceil(0.05 * n)
    return {
        "mean": float(s.mean()),
        "median": float(q2),
        "trimean": float((q1 + 2 * q2 + q3) / 4),
        "best25": float(s[:n25].mean()),
        "worst25": float(s[-n25:].mean()),
        "worst5": float(s[-n5:].mean()),
        "max": float(s[-1]),
    }


def check_report(label: str, report: dict, rows: Dict[str, object], ids: List[str], gts: np.ndarray) -> None:
    """Per-scene errors from the CSV's pred/gt columns, and the seven
    statistics of the report from those errors."""
    require(rows["ids"] == ids, f"{label}: CSV scene ids differ from the val split")
    require(report["n_scenes"] == len(ids), f"{label}: report n_scenes {report['n_scenes']} != {len(ids)}")
    require(np.allclose(rows["gt"], unit(gts), rtol=0.0, atol=1e-12), f"{label}: CSV ground truth differs from the manifest")
    errs = angular_deg(rows["pred"], rows["gt"])
    bad = np.flatnonzero(~np.isclose(errs, rows["errors"], rtol=0.0, atol=1e-9))
    require(bad.size == 0, f"{label}: CSV error_deg disagrees with its pred/gt columns at rows {bad[:5].tolist()}")
    ref = report_stats(errs)
    for key in REPORT_KEYS:
        require(math.isclose(report[key], ref[key], rel_tol=1e-9, abs_tol=1e-9),
                f"{label}: report {key} {report[key]!r} != recomputed {ref[key]!r}")


def check_ensemble(a_pred: np.ndarray, b_pred: np.ndarray, ens_pred: np.ndarray) -> None:
    ref = unit((unit(a_pred) + unit(b_pred)) / 2.0)
    worst = float(np.abs(ref - ens_pred).max())
    require(worst <= 1e-12, f"ensemble: prediction differs from the renormalised mean by {worst:.3g}")


def check_gray_world(pred: np.ndarray, autos: Sequence[np.ndarray]) -> None:
    ref = np.stack([gray_world(img) for img in autos])
    worst = float(np.abs(ref - pred).max())
    require(worst <= 1e-12, f"gray-world: prediction differs from the numpy mean by {worst:.3g}")


def check_learned(label: str, trained_mean: float, untrained_errors: np.ndarray, losses: Sequence[float]) -> None:
    untrained = float(np.mean(untrained_errors))
    require(trained_mean < untrained,
            f"{label}: trained val mean {trained_mean:.4f} deg does not beat its initialisation {untrained:.4f} deg")
    require(len(losses) >= 2 and losses[-1] < losses[0],
            f"{label}: last epoch loss {losses[-1]!r} not below the first {losses[0]!r}")


def check_same(label: str, first, later) -> None:
    require(first == later, f"{label}: output differs between rounds of the same run")

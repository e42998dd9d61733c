import os

import numpy as np
import pytest

from duxwb.core import DualExposurePair, Illuminant, RawImage, covariance_triu
from duxwb.histogram import CHROMA_MIN, bin_width
from duxwb.synth import DatasetManifest, SceneSpec, generate_dataset, read_tensor, write_tensor


# Upper-triangle order of the DEF's covariance block (core.covariance_triu)
_TRIU_ROWS = (0, 0, 0, 1, 1, 2)
_TRIU_COLS = (0, 1, 2, 1, 2, 2)
# covariance_triu's entries, in the row-major order of a 3x3 matrix
_TRIU_TO_FULL = (0, 1, 2, 1, 3, 4, 2, 4, 5)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_image(rng, height=8, width=12, lo=0.05, hi=0.95):
    return RawImage(rng.uniform(lo, hi, size=(3, height, width)))


def scaled_pair(rng, alpha=0.125, height=8, width=12, gt=None):
    """Clean pair where the short frame is an exact scalar multiple of the long."""
    long_img = random_image(rng, height, width)
    short_img = RawImage(long_img.data * alpha)
    return DualExposurePair(long=long_img, short=short_img, exposure_factor=8.0,
                            ground_truth=gt or Illuminant(1.0, 1.0, 1.0).normalized())


def mapping_block(vec):
    """Row-major 3x3 mapping block of a 15-element DEF."""
    return vec.values[:9].reshape(3, 3)


def covariance_block(vec):
    """The symmetric 3x3 covariance rebuilt from a DEF's trailing 6 entries."""
    tri = vec.values[-6:]
    cov = np.zeros((3, 3))
    cov[_TRIU_ROWS, _TRIU_COLS] = tri
    cov[_TRIU_COLS, _TRIU_ROWS] = tri
    return cov


@pytest.fixture
def make_image():
    return random_image


@pytest.fixture
def make_scaled_pair():
    return scaled_pair


def covariance3(x):
    """The full 3x3 covariance_triu, mirrored, so it is bitwise symmetric."""
    x = np.asarray(x)
    return covariance_triu(x)[..., _TRIU_TO_FULL].reshape(x.shape[:-2] + (3, 3))


def reference_histogram(img: RawImage, bins: int):
    """histogram.build_histogram's formula on one frame, with the masking
    copies taken: the (bins, bins) mass grid and the count of invalid pixels."""
    m = img.as_matrix()
    r, g, b = m[0], m[1], m[2]
    valid = (r > 0.0) & (g > 0.0) & (b > 0.0)
    skipped = int(m.shape[1] - np.count_nonzero(valid))
    if not valid.any():
        return np.zeros((bins, bins)), skipped
    safe_r = np.where(valid, r, 1.0)
    safe_g = np.where(valid, g, 1.0)
    safe_b = np.where(valid, b, 1.0)
    inv_eps = 1.0 / bin_width(bins)
    iu = np.clip(((np.log(safe_g / safe_r) - CHROMA_MIN) * inv_eps).astype(np.intp), 0, bins - 1)
    iv = np.clip(((np.log(safe_g / safe_b) - CHROMA_MIN) * inv_eps).astype(np.intp), 0, bins - 1)
    w = np.sqrt(r * r + g * g + b * b) * valid
    return np.bincount(iu * bins + iv, weights=w, minlength=bins * bins).reshape(bins, bins), skipped


@pytest.fixture(scope="module")
def mixed_dataset(tmp_path_factory):
    """One manifest whose train scenes alternate runs of 32x24 and 16x16 frames."""
    root = tmp_path_factory.mktemp("mixed")
    parts = {}
    for name, (w, h) in {"a": (32, 24), "b": (16, 16)}.items():
        m = generate_dataset(str(root / name), 5, e_list=(8,), seed=len(name) + w, spec=SceneSpec(width=w, height=h),
                             splits=(5, 0, 0))
        for entry in m.scenes:
            entry.scene_id = f"{name}-{entry.scene_id}"
            entry.files = {k: f"{name}/{v}" for k, v in entry.files.items()}
        parts[name] = m
    a, b = parts["a"].scenes, parts["b"].scenes
    manifest = DatasetManifest(seed=0, width=32, height=24, e_list=[8], scenes=a[:2] + b[:3] + a[2:] + b[3:])
    manifest.save(str(root))
    return str(root), manifest


# Ways a stored pair can be broken, each for the loader to report by name:
# a NaN, an infinite or a negative pixel in one frame, frames of two sizes,
# a payload cut short, and a deleted short frame.
BAD_FRAMES = ("nan", "inf", "negative", "sizes", "truncated", "missing")


def break_frame(root: str, entry, how: str, e: int = 8) -> str:
    """Break the stored pair of entry as `how` names; returns the text the
    loader's error must hold (the file's path, or the scene for two sizes)."""
    long_path, short_path = (f"{root}/{entry.files[f'{kind}_{e}']}" for kind in ("long", "short"))
    if how == "truncated":
        with open(long_path, "rb+") as fh:
            fh.truncate(fh.seek(0, 2) - 10)
        return long_path
    if how == "missing":
        os.remove(short_path)
        return short_path
    if how == "sizes":
        write_tensor(short_path, np.full((3, 4, 4), 0.5))
        return f"scene {entry.scene_id}"
    path = short_path if how == "nan" else long_path
    data = read_tensor(path)
    data[1, data.shape[1] // 2, data.shape[2] // 3] = {"nan": np.nan, "inf": np.inf, "negative": -0.25}[how]
    write_tensor(path, data)
    return path

"""Synthetic dual-exposure raw scenes with labeled illuminants.

Scenes are piecewise-constant albedo patches under a smooth shading field and
a global illuminant drawn from a two-lobe Planckian-like locus. Auto exposure
targets a fixed mean intensity; the long/short frames scale that exposure by
the factor e and 1/e, then add read+shot noise, clip, and quantize. With noise
and clipping disabled the two frames are exact scalings of each other, so any
feature signal in realistic renders comes from clipping and noise alone.

Every field is C-ordered (3, h, w): the albedo comes from two 1-D gathers,
and the frame passes work in place on the exposed signal, which write_tensor
stores as it is. The auto exposure is the one exception to memory order. An earlier
generator built a pixel-major field, and the mean that sets t_auto sums in
memory order, so summing the C-ordered field directly moves t_auto by an ulp
in about a quarter of scenes. render_scene therefore takes the mean over a
pixel-major copy, which keeps every dataset byte for byte.

Tensors are stored in a tiny planar float32 format and indexed by a JSON
manifest with disjoint train/val/test splits.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, fields
from typing import List, Optional, Sequence

import numpy as np

from .core import DualExposurePair, Illuminant, RawImage, check_frames, interp_matrix
from .errors import DataError, DomainError

MAGIC = b"DXT1"
# The longest valid header: no file is large enough to back a side of more
# than 20 digits, so a longer header is rejected without reading further.
HEADER_MAX = len(f"{2 ** 64} {2 ** 64} 3 f32 le\n")
DEFAULT_SPLIT_WEIGHTS = (387, 83, 86)  # train : val : test proportions


# ============================================================
# Scene specification
# ============================================================

@dataclass(frozen=True)
class SceneSpec:
    width: int = 384
    height: int = 256
    patch_count: int = 24
    albedo_lo: float = 0.02
    albedo_hi: float = 0.95
    # per-channel Beta(shape, shape) albedo; shape < 1 favors saturated
    # patch colors, shape = 1 is uniform
    albedo_shape: float = 0.4
    # per-scene dynamic range of the multiplicative shading field is drawn
    # log-uniformly from [shading_range_lo, shading_range_hi]
    shading_range_lo: float = 4.0
    shading_range_hi: float = 100.0
    exposure_target: float = 0.25
    sigma_read: float = 2e-3
    sigma_shot: float = 1e-3
    bit_depth: int = 10
    quantize: bool = True
    # illuminant locus: log(R/G) and log(B/G) as quadratics of a lobe
    # coordinate s drawn from a symmetric two-mode mixture
    lobe_offset: float = 0.55
    lobe_sigma: float = 0.18
    locus_u_lin: float = 0.5
    locus_u_quad: float = -0.10
    locus_v_lin: float = -0.45
    locus_v_quad: float = -0.08
    chroma_jitter: float = 0.04

    def __post_init__(self):
        """Each field in its domain, so a bad spec fails before any file is made."""
        for name in ("width", "height", "patch_count", "bit_depth"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise DomainError(f"SceneSpec.{name} must be a positive integer, got {value!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise DomainError(f"SceneSpec.{f.name} must be a finite number, got {value!r}")
        for name in ("albedo_shape", "shading_range_lo", "exposure_target"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"SceneSpec.{name} must be positive, got {getattr(self, name)!r}")
        for name in ("albedo_lo", "sigma_read", "sigma_shot", "lobe_sigma", "chroma_jitter"):
            if not getattr(self, name) >= 0.0:
                raise DomainError(f"SceneSpec.{name} must be nonnegative, got {getattr(self, name)!r}")
        for lo, hi in (("albedo_lo", "albedo_hi"), ("shading_range_lo", "shading_range_hi")):
            if getattr(self, lo) > getattr(self, hi):
                raise DomainError(f"SceneSpec.{lo} must not exceed {hi}, got {getattr(self, lo)!r} > {getattr(self, hi)!r}")

    def small(self) -> "SceneSpec":
        """48x32 variant mirroring the reduced-input ablation."""
        from dataclasses import replace

        return replace(self, width=48, height=32)


def sample_illuminant(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm illuminant from the two-lobe locus."""
    sign = 1.0 if rng.random() < 0.5 else -1.0
    s = sign * spec.lobe_offset + rng.normal(0.0, spec.lobe_sigma)
    s = float(np.clip(s, -1.2, 1.2))
    log_rg = spec.locus_u_lin * s + spec.locus_u_quad * s * s + rng.normal(0.0, spec.chroma_jitter)
    log_bg = spec.locus_v_lin * s + spec.locus_v_quad * s * s + rng.normal(0.0, spec.chroma_jitter)
    ill = np.array([math.exp(log_rg), 1.0, math.exp(log_bg)])
    return ill / np.linalg.norm(ill)


def _patch_grid(spec: SceneSpec) -> tuple:
    rows = max(1, round(math.sqrt(spec.patch_count * spec.height / spec.width)))
    cols = max(1, math.ceil(spec.patch_count / rows))
    return rows, cols


def _albedo_field(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    rows, cols = _patch_grid(spec)
    span = spec.albedo_hi - spec.albedo_lo
    patches = spec.albedo_lo + span * rng.beta(spec.albedo_shape, spec.albedo_shape, size=(3, rows, cols))
    row_idx = np.minimum(np.arange(spec.height) * rows // spec.height, rows - 1)
    col_idx = np.minimum(np.arange(spec.width) * cols // spec.width, cols - 1)
    # two 1-D gathers give a C-ordered (3, h, w) field
    return patches.take(row_idx, axis=1).take(col_idx, axis=2)


def _shading_field(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    log_lo, log_hi = math.log(spec.shading_range_lo), math.log(spec.shading_range_hi)
    dyn_range = math.exp(rng.uniform(log_lo, log_hi))
    coarse = rng.uniform(0.0, 1.0, size=(3, 4))
    up = interp_matrix(3, spec.height) @ coarse @ interp_matrix(4, spec.width).T
    up -= 1.0
    return np.power(dyn_range, up, out=up)  # values in [1/range, 1]


@dataclass
class SceneRender:
    """Linear irradiance of one scene plus its auto-exposure scale."""

    irradiance: np.ndarray  # (3, h, w)
    gt: np.ndarray          # unit-norm illuminant
    t_auto: float


def render_scene(spec: SceneSpec, rng: np.random.Generator) -> SceneRender:
    gt = sample_illuminant(spec, rng)
    albedo = _albedo_field(spec, rng)
    shading = _shading_field(spec, rng)
    irradiance = np.multiply(shading, albedo, out=albedo)
    irradiance *= gt[:, None, None]
    # the mean sums in memory order; a pixel-major copy keeps t_auto's bits (module docstring)
    t_auto = spec.exposure_target / np.ascontiguousarray(irradiance.transpose(1, 2, 0)).mean()
    return SceneRender(irradiance=irradiance, gt=gt, t_auto=float(t_auto))


def render_frame(scene: SceneRender, scale: float, spec: SceneSpec, rng: np.random.Generator) -> RawImage:
    """Expose, add noise, clip to [0, 1], quantize; each pass in place."""
    signal = np.multiply(scene.irradiance, scale)
    if spec.sigma_read > 0.0 or spec.sigma_shot > 0.0:
        std = np.clip(signal, 0.0, None)
        std *= spec.sigma_shot
        std += spec.sigma_read ** 2
        np.sqrt(std, out=std)
        # the draws of rng.normal(size=signal.shape), in the same order
        noise = rng.standard_normal(out=np.empty_like(signal))
        noise *= std
        signal += noise
    np.clip(signal, 0.0, 1.0, out=signal)
    if spec.quantize:
        levels = 2 ** spec.bit_depth - 1
        signal *= levels
        np.round(signal, out=signal)
        signal /= levels
    return RawImage(signal)


def render_pair(spec: SceneSpec, e: float, seed: int) -> DualExposurePair:
    """One labeled long/short pair; noise is drawn independently per frame."""
    if e <= 1:
        raise DomainError("exposure factor must exceed 1")
    rng = np.random.default_rng(seed)
    scene = render_scene(spec, rng)
    long_img = render_frame(scene, scene.t_auto * e, spec, rng)
    short_img = render_frame(scene, scene.t_auto / e, spec, rng)
    return DualExposurePair(
        long=long_img,
        short=short_img,
        exposure_factor=float(e),
        ground_truth=Illuminant.from_array(scene.gt),
    )


# ============================================================
# Tensor file format
# ============================================================

def write_tensor(path: str, data: np.ndarray) -> None:
    """Planar float32 image file: magic, ASCII header, little-endian payload."""
    arr = np.ascontiguousarray(np.asarray(data), dtype="<f4")
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise DomainError("tensor files hold (3, h, w) images")
    header = f"{arr.shape[1]} {arr.shape[2]} 3 f32 le\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header)
        fh.write(arr)


def read_tensor(path: str) -> np.ndarray:
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"{path}: cannot open tensor file: {exc.strerror}") from None
    with fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}")
        header = fh.readline(HEADER_MAX)
        if not header.endswith(b"\n"):
            if len(header) < HEADER_MAX:
                raise DataError(f"{path}: truncated header")
            raise DataError(f"{path}: no header line within {HEADER_MAX} bytes")
        parts = header.decode("ascii", errors="replace").split()
        if (len(parts) != 5 or not parts[0].isdigit() or not parts[1].isdigit()
                or parts[2] != "3" or parts[3] != "f32" or parts[4] != "le"):
            raise DataError(f"{path}: unsupported header {header!r}")
        h, w = int(parts[0]), int(parts[1])
        if h <= 0 or w <= 0:
            raise DataError(f"{path}: image size {h}x{w} is not positive")
        # check the size before reading, so a corrupt header cannot ask for
        # an allocation the file does not back
        nbytes = 3 * h * w * 4
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if remaining != nbytes:
            raise DataError(f"{path}: header {h}x{w} needs {nbytes} payload bytes, file holds {remaining}")
        data = np.empty((3, h, w), dtype="<f4")
        got = fh.readinto(data)
        if got != nbytes:
            raise DataError(f"{path}: short read, {got} of {nbytes} payload bytes")
        return data


# ============================================================
# Dataset manifest
# ============================================================

@dataclass
class SceneEntry:
    scene_id: str
    split: str
    gt: List[float]
    seed: int
    files: dict  # frame key ("auto", "long_8", "short_8", ...) -> relative path


@dataclass
class DatasetManifest:
    seed: int
    width: int
    height: int
    e_list: List[int]
    scenes: List[SceneEntry]
    version: int = 1

    def scenes_for(self, split: str) -> List[SceneEntry]:
        if split == "all":
            return list(self.scenes)
        return [s for s in self.scenes if s.split == split]

    def to_json(self) -> str:
        payload = {
            "version": self.version,
            "seed": self.seed,
            "width": self.width,
            "height": self.height,
            "e_list": list(self.e_list),
            "scenes": [asdict(s) for s in self.scenes],
        }
        return json.dumps(payload, indent=1, sort_keys=True)

    def save(self, root: str) -> str:
        path = os.path.join(root, "manifest.json")
        fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(self.to_json())
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, root: str) -> "DatasetManifest":
        path = os.path.join(root, "manifest.json")
        if not os.path.isfile(path):
            raise DataError(f"no manifest at {path}")
        try:
            with open(path) as fh:
                payload = json.load(fh)
            scenes = [SceneEntry(**s) for s in payload["scenes"]]
            return cls(
                seed=payload["seed"],
                width=payload["width"],
                height=payload["height"],
                e_list=list(payload["e_list"]),
                scenes=scenes,
                version=payload.get("version", 1),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise DataError(f"{path}: malformed manifest: {exc!r}") from exc


def split_counts(n_scenes: int, splits: Optional[Sequence[int]] = None) -> tuple:
    """(train, val, test) counts; defaults follow the 387:83:86 proportions."""
    if splits is not None:
        train, val, test = (int(v) for v in splits)
        if train + val + test != n_scenes or min(train, val, test) < 0:
            raise DomainError("split counts must be nonnegative and sum to n_scenes")
        return train, val, test
    total = sum(DEFAULT_SPLIT_WEIGHTS)
    val = round(n_scenes * DEFAULT_SPLIT_WEIGHTS[1] / total)
    test = round(n_scenes * DEFAULT_SPLIT_WEIGHTS[2] / total)
    train = n_scenes - val - test
    return train, val, test


def generate_dataset(
    out_dir: str,
    n_scenes: int,
    e_list: Sequence[int] = (2, 4, 8),
    seed: int = 0,
    spec: Optional[SceneSpec] = None,
    splits: Optional[Sequence[int]] = None,
) -> DatasetManifest:
    """Render every scene at auto exposure plus long/short frames per factor.

    All tensors are written before the manifest, and the manifest lands via an
    atomic rename, so a readable manifest implies a complete dataset.
    """
    spec = spec or SceneSpec()
    if n_scenes < 1:
        raise DomainError("need at least one scene")
    n_train, n_val, n_test = split_counts(n_scenes, splits)
    os.makedirs(out_dir, exist_ok=True)
    if not os.access(out_dir, os.W_OK):
        raise DataError(f"output path {out_dir} is not writable")

    rng = np.random.default_rng(seed)
    scene_seeds = rng.integers(0, 2**31 - 1, size=n_scenes)
    order = rng.permutation(n_scenes)
    split_of = {}
    for pos, idx in enumerate(order):
        if pos < n_train:
            split_of[idx] = "train"
        elif pos < n_train + n_val:
            split_of[idx] = "val"
        else:
            split_of[idx] = "test"

    digits = max(4, len(str(n_scenes - 1)))
    entries: List[SceneEntry] = []
    for idx in range(n_scenes):
        scene_id = f"s{idx:0{digits}d}"
        scene_seed = int(scene_seeds[idx])
        srng = np.random.default_rng(scene_seed)
        scene = render_scene(spec, srng)
        files = {}
        frames = [("auto", scene.t_auto)]
        for e in e_list:
            frames.append((f"long_{int(e)}", scene.t_auto * e))
            frames.append((f"short_{int(e)}", scene.t_auto / e))
        for key, scale in frames:
            img = render_frame(scene, scale, spec, srng)
            rel = f"{scene_id}_{key}.dxt"
            write_tensor(os.path.join(out_dir, rel), img.data)
            files[key] = rel
        entries.append(
            SceneEntry(
                scene_id=scene_id,
                split=split_of[idx],
                gt=[float(v) for v in scene.gt],
                seed=scene_seed,
                files=files,
            )
        )

    manifest = DatasetManifest(
        seed=seed,
        width=spec.width,
        height=spec.height,
        e_list=[int(e) for e in e_list],
        scenes=entries,
    )
    manifest.save(out_dir)
    return manifest


# ============================================================
# Loading
# ============================================================

def frame_path(root: str, entry: SceneEntry, key: str) -> str:
    """Path of the scene's frame key; a key the scene lacks raises DataError,
    and read_tensor reports a missing file."""
    rel = entry.files.get(key)
    if rel is None:
        raise DataError(f"scene {entry.scene_id} has no frame {key!r}")
    return os.path.join(root, rel)


def checked_frame(data: np.ndarray, path: str, scene_id: Optional[str] = None) -> RawImage:
    """The frame read from path as a float64 RawImage; a non-finite or
    negative value raises DataError naming the file, and the scene when
    given."""
    data = np.asarray(data, dtype=np.float64)
    try:
        check_frames(data)
    except DomainError as exc:
        where = path if scene_id is None else f"{path} (scene {scene_id})"
        raise DataError(f"{where}: {exc}") from None
    return RawImage.of_checked(data)


def load_image(root: str, entry: SceneEntry, key: str) -> RawImage:
    path = frame_path(root, entry, key)
    return checked_frame(read_tensor(path), path, entry.scene_id)


def load_pair(root: str, entry: SceneEntry, e: int) -> DualExposurePair:
    long_img = load_image(root, entry, f"long_{int(e)}")
    short_img = load_image(root, entry, f"short_{int(e)}")
    return DualExposurePair(
        long=long_img,
        short=short_img,
        exposure_factor=float(e),
        ground_truth=Illuminant.from_array(np.array(entry.gt)).normalized(),
    )

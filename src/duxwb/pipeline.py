"""Dataset-to-feature assembly for training and evaluation.

Pairs are processed in chunks: consecutive pairs of one frame size, whose
frames stack as (N, 3, h, w) float64 arrays, so every elementwise operation,
reduction and bincount of the feature extractors runs once per chunk instead
of once per frame. A chunk's frame stack holds at most PIXEL_BUDGET pixels; a
pair larger than that is a chunk of one, and a chunk of one goes through the
per-pair extractors, which take its frames as views. Every feature row has
the bits its pair gets on its own.

split_chunks reads a split a chunk at a time: each frame goes from
synth.read_tensor into its chunk's stack, each stack is checked once, and a
chunk is dropped once its features are computed, so the working set stays
small even for large datasets. chunk_predictor gives
evaluation.evaluate_scenes the (N, 3) rows of a split, predicted a chunk at
a time.

build_feature_set is the package's one augmentation loop. With augment=True,
each train pair gains augment_copies Von Kries relit copies; every copy takes
the illuminant of a random member of the pair's k-means cluster of features.
The loop reloads the pair to relight it and computes features from the
transformed frames, in chunks like the originals. A copy that re-issues the
pair's own illuminant (always the case in a single-member cluster) is
counted in identity_copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from . import synth
from .core import DualExposurePair, RawImage, check_frames, unit_illuminants
from .def_feature import DefConfig, compute_def, def_rows
from .eccc import hists_for_chunk, hists_for_pair, n_filters
from .errors import DataError, DomainError
from .histogram import DEFAULT_BINS
from .synth import DatasetManifest, SceneEntry, load_pair
from .training import kmeans, relight_pair

# Most pixels in one frame stack of a chunk: 10 pairs of 48x32, and a
# 384x256 pair is a chunk of one. Chunks of 5 to 20 small pairs ran equally
# fast; larger ones spill the temporaries out of the core's cache.
PIXEL_BUDGET = 1 << 14


class PairChunk:
    """Consecutive pairs of one frame size: their ids, their long and short
    frames as (N, 3, h, w) float64 stacks whose values are checked, their
    exposure factor and, when known, their (N, 3) unit-norm ground truths.
    Each feature is computed for the whole chunk on first use and kept, per
    setting, while the chunk lives."""

    def __init__(self, ids: List[str], longs: np.ndarray, shorts: np.ndarray, e: float,
                 gts: Optional[np.ndarray] = None):
        self.ids = ids
        self.longs = longs
        self.shorts = shorts
        self.e = e
        self.gts = gts
        self._memo = {}

    @classmethod
    def from_pairs(cls, ids: List[str], pairs: List[DualExposurePair]) -> "PairChunk":
        """A chunk of in-memory pairs of one frame size; a chunk of one holds
        views of its pair's frames."""
        def stack(frames):
            return frames[0][np.newaxis] if len(frames) == 1 else np.stack(frames)

        known = all(p.ground_truth is not None for p in pairs)
        gts = np.stack([p.ground_truth.as_array() for p in pairs]) if known else None
        return cls(ids, stack([p.long.data for p in pairs]), stack([p.short.data for p in pairs]),
                   pairs[0].exposure_factor, gts)

    def __len__(self) -> int:
        return len(self.ids)

    def _get(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _frames(self) -> tuple:
        n = len(self)
        return self.longs.reshape(n, 3, -1), self.shorts.reshape(n, 3, -1)

    def _pair(self) -> DualExposurePair:
        """The pair of a chunk of one, over views of its checked frames."""
        return DualExposurePair(long=RawImage.of_checked(self.longs[0]), short=RawImage.of_checked(self.shorts[0]),
                                exposure_factor=self.e)

    def defs(self, cfg: DefConfig) -> np.ndarray:
        """(N, d) dual-exposure features under cfg."""
        key = ("defs", cfg)
        if len(self) == 1:
            return self._get(key, lambda: compute_def(self._pair(), cfg).values[np.newaxis])
        return self._get(key, lambda: def_rows(*self._frames(), cfg)[0])

    def hists(self, variant: str, bins: int) -> np.ndarray:
        """(N, J, h, h) unit-mass histogram stacks; an empty histogram raises
        EmptyHistogramError naming its scene."""
        key = ("hists", variant, bins)
        if len(self) == 1:
            return self._get(key, lambda: hists_for_pair(self._pair(), variant, bins, self.ids)[np.newaxis])
        return self._get(key, lambda: hists_for_chunk(*self._frames(), variant, bins, self.ids))


def _runs(items: Iterable, shape_of: Callable) -> Iterator[list]:
    """Group items, in order, into runs for chunks: a new run starts when the
    (3, h, w) frame shape changes or the next item would exceed PIXEL_BUDGET.
    A full run is handed on before the next item is drawn, so a chunk's
    frames are used while they are still in cache."""
    run = []
    for item in items:
        shape = shape_of(item)
        if run and shape != shape_of(run[0]):
            yield run
            run = []
        run.append(item)
        if (len(run) + 1) * shape[1] * shape[2] > PIXEL_BUDGET:
            yield run
            run = []
    if run:
        yield run


def pair_chunks(named_pairs: Iterable[Tuple[str, DualExposurePair]]) -> Iterator[PairChunk]:
    """Group in-memory (id, pair) items, in order, into chunks."""
    for run in _runs(named_pairs, lambda item: item[1].long.data.shape):
        yield PairChunk.from_pairs([name for name, _ in run], [pair for _, pair in run])


def _checked_stack(frames: list, root: str, entries: List[SceneEntry], key: str) -> np.ndarray:
    """The frames as one float64 stack, its values checked in one pass; a bad
    frame raises DataError naming its file and scene."""
    stack = np.stack(frames, dtype=np.float64)
    try:
        check_frames(stack)
    except DomainError:
        for frame, entry in zip(stack, entries):
            synth.checked_frame(frame, synth.frame_path(root, entry, key), entry.scene_id)
    return stack


def split_chunks(root: str, entries: List[SceneEntry], e: int) -> Iterator[PairChunk]:
    """The pairs of entries at exposure factor e, in order, read a chunk at a
    time: each frame goes from synth.read_tensor into its chunk's float64
    stack, and each stack is checked once."""
    keys = (f"long_{int(e)}", f"short_{int(e)}")

    def frames():
        for entry in entries:
            long, short = (synth.read_tensor(synth.frame_path(root, entry, key)) for key in keys)
            if long.shape != short.shape:
                raise DataError(f"scene {entry.scene_id}: long frame is {long.shape[1]}x{long.shape[2]}, "
                                f"short frame is {short.shape[1]}x{short.shape[2]}")
            yield entry, long, short

    for run in _runs(frames(), lambda item: item[1].shape):
        run_entries = [entry for entry, _, _ in run]
        ids = [entry.scene_id for entry in run_entries]
        longs = _checked_stack([long for _, long, _ in run], root, run_entries, keys[0])
        shorts = _checked_stack([short for _, _, short in run], root, run_entries, keys[1])
        yield PairChunk(ids, longs, shorts, float(e), unit_illuminants([entry.gt for entry in run_entries], ids))


def chunk_predictor(root: str, e: int,
                    predict_chunk: Callable[[PairChunk], np.ndarray]) -> Callable[[List[SceneEntry]], np.ndarray]:
    """predict(entries) for evaluation.evaluate_scenes: the entries' pairs at
    e are read a chunk at a time, and predict_chunk(chunk) gives each chunk's
    (N, 3) rows."""
    return lambda entries: np.concatenate([predict_chunk(chunk) for chunk in split_chunks(root, entries, e)])


@dataclass
class FeatureSet:
    scene_ids: List[str]
    defs: np.ndarray              # (N, d)
    gts: np.ndarray               # (N, 3) unit-norm
    hists: Optional[np.ndarray]   # (N, J, h, h) unit-mass, when requested
    identity_copies: int = 0      # augmentation fallbacks from single-member clusters

    def __len__(self) -> int:
        return len(self.scene_ids)


def build_feature_set(
    root: str,
    manifest: DatasetManifest,
    split: str,
    e: int,
    def_cfg: Optional[DefConfig] = None,
    with_hists: bool = False,
    variant: str = "both",
    bins: int = DEFAULT_BINS,
    augment: bool = False,
    augment_clusters: int = 80,
    augment_copies: int = 3,
    seed: int = 0,
) -> FeatureSet:
    def_cfg = def_cfg or DefConfig()
    scenes = manifest.scenes_for(split)
    if not scenes:
        raise DataError(f"split {split!r} holds no scenes")
    if int(e) not in [int(v) for v in manifest.e_list]:
        raise DataError(f"exposure factor {e} not present in the dataset (has {manifest.e_list})")

    # filled a chunk at a time, so no list of per-chunk pieces doubles them
    n = len(scenes) * (1 + augment_copies if augment else 1)
    ids: List[str] = []
    defs = np.empty((n, def_cfg.feature_length))
    gts = np.empty((n, 3))
    hists = np.empty((n, n_filters(variant), bins, bins)) if with_hists else None

    def add(chunks: Iterable[PairChunk]) -> None:
        for chunk in chunks:
            rows = slice(len(ids), len(ids) + len(chunk))
            ids.extend(chunk.ids)
            defs[rows] = chunk.defs(def_cfg)
            gts[rows] = chunk.gts
            if with_hists:
                hists[rows] = chunk.hists(variant, bins)

    add(split_chunks(root, scenes, e))

    identity = 0
    if augment:
        k = min(augment_clusters, len(scenes))
        model = kmeans(defs[:len(scenes)], k, seed=seed)
        labels = model.labels
        members = {c: np.flatnonzero(labels == c) for c in range(k)}
        rng = np.random.default_rng(seed)

        def relit_pairs():
            nonlocal identity
            for idx, entry in enumerate(scenes):
                pool = members[int(labels[idx])]
                pair = load_pair(root, entry, e)
                for copy_i in range(augment_copies):
                    pick = int(pool[rng.integers(len(pool))])
                    if pick == idx or len(pool) == 1:
                        identity += 1
                    yield f"{entry.scene_id}_aug{copy_i}", relight_pair(pair, gts[pick])

        add(pair_chunks(relit_pairs()))

    return FeatureSet(scene_ids=ids, defs=defs, gts=gts, hists=hists, identity_copies=identity)

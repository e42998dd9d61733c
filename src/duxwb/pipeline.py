"""Dataset-to-feature assembly for training and evaluation.

Pairs are processed in chunks: consecutive pairs of one frame size, whose
frames stack as (N, 3, k) arrays, so every elementwise operation, reduction
and bincount of the feature extractors runs once per chunk instead of once
per frame. A chunk's frame stack holds at most PIXEL_BUDGET pixels; a pair
larger than that is a chunk of one, and a chunk of one goes through the
per-pair extractors, which pass its frames in as views. Every feature row has
the bits its pair gets on its own. Pairs are loaded a chunk at a time and
dropped once its features are computed, so the working set stays small even
for large datasets.

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
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .core import DualExposurePair
from .def_feature import DefConfig, compute_def, def_rows
from .eccc import hists_for_chunk, hists_for_pair, n_filters
from .errors import DataError
from .histogram import DEFAULT_BINS
from .synth import DatasetManifest, load_pair
from .training import kmeans, relight_pair

# Most pixels in one frame stack of a chunk: 10 pairs of 48x32, and a
# 384x256 pair is a chunk of one. Chunks of 5 to 20 small pairs ran equally
# fast; larger ones spill the temporaries out of the core's cache.
PIXEL_BUDGET = 1 << 14


class PairChunk:
    """Consecutive pairs of one frame size. Each feature is computed for the
    whole chunk on first use and kept, per setting, while the chunk lives."""

    def __init__(self, ids: List[str], pairs: List[DualExposurePair]):
        self.ids = ids
        self.pairs = pairs
        self._memo = {}

    def __len__(self) -> int:
        return len(self.pairs)

    def _get(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _frames(self) -> tuple:
        return self._get("frames", lambda: (np.stack([p.long.as_matrix() for p in self.pairs]),
                                            np.stack([p.short.as_matrix() for p in self.pairs])))

    def gts(self) -> np.ndarray:
        """(N, 3) unit-norm ground truths."""
        return np.stack([p.ground_truth.as_array() for p in self.pairs])

    def defs(self, cfg: DefConfig) -> np.ndarray:
        """(N, d) dual-exposure features under cfg."""
        key = ("defs", cfg)
        if len(self) == 1:
            return self._get(key, lambda: compute_def(self.pairs[0], cfg).values[np.newaxis])
        return self._get(key, lambda: def_rows(*self._frames(), cfg)[0])

    def hists(self, variant: str, bins: int) -> np.ndarray:
        """(N, J, h, h) unit-mass histogram stacks; an empty histogram raises
        EmptyHistogramError naming its scene."""
        key = ("hists", variant, bins)
        if len(self) == 1:
            return self._get(key, lambda: hists_for_pair(self.pairs[0], variant, bins, self.ids)[np.newaxis])
        return self._get(key, lambda: hists_for_chunk(*self._frames(), variant, bins, self.ids))


def pair_chunks(named_pairs: Iterable[Tuple[str, DualExposurePair]]) -> Iterator[PairChunk]:
    """Group (id, pair) items, in order, into chunks: a new chunk starts when
    the frame size changes or the next pair would exceed PIXEL_BUDGET."""
    ids, pairs = [], []
    for name, pair in named_pairs:
        if pairs and (pair.long.data.shape != pairs[0].long.data.shape
                      or (len(pairs) + 1) * pair.long.pixel_count > PIXEL_BUDGET):
            yield PairChunk(ids, pairs)
            ids, pairs = [], []
        ids.append(name)
        pairs.append(pair)
    if pairs:
        yield PairChunk(ids, pairs)


def split_chunks(root: str, manifest: DatasetManifest, split: str, e: int) -> Iterator[PairChunk]:
    """The split's pairs at exposure factor e, in manifest order, loaded a
    chunk at a time."""
    return pair_chunks((entry.scene_id, load_pair(root, entry, e)) for entry in manifest.scenes_for(split))


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
            gts[rows] = chunk.gts()
            if with_hists:
                hists[rows] = chunk.hists(variant, bins)

    add(split_chunks(root, manifest, split, e))

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

"""Dataset-to-feature assembly for training and evaluation.

Images are loaded one scene at a time and dropped once their feature vector
(and, for the convolutional model, histogram stack) has been computed, so the
working set stays small even for large datasets.

build_feature_set is the package's one augmentation loop. With augment=True,
each train pair gains augment_copies Von Kries relit copies; every copy takes
the illuminant of a random member of the pair's k-means cluster of features.
The loop reloads the pair to relight it and recomputes features from the
transformed frames. A copy that re-issues the pair's own illuminant (always
the case in a single-member cluster) is counted in identity_copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .def_feature import DefConfig, compute_def
from .eccc import hists_for_pair
from .errors import DataError
from .histogram import DEFAULT_BINS
from .synth import DatasetManifest, load_pair
from .training import kmeans, relight_pair


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

    ids: List[str] = []
    defs: List[np.ndarray] = []
    gts: List[np.ndarray] = []
    hists: List[np.ndarray] = []
    for entry in scenes:
        pair = load_pair(root, entry, e)
        ids.append(entry.scene_id)
        defs.append(compute_def(pair, def_cfg).values)
        gts.append(pair.ground_truth.as_array())
        if with_hists:
            hists.append(hists_for_pair(pair, variant, bins))

    identity = 0
    if augment:
        base_defs = np.stack(defs)
        k = min(augment_clusters, len(scenes))
        model = kmeans(base_defs, k, seed=seed)
        labels = model.labels
        members = {c: np.flatnonzero(labels == c) for c in range(k)}
        rng = np.random.default_rng(seed)
        base_gts = np.stack(gts)
        for idx, entry in enumerate(scenes):
            pool = members[int(labels[idx])]
            pair = load_pair(root, entry, e)
            for copy_i in range(augment_copies):
                pick = int(pool[rng.integers(len(pool))])
                if pick == idx or len(pool) == 1:
                    identity += 1
                relit = relight_pair(pair, base_gts[pick])
                ids.append(f"{entry.scene_id}_aug{copy_i}")
                defs.append(compute_def(relit, def_cfg).values)
                gts.append(relit.ground_truth.as_array())
                if with_hists:
                    hists.append(hists_for_pair(relit, variant, bins))

    return FeatureSet(
        scene_ids=ids,
        defs=np.stack(defs),
        gts=np.stack(gts),
        hists=np.stack(hists) if with_hists else None,
        identity_copies=identity,
    )

import numpy as np
import pytest

from duxwb import pipeline
from duxwb.core import DualExposurePair, RawImage
from duxwb.def_feature import COLOR_REPRS, MAPPINGS, DefConfig, compute_def, def_rows
from duxwb.eccc import VARIANTS, hists_for_pair
from duxwb.errors import DataError, EmptyHistogramError
from duxwb.pipeline import PairChunk, build_feature_set, split_chunks, split_predictor
from duxwb.synth import SceneSpec, generate_dataset, load_pair, render_pair, write_tensor

from conftest import BAD_FRAMES, break_frame, reference_histogram


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ds") / "d")
    manifest = generate_dataset(out, 15, e_list=(8,), seed=2,
                                spec=SceneSpec(width=32, height=24), splits=(10, 3, 2))
    return out, manifest


def test_build_features_basic(dataset):
    root, manifest = dataset
    fs = build_feature_set(root, manifest, "train", 8)
    assert len(fs) == 10
    assert fs.defs.shape == (10, 15)
    assert fs.gts.shape == (10, 3)
    assert fs.hists is None
    assert np.allclose(np.linalg.norm(fs.gts, axis=1), 1.0, atol=1e-9)


def test_build_features_with_hists(dataset):
    root, manifest = dataset
    fs = build_feature_set(root, manifest, "val", 8, with_hists=True, bins=32)
    assert fs.hists.shape == (3, 2, 32, 32)
    assert np.allclose(fs.hists.sum(axis=(2, 3)), 1.0, atol=1e-9)


def test_build_features_augmented(dataset):
    root, manifest = dataset
    fs = build_feature_set(root, manifest, "train", 8, augment=True,
                           augment_clusters=4, augment_copies=3, seed=1)
    assert len(fs) == 40  # 10 originals + 3 copies each
    assert sum(1 for sid in fs.scene_ids if "_aug" in sid) == 30
    base = build_feature_set(root, manifest, "train", 8)
    assert np.array_equal(fs.defs[:10], base.defs)


def test_build_features_missing_exposure(dataset):
    root, manifest = dataset
    with pytest.raises(DataError):
        build_feature_set(root, manifest, "train", 4)


def test_build_features_deterministic(dataset):
    root, manifest = dataset
    a = build_feature_set(root, manifest, "train", 8, augment=True, augment_clusters=3, seed=5)
    b = build_feature_set(root, manifest, "train", 8, augment=True, augment_clusters=3, seed=5)
    assert np.array_equal(a.defs, b.defs)
    assert np.array_equal(a.gts, b.gts)
    assert a.scene_ids == b.scene_ids


# ============================================================
# Chunked features: the bits of the per-pair extractors
# ============================================================

def _chunk_pairs():
    """Five 32x24 pairs: rendered ones, whose short frames hold invalid
    pixels, one with an all-valid long frame, and a gray, rank-deficient one."""
    spec = SceneSpec(width=32, height=24)
    pairs = [render_pair(spec, 8, seed=s) for s in range(4)]
    pairs[1] = DualExposurePair(long=RawImage(np.maximum(pairs[1].long.data, 1e-3)), short=pairs[1].short,
                                exposure_factor=8.0, ground_truth=pairs[1].ground_truth)
    gray = np.repeat(pairs[2].long.data[1:2], 3, axis=0)
    pairs.insert(2, DualExposurePair(long=RawImage(gray), short=RawImage(gray / 8.0), exposure_factor=8.0,
                                     ground_truth=pairs[2].ground_truth))
    return pairs


def test_chunk_pairs_cover_the_edge_cases():
    pairs = _chunk_pairs()
    short_invalid = [int((p.short.as_matrix() <= 0.0).any(axis=0).sum()) for p in pairs]
    assert min(short_invalid[:2] + short_invalid[3:]) > 0
    assert np.all(pairs[1].long.data > 0.0)
    assert compute_def(pairs[2]).degenerate and not compute_def(pairs[0]).degenerate


@pytest.mark.parametrize("include_covariance", [True, False])
@pytest.mark.parametrize("mapping", MAPPINGS)
@pytest.mark.parametrize("color_repr", COLOR_REPRS)
def test_chunk_defs_match_compute_def_bitwise(color_repr, mapping, include_covariance):
    cfg = DefConfig(color_repr=color_repr, mapping=mapping, include_covariance=include_covariance)
    pairs = _chunk_pairs()
    chunk = PairChunk.from_pairs([f"s{i}" for i in range(len(pairs))], pairs)
    longs = np.stack([p.long.as_matrix() for p in pairs])
    shorts = np.stack([p.short.as_matrix() for p in pairs])
    values, degenerate = def_rows(longs, shorts, cfg)
    one = [compute_def(p, cfg) for p in pairs]
    assert chunk.defs(cfg).tobytes() == np.stack([v.values for v in one]).tobytes()
    assert values.tobytes() == chunk.defs(cfg).tobytes()
    assert degenerate.tolist() == [v.degenerate for v in one]


@pytest.mark.parametrize("bins", [32, 64])
@pytest.mark.parametrize("variant", VARIANTS)
def test_chunk_hists_match_hists_for_pair_bitwise(variant, bins):
    """A chunk and each pair alone give the bits of a test-local oracle: the
    masked formula per frame, stacked and normalised per grid."""
    pairs = _chunk_pairs()
    chunk = PairChunk.from_pairs([f"s{i}" for i in range(len(pairs))], pairs)
    expected = np.stack([_reference_hists(p, variant, bins) for p in pairs])
    assert chunk.hists(variant, bins).tobytes() == expected.tobytes()
    assert np.stack([hists_for_pair(p, variant, bins) for p in pairs]).tobytes() == expected.tobytes()


def _reference_hists(pair, variant, bins):
    frames = {"long": [pair.long], "short": [pair.short], "both": [pair.long, pair.short],
              "avg": [RawImage((pair.long.data + pair.short.data) / 2.0)]}[variant]
    masses = [reference_histogram(img, bins)[0] for img in frames]
    return np.stack([m / m.sum() for m in masses])


def _per_pair_features(root, manifest, split, e, variant="both"):
    pairs = [load_pair(root, entry, e) for entry in manifest.scenes_for(split)]
    return (np.stack([compute_def(p).values for p in pairs]),
            np.stack([hists_for_pair(p, variant) for p in pairs]),
            np.stack([p.ground_truth.as_array() for p in pairs]))


@pytest.mark.parametrize("per_chunk", [1, 3, 100])
def test_build_features_match_per_pair_extractors_bitwise(dataset, monkeypatch, per_chunk):
    """Ten train pairs in chunks of one, of three (3+3+3+1) and in one chunk."""
    root, manifest = dataset
    monkeypatch.setattr(pipeline, "PIXEL_BUDGET", per_chunk * 32 * 24)
    fs = build_feature_set(root, manifest, "train", 8, with_hists=True)
    defs, hists, gts = _per_pair_features(root, manifest, "train", 8)
    assert fs.defs.tobytes() == defs.tobytes()
    assert fs.hists.tobytes() == hists.tobytes()
    assert fs.gts.tobytes() == gts.tobytes()


def test_augmented_features_do_not_depend_on_the_chunk_size(dataset, monkeypatch):
    root, manifest = dataset
    runs = []
    for per_chunk in (1, 4, 100):
        monkeypatch.setattr(pipeline, "PIXEL_BUDGET", per_chunk * 32 * 24)
        runs.append(build_feature_set(root, manifest, "train", 8, with_hists=True, augment=True,
                                      augment_clusters=3, seed=4))
    for fs in runs[1:]:
        assert fs.scene_ids == runs[0].scene_ids and fs.identity_copies == runs[0].identity_copies
        for key in ("defs", "hists", "gts"):
            assert getattr(fs, key).tobytes() == getattr(runs[0], key).tobytes()


def test_a_new_chunk_starts_when_the_frame_size_changes(mixed_dataset, monkeypatch):
    root, manifest = mixed_dataset
    monkeypatch.setattr(pipeline, "PIXEL_BUDGET", 1 << 16)
    shapes = [chunk.longs.shape for chunk in split_chunks(root, manifest, "train", 8)]
    assert shapes == [(2, 3, 24, 32), (3, 3, 16, 16), (3, 3, 24, 32), (2, 3, 16, 16)]
    fs = build_feature_set(root, manifest, "train", 8, with_hists=True, variant="avg")
    defs, hists, gts = _per_pair_features(root, manifest, "train", 8, "avg")
    assert fs.scene_ids == [entry.scene_id for entry in manifest.scenes]
    assert fs.defs.tobytes() == defs.tobytes()
    assert fs.hists.tobytes() == hists.tobytes()
    assert fs.gts.tobytes() == gts.tobytes()


@pytest.mark.parametrize("per_chunk", [1, 100])
def test_black_short_frame_raises_empty_histogram_naming_its_scene(tmp_path, monkeypatch, per_chunk):
    """The third of five pairs, in the middle of a chunk or a chunk of its own.
    Without histograms (the EMLP's features) the split still completes."""
    root = str(tmp_path / "d")
    manifest = generate_dataset(root, 5, e_list=(8,), seed=1, spec=SceneSpec(width=32, height=24),
                                splits=(5, 0, 0))
    black = manifest.scenes[2]
    write_tensor(f"{root}/{black.files['short_8']}", np.zeros((3, 24, 32)))
    monkeypatch.setattr(pipeline, "PIXEL_BUDGET", per_chunk * 32 * 24)
    with pytest.raises(EmptyHistogramError) as info:
        build_feature_set(root, manifest, "train", 8, with_hists=True)
    assert str(info.value) == f"histogram holds no mass for scenes: {black.scene_id}"
    assert len(build_feature_set(root, manifest, "train", 8)) == 5


def test_empty_histograms_name_every_scene_that_holds_one():
    pairs = _chunk_pairs()
    zero = RawImage(np.zeros((3, 24, 32)))
    for i in (0, 3):
        pairs[i] = DualExposurePair(long=zero if i else pairs[i].long, short=zero, exposure_factor=8.0)
    with pytest.raises(EmptyHistogramError, match="^histogram holds no mass for scenes: s0, s3$"):
        PairChunk.from_pairs([f"s{i}" for i in range(len(pairs))], pairs).hists("both", 64)


# ============================================================
# Stacked loading: error paths and the prediction rows' order
# ============================================================

@pytest.mark.parametrize("how", BAD_FRAMES)
def test_loader_names_the_broken_file_or_scene_mid_chunk(tmp_path, monkeypatch, how):
    """The third of five pairs, which all fit in one chunk, is broken; the
    loader raises DataError naming its file (its scene, for two frame sizes)
    before the chunk is formed."""
    root = str(tmp_path / "d")
    manifest = generate_dataset(root, 5, e_list=(8,), seed=1, spec=SceneSpec(width=32, height=24),
                                splits=(5, 0, 0))
    monkeypatch.setattr(pipeline, "PIXEL_BUDGET", 100 * 32 * 24)
    named = break_frame(root, manifest.scenes[2], how)
    with pytest.raises(DataError) as info:
        list(split_chunks(root, manifest, "train", 8))
    assert named in str(info.value)


def test_loaded_chunks_hold_the_pairs_of_load_pair(dataset, monkeypatch):
    root, manifest = dataset
    monkeypatch.setattr(pipeline, "PIXEL_BUDGET", 4 * 32 * 24)
    chunks = list(split_chunks(root, manifest, "train", 8))
    pairs = [load_pair(root, entry, 8) for entry in manifest.scenes_for("train")]
    assert [len(c) for c in chunks] == [4, 4, 2]
    assert [i for c in chunks for i in c.ids] == [entry.scene_id for entry in manifest.scenes_for("train")]
    for key, got in (("long", [c.longs for c in chunks]), ("short", [c.shorts for c in chunks])):
        want = np.stack([getattr(p, key).data for p in pairs])
        assert np.concatenate(got).dtype == np.float64 and np.concatenate(got).tobytes() == want.tobytes()
    gts = np.stack([p.ground_truth.as_array() for p in pairs])
    assert np.concatenate([c.gts for c in chunks]).tobytes() == gts.tobytes()


def test_split_predictor_matches_rows_to_scenes_by_id(dataset, monkeypatch):
    root, manifest = dataset
    monkeypatch.setattr(pipeline, "PIXEL_BUDGET", 3 * 32 * 24)
    scenes = manifest.scenes_for("train")

    def rows(chunk):  # each row encodes its scene's position
        return np.array([[1.0, 1.0, 1.0 + int(i[1:])] for i in chunk.ids])

    predict = split_predictor(root, manifest, "train", 8, rows)
    for entry in scenes:
        assert predict(entry)[2] == 1.0 + int(entry.scene_id[1:])
    with pytest.raises(DataError, match=f"asked to predict scene {scenes[0].scene_id}, but .* no scene"):
        predict(scenes[0])

    predict = split_predictor(root, manifest, "train", 8, rows)
    predict(scenes[0])
    with pytest.raises(DataError, match=f"scene {scenes[2].scene_id}, but the next prediction is for "
                                        f"scene {scenes[1].scene_id}"):
        predict(scenes[2])


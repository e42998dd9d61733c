import os
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from duxwb.core import angular_error
from duxwb.def_feature import DefConfig, compute_def
from duxwb.errors import DataError, DomainError
from duxwb.synth import (
    HEADER_MAX,
    DatasetManifest,
    SceneSpec,
    generate_dataset,
    load_pair,
    read_tensor,
    render_frame,
    render_pair,
    render_scene,
    sample_illuminant,
    split_counts,
    write_tensor,
)

from conftest import covariance_block, mapping_block

SMALL = SceneSpec(
    width=24, height=16, patch_count=12, sigma_read=0.0, sigma_shot=0.0, quantize=False
)


def _replace(spec, **kw):
    from dataclasses import replace

    return replace(spec, **kw)


# ============================================================
# Rendering
# ============================================================

def test_exposure_ratio_exact_without_noise_or_clipping():
    # low exposure target so even the long frame stays below clipping
    spec = _replace(SMALL, exposure_target=0.01)
    pair = render_pair(spec, e=2, seed=0)
    assert pair.long.data.max() < 1.0
    assert np.array_equal(pair.long.data, 4.0 * pair.short.data)


def test_long_frame_clips_more_than_short():
    spec = _replace(SceneSpec(width=24, height=16, patch_count=12), sigma_read=0.0, sigma_shot=0.0)
    pair = render_pair(spec, e=8, seed=1)
    clipped_long = np.mean(pair.long.data >= 1.0)
    clipped_short = np.mean(pair.short.data >= 1.0)
    assert clipped_long > clipped_short


def test_neutral_collapse_of_clean_renders():
    # no noise, no clipping: the pair is an exact scaling, so the feature
    # collapses to the neutral case; clipping/noise are the only signal source
    spec = _replace(SMALL, exposure_target=0.01)
    cfg = DefConfig(eps_ratio=0.0, eps_chroma=0.0)
    for seed in range(5):
        pair = render_pair(spec, e=8, seed=seed)
        vec = compute_def(pair, cfg)
        assert np.linalg.norm(mapping_block(vec) - np.eye(3)) < 1e-6
        assert np.linalg.norm(covariance_block(vec)) < 1e-10


def test_noisy_clipped_def_differs_from_clean(rng):
    clean_spec = _replace(SMALL, exposure_target=0.01)
    noisy_spec = SceneSpec(width=24, height=16, patch_count=12)
    cfg = DefConfig()
    dists = []
    for seed in range(30):
        clean = compute_def(render_pair(clean_spec, 8, seed), cfg)
        noisy = compute_def(render_pair(noisy_spec, 8, seed), cfg)
        dists.append(np.linalg.norm(clean.values - noisy.values))
    assert np.mean(dists) > 0.01


def test_render_determinism():
    spec = SceneSpec(width=24, height=16)
    a = render_pair(spec, 4, seed=7)
    b = render_pair(spec, 4, seed=7)
    assert np.array_equal(a.long.data, b.long.data)
    assert np.array_equal(a.short.data, b.short.data)


def test_gt_unit_norm():
    pair = render_pair(SceneSpec(width=24, height=16), 2, seed=3)
    assert np.linalg.norm(pair.ground_truth.as_array()) == pytest.approx(1.0, abs=1e-9)


def test_quantization_grid():
    spec = _replace(SMALL, quantize=True, bit_depth=10)
    pair = render_pair(spec, 2, seed=0)
    levels = pair.long.data * 1023.0
    assert np.abs(levels - np.round(levels)).max() < 1e-9


def test_illuminant_two_lobe_spread():
    spec = SceneSpec()
    rng = np.random.default_rng(0)
    ills = np.stack([sample_illuminant(spec, rng) for _ in range(2000)])
    rg = ills[:, 0] / ills[:, 1]
    bg = ills[:, 2] / ills[:, 1]
    # both warm and cool lobes are populated
    assert np.mean(rg > 1.15) > 0.15
    assert np.mean(rg < 0.87) > 0.15
    assert np.mean(bg > 1.1) > 0.15
    assert np.mean(bg < 0.9) > 0.15


def test_invalid_exposure_factor():
    with pytest.raises(DomainError):
        render_pair(SMALL, e=1, seed=0)


# ============================================================
# Tensor file format
# ============================================================

def test_tensor_round_trip(tmp_path, rng):
    data = rng.uniform(0, 1, (3, 6, 9)).astype(np.float32)
    path = str(tmp_path / "img.dxt")
    write_tensor(path, data)
    back = read_tensor(path)
    assert np.array_equal(back, data)
    with open(path, "rb") as fh:
        head = fh.read(4)
    assert head == b"DXT1"


def test_tensor_header_contents(tmp_path):
    path = str(tmp_path / "img.dxt")
    write_tensor(path, np.zeros((3, 5, 7), dtype=np.float32))
    with open(path, "rb") as fh:
        blob = fh.read()
    assert blob[4:].startswith(b"5 7 3 f32 le\n")
    assert len(blob) == 4 + len(b"5 7 3 f32 le\n") + 3 * 5 * 7 * 4


def test_tensor_bad_magic(tmp_path):
    path = str(tmp_path / "bad.dxt")
    with open(path, "wb") as fh:
        fh.write(b"NOPE1 1 3 f32 le\n")
    with pytest.raises(DataError):
        read_tensor(path)


@pytest.mark.parametrize("header", [b"0 4 3 f32 le\n", b"4 0 3 f32 le\n", b"-1 4 3 f32 le\n", b"x 4 3 f32 le\n"])
def test_tensor_nonpositive_or_bad_size_raises(tmp_path, header):
    path = str(tmp_path / "zero.dxt")
    with open(path, "wb") as fh:
        fh.write(b"DXT1" + header)
    with pytest.raises(DataError):
        read_tensor(path)


@pytest.mark.parametrize("header", [b"4 4 3 f32", b""])
def test_tensor_truncated_header_raises(tmp_path, header):
    path = str(tmp_path / "cut.dxt")
    with open(path, "wb") as fh:
        fh.write(b"DXT1" + header)
    with pytest.raises(DataError, match="truncated header"):
        read_tensor(path)


def test_tensor_header_without_newline_fails_fast(tmp_path):
    path = str(tmp_path / "runon.dxt")
    with open(path, "wb") as fh:
        fh.write(b"DXT1" + b"7" * (1 << 20))
    t0 = time.perf_counter()
    with pytest.raises(DataError, match="no header line"):
        read_tensor(path)
    assert time.perf_counter() - t0 < 0.25


def test_longest_valid_header_is_read(tmp_path):
    # the reader accepts leading zeros, so pad a valid header to the cap
    side = "2".zfill((HEADER_MAX - len(" 3 f32 le\n") - 1) // 2)
    header = f"{side} {side} 3 f32 le\n".encode("ascii")
    assert len(header) in (HEADER_MAX, HEADER_MAX - 1)
    path = str(tmp_path / "padded.dxt")
    with open(path, "wb") as fh:
        fh.write(b"DXT1" + header + np.ones((3, 2, 2), dtype="<f4").tobytes())
    assert np.array_equal(read_tensor(path), np.ones((3, 2, 2), dtype=np.float32))


def test_tensor_header_larger_than_file_raises(tmp_path):
    path = str(tmp_path / "short.dxt")
    write_tensor(path, np.zeros((3, 2, 2), dtype=np.float32))
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        # claims 1000 x 1000 pixels over a 2 x 2 payload
        fh.write(blob.replace(b"2 2 3 f32 le\n", b"1000 1000 3 f32 le\n"))
    with pytest.raises(DataError, match="payload bytes"):
        read_tensor(path)


def test_tensor_trailing_bytes_raise(tmp_path):
    path = str(tmp_path / "long.dxt")
    write_tensor(path, np.zeros((3, 2, 2), dtype=np.float32))
    with open(path, "ab") as fh:
        fh.write(b"\0" * 4)
    with pytest.raises(DataError):
        read_tensor(path)


def test_tensor_short_read_raises(tmp_path, monkeypatch):
    path = str(tmp_path / "img.dxt")
    write_tensor(path, np.zeros((3, 2, 2), dtype=np.float32))
    with open(path, "rb+") as fh:
        fh.truncate(os.path.getsize(path) - 4)
    # a file that shrinks between the size check and the read
    real_fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size + 4))
    with pytest.raises(DataError, match="short read"):
        read_tensor(path)


_HEADER_TOKENS = st.sampled_from([b"0", b"2", b"3", b"16", b"-1", b"+2", b"x", b" ", b"\t", b"\n", b"f32", b"f64",
                                   b"le", b"be", b"\xff", b"\x00", b"9" * 25])
def _near_valid(h, w, spot, bad, sep, end):
    """A valid header line for h x w, with field `spot` (if any) replaced."""
    fields = [h, w, b"3", b"f32", b"le"]
    if spot is not None:
        fields[spot] = bad
    return sep.join(fields) + end


_NEAR_VALID = st.builds(_near_valid, st.sampled_from([b"1", b"2", b"02"]), st.sampled_from([b"1", b"2"]),
                        st.one_of(st.none(), st.integers(0, 4)),
                        st.sampled_from([b"0", b"-1", b"x", b"4", b"f64", b"be", b"9" * 25, b"1 1"]),
                        st.sampled_from([b" ", b"\t"]), st.sampled_from([b"\n", b"\n", b" \n", b""]))
_HEADERS = st.one_of(st.binary(max_size=48), st.lists(_HEADER_TOKENS, max_size=12).map(b"".join), _NEAR_VALID)


@settings(derandomize=True, max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(magic=st.sampled_from([b"DXT1", b"DXT1", b"DXT1", b"DXT0", b"DX"]), header=_HEADERS,
       payload=st.one_of(st.integers(0, 60), st.sampled_from([12, 24, 48])))  # the sizes of 1x1, 1x2 and 2x2
def test_malformed_headers_raise_data_error_and_nothing_else(tmp_path, magic, header, payload):
    """Fuzzed magics, header lines and payload sizes: read_tensor either
    reads a (3, h, w) frame whose header line names its size and whose
    payload is exactly that size, or raises DataError."""
    path = tmp_path / "fuzz.dxt"
    blob = magic + header + b"\x01" * payload
    path.write_bytes(blob)
    try:
        data = read_tensor(str(path))
    except DataError:
        return
    line = blob[4:blob.index(b"\n") + 1]
    assert magic == b"DXT1" and data.shape == (3, int(line.split()[0]), int(line.split()[1]))
    assert len(blob) == 4 + len(line) + data.nbytes


def test_missing_tensor_file_raises_data_error(tmp_path):
    with pytest.raises(DataError, match="none.dxt: cannot open tensor file"):
        read_tensor(str(tmp_path / "none.dxt"))


def test_load_pair_frames_are_the_stored_values_as_float64(tmp_path):
    manifest = generate_dataset(str(tmp_path), n_scenes=1, e_list=(8,), seed=0, spec=SMALL)
    entry = manifest.scenes[0]
    pair = load_pair(str(tmp_path), entry, 8)
    for img, key in ((pair.long, "long_8"), (pair.short, "short_8")):
        stored = read_tensor(os.path.join(str(tmp_path), entry.files[key]))
        assert img.data.dtype == np.float64 and np.array_equal(img.data, stored)


# ============================================================
# Dataset generation
# ============================================================

def test_split_counts_default_ratio():
    train, val, test = split_counts(556)
    assert (train, val, test) == (387, 83, 86)
    train, val, test = split_counts(100)
    assert train + val + test == 100
    assert val > 0 and test > 0


def test_split_counts_explicit():
    assert split_counts(10, (6, 2, 2)) == (6, 2, 2)
    with pytest.raises(DomainError):
        split_counts(10, (9, 2, 2))


@pytest.mark.parametrize("field,value", [
    ("width", 0), ("height", -4), ("width", 2.0), ("width", True), ("patch_count", 0), ("bit_depth", 0),
    ("albedo_lo", -0.1), ("albedo_lo", 0.99), ("albedo_shape", 0.0), ("shading_range_lo", 0.0),
    ("shading_range_lo", 200.0), ("exposure_target", 0.0), ("sigma_read", -1e-3), ("sigma_shot", float("nan")),
    ("lobe_sigma", -0.1), ("chroma_jitter", float("inf")), ("locus_u_lin", float("nan")), ("lobe_offset", "0.5"),
])
def test_scene_spec_checks_its_fields(field, value):
    with pytest.raises(DomainError, match=f"SceneSpec.{field} must"):
        SceneSpec(**{field: value})


def test_bad_scene_spec_makes_no_directory(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(DomainError, match="SceneSpec.width must be a positive integer, got 0"):
        generate_dataset(str(out), 2, e_list=(8,), spec=SceneSpec(width=0, height=4))
    assert not out.exists()


def test_generate_dataset_round_trip(tmp_path):
    out = str(tmp_path / "data")
    spec = SceneSpec(width=24, height=16)
    manifest = generate_dataset(out, n_scenes=12, e_list=(2, 8), seed=5, spec=spec)
    assert len(manifest.scenes) == 12
    splits = {s.split for s in manifest.scenes}
    assert splits == {"train", "val", "test"}
    # every referenced file exists and loads
    for entry in manifest.scenes:
        for key, rel in entry.files.items():
            assert os.path.isfile(os.path.join(out, rel))
        assert set(entry.files) == {"auto", "long_2", "short_2", "long_8", "short_8"}
    loaded = DatasetManifest.load(out)
    assert loaded.to_json() == manifest.to_json()
    pair = load_pair(out, loaded.scenes[0], 8)
    assert pair.exposure_factor == 8.0
    assert pair.ground_truth is not None


def test_generate_dataset_deterministic(tmp_path):
    spec = SceneSpec(width=24, height=16)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    ma = generate_dataset(out_a, 8, e_list=(4,), seed=9, spec=spec)
    mb = generate_dataset(out_b, 8, e_list=(4,), seed=9, spec=spec)
    assert ma.to_json() == mb.to_json()
    for entry in ma.scenes:
        for rel in entry.files.values():
            with open(os.path.join(out_a, rel), "rb") as fa, open(os.path.join(out_b, rel), "rb") as fb:
                assert fa.read() == fb.read()


def test_splits_disjoint_and_exhaustive(tmp_path):
    out = str(tmp_path / "d")
    manifest = generate_dataset(out, 20, e_list=(2,), seed=1, spec=SceneSpec(width=24, height=16))
    ids = [s.scene_id for s in manifest.scenes]
    assert len(set(ids)) == 20
    by_split = [len(manifest.scenes_for(s)) for s in ("train", "val", "test")]
    assert sum(by_split) == 20


@pytest.mark.parametrize("text", [
    "{bad",
    "{}",
    '{"seed": 0, "width": 4, "height": 4, "e_list": [2], "scenes": [{"scene_id": "s0"}]}',
])
def test_malformed_dataset_manifest_raises(tmp_path, text):
    with open(tmp_path / "manifest.json", "w") as fh:
        fh.write(text)
    with pytest.raises(DataError, match="manifest.json: malformed manifest"):
        DatasetManifest.load(str(tmp_path))


def test_missing_frame_raises(tmp_path):
    out = str(tmp_path / "d")
    manifest = generate_dataset(out, 4, e_list=(2,), seed=1, spec=SceneSpec(width=24, height=16), splits=(2, 1, 1))
    with pytest.raises(DataError):
        load_pair(out, manifest.scenes[0], 8)

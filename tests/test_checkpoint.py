import os

import numpy as np
import pytest

from duxwb.checkpoint import load_checkpoint, save_checkpoint
from duxwb.core import DualExposurePair, Illuminant, RawImage
from duxwb.def_feature import DefConfig
from duxwb.eccc import count_params, init_eccc
from duxwb.errors import DataError
from duxwb.mlp import emlp_init
from duxwb import models
from duxwb.models import ModelBundle, ensemble_predict, load_model, save_model
from duxwb.synth import SceneSpec, render_pair
from duxwb.training import ensemble

from conftest import random_image


def test_round_trip_bitwise_for_f32_tensors(tmp_path, rng):
    tensors = {
        "a": rng.standard_normal((4, 3)).astype(np.float32).astype(np.float64),
        "b": rng.standard_normal(7).astype(np.float32).astype(np.float64),
    }
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, "emlp", tensors, {"e": 8, "note": "x"})
    kind, loaded, meta = load_checkpoint(path)
    assert kind == "emlp"
    assert meta == {"e": 8, "note": "x"}
    for name in tensors:
        assert np.array_equal(loaded[name], tensors[name])


def test_save_load_save_fixed_point(tmp_path, rng):
    tensors = {"w": rng.standard_normal((5, 5))}
    p1 = str(tmp_path / "a.ckpt")
    p2 = str(tmp_path / "b.ckpt")
    save_checkpoint(p1, "emlp", tensors, {})
    kind, loaded, meta = load_checkpoint(p1)
    save_checkpoint(p2, kind, loaded, meta)
    with open(p1, "rb") as fa, open(p2, "rb") as fb:
        a, b = fa.read(), fb.read()
    # manifests differ only in the blob basename line
    a_lines = [ln for ln in a.decode().splitlines() if not ln.startswith("blob ")]
    b_lines = [ln for ln in b.decode().splitlines() if not ln.startswith("blob ")]
    assert a_lines == b_lines
    with open(p1 + ".bin", "rb") as fa, open(p2 + ".bin", "rb") as fb:
        assert fa.read() == fb.read()


def test_manifest_is_text_with_offsets(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, "eccc", {"x": np.zeros((2, 2)), "y": np.ones(3)}, {})
    with open(path) as fh:
        text = fh.read()
    assert text.startswith("DUXWB-CKPT 1\n")
    assert "tensor x f32 0 2 2" in text
    assert "tensor y f32 16 3" in text  # offset = 4 floats * 4 bytes


def test_missing_checkpoint_raises(tmp_path):
    with pytest.raises(DataError):
        load_checkpoint(str(tmp_path / "nope.ckpt"))


def test_missing_blob_raises(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, "emlp", {"w": np.zeros(3)}, {})
    os.remove(path + ".bin")
    with pytest.raises(DataError):
        load_checkpoint(path)


def _saved_two_tensors(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, "emlp", {"w1": np.ones((2, 2)), "b1": np.zeros(2)}, {})
    return path


def test_blob_trailing_bytes_raise(tmp_path):
    path = _saved_two_tensors(tmp_path)
    with open(path + ".bin", "ab") as fh:
        fh.write(b"\0" * 4)
    with pytest.raises(DataError, match="blob holds"):
        load_checkpoint(path)


def test_blob_gap_raises(tmp_path):
    path = _saved_two_tensors(tmp_path)
    _rewrite_manifest(path, lambda lines: [ln for ln in lines if not ln.startswith("tensor w1 ")])
    with pytest.raises(DataError, match="gap"):
        load_checkpoint(path)


def test_overlapping_tensor_offsets_raise(tmp_path):
    path = _saved_two_tensors(tmp_path)
    # b1 moved inside w1 would read two of w1's ones
    _rewrite_manifest(path, lambda lines: [ln.replace("tensor b1 f32 16 2", "tensor b1 f32 8 2") for ln in lines])
    with pytest.raises(DataError, match="overlap"):
        load_checkpoint(path)


def test_duplicate_tensor_line_raises(tmp_path):
    path = _saved_two_tensors(tmp_path)
    _rewrite_manifest(path, lambda lines: lines + [ln for ln in lines if ln.startswith("tensor b1 ")])
    with pytest.raises(DataError, match="duplicate tensor b1"):
        load_checkpoint(path)


# ============================================================
# Model bundles
# ============================================================

def test_emlp_bundle_round_trip(tmp_path, rng):
    params = emlp_init(15, seed=1)
    # float32-representable values so the round trip is exact
    for t in params.tensors().values():
        t[:] = t.astype(np.float32)
    bundle = ModelBundle(kind="emlp", def_cfg=DefConfig(), e=8, emlp=params)
    path = str(tmp_path / "emlp.ckpt")
    save_model(path, bundle)
    loaded = load_model(path)
    assert loaded.kind == "emlp"
    assert loaded.e == 8
    assert loaded.def_cfg == DefConfig()
    for a, b in zip(loaded.emlp.tensors().values(), params.tensors().values()):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("use_def,variant", [(True, "both"), (True, "long"), (False, "both")])
def test_eccc_bundle_round_trip(tmp_path, rng, use_def, variant):
    params = init_eccc(bins=32, n=4, variant=variant, use_def=use_def, seed=2)
    for t in params.tensors().values():
        t[:] = (t + rng.standard_normal(t.shape)).astype(np.float32)
    bundle = ModelBundle(kind="eccc", def_cfg=DefConfig(eps_ratio=1e-3), e=4, eccc=params)
    path = str(tmp_path / "eccc.ckpt")
    save_model(path, bundle)
    loaded = load_model(path)
    assert loaded.kind == "eccc"
    assert loaded.eccc.bins == 32
    assert loaded.eccc.variant == variant
    assert loaded.eccc.use_def == use_def
    assert loaded.def_cfg.eps_ratio == 1e-3
    assert count_params(loaded.eccc) == count_params(params)
    for name, arr in params.tensors().items():
        assert np.array_equal(loaded.eccc.tensors()[name], arr)


def test_bundle_predicts(tmp_path, rng):
    params = emlp_init(15, seed=3)
    bundle = ModelBundle(kind="emlp", def_cfg=DefConfig(), e=8, emlp=params)
    img = random_image(rng, 8, 8)
    pair = DualExposurePair(long=img, short=RawImage(img.data * 0.1), exposure_factor=8.0)
    ill = bundle.predict_pair(pair)
    assert isinstance(ill, Illuminant)
    assert np.linalg.norm(ill.as_array()) == pytest.approx(1.0, abs=1e-9)


def _rewrite_manifest(path, edit):
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def _saved_eccc(tmp_path, def_cfg=None):
    def_cfg = def_cfg or DefConfig()
    params = init_eccc(bins=32, n=4, def_dim=def_cfg.feature_length, seed=5)
    path = str(tmp_path / "eccc.ckpt")
    save_model(path, ModelBundle(kind="eccc", def_cfg=def_cfg, e=8, eccc=params))
    return path


def test_feature_meta_keys_unchanged(tmp_path):
    path = _saved_eccc(tmp_path)
    with open(path) as fh:
        keys = [ln.split()[1] for ln in fh if ln.startswith("meta def_")]
    assert keys == [
        "def_color_repr", "def_eps_chroma", "def_eps_ratio", "def_include_covariance",
        "def_map_direction", "def_mapping", "def_tm_extended",
    ]


def test_missing_feature_key_takes_config_default(tmp_path):
    path = _saved_eccc(tmp_path, DefConfig(eps_ratio=1e-3, mapping="affine3x4"))
    _rewrite_manifest(path, lambda lines: [ln for ln in lines if not ln.startswith("meta def_eps_ratio ")])
    loaded = load_model(path)
    assert loaded.def_cfg.eps_ratio == DefConfig().eps_ratio == 1e-2
    assert loaded.def_cfg.mapping == "affine3x4"


def test_unknown_feature_key_raises(tmp_path):
    path = _saved_eccc(tmp_path)
    _rewrite_manifest(path, lambda lines: lines + ["meta def_mask_saturated true"])
    with pytest.raises(DataError, match="def_mask_saturated"):
        load_model(path)


@pytest.mark.parametrize("saved,edited,tensor", [
    ("meta bins 32", "meta bins 64", "filters"),      # 8x8 filters no longer match
    ("meta n_biases 4", "meta n_biases 5", "biases"),
])
def test_metadata_disagreeing_with_tensors_raises(tmp_path, saved, edited, tensor):
    path = _saved_eccc(tmp_path)
    _rewrite_manifest(path, lambda lines: [edited if ln == saved else ln for ln in lines])
    with pytest.raises(DataError, match=tensor):
        load_model(path)


def test_full_bias_shape_checked(tmp_path):
    params = init_eccc(bins=32, n=4, use_def=False, seed=5)
    params.full_bias = np.zeros((16, 16))
    path = str(tmp_path / "eccc.ckpt")
    save_model(path, ModelBundle(kind="eccc", def_cfg=DefConfig(), e=8, eccc=params))
    with pytest.raises(DataError, match="full_bias"):
        load_model(path)


def _saved_mlp_bundle(tmp_path, kind, edit_mlp):
    if kind == "emlp":
        params = emlp_init(15, seed=3)
        edit_mlp(params)
        bundle = ModelBundle(kind="emlp", def_cfg=DefConfig(), e=8, emlp=params)
    else:
        params = init_eccc(bins=32, n=4, seed=5)
        edit_mlp(params.mlp)
        bundle = ModelBundle(kind="eccc", def_cfg=DefConfig(), e=8, eccc=params)
    path = str(tmp_path / f"{kind}.ckpt")
    save_model(path, bundle)
    return path


@pytest.mark.parametrize("kind,prefix", [("emlp", ""), ("eccc", "mlp_")])
def test_mlp_weight_shape_checked(tmp_path, kind, prefix):
    def bad_w2(mlp):
        mlp.weights[1] = np.zeros((9, 7))

    path = _saved_mlp_bundle(tmp_path, kind, bad_w2)
    with pytest.raises(DataError, match=f"'{prefix}w2'"):
        load_model(path)


@pytest.mark.parametrize("kind,prefix", [("emlp", ""), ("eccc", "mlp_")])
def test_missing_mlp_bias_raises(tmp_path, kind, prefix):
    path = _saved_mlp_bundle(tmp_path, kind, lambda mlp: None)
    # drop the tensor from both files: deleting only its manifest line would
    # leave a gap in the blob, which load_checkpoint rejects on its own
    _, tensors, meta = load_checkpoint(path)
    del tensors[f"{prefix}b3"]
    save_checkpoint(path, kind, tensors, meta)
    with pytest.raises(DataError, match=f"'{prefix}b3'"):
        load_model(path)


@pytest.mark.parametrize("b_cfg,b_use_def,def_calls", [
    (DefConfig(), True, 1),                  # one shared DEF
    (DefConfig(eps_ratio=1e-3), True, 2),    # different settings: one DEF each
    (DefConfig(), False, 1),                 # only the EMLP needs it
])
def test_ensemble_computes_def_once_per_pair(monkeypatch, rng, b_cfg, b_use_def, def_calls):
    a = ModelBundle(kind="emlp", def_cfg=DefConfig(), e=8, emlp=emlp_init(15, seed=3, neutral_start=False))
    params = init_eccc(bins=32, n=4, use_def=b_use_def, seed=5)
    for arr in params.tensors().values():
        arr += rng.standard_normal(arr.shape) * 0.3
    b = ModelBundle(kind="eccc", def_cfg=b_cfg, e=8, eccc=params)
    pairs = [render_pair(SceneSpec().small(), 8, seed=s) for s in range(3)]
    expected = [ensemble(a.predict_pair(p), b.predict_pair(p)).as_array() for p in pairs]

    calls = []
    compute_def = models.compute_def
    monkeypatch.setattr(models, "compute_def", lambda pair, cfg: calls.append(cfg) or compute_def(pair, cfg))
    for pair, want in zip(pairs, expected):
        assert np.array_equal(ensemble_predict(a, b, pair).as_array(), want)
    assert len(calls) == def_calls * len(pairs)

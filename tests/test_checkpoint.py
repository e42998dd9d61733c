import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from duxwb.checkpoint import load_checkpoint, save_checkpoint
from duxwb.core import DualExposurePair, Illuminant, RawImage, row_products
from duxwb.def_feature import COLOR_REPRS, MAPPINGS, DefConfig
from duxwb.eccc import VARIANTS, init_eccc
from duxwb.errors import DataError
from duxwb.mlp import emlp_init, init_mlp
from duxwb import models, pipeline
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


def test_tensor_size_past_int64_raises(tmp_path):
    # 2**32 * 2**32 elements: an int64 product wraps to 0 bytes, which would
    # tile the blob and fail later in reshape
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, "emlp", {"w": np.zeros(3)}, {})
    _rewrite_manifest(path, lambda lines: lines + ["tensor big f32 12 4294967296 4294967296"])
    with pytest.raises(DataError, match="blob holds 12"):
        load_checkpoint(path)


@pytest.mark.parametrize("line", ["tensor w f32 x 3", "tensor w", "meta e {bad"])
def test_malformed_manifest_line_raises(tmp_path, line):
    path = _saved_two_tensors(tmp_path)
    _rewrite_manifest(path, lambda lines: lines + [line])
    with pytest.raises(DataError, match="malformed manifest line") as info:
        load_checkpoint(path)
    assert repr(line) in str(info.value)


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
    assert loaded.eccc.tensors().keys() == params.tensors().keys()
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


def _set_meta(path, key, value):
    """Replace the manifest's `meta key` line with the raw JSON text value."""
    _rewrite_manifest(path, lambda lines: [f"meta {key} {value}" if ln.startswith(f"meta {key} ") else ln
                                           for ln in lines])


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
    assert keys == ["def_color_repr", "def_eps_chroma", "def_eps_ratio", "def_include_covariance", "def_mapping"]


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


@pytest.mark.parametrize("key,value", [
    ("def_eps_ratio", '"x"'), ("def_eps_ratio", "true"), ("def_eps_ratio", "NaN"), ("def_eps_ratio", "Infinity"),
    ("def_eps_ratio", "-0.5"), ("def_eps_ratio", "[0.01]"), ("def_eps_ratio", "1e400"), ("def_eps_ratio", "1" + "0" * 400),
    ("def_eps_chroma", "null"), ("def_eps_chroma", "false"), ("def_eps_chroma", "-Infinity"),
    ("def_include_covariance", '"no"'), ("def_include_covariance", "1"), ("def_include_covariance", "null"),
    ("def_color_repr", '"bogus"'), ("def_color_repr", "1"), ("def_mapping", '"Linear3x3"'), ("def_mapping", "null"),
])
def test_feature_metadata_must_hold_a_value_of_its_field_kind(tmp_path, key, value):
    path = _saved_eccc(tmp_path)
    _set_meta(path, key, value)
    with pytest.raises(DataError, match=f"'{key}'"):
        load_model(path)


@pytest.mark.parametrize("value,eps", [("0", 0), ("0.001", 1e-3), ("2", 2)])
def test_feature_eps_metadata_takes_any_finite_nonnegative_json_number(tmp_path, value, eps):
    path = _saved_eccc(tmp_path)
    _set_meta(path, "def_eps_ratio", value)
    assert load_model(path).def_cfg.eps_ratio == eps


# What checkpoints saved before DefConfig lost map_direction and tm_extended,
# and before the MLP's LeakyReLU slope became a constant, hold for those
# settings.
OLDER_META = {"def_map_direction": "short_to_long", "def_tm_extended": False, "leaky_slope": 0.01}


def _bundle_for(kind, def_cfg, rng=None):
    """An EMLP or ECCC bundle on def_cfg; rng, when given, perturbs every tensor."""
    d = def_cfg.feature_length
    if kind == "emlp":
        bundle = ModelBundle(kind="emlp", def_cfg=def_cfg, e=8, emlp=emlp_init(d, seed=1))
    else:
        bundle = ModelBundle(kind="eccc", def_cfg=def_cfg, e=8, eccc=init_eccc(bins=16, n=3, def_dim=d, seed=1))
    if rng is not None:
        for arr in (bundle.emlp or bundle.eccc).tensors().values():
            arr += rng.standard_normal(arr.shape) * 0.3
    return bundle


def _saved_as_older(path, older_path, meta_edit=None):
    """Copy of the checkpoint at path, as an older save wrote it: with the
    retired lines (meta_edit, when given, changes them)."""
    kind, tensors, meta = load_checkpoint(path)
    meta.update(OLDER_META, **(meta_edit or {}))
    save_checkpoint(older_path, kind, tensors, meta)


@pytest.mark.parametrize("kind", ["emlp", "eccc"])
def test_older_checkpoint_loads_predicts_and_resaves_without_retired_lines(tmp_path, rng, kind):
    # one file name in three folders, so the manifests' blob lines agree
    for folder in ("new", "old", "resaved"):
        os.makedirs(tmp_path / folder)
    new_path, old_path = str(tmp_path / "new" / "m.ckpt"), str(tmp_path / "old" / "m.ckpt")
    save_model(new_path, _bundle_for(kind, DefConfig(), rng))
    _saved_as_older(new_path, old_path)
    with open(old_path) as fh:
        old_text = fh.read()
    assert 'meta def_map_direction "short_to_long"\n' in old_text and "meta def_tm_extended false\n" in old_text
    assert "meta leaky_slope 0.01\n" in old_text

    new, old = load_model(new_path), load_model(old_path)
    assert old.def_cfg == new.def_cfg
    for seed in range(3):
        pair = render_pair(SceneSpec().small(), 8, seed=seed)
        assert np.array_equal(old.predict_pair(pair).as_array(), new.predict_pair(pair).as_array())

    resaved = str(tmp_path / "resaved" / "m.ckpt")
    save_model(resaved, old)
    for suffix in ("", ".bin"):
        with open(new_path + suffix, "rb") as fa, open(resaved + suffix, "rb") as fb:
            assert fa.read() == fb.read()


@pytest.mark.parametrize("key,value", [
    ("def_map_direction", "long_to_short"), ("def_map_direction", None), ("def_map_direction", 1),
    ("def_tm_extended", True), ("def_tm_extended", 0), ("def_tm_extended", "false"),
])
def test_older_checkpoint_of_another_feature_raises(tmp_path, key, value):
    path = _saved_eccc(tmp_path)
    older = str(tmp_path / "older.ckpt")
    _saved_as_older(path, older, {key: value})
    with pytest.raises(DataError, match=f"'{key}'"):
        load_model(older)


_CLI_DEF_CONFIGS = st.builds(
    DefConfig,
    color_repr=st.sampled_from(COLOR_REPRS),
    mapping=st.sampled_from(MAPPINGS),
    include_covariance=st.booleans(),
    eps_ratio=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    eps_chroma=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(def_cfg=_CLI_DEF_CONFIGS, kind=st.sampled_from(["emlp", "eccc"]))
def test_feature_settings_round_trip_property(tmp_path, def_cfg, kind):
    """Every feature configuration the CLI can set, with any finite eps >= 0,
    loads back equal, and a second save writes the same bytes."""
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir(exist_ok=True)
    second.mkdir(exist_ok=True)
    save_model(str(first / "m.ckpt"), _bundle_for(kind, def_cfg))
    loaded = load_model(str(first / "m.ckpt"))
    assert loaded.def_cfg == def_cfg
    save_model(str(second / "m.ckpt"), loaded)
    for name in ("m.ckpt", "m.ckpt.bin"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(models._def_meta(DefConfig())) + sorted(OLDER_META)), value=_JSON_VALUES)
def test_any_json_in_a_feature_key_loads_or_raises_data_error(tmp_path, key, value):
    path = _saved_eccc(tmp_path)
    kind, tensors, meta = load_checkpoint(path)
    meta[key] = value
    save_checkpoint(path, kind, tensors, meta)
    try:
        loaded = load_model(path)
    except DataError:
        return
    assert isinstance(loaded.def_cfg, DefConfig)


@pytest.mark.parametrize("saved,edited,tensor", [
    ("meta bins 32", "meta bins 64", "filters"),      # 8x8 filters no longer match
    ("meta n_biases 4", "meta n_biases 5", "biases"),
])
def test_metadata_disagreeing_with_tensors_raises(tmp_path, saved, edited, tensor):
    path = _saved_eccc(tmp_path)
    _rewrite_manifest(path, lambda lines: [edited if ln == saved else ln for ln in lines])
    with pytest.raises(DataError, match=tensor):
        load_model(path)


@pytest.mark.parametrize("key", ["bins", "n_biases", "e"])
@pytest.mark.parametrize("value", ['"x"', "[1]", "16.9", "true", "null"])
def test_integer_metadata_must_be_a_json_integer(tmp_path, key, value):
    path = _saved_eccc(tmp_path)
    _set_meta(path, key, value)
    with pytest.raises(DataError, match=f"'{key}'"):
        load_model(path)


@pytest.mark.parametrize("value", ['"true"', "1", "0", "[true]", "null"])
def test_use_def_metadata_must_be_a_json_boolean(tmp_path, value):
    path = _saved_eccc(tmp_path)
    _set_meta(path, "use_def", value)
    with pytest.raises(DataError, match="'use_def'"):
        load_model(path)


@pytest.mark.parametrize("value", ["0", "1", "-8"])
def test_exposure_metadata_below_two_raises(tmp_path, value):
    path = _saved_eccc(tmp_path)
    _set_meta(path, "e", value)
    with pytest.raises(DataError, match="'e'"):
        load_model(path)


@pytest.mark.parametrize("kind", ["emlp", "eccc"])
@pytest.mark.parametrize("value", ['"x"', "[0.1]", "true", "null", "NaN", "Infinity"])
def test_leaky_slope_metadata_must_be_a_finite_json_number(tmp_path, kind, value):
    path = _saved_mlp_bundle(tmp_path, kind, lambda mlp: None)
    _rewrite_manifest(path, lambda lines: lines + [f"meta leaky_slope {value}"])
    with pytest.raises(DataError, match="'leaky_slope'"):
        load_model(path)


@pytest.mark.parametrize("kind", ["emlp", "eccc"])
@pytest.mark.parametrize("value", [0, 0.25])
def test_older_checkpoint_of_another_activation_raises(tmp_path, kind, value):
    path = _saved_mlp_bundle(tmp_path, kind, lambda mlp: None)
    older = str(tmp_path / "older.ckpt")
    _saved_as_older(path, older, {"leaky_slope": value})
    with pytest.raises(DataError, match="'leaky_slope'"):
        load_model(older)


@pytest.mark.parametrize("value", ['"bogus"', '"Both"', "1", "null", '["both"]'])
def test_variant_metadata_must_name_a_variant(tmp_path, value):
    path = _saved_eccc(tmp_path)
    _set_meta(path, "variant", value)
    with pytest.raises(DataError, match="'variant'"):
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
    a = ModelBundle(kind="emlp", def_cfg=DefConfig(), e=8, emlp=init_mlp(15, 3, 3))
    params = init_eccc(bins=32, n=4, use_def=b_use_def, seed=5)
    for arr in params.tensors().values():
        arr += rng.standard_normal(arr.shape) * 0.3
    b = ModelBundle(kind="eccc", def_cfg=b_cfg, e=8, eccc=params)
    pairs = [render_pair(SceneSpec().small(), 8, seed=s) for s in range(3)]
    expected = [ensemble(a.predict_pair(p).as_array()[np.newaxis], b.predict_pair(p).as_array()[np.newaxis])[0]
                for p in pairs]

    calls = []
    compute_def = pipeline.compute_def
    monkeypatch.setattr(pipeline, "compute_def", lambda pair, cfg: calls.append(cfg) or compute_def(pair, cfg))
    for pair, want in zip(pairs, expected):
        assert np.array_equal(ensemble_predict(a, b, pair).as_array(), want)
    assert len(calls) == def_calls * len(pairs)


def _perturbed(params, rng):
    for arr in params.tensors().values():
        arr += rng.standard_normal(arr.shape) * 0.3
    return params


@pytest.mark.parametrize("n", [1, 3, 10])
def test_predict_rows_have_predict_pair_bits_in_any_chunk(rng, n):
    """Every row of ModelBundle.predict has the bits predict_pair gives its
    pair alone, for EMLP and ECCC (with and without the feature path), and
    the ensemble of two chunk predictions has ensemble_predict's bits."""
    pairs = [render_pair(SceneSpec().small(), 8, seed=s) for s in range(n)]
    chunk = pipeline.PairChunk.from_pairs([f"s{i}" for i in range(n)], pairs)
    emlp = ModelBundle(kind="emlp", def_cfg=DefConfig(), e=8, emlp=_perturbed(emlp_init(15, seed=3), rng))
    bundles = [emlp] + [ModelBundle(kind="eccc", def_cfg=DefConfig(), e=8,
                                    eccc=_perturbed(init_eccc(bins=32, n=4, use_def=use_def, seed=5), rng))
                        for use_def in (True, False)]
    for bundle in bundles:
        rows = bundle.predict(chunk)
        assert rows.shape == (n, 3)
        assert rows.tobytes() == np.stack([bundle.predict_pair(p).as_array() for p in pairs]).tobytes()
    for other in bundles[1:]:
        both = ensemble(emlp.predict(chunk), other.predict(chunk))
        assert both.tobytes() == np.stack([ensemble_predict(emlp, other, p).as_array() for p in pairs]).tobytes()


_POOL = 24  # pairs the chunked-predict property test draws its chunks from


@pytest.fixture(scope="module")
def predict_pool():
    """The pool's pairs, the bundles under test, the ensembled bundle pairs,
    and each pair's estimates predicted alone: per bundle from predict_pair,
    per ensemble from ensemble_predict."""
    rng = np.random.default_rng(7)
    pairs = [render_pair(SceneSpec().small(), 8, seed=s) for s in range(_POOL)]
    emlp = ModelBundle(kind="emlp", def_cfg=DefConfig(), e=8, emlp=_perturbed(emlp_init(15, seed=3), rng))
    ecccs = [ModelBundle(kind="eccc", def_cfg=DefConfig(), e=8,
                         eccc=_perturbed(init_eccc(variant=variant, use_def=use_def, seed=5), rng))
             for variant, use_def in [(v, True) for v in VARIANTS] + [("both", False)]]
    bundles = [emlp] + ecccs
    duos = [(emlp, b) for b in ecccs] + [(ecccs[0], ecccs[-1])]
    alone = [np.stack([b.predict_pair(p).as_array() for p in pairs]) for b in bundles]
    alone_duos = [np.stack([ensemble_predict(a, b, p).as_array() for p in pairs]) for a, b in duos]
    return pairs, bundles, duos, alone, alone_duos


@settings(derandomize=True, max_examples=25, deadline=None)
@given(picks=st.lists(st.integers(0, _POOL - 1), min_size=1, max_size=24), seed=st.integers(0, 2**16))
def test_chunk_predict_rows_are_the_pairs_predicted_alone(predict_pool, picks, seed):
    """For chunks of 1 to 24 pairs, every row of ModelBundle.predict has the
    bytes of its pair predicted alone: EMLP, ECCC on each histogram variant
    and without the feature path, and ensembles. row_products, which the
    prediction forwards take their products with, gives each row the bits
    of that row's own product, and a batch of one the bits of a @ m."""
    pairs, bundles, duos, alone, alone_duos = predict_pool
    chunk = pipeline.PairChunk.from_pairs([f"s{i}" for i in range(len(picks))], [pairs[i] for i in picks])
    for bundle, want in zip(bundles, alone):
        label = bundle.kind if bundle.eccc is None else (bundle.eccc.variant, bundle.eccc.use_def)
        assert bundle.predict(chunk).tobytes() == want[picks].tobytes(), label
    for (a, b), want in zip(duos, alone_duos):
        assert ensemble(a.predict(chunk), b.predict(chunk)).tobytes() == want[picks].tobytes()

    rng = np.random.default_rng(seed)
    for m in (rng.standard_normal((9, 15)).T, rng.standard_normal((20, 256)), rng.standard_normal(64)):
        a = rng.standard_normal((len(picks), m.shape[0]))
        rows = row_products(a, m)
        for i in range(len(a)):
            assert rows[i].tobytes() == (a[i:i + 1] @ m)[0].tobytes()
        assert row_products(a[:1], m).tobytes() == (a[:1] @ m).tobytes()

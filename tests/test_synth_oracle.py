"""The generator against its earlier, unvectorised form.

The reference functions below are render_scene, render_frame, interp_matrix
and write_tensor as they were before the frame passes went in place: a
pixel-major albedo from one advanced index, a Python loop per interpolation
row, a new array for each pass and a `tobytes()` copy. The program must give
the same dataset files byte for byte and the same t_auto bit for bit.
"""

import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duxwb import synth
from duxwb.core import RawImage, interp_matrix
from duxwb.synth import MAGIC, SceneRender, SceneSpec, generate_dataset, render_scene, sample_illuminant


def ref_interp_matrix(n_in, n_out):
    m = np.zeros((n_out, n_in), dtype=np.float64)
    if n_in == 1:
        m[:, 0] = 1.0
        return m
    if n_out == 1:
        m[0, 0] = 1.0
        return m
    scale = (n_in - 1) / (n_out - 1)
    for j in range(n_out):
        x = j * scale
        i0 = min(int(np.floor(x)), n_in - 2)
        frac = x - i0
        m[j, i0] = 1.0 - frac
        m[j, i0 + 1] = frac
    return m


def ref_render_scene(spec, rng):
    gt = sample_illuminant(spec, rng)
    rows, cols = synth._patch_grid(spec)
    span = spec.albedo_hi - spec.albedo_lo
    patches = spec.albedo_lo + span * rng.beta(spec.albedo_shape, spec.albedo_shape, size=(3, rows, cols))
    row_idx = np.minimum(np.arange(spec.height) * rows // spec.height, rows - 1)
    col_idx = np.minimum(np.arange(spec.width) * cols // spec.width, cols - 1)
    albedo = patches[:, row_idx[:, None], col_idx[None, :]]
    log_lo, log_hi = math.log(spec.shading_range_lo), math.log(spec.shading_range_hi)
    dyn_range = math.exp(rng.uniform(log_lo, log_hi))
    coarse = rng.uniform(0.0, 1.0, size=(3, 4))
    up = ref_interp_matrix(3, spec.height) @ coarse @ ref_interp_matrix(4, spec.width).T
    shading = np.power(dyn_range, up - 1.0)
    irradiance = shading * albedo * gt[:, None, None]
    t_auto = spec.exposure_target / irradiance.mean()
    return SceneRender(irradiance=irradiance, gt=gt, t_auto=float(t_auto))


def ref_render_frame(scene, scale, spec, rng):
    signal = scale * scene.irradiance
    if spec.sigma_read > 0.0 or spec.sigma_shot > 0.0:
        var = spec.sigma_read ** 2 + spec.sigma_shot * np.clip(signal, 0.0, None)
        signal = signal + rng.normal(size=signal.shape) * np.sqrt(var)
    signal = np.clip(signal, 0.0, 1.0)
    if spec.quantize:
        levels = 2 ** spec.bit_depth - 1
        signal = np.round(signal * levels) / levels
    return RawImage(signal)


def ref_write_tensor(path, data):
    arr = np.ascontiguousarray(np.asarray(data), dtype="<f4")
    header = f"{arr.shape[1]} {arr.shape[2]} 3 f32 le\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header)
        fh.write(arr.tobytes())


SMALL = SceneSpec().small()
# (spec, scenes, e_list); every spec runs at e = 2, 4, 8 unless it names others
CASES = {
    "default": (SceneSpec(), 1, (2, 4, 8)),
    "small": (SMALL, 12, (8,)),
    "odd-grid": (SceneSpec(width=37, height=11, patch_count=50), 6, (8,)),
    "albedo-lo-0": (replace(SMALL, albedo_lo=0.0), 6, (8,)),
    "noiseless": (replace(SMALL, sigma_read=0.0, sigma_shot=0.0), 6, (8,)),
    "unquantized": (replace(SMALL, quantize=False), 6, (8,)),
    "e-2-4-8": (SMALL, 4, (2, 4, 8)),
}


def _files(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_dataset_files_match_the_reference_generator_bytewise(tmp_path, monkeypatch, case):
    spec, n, e_list = CASES[case]
    generate_dataset(str(tmp_path / "new"), n, e_list=e_list, seed=11, spec=spec)
    with monkeypatch.context() as m:
        m.setattr(synth, "render_scene", ref_render_scene)
        m.setattr(synth, "render_frame", ref_render_frame)
        m.setattr(synth, "write_tensor", ref_write_tensor)
        generate_dataset(str(tmp_path / "ref"), n, e_list=e_list, seed=11, spec=spec)
    new, ref = _files(tmp_path / "new"), _files(tmp_path / "ref")
    assert sorted(new) == sorted(ref) and len(new) == 1 + n * (1 + 2 * len(e_list))
    assert [name for name in ref if new[name] != ref[name]] == []


@pytest.mark.parametrize("case,seeds", [("default", 12), ("small", 120), ("odd-grid", 40)])
def test_scene_matches_the_reference_bitwise(case, seeds):
    """t_auto is summed pixel-major: the mean of the C-ordered field in its
    own order moves t_auto by an ulp in about a quarter of these scenes."""
    spec = CASES[case][0]
    for seed in range(seeds):
        new = render_scene(spec, np.random.default_rng(seed))
        ref = ref_render_scene(spec, np.random.default_rng(seed))
        assert new.t_auto == ref.t_auto, seed
        assert np.array_equal(new.gt, ref.gt)
        assert np.array_equal(new.irradiance, ref.irradiance)
        assert new.irradiance.flags.c_contiguous


@settings(derandomize=True, max_examples=200, deadline=None)
@given(n_in=st.integers(1, 40), n_out=st.integers(1, 512))
def test_interp_matrix_matches_the_loop_bitwise(n_in, n_out):
    assert np.array_equal(interp_matrix(n_in, n_out), ref_interp_matrix(n_in, n_out))

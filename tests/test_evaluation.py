import numpy as np
import pytest

from duxwb.core import Illuminant, RawImage, angular_error
from duxwb.errors import DataError, DomainError
from duxwb.evaluation import (
    ErrorReport,
    baseline_predictor,
    compute_report,
    evaluate_scenes,
    gray_world,
    results_csv_rows,
    shades_of_gray,
)
from duxwb.synth import SceneSpec, generate_dataset

from conftest import random_image


# ============================================================
# compute_report
# ============================================================

def test_report_constant_errors():
    rep = compute_report([3.2] * 17)
    for value in (rep.mean, rep.median, rep.trimean, rep.best25_mean,
                  rep.worst25_mean, rep.worst5_mean, rep.max):
        assert value == pytest.approx(3.2, abs=1e-12)


def test_report_hand_example():
    rep = compute_report([1.0, 2.0, 3.0, 4.0])
    assert rep.median == pytest.approx(2.5)
    assert rep.trimean == pytest.approx((1.75 + 2 * 2.5 + 3.25) / 4.0)
    assert rep.trimean == pytest.approx(2.5)
    assert rep.max == 4.0
    assert rep.best25_mean == pytest.approx(1.0)   # ceil(0.25 * 4) = 1 smallest
    assert rep.worst25_mean == pytest.approx(4.0)
    assert rep.worst5_mean == pytest.approx(4.0)   # ceil(0.05 * 4) = 1 largest


def _sort_oracle(errors):
    s = sorted(errors)
    n = len(s)

    def quant(q):
        pos = q * (n - 1)
        lo = int(np.floor(pos))
        hi = min(lo + 1, n - 1)
        return s[lo] + (pos - lo) * (s[hi] - s[lo])

    import math

    n25 = math.ceil(0.25 * n)
    n5 = math.ceil(0.05 * n)
    return {
        "mean": sum(s) / n,
        "median": quant(0.5),
        "trimean": (quant(0.25) + 2 * quant(0.5) + quant(0.75)) / 4,
        "best25": sum(s[:n25]) / n25,
        "worst25": sum(s[-n25:]) / n25,
        "worst5": sum(s[-n5:]) / n5,
        "max": s[-1],
    }


def test_report_matches_sort_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(1, 60))
        errors = rng.uniform(0.0, 30.0, n).tolist()
        rep = compute_report(errors)
        oracle = _sort_oracle(errors)
        assert abs(rep.mean - oracle["mean"]) < 1e-12
        assert abs(rep.median - oracle["median"]) < 1e-12
        assert abs(rep.trimean - oracle["trimean"]) < 1e-12
        assert abs(rep.best25_mean - oracle["best25"]) < 1e-12
        assert abs(rep.worst25_mean - oracle["worst25"]) < 1e-12
        assert abs(rep.worst5_mean - oracle["worst5"]) < 1e-12
        assert abs(rep.max - oracle["max"]) < 1e-12


def test_report_ordering_chain(rng):
    for _ in range(100):
        errors = rng.exponential(5.0, int(rng.integers(1, 40)))
        rep = compute_report(errors)
        assert rep.best25_mean <= rep.mean <= rep.worst25_mean <= rep.worst5_mean <= rep.max
        assert min(errors) <= rep.median <= max(errors)


def test_report_empty_raises():
    with pytest.raises(DomainError):
        compute_report([])


def test_report_rejects_nonfinite():
    with pytest.raises(DomainError):
        compute_report([1.0, float("nan")])


def test_report_dict_schema():
    d = compute_report([1.0, 2.0]).to_dict(model="emlp", split="val", e=8)
    assert set(d) == {"model", "split", "e", "n_scenes", "mean", "median",
                      "trimean", "best25", "worst25", "worst5", "max"}
    assert d["n_scenes"] == 2


# ============================================================
# Baselines
# ============================================================

def test_gray_world_recovers_illuminant_on_gray_scene():
    ill = np.array([0.8, 1.0, 0.6])
    shading = np.linspace(0.2, 1.0, 24).reshape(1, 4, 6)
    img = RawImage(shading * 0.5 * ill[:, None, None])
    est = gray_world(img)
    assert angular_error(est, ill) < 1e-5
    assert np.allclose(est.as_array() / est.g, ill / ill[1], rtol=1e-12)


def test_gray_world_uniform_white():
    img = RawImage(np.full((3, 4, 4), 0.5))
    assert np.allclose(gray_world(img).as_array(), np.ones(3) / np.sqrt(3.0))


def test_gray_world_scale_invariant(rng):
    img = random_image(rng)
    doubled = RawImage(np.clip(img.data * 0.5, 0, 1) * 2.0)
    a = gray_world(RawImage(np.clip(img.data * 0.5, 0, 1)))
    b = gray_world(doubled)
    assert np.allclose(a.as_array(), b.as_array(), atol=1e-12)


def test_gray_world_zero_channel_raises():
    data = np.ones((3, 4, 4))
    data[2] = 0.0
    with pytest.raises(DomainError):
        gray_world(RawImage(data))


def test_shades_of_gray_p1_equals_gray_world(rng):
    img = random_image(rng)
    a = shades_of_gray(img, p=1.0)
    b = gray_world(img)
    assert np.allclose(a.as_array(), b.as_array(), atol=1e-12)


def test_shades_of_gray_uniform(rng):
    img = RawImage(np.full((3, 5, 5), 0.3))
    for p in (1.0, 4.0, 6.0):
        assert np.allclose(shades_of_gray(img, p).as_array(), np.ones(3) / np.sqrt(3.0))


def test_shades_of_gray_matches_direct_evaluation(rng):
    img = random_image(rng)
    est = shades_of_gray(img, p=6.0)
    m = img.as_matrix()
    direct = np.array([(np.abs(m[c]) ** 6.0).mean() ** (1 / 6.0) for c in range(3)])
    direct /= np.linalg.norm(direct)
    assert np.abs(est.as_array() - direct).max() < 1e-9


def test_shades_of_gray_requires_p_geq_1(rng):
    with pytest.raises(DomainError):
        shades_of_gray(random_image(rng), p=0.5)


# ============================================================
# Harness
# ============================================================

def test_perfect_predictor_all_zero(tmp_path):
    out = str(tmp_path / "d")
    manifest = generate_dataset(out, 8, e_list=(2,), seed=0, spec=SceneSpec(width=24, height=16))

    def perfect(entry):
        return Illuminant.from_array(np.array(entry.gt))

    report, results = evaluate_scenes(perfect, manifest, out, "train")
    assert report.mean == pytest.approx(0.0, abs=1e-6)
    assert report.max == pytest.approx(0.0, abs=1e-6)
    assert len(results) == len(manifest.scenes_for("train"))


def test_baseline_runs_on_auto_frame(tmp_path):
    out = str(tmp_path / "d")
    manifest = generate_dataset(out, 6, e_list=(2,), seed=1, spec=SceneSpec(width=24, height=16))
    predict = baseline_predictor("gray-world", out)
    report, results = evaluate_scenes(predict, manifest, out, "train")
    assert report.mean >= 0.0
    rows = results_csv_rows(results)
    assert rows[0][0] == "scene_id"
    assert len(rows) == len(results) + 1


def test_unknown_baseline_rejected():
    with pytest.raises(DomainError):
        baseline_predictor("magic", ".")


def test_empty_split_raises(tmp_path):
    out = str(tmp_path / "d")
    manifest = generate_dataset(out, 4, e_list=(2,), seed=2,
                                spec=SceneSpec(width=24, height=16), splits=(4, 0, 0))
    with pytest.raises(DataError):
        evaluate_scenes(lambda e: Illuminant(1, 1, 1), manifest, out, "val")


def test_report_invariant_violation_detected():
    with pytest.raises(DomainError):
        ErrorReport(mean=5.0, median=2.0, trimean=2.0, best25_mean=6.0,
                    worst25_mean=7.0, worst5_mean=8.0, max=9.0, errors=[1.0])


def _scene_score(pred, gt):
    """One scene scored the way Illuminant.normalized and a 1-D angular error
    formula do it: (error, unit prediction, unit ground truth)."""
    p = np.asarray(pred, dtype=np.float64)
    p = p / np.linalg.norm(p)
    g = np.asarray(gt, dtype=np.float64)
    g = g / np.linalg.norm(g)
    c = float(np.dot(p, g) / (np.linalg.norm(p) * np.linalg.norm(g)))
    return float(np.degrees(np.arccos(min(1.0, max(-1.0, c))))), p.tolist(), g.tolist()


def test_scores_have_the_bits_of_each_scene_alone(tmp_path, rng):
    """Estimates at any scale, as arrays or Illuminants, scored as one array;
    each scene's error, prediction and ground truth has the per-scene bits."""
    out = str(tmp_path / "d")
    manifest = generate_dataset(out, 40, e_list=(2,), seed=3, spec=SceneSpec(width=8, height=8), splits=(40, 0, 0))
    scenes = manifest.scenes_for("train")
    preds = rng.uniform(0.0, 1.0, (40, 3)) * rng.choice([1e-4, 1.0, 1e4], (40, 1))
    preds[5] = np.array(scenes[5].gt) * 3.0  # an exact hit
    by_id = {entry.scene_id: p if i % 2 else Illuminant.from_array(p) for i, (entry, p) in enumerate(zip(scenes, preds))}
    calls = []
    report, results = evaluate_scenes(lambda entry: calls.append(entry.scene_id) or by_id[entry.scene_id],
                                      manifest, out, "train")
    assert calls == [entry.scene_id for entry in scenes]
    for r, entry, p in zip(results, scenes, preds):
        assert (r.error_deg, r.predicted, r.gt) == _scene_score(p, entry.gt)
    assert report.errors == [r.error_deg for r in results]


@pytest.mark.parametrize("bad,message", [
    ([np.nan, 1.0, 1.0], "illuminant components must be finite"),
    ([0.5, -0.1, 1.0], "illuminant components must be nonnegative"),
    ([0.0, 0.0, 0.0], "illuminant must have at least one positive component"),
])
def test_bad_estimate_names_its_scene(tmp_path, bad, message):
    out = str(tmp_path / "d")
    manifest = generate_dataset(out, 6, e_list=(2,), seed=2, spec=SceneSpec(width=8, height=8), splits=(6, 0, 0))
    third = manifest.scenes_for("train")[2].scene_id
    with pytest.raises(DomainError, match=f"^{third}: {message}$"):
        evaluate_scenes(lambda entry: np.array(bad) if entry.scene_id == third else np.ones(3), manifest, out, "train")

import csv

import numpy as np
import pytest

import checks
from duxwb.core import Illuminant, angular_error
from duxwb.def_feature import compute_def
from duxwb.eccc import hists_for_pair
from duxwb.evaluation import SceneResult, compute_report, results_csv_rows
from duxwb.synth import SceneSpec, render_pair, write_tensor


@pytest.fixture
def pair():
    return render_pair(SceneSpec().small(), 8, seed=3)


def test_numpy_oracles_match_the_program(pair):
    defs = compute_def(pair).values[None]
    hists = hists_for_pair(pair, "both", 64)[None]
    checks.check_features("pair", defs, hists, [(pair.long.data, pair.short.data)])


def test_feature_check_catches_a_perturbed_entry(pair):
    defs = compute_def(pair).values[None].copy()
    defs[0, 4] += 1e-4
    hists = hists_for_pair(pair, "both", 64)[None]
    with pytest.raises(checks.CheckFailed, match="DEF"):
        checks.check_features("pair", defs, hists, [(pair.long.data, pair.short.data)])
    defs[0, 4] -= 1e-4
    hists[0, 1, 10, 10] += 1e-6
    with pytest.raises(checks.CheckFailed, match="histogram"):
        checks.check_features("pair", defs, hists, [(pair.long.data, pair.short.data)])


def test_read_dxt_matches_the_writer(tmp_path, pair):
    path = str(tmp_path / "x.dxt")
    write_tensor(path, pair.long.data)
    np.testing.assert_array_equal(checks.read_dxt(path), pair.long.data.astype("<f4"))


def _program_report(tmp_path, n=23):
    """A report and CSV written the way `duxwb eval` writes them."""
    rng = np.random.default_rng(0)
    gts = checks.unit(rng.uniform(0.2, 1.0, (n, 3)))
    preds = checks.unit(gts + rng.normal(0, 0.05, (n, 3)))
    results = []
    for i in range(n):
        p, g = Illuminant.from_array(preds[i]), Illuminant.from_array(gts[i])
        results.append(SceneResult(f"s{i:04d}", angular_error(p, g), [p.r, p.g, p.b], [g.r, g.g, g.b]))
    report = compute_report([r.error_deg for r in results]).to_dict(model="emlp", split="val", e=8)
    path = tmp_path / "r.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(results_csv_rows(results))
    return report, path, [r.scene_id for r in results], gts


def test_report_check_passes_on_program_output(tmp_path):
    report, path, ids, gts = _program_report(tmp_path)
    checks.check_report("emlp", report, checks.read_results_csv(path.read_text()), ids, gts)


def test_report_check_catches_a_perturbed_prediction(tmp_path):
    report, path, ids, gts = _program_report(tmp_path)
    rows = list(csv.reader(open(path)))
    rows[5][2] = repr(float(rows[5][2]) + 1e-3)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(checks.CheckFailed, match="error_deg"):
        checks.check_report("emlp", report, checks.read_results_csv(path.read_text()), ids, gts)


@pytest.mark.parametrize("key", checks.REPORT_KEYS)
def test_report_check_catches_a_wrong_statistic(tmp_path, key):
    report, path, ids, gts = _program_report(tmp_path)
    report[key] += 1e-6
    with pytest.raises(checks.CheckFailed, match=key):
        checks.check_report("emlp", report, checks.read_results_csv(path.read_text()), ids, gts)


def test_report_stats_match_the_seven_statistics():
    errors = np.random.default_rng(1).gamma(2.0, 2.0, size=57)
    ref = compute_report(errors)
    got = checks.report_stats(errors)
    assert got["mean"] == pytest.approx(ref.mean)
    assert got["median"] == pytest.approx(ref.median)
    assert got["trimean"] == pytest.approx(ref.trimean)
    assert got["best25"] == pytest.approx(ref.best25_mean)
    assert got["worst25"] == pytest.approx(ref.worst25_mean)
    assert got["worst5"] == pytest.approx(ref.worst5_mean)
    assert got["max"] == pytest.approx(ref.max)


def test_ensemble_check():
    rng = np.random.default_rng(2)
    a, b = checks.unit(rng.uniform(0.1, 1, (9, 3))), checks.unit(rng.uniform(0.1, 1, (9, 3)))
    ens = checks.unit(a + b)
    checks.check_ensemble(a, b, ens)
    ens[3, 0] += 1e-9
    with pytest.raises(checks.CheckFailed):
        checks.check_ensemble(a, b, ens)


def test_learned_check():
    checks.check_learned("m", 3.0, np.array([4.0, 5.0]), [9.0, 7.0, 6.0])
    with pytest.raises(checks.CheckFailed, match="initialisation"):
        checks.check_learned("m", 5.0, np.array([4.0, 5.0]), [9.0, 6.0])
    with pytest.raises(checks.CheckFailed, match="loss"):
        checks.check_learned("m", 3.0, np.array([4.0, 5.0]), [6.0, 7.0])

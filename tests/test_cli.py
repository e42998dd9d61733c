import csv
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from duxwb.cli import main

from conftest import BAD_FRAMES, break_file, break_frame

DATA_ARGS = ["--width", "32", "--height", "24", "--e-list", "2,8"]


def run_cli(args):
    return main(args)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("data") / "d")
    code = run_cli(["gen-data", "--out", out, "--scenes", "24", "--seed", "3", *DATA_ARGS])
    assert code == 0
    return out


def test_gen_data_deterministic(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert run_cli(["gen-data", "--out", a, "--scenes", "6", "--seed", "1", *DATA_ARGS]) == 0
    assert run_cli(["gen-data", "--out", b, "--scenes", "6", "--seed", "1", *DATA_ARGS]) == 0
    with open(os.path.join(a, "manifest.json")) as fa, open(os.path.join(b, "manifest.json")) as fb:
        assert fa.read() == fb.read()


def test_extract_def_csv(dataset, tmp_path):
    out = str(tmp_path / "defs.csv")
    code = run_cli(["extract-def", "--data", dataset, "--out", out, "--e", "8", "--with-gt"])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["scene_id", "e"]
    assert len(rows[0]) == 2 + 15 + 3
    assert len(rows) == 25  # header + 24 scenes
    vec = np.array([float(v) for v in rows[1][2:17]])
    assert np.all(np.isfinite(vec))


def test_train_eval_emlp(dataset, tmp_path):
    ckpt = str(tmp_path / "m.ckpt")
    code = run_cli([
        "train", "--data", dataset, "--model", "emlp", "--e", "8",
        "--out", ckpt, "--epochs", "30", "--seed", "0",
    ])
    assert code == 0
    assert os.path.isfile(ckpt) and os.path.isfile(ckpt + ".bin")
    assert os.path.isfile(ckpt + ".losses.csv")
    with open(ckpt + ".losses.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "split", "loss_mean_deg", "smoothness_terms", "lr", "batch_size"]
    assert len(rows) == 31

    report = str(tmp_path / "rep.json")
    csv_out = str(tmp_path / "per_scene.csv")
    code = run_cli([
        "eval", "--ckpt", ckpt, "--data", dataset, "--split", "val",
        "--out-report", report, "--out-csv", csv_out,
    ])
    assert code == 0
    with open(report) as fh:
        payload = json.load(fh)
    assert set(payload) == {"model", "split", "e", "n_scenes", "mean", "median",
                            "trimean", "best25", "worst25", "worst5", "max"}
    assert payload["model"] == "emlp"
    assert payload["e"] == 8
    with open(csv_out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "scene_id"
    assert len(rows) == payload["n_scenes"] + 1


def test_train_eval_eccc_and_ensemble(dataset, tmp_path):
    emlp_ckpt = str(tmp_path / "emlp.ckpt")
    eccc_ckpt = str(tmp_path / "eccc.ckpt")
    assert run_cli([
        "train", "--data", dataset, "--model", "emlp", "--e", "8",
        "--out", emlp_ckpt, "--epochs", "20", "--seed", "0",
    ]) == 0
    assert run_cli([
        "train", "--data", dataset, "--model", "eccc", "--e", "8",
        "--out", eccc_ckpt, "--epochs", "4", "--n", "3", "--seed", "0",
    ]) == 0
    report = str(tmp_path / "ens.json")
    code = run_cli([
        "ensemble-eval", "--ckpt-a", emlp_ckpt, "--ckpt-b", eccc_ckpt,
        "--data", dataset, "--split", "val", "--out-report", report,
    ])
    assert code == 0
    with open(report) as fh:
        payload = json.load(fh)
    assert payload["model"] == "ensemble"
    assert payload["n_scenes"] > 0


def _saved_bundles(tmp_path, e_a, e_b):
    """An EMLP (a) and an ECCC (b) checkpoint with perturbed tensors, recording e_a and e_b."""
    from duxwb.def_feature import DefConfig
    from duxwb.eccc import init_eccc
    from duxwb.mlp import emlp_init
    from duxwb.models import ModelBundle, save_model

    rng = np.random.default_rng(7)
    bundles = {"a": ModelBundle(kind="emlp", def_cfg=DefConfig(), e=e_a, emlp=emlp_init(15, seed=1)),
               "b": ModelBundle(kind="eccc", def_cfg=DefConfig(), e=e_b, eccc=init_eccc(bins=32, n=3, seed=1))}
    paths = {}
    for name, bundle in bundles.items():
        for arr in (bundle.emlp or bundle.eccc).tensors().values():
            arr += rng.standard_normal(arr.shape) * 0.3
        paths[name] = str(tmp_path / f"{name}.ckpt")
        save_model(paths[name], bundle)
    return paths["a"], paths["b"]


def _ensemble_eval(ckpt_a, ckpt_b, data, out, *extra):
    return run_cli(["ensemble-eval", "--ckpt-a", ckpt_a, "--ckpt-b", ckpt_b, "--data", data, "--split", "val",
                    "--out-report", out + ".json", "--out-csv", out + ".csv", *extra])


def test_ensemble_eval_is_symmetric_in_its_checkpoints(dataset, tmp_path):
    a, b = _saved_bundles(tmp_path, 8, 8)
    ab, ba = str(tmp_path / "ab"), str(tmp_path / "ba")
    assert _ensemble_eval(a, b, dataset, ab) == 0
    assert _ensemble_eval(b, a, dataset, ba) == 0
    for suffix in (".json", ".csv"):
        with open(ab + suffix, "rb") as fa, open(ba + suffix, "rb") as fb:
            assert fa.read() == fb.read()


def test_ensemble_eval_needs_one_exposure_factor(dataset, tmp_path, capsys):
    a, b = _saved_bundles(tmp_path, 8, 2)
    out = str(tmp_path / "ens")
    assert _ensemble_eval(a, b, dataset, out) == 1
    assert "2 and 8" in capsys.readouterr().err
    assert not os.path.exists(out + ".json")
    assert _ensemble_eval(a, b, dataset, out, "--e", "8") == 0
    with open(out + ".json") as fh:
        assert json.load(fh)["e"] == 8


def test_ensemble_eval_checks_the_split_before_it_reports(dataset, tmp_path, capsys):
    data = str(tmp_path / "d")
    shutil.copytree(dataset, data)
    with open(os.path.join(data, "manifest.json")) as fh:
        entry = next(s for s in json.load(fh)["scenes"] if s["split"] == "val")
    os.remove(os.path.join(data, entry["files"]["short_8"]))
    a, b = _saved_bundles(tmp_path, 8, 8)
    out = str(tmp_path / "ens")
    assert _ensemble_eval(a, b, data, out) == 1
    err = capsys.readouterr().err
    assert os.path.join(data, entry["files"]["short_8"]) in err
    assert not os.path.exists(out + ".json") and not os.path.exists(out + ".csv")


def _report_bytes(report, results, label, split, e) -> tuple:
    """The report and CSV bytes cli writes for these results."""
    from duxwb.evaluation import results_csv_rows

    table = io.StringIO(newline="")
    csv.writer(table).writerows(results_csv_rows(results))
    text = json.dumps(report.to_dict(model=label, split=split, e=e), indent=1, sort_keys=True) + "\n"
    return text.encode(), table.getvalue().encode()


@pytest.mark.parametrize("data,per_chunk", [("dataset", 1), ("dataset", 3), ("dataset", 100),
                                            ("mixed_dataset", 3), ("mixed_dataset", 100)],
                         ids=["1", "3", "100", "mixed-3", "mixed-100"])
def test_eval_outputs_match_per_pair_predictions_bytewise(request, tmp_path, monkeypatch, capsys, data, per_chunk):
    """eval and ensemble-eval featurise and predict the split in chunks (here
    chunks of one, of 3 pairs of 32x24, or all train pairs of a size in one;
    the mixed dataset alternates 32x24 and 16x16 frames); their reports and
    CSVs are those of predict_pair and ensemble_predict run pair by pair, and
    each CSV row holds the illuminant `duxwb infer` prints for its pair."""
    from duxwb import pipeline
    from duxwb.def_feature import DefConfig
    from duxwb.evaluation import evaluate_scenes
    from duxwb.mlp import emlp_init
    from duxwb.models import ModelBundle, ensemble_predict, load_model, save_model
    from duxwb.synth import DatasetManifest, load_pair

    dataset = request.getfixturevalue(data)
    dataset = dataset[0] if data == "mixed_dataset" else dataset
    monkeypatch.setattr(pipeline, "PIXEL_BUDGET", per_chunk * 32 * 24)
    emlp, eccc = _saved_bundles(tmp_path, 8, 8)
    rgb = str(tmp_path / "rgb.ckpt")  # an EMLP on another DEF than the ECCC's
    save_model(rgb, ModelBundle(kind="emlp", def_cfg=DefConfig(color_repr="rgb"), e=8, emlp=emlp_init(15, seed=2)))
    manifest = DatasetManifest.load(dataset)
    scenes = manifest.scenes_for("train")
    cases = [("emlp", ["eval", "--ckpt", emlp], lambda a, p: a.predict_pair(p), [emlp]),
             ("eccc", ["eval", "--ckpt", eccc], lambda a, p: a.predict_pair(p), [eccc]),
             ("ensemble", ["ensemble-eval", "--ckpt-a", emlp, "--ckpt-b", eccc], ensemble_predict, [emlp, eccc]),
             ("ensemble", ["ensemble-eval", "--ckpt-a", rgb, "--ckpt-b", eccc], ensemble_predict, [rgb, eccc])]
    for label, argv, predict, ckpts in cases:
        out = str(tmp_path / "out")
        assert run_cli(argv + ["--data", dataset, "--split", "train",
                               "--out-report", out + ".json", "--out-csv", out + ".csv"]) == 0
        bundles = [load_model(c) for c in ckpts]
        rows = np.stack([predict(*bundles, load_pair(dataset, entry, 8)).as_array() for entry in scenes])
        report, results = evaluate_scenes(lambda entries: rows, manifest, "train")
        with open(out + ".json", "rb") as fj, open(out + ".csv", "rb") as fc:
            assert (fj.read(), fc.read()) == _report_bytes(report, results, label, "train", 8), argv
        with open(out + ".csv", newline="") as fh:
            written = [row[2:5] for row in list(csv.reader(fh))[1:]]
        if label != "ensemble":
            capsys.readouterr()
            for entry in scenes:
                assert run_cli(["infer", "--ckpt", ckpts[0], "--long", f"{dataset}/{entry.files['long_8']}",
                                "--short", f"{dataset}/{entry.files['short_8']}"]) == 0
            printed = [json.loads(line)["illuminant"] for line in capsys.readouterr().out.splitlines()]
            assert [[json.dumps(v) for v in ill] for ill in printed] == written, argv
        assert [[repr(v) for v in row] for row in rows.tolist()] == written, argv


FILE_FAULTS = [how for how in BAD_FRAMES if how != "sizes"]


def _error_lines(capsys) -> list:
    return [line for line in capsys.readouterr().err.splitlines() if not line.startswith('{"resolved_config"')]


@pytest.mark.parametrize("how", BAD_FRAMES)
@pytest.mark.parametrize("per_chunk", [1, 100])
def test_eval_of_a_broken_pair_exits_1_with_one_message(tmp_path, capsys, monkeypatch, how, per_chunk):
    """The third of five pairs is broken, in the middle of one chunk or in a
    chunk of its own: eval exits 1 with one error line naming the file (the
    scene, for frames of two sizes) and writes no report."""
    from duxwb import pipeline
    from duxwb.synth import SceneSpec, generate_dataset

    root = str(tmp_path / "d")
    manifest = generate_dataset(root, 5, e_list=(8,), seed=1, spec=SceneSpec(width=32, height=24), splits=(0, 5, 0))
    named = break_frame(root, manifest.scenes[2], how)
    emlp, _ = _saved_bundles(tmp_path, 8, 8)
    monkeypatch.setattr(pipeline, "PIXEL_BUDGET", per_chunk * 32 * 24)
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert run_cli(["eval", "--ckpt", emlp, "--data", root, "--out-report", out + ".json",
                    "--out-csv", out + ".csv"]) == 1
    errors = _error_lines(capsys)
    assert len(errors) == 1 and errors[0].startswith("error: ") and named in errors[0]
    assert not os.path.exists(out + ".json") and not os.path.exists(out + ".csv")


@pytest.mark.parametrize("how", FILE_FAULTS)
@pytest.mark.parametrize("frame", ["long", "short"])
def test_infer_of_a_broken_frame_exits_1_naming_its_file(tmp_path, capsys, how, frame):
    from duxwb.synth import SceneSpec, generate_dataset

    root = str(tmp_path / "d")
    entry = generate_dataset(root, 1, e_list=(8,), seed=1, spec=SceneSpec(width=32, height=24)).scenes[0]
    paths = {kind: f"{root}/{entry.files[f'{kind}_8']}" for kind in ("long", "short")}
    named = break_file(paths[frame], how)
    emlp, _ = _saved_bundles(tmp_path, 8, 8)
    capsys.readouterr()
    assert run_cli(["infer", "--ckpt", emlp, "--long", paths["long"], "--short", paths["short"]]) == 1
    errors = _error_lines(capsys)
    assert len(errors) == 1 and errors[0].startswith(f"error: {named}: "), errors


@pytest.mark.parametrize("how", FILE_FAULTS)
def test_baseline_eval_of_a_broken_auto_frame_exits_1_naming_it(tmp_path, capsys, how):
    """The third of five auto frames is broken: a bad value is reported with
    its file and scene, an unreadable file with its path; no report is
    written."""
    from duxwb.synth import SceneSpec, generate_dataset

    root = str(tmp_path / "d")
    manifest = generate_dataset(root, 5, e_list=(8,), seed=1, spec=SceneSpec(width=32, height=24), splits=(0, 5, 0))
    entry = manifest.scenes[2]
    named = break_file(f"{root}/{entry.files['auto']}", how)
    if how not in ("truncated", "missing"):
        named += f" (scene {entry.scene_id})"
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert run_cli(["eval", "--baseline", "gray-world", "--data", root, "--out-report", out + ".json",
                    "--out-csv", out + ".csv"]) == 1
    errors = _error_lines(capsys)
    assert len(errors) == 1 and errors[0].startswith(f"error: {named}: "), errors
    assert not os.path.exists(out + ".json") and not os.path.exists(out + ".csv")


def test_extract_def_writes_each_chunks_own_ids(mixed_dataset, tmp_path, monkeypatch):
    """Rows carry the ids of the chunk they were computed in, in manifest
    order, with the features and raw ground truths of that scene."""
    from duxwb import pipeline
    from duxwb.def_feature import compute_def
    from duxwb.synth import load_pair

    root, manifest = mixed_dataset
    monkeypatch.setattr(pipeline, "PIXEL_BUDGET", 2 * 32 * 24)
    out = str(tmp_path / "defs.csv")
    assert run_cli(["extract-def", "--data", root, "--out", out, "--with-gt"]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))[1:]
    assert [row[0] for row in rows] == [entry.scene_id for entry in manifest.scenes]
    for row, entry in zip(rows, manifest.scenes):
        want = compute_def(load_pair(root, entry, 8)).values
        assert row[2:17] == [repr(float(v)) for v in want] and row[17:] == [repr(float(v)) for v in entry.gt]


@pytest.mark.parametrize("argv", [
    ["gen-data", "--scenes", "2", "--e-list", "8,-2"],
    ["gen-data", "--scenes", "2", "--e-list", "1"],
    ["gen-data", "--scenes", "2", "--e-list", "8,x"],
    ["gen-data", "--scenes", "2", "--e-list", "0"],
    ["eval", "--ckpt", "m.ckpt", "--e", "-3"],
    ["eval", "--ckpt", "m.ckpt", "--e", "1"],
    ["eval", "--ckpt", "m.ckpt", "--e", "x"],
    ["ensemble-eval", "--ckpt-a", "a.ckpt", "--ckpt-b", "b.ckpt", "--e", "1"],
    ["extract-def", "--e", "0"],
    ["train", "--model", "emlp", "--e", "0"],
    ["infer", "--ckpt", "m.ckpt", "--long", "l.dxt", "--short", "s.dxt", "--e", "1"],
    ["infer", "--ckpt", "m.ckpt", "--long", "l.dxt", "--short", "s.dxt", "--e", "-8"],
], ids=lambda argv: "_".join(argv[:1] + argv[-2:]))
def test_bad_exposure_factor_is_a_usage_error(tmp_path, capsys, argv):
    """Exit 2 with the usage line before any file is read or written: the
    data directory, checkpoints and frames do not exist, and --out is not made."""
    out = tmp_path / "out"
    paths = {"gen-data": ["--out", str(out)], "eval": ["--data", str(tmp_path / "none"), "--out-report", str(out)],
             "ensemble-eval": ["--data", str(tmp_path / "none"), "--out-report", str(out)],
             "extract-def": ["--data", str(tmp_path / "none"), "--out", str(out)],
             "train": ["--data", str(tmp_path / "none"), "--out", str(out)], "infer": []}[argv[0]]
    with pytest.raises(SystemExit) as info:
        run_cli(argv + paths)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: duxwb " + argv[0]) and "exposure factor must be an integer of at least 2" in err
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--splits", "5,5"], "splits must be three nonnegative integers"),
    (["--splits", "3,-1,0"], "splits must be three nonnegative integers"),
    (["--splits", "1,x,1"], "splits must be three nonnegative integers"),
    (["--width", "0"], "must be a positive integer"),
    (["--width", "-4"], "must be a positive integer"),
    (["--height", "0"], "must be a positive integer"),
    (["--height", "2.5"], "must be a positive integer"),
], ids=lambda v: "_".join(v) if isinstance(v, list) else "")
def test_bad_gen_data_size_is_a_usage_error(tmp_path, capsys, flags, message):
    """Exit 2 with the usage line at parse time, and --out is not made."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        run_cli(["gen-data", "--out", str(out), "--scenes", "2", *flags])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: duxwb gen-data") and message in err
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["train", "--epochs", "-3"], "must be a nonnegative integer"),
    (["train", "--lr", "-0.01"], "learning rate must be finite and nonnegative"),
    (["train", "--lr", "nan"], "learning rate must be finite and nonnegative"),
    (["train", "--lr", "inf"], "learning rate must be finite and nonnegative"),
    (["train", "--n", "0"], "must be a positive integer"),
    (["train", "--hist-bins", "2"], "must be an integer of at least 4"),
    (["train", "--seed", "-1"], "must be a nonnegative integer"),
    (["gen-data", "--seed", "-1"], "must be a nonnegative integer"),
], ids=lambda v: "_".join(v) if isinstance(v, list) else "")
def test_bad_training_number_is_a_usage_error(tmp_path, capsys, argv, message):
    """Exit 2 with the usage line at parse time: no data is read and --out is
    not made."""
    out = tmp_path / "out"
    paths = {"train": ["--data", str(tmp_path / "none"), "--model", "emlp"], "gen-data": ["--scenes", "2"]}[argv[0]]
    with pytest.raises(SystemExit) as info:
        run_cli(argv + paths + ["--out", str(out)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: duxwb " + argv[0]) and message in err
    assert not out.exists()


def test_training_numbers_at_their_bounds_parse():
    """0 epochs and learning rate 0 stand for the model defaults; the smallest
    bias bank, histogram and seed are accepted."""
    from duxwb.cli import build_parser

    args = build_parser().parse_args(["train", "--data", "d", "--model", "eccc", "--out", "m", "--epochs", "0",
                                      "--lr", "0", "--n", "1", "--hist-bins", "4", "--seed", "0"])
    assert (args.epochs, args.lr, args.n, args.hist_bins, args.seed) == (0, 0.0, 1, 4, 0)


def test_gen_data_splits_off_the_scene_count_make_no_directory(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["gen-data", "--out", str(out), "--scenes", "4", "--splits", "1,1,1", *DATA_ARGS]) == 1
    assert "split counts must be nonnegative and sum to n_scenes" in capsys.readouterr().err
    assert not out.exists()


def test_exposure_zero_means_the_checkpoints(dataset, tmp_path):
    emlp, _ = _saved_bundles(tmp_path, 8, 8)
    assert run_cli(["eval", "--ckpt", emlp, "--data", dataset, "--e", "0",
                    "--out-report", str(tmp_path / "r.json")]) == 0
    with open(tmp_path / "r.json") as fh:
        assert json.load(fh)["e"] == 8


def test_train_eccc_no_def_variant(dataset, tmp_path):
    ckpt = str(tmp_path / "nodef.ckpt")
    code = run_cli([
        "train", "--data", dataset, "--model", "eccc", "--e", "8", "--out", ckpt,
        "--epochs", "3", "--no-def", "--no-bias-init", "--seed", "0",
    ])
    assert code == 0
    from duxwb.models import load_model

    bundle = load_model(ckpt)
    assert not bundle.eccc.use_def
    assert bundle.eccc.full_bias.shape == (64, 64)
    report = str(tmp_path / "r.json")
    assert run_cli(["eval", "--ckpt", ckpt, "--data", dataset, "--split", "val",
                    "--out-report", report]) == 0


def test_eval_baseline(dataset, tmp_path):
    report = str(tmp_path / "gw.json")
    code = run_cli([
        "eval", "--baseline", "gray-world", "--data", dataset,
        "--split", "val", "--out-report", report,
    ])
    assert code == 0
    with open(report) as fh:
        payload = json.load(fh)
    assert payload["model"] == "gray-world"
    assert payload["mean"] >= 0.0


def test_infer(dataset, tmp_path, capsys):
    ckpt = str(tmp_path / "m.ckpt")
    assert run_cli([
        "train", "--data", dataset, "--model", "emlp", "--e", "8",
        "--out", ckpt, "--epochs", "5", "--seed", "0",
    ]) == 0
    with open(os.path.join(dataset, "manifest.json")) as fh:
        manifest = json.load(fh)
    entry = manifest["scenes"][0]
    capsys.readouterr()
    code = run_cli([
        "infer", "--ckpt", ckpt,
        "--long", os.path.join(dataset, entry["files"]["long_8"]),
        "--short", os.path.join(dataset, entry["files"]["short_8"]),
    ])
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out.strip().splitlines()[-1])
    ill = np.array(payload["illuminant"])
    assert np.linalg.norm(ill) == pytest.approx(1.0, abs=1e-6)


# Runs each (name, argv) through cli.main in a fresh interpreter and prints its
# exit code and the scipy and duxwb modules loaded after it, cumulatively;
# pytest's own process has both loaded.
MODULE_PROBE = """
import json, sys
from duxwb.cli import main
runs = {}
for name, argv in json.loads(sys.argv[1]):
    code = main(argv)
    runs[name] = {"code": code, "loaded": sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "duxwb"))}
print(json.dumps(runs))
"""


def probe(commands):
    """(stderr, {name: {"code", "loaded"}}) of the commands run by MODULE_PROBE."""
    proc = subprocess.run([sys.executable, "-c", MODULE_PROBE, json.dumps(commands)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr, json.loads(proc.stdout.strip().splitlines()[-1])


def modules_after(commands):
    _, runs = probe(commands)
    assert all(run["code"] == 0 for run in runs.values()), runs
    return {name: run["loaded"] for name, run in runs.items()}


def scipy_modules_after(commands):
    return {name: [m for m in loaded if m.startswith("scipy")] for name, loaded in modules_after(commands).items()}


def test_inference_commands_leave_scipy_unloaded(dataset, tmp_path):
    emlp_ckpt = str(tmp_path / "emlp.ckpt")
    eccc_ckpt = str(tmp_path / "eccc.ckpt")
    assert run_cli(["train", "--data", dataset, "--model", "emlp", "--e", "8",
                    "--out", emlp_ckpt, "--epochs", "2", "--seed", "0"]) == 0
    assert run_cli(["train", "--data", dataset, "--model", "eccc", "--e", "8",
                    "--out", eccc_ckpt, "--epochs", "1", "--n", "3", "--seed", "0"]) == 0
    with open(os.path.join(dataset, "manifest.json")) as fh:
        files = json.load(fh)["scenes"][0]["files"]
    loaded = modules_after([
        ("infer", ["infer", "--ckpt", eccc_ckpt, "--long", os.path.join(dataset, files["long_8"]),
                   "--short", os.path.join(dataset, files["short_8"])]),
        ("eval", ["eval", "--ckpt", eccc_ckpt, "--data", dataset, "--split", "val",
                  "--out-report", str(tmp_path / "eval.json")]),
        ("ensemble-eval", ["ensemble-eval", "--ckpt-a", emlp_ckpt, "--ckpt-b", eccc_ckpt, "--data", dataset,
                           "--split", "val", "--out-report", str(tmp_path / "ens.json")]),
    ])
    assert {name: [m for m in mods if m.startswith("scipy")] for name, mods in loaded.items()} == {
        "infer": [], "eval": [], "ensemble-eval": []}
    # a cold infer reads its two frames without the dataset pipeline; eval
    # loads it, which shows the probe sees duxwb's own modules
    assert "duxwb.models" in loaded["infer"] and "duxwb.pipeline" not in loaded["infer"]
    assert "duxwb.pipeline" in loaded["eval"]


def test_infer_of_frames_of_two_sizes_exits_1_naming_both(tmp_path):
    from duxwb.synth import write_tensor

    long, short = str(tmp_path / "long.dxt"), str(tmp_path / "short.dxt")
    write_tensor(long, np.full((3, 8, 8), 0.5))
    write_tensor(short, np.full((3, 4, 4), 0.5))
    emlp, _ = _saved_bundles(tmp_path, 8, 8)
    stderr, runs = probe([("infer", ["infer", "--ckpt", emlp, "--long", long, "--short", short])])
    errors = [line for line in stderr.splitlines() if not line.startswith('{"resolved_config"')]
    assert runs["infer"]["code"] == 1
    assert len(errors) == 1 and errors[0].startswith("error: "), errors
    assert all(part in errors[0] for part in (long, short, "8x8", "4x4")), errors
    # the check runs before anything of the dataset pipeline or scipy loads
    loaded = runs["infer"]["loaded"]
    assert "duxwb.models" in loaded
    assert not any(m == "duxwb.pipeline" or m.startswith("scipy") for m in loaded), loaded


def test_eccc_training_loads_scipy(dataset, tmp_path):
    loaded = scipy_modules_after([
        ("train", ["train", "--data", dataset, "--model", "eccc", "--e", "8", "--out", str(tmp_path / "m.ckpt"),
                   "--epochs", "1", "--n", "3", "--seed", "0"]),
    ])
    assert "scipy.fft" in loaded["train"]


def test_runtime_failure_exit_code(tmp_path):
    code = run_cli([
        "eval", "--baseline", "gray-world", "--data", str(tmp_path / "missing"),
        "--split", "val", "--out-report", str(tmp_path / "r.json"),
    ])
    assert code == 1


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "duxwb.cli", "bogus-command"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_help_documents_subcommands():
    proc = subprocess.run(
        [sys.executable, "-m", "duxwb.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for sub in ("gen-data", "extract-def", "train", "eval", "infer", "ensemble-eval"):
        assert sub in proc.stdout


def test_config_logged_to_stderr(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "duxwb.cli", "gen-data", "--out", str(tmp_path / "d"),
         "--scenes", "3", "--seed", "0", *DATA_ARGS],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "resolved_config" in proc.stderr


def test_thread_cap_env(tmp_path):
    env = dict(os.environ, DUXWB_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "duxwb.cli", "gen-data", "--out", str(tmp_path / "d"),
         "--scenes", "2", "--seed", "0", *DATA_ARGS],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0

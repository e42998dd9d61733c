import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workflow
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
END_TO_END = [
    "setup_s", "features_pairs_per_s", "emlp_train_s", "eccc_train_s", "eval_emlp_pairs_per_s",
    "eval_eccc_pairs_per_s", "ensemble_pairs_per_s", "infer_p50_ms", "infer_p90_ms", "cold_infer_s",
    "emlp_val_deg", "eccc_val_deg", "peak_rss_mib",
]


def test_top_level_form():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_every_workload_is_named_once_with_a_reason():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert NAME.match(w["name"]) and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
        assert w["why"] == WORKLOADS[w["name"]].why


def test_end_to_end_metrics_have_units_directions_and_bounds():
    assert [m["name"] for m in SPEC["end_to_end"]] == END_TO_END
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_per_layer_metrics_are_the_ones_the_traced_run_reports():
    expected = {"synth.generate_ms_per_scene", "cli.import_s", "trace.overhead_pct", "trace.spans_per_round"}
    for _, metric, _, count in workflow.PER_CALL:
        expected |= {metric, count}
    expected |= {f"layer.{layer}.self_s" for layer in workflow.LAYERS}
    names = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(names) == sorted(expected)
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    all_names = names + [m["name"] for m in SPEC["end_to_end"]]
    assert len(all_names) == len(set(all_names))


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "small-frames", "--seed", "1", "--seconds", "1",
                                             "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_a_short_run_reports_every_metric(trace, section):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small-frames", "--seed", "3",
                           "--seconds", "1", "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units

import pytest

import workflow
from calibrate import Kernel
from workloads import WORKLOADS


def test_child_time_is_its_cpu_time_not_its_wall_time():
    code = ("import time; t = time.process_time(); sum(range(2_000_000)); busy = time.process_time() - t; "
            "time.sleep(1.0); print(busy)")
    cpu, out = workflow._child(["-c", code])
    assert float(out) <= cpu < 1.0  # the busy loop and start-up count, the second asleep does not


def test_timings_scale_times_and_rates_of_each_round_by_its_factor(tmp_path):
    bench = workflow.Bench(WORKLOADS["small-frames"], 1, 1, False, tmp_path, import_s=0.5)

    def round_(t, kernel_s):
        return {"features_pairs_per_s": 100.0 / t, "emlp_train_s": t, "eccc_train_s": 2 * t,
                "eval_emlp_pairs_per_s": [50.0 / t] * 3, "eval_eccc_pairs_per_s": [40.0 / t],
                "ensemble_pairs_per_s": [30.0 / t], "infer_samples": [t / 1000] * 10, "cold_infer_s": [t / 4],
                "kernel_s": [kernel_s] * 5}

    # the second round ran on a host half as fast: its times doubled, and so did the kernel's
    bench.rounds = [round_(1.0, 0.02), round_(2.0, 0.04)]
    unscaled = bench.timings([1.5], lambda r: 1.0, 1.0)
    scaled = bench.timings([1.5], lambda r: 0.02 / r["kernel_s"][0], 0.5)
    assert unscaled["emlp_train_s"] == pytest.approx(1.5)  # the median of 1 and 2
    assert scaled["emlp_train_s"] == pytest.approx(1.0)
    assert scaled["eccc_train_s"] == pytest.approx(2.0)
    assert scaled["features_pairs_per_s"] == pytest.approx(100.0)
    assert scaled["eval_emlp_pairs_per_s"] == pytest.approx(50.0)
    assert scaled["infer_p50_ms"] == pytest.approx(1.0) and scaled["infer_p90_ms"] == pytest.approx(1.0)
    assert scaled["cold_infer_s"] == pytest.approx(0.25)
    assert scaled["setup_s"] == pytest.approx(0.5 * (0.5 + 1.5))


def test_calibration_kernel_is_fixed_work():
    a, b = Kernel(), Kernel()
    assert a.run() == b.run()
    assert a.time() > 0

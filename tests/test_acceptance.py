"""Acceptance gate: every criterion prints one PASS/FAIL line.

Slow end-to-end criteria (8, 9, 12) drive the real dataset/training pipeline
at the sizes stated in their budgets; everything else runs in seconds. Run
with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from duxwb.cli import main as cli_main
from duxwb.core import DualExposurePair, Illuminant, RawImage, angular_error
from duxwb.def_feature import DefConfig, compute_def
from duxwb.eccc import (
    _backward_batch,
    _forward_batch,
    count_eccc_params,
    eccc_forward,
    hists_for_pair,
    init_eccc,
    prepare_predictor,
)
from duxwb.evaluation import compute_report, gray_world
from duxwb.histogram import bin_centers, bin_width, build_histogram, decode_uv, illuminant_to_uv
from duxwb.mlp import (
    angular_loss_unit,
    count_params as emlp_count_params,
    emlp_init,
    init_mlp,
    mlp_backward,
    mlp_forward,
    mlp_forward_trace,
    unit_rows,
)
from duxwb.pipeline import build_feature_set
from duxwb.synth import SceneSpec, generate_dataset, render_pair, DatasetManifest
from duxwb.training import TrainConfig, train_eccc, train_emlp

from conftest import covariance_block, mapping_block


def report(num, ok, detail):
    line = f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# ============================================================
# 1. Parameter accounting
# ============================================================

def test_criterion_01_parameter_counts():
    t0 = time.perf_counter()
    checks = {
        "emlp d15": (emlp_count_params(15), 354),
        "emlp d9": (emlp_count_params(9), 300),
        "eccc n5": (count_eccc_params(64, 5), 2166),
        "eccc n10": (count_eccc_params(64, 10), 3496),
        "eccc n15": (count_eccc_params(64, 15), 4826),
        "eccc n20": (count_eccc_params(64, 20), 6156),
        "eccc single-hist": (count_eccc_params(64, 20, variant="long"), 5900),
        "eccc h32": (count_eccc_params(32, 20), 1932),
        "eccc no-def": (count_eccc_params(64, 20, use_def=False), 4608),
    }
    bad = {k: v for k, v in checks.items() if v[0] != v[1]}
    elapsed = time.perf_counter() - t0
    report(1, not bad and elapsed < 1.0,
           f"all 9 counts exact in {elapsed:.3f}s" if not bad else f"mismatches {bad}")


# ============================================================
# 2. Gradient suite
# ============================================================

def _fd_worst(loss_fn, grads, tensors, steps):
    """Worst relative error between analytic gradients and central differences.

    The LeakyReLU makes the loss piecewise smooth: when a perturbation
    straddles an activation kink the central difference is not a derivative
    estimate, so disagreements are retried at smaller steps and the
    best-agreeing valid estimate counts.
    """
    worst = 0.0
    for name, arr in tensors.items():
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            an = grads[name][idx]
            best = None
            for h in steps:
                orig = arr[idx]
                arr[idx] = orig + h
                lp = loss_fn()
                arr[idx] = orig - h
                lm = loss_fn()
                arr[idx] = orig
                fd = (lp - lm) / (2 * h)
                denom = max(abs(fd), abs(an))
                rel = 0.0 if denom < 1e-8 else abs(fd - an) / denom
                best = rel if best is None else min(best, rel)
                if best < 1e-3:
                    break
            worst = max(worst, best)
    return worst


def _fd_worst_emlp(seed):
    rng = np.random.default_rng(seed)
    params = init_mlp(15, 3, seed)
    x = rng.standard_normal(15)
    gt = np.abs(rng.standard_normal(3)) + 0.1
    x, ghat = x[None], unit_rows(gt)
    raw, trace = mlp_forward_trace(params, x)
    grads = mlp_backward(params, trace, angular_loss_unit(raw, ghat)[1])
    return _fd_worst(lambda: float(angular_loss_unit(mlp_forward(params, x), ghat)[0][0]), grads,
                     params.tensors(), steps=(1e-4, 1e-5))


def _fd_worst_eccc(seed):
    rng = np.random.default_rng(9000 + seed)
    params = init_eccc(bins=16, n=4, seed=seed)
    tensors = params.tensors()
    for _, a in tensors.items():
        a += rng.standard_normal(a.shape) * 0.1
    hists = np.abs(rng.standard_normal((2, 16, 16))) + 1e-3
    hists /= hists.sum(axis=(1, 2), keepdims=True)
    feat = rng.standard_normal(15)
    gt = np.abs(rng.standard_normal(3)) + 0.1

    def loss_and_grads():
        return _backward_batch(params, _forward_batch(params, hists[None], feat[None]), gt[None])

    _, grads, _ = loss_and_grads()
    # small steps resolve kink-straddling entries, the large one resolves
    # roundoff on near-zero gradients
    return _fd_worst(lambda: loss_and_grads()[0], grads, tensors, steps=(1e-3, 1e-4, 1e-2, 1e-5))


def test_criterion_02_gradient_suite():
    t0 = time.perf_counter()
    worst_emlp = max(_fd_worst_emlp(seed) for seed in range(50))
    worst_eccc = max(_fd_worst_eccc(seed) for seed in range(50))
    elapsed = time.perf_counter() - t0
    ok = worst_emlp < 1e-3 and worst_eccc < 1e-3 and elapsed < 120
    report(2, ok, f"max rel err emlp {worst_emlp:.2e}, eccc {worst_eccc:.2e} in {elapsed:.0f}s")


# ============================================================
# 3. Least-squares oracle
# ============================================================

def test_criterion_03_pinv_oracle():
    from duxwb.core import pinv_map

    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        src = rng.standard_normal((3, 100)) + rng.uniform(0.5, 2.0)
        tgt = rng.standard_normal((3, 100))
        res = pinv_map(src, tgt)
        # steepest descent with exact line search, independent of the eigenpath
        c = np.zeros((3, 3))
        sst = src @ src.T
        tst = tgt @ src.T
        for _ in range(3000):
            grad = 2.0 * (c @ sst - tst)
            gn = float((grad * grad).sum())
            if gn < 1e-26:
                break
            step = gn / (2.0 * float((grad * (grad @ sst)).sum()))
            c -= step * grad
        r_pinv = np.linalg.norm(res.matrix @ src - tgt)
        r_gd = np.linalg.norm(c @ src - tgt)
        worst = max(worst, abs(r_pinv - r_gd))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 30
    report(3, ok, f"max residual gap {worst:.2e} over 100 instances in {elapsed:.1f}s")


# ============================================================
# 4. Decode invariants
# ============================================================

def test_criterion_04_decode_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    centers = bin_centers(64)
    eps = bin_width(64)
    worst_norm = 0.0
    for _ in range(1000):
        p = rng.random((64, 64))
        p /= p.sum()
        lu = float(np.einsum("ij,i->", p, centers))
        lv = float(np.einsum("ij,j->", p, centers))
        worst_norm = max(worst_norm, abs(np.linalg.norm(decode_uv(lu, lv)) - 1.0))

    def round_trip(ill):
        u, v = illuminant_to_uv(ill)
        iu = min(int((u - centers[0] + 0.5 * eps) / eps), 63)
        iv = min(int((v - centers[0] + 0.5 * eps) / eps), 63)
        err = angular_error(decode_uv(centers[iu], centers[iv]), ill)
        # exact local bound: the angular extent of half a bin at this location
        bound = max(
            angular_error(decode_uv(centers[iu] + du, centers[iv] + dv),
                          decode_uv(centers[iu], centers[iv]))
            for du in (-eps / 2, eps / 2)
            for dv in (-eps / 2, eps / 2)
        )
        return err, bound

    # the half-bin bound is exact everywhere in range, including extreme chroma
    bound_ok = True
    for _ in range(1000):
        ill = rng.uniform(0.05, 1.0, 3)
        u, v = illuminant_to_uv(ill)
        if abs(u) > 2.8 or abs(v) > 2.8:
            continue
        err, bound = round_trip(ill)
        bound_ok = bound_ok and err <= bound + 1e-9

    # the < 2 degree figure is an empirical claim about illuminants: sample
    # the generator's own light distribution
    from duxwb.synth import sample_illuminant

    spec = SceneSpec()
    worst_angle = 0.0
    for _ in range(1000):
        ill = sample_illuminant(spec, rng)
        err, bound = round_trip(ill)
        bound_ok = bound_ok and err <= bound + 1e-9
        worst_angle = max(worst_angle, err)
    elapsed = time.perf_counter() - t0
    ok = worst_norm < 1e-9 and bound_ok and worst_angle < 2.0 and elapsed < 10
    report(4, ok, f"norm dev {worst_norm:.1e}, half-bin bound holds: {bound_ok}, "
                  f"round-trip max {worst_angle:.2f} deg in {elapsed:.1f}s")


# ============================================================
# 5. Neutral-pair collapse
# ============================================================

def test_criterion_05_neutral_pair_collapse():
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    cfg = DefConfig(eps_ratio=0.0, eps_chroma=0.0)
    worst_cc = 0.0
    worst_cv = 0.0
    for _ in range(100):
        h, w = int(rng.integers(8, 24)), int(rng.integers(8, 24))
        long_img = RawImage(rng.uniform(0.05, 1.0, (3, h, w)))
        alpha = float(rng.uniform(0.05, 0.5))
        pair = DualExposurePair(long_img, RawImage(long_img.data * alpha), 8.0)
        vec = compute_def(pair, cfg)
        worst_cc = max(worst_cc, float(np.linalg.norm(mapping_block(vec) - np.eye(3))))
        worst_cv = max(worst_cv, float(np.linalg.norm(covariance_block(vec))))
    elapsed = time.perf_counter() - t0
    ok = worst_cc < 1e-6 and worst_cv < 1e-10 and elapsed < 30
    report(5, ok, f"max |C_c - I| {worst_cc:.1e}, max |C_v| {worst_cv:.1e} in {elapsed:.1f}s")


# ============================================================
# 6. Convolution oracle
# ============================================================

def _naive_corr_same(img, ker):
    n, k = img.shape[0], ker.shape[0]
    o = (k - 1) // 2
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for a in range(k):
                p = i + a - o
                if not 0 <= p < n:
                    continue
                qlo = max(0, o - j)
                qhi = min(k, n + o - j)
                acc += float((ker[a, qlo:qhi] * img[p, j + qlo - o:j + qhi - o]).sum())
            out[i, j] = acc
    return out


def test_criterion_06_convolution_oracle():
    from duxwb.core import bilinear_upsample
    from duxwb.convops import corr_same_multi_fft, fft_image, fft_size

    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    worst = 0.0
    for trial in range(20):
        hists = np.abs(rng.standard_normal((2, 64, 64)))
        hists /= hists.sum(axis=(1, 2), keepdims=True)
        filters = rng.standard_normal((2, 16, 16)) * 0.3
        f_up = np.stack([bilinear_upsample(f, 4) for f in filters])
        fast = corr_same_multi_fft(fft_image(hists, fft_size(64, 64)), f_up, 64)
        ref = _naive_corr_same(hists[0], f_up[0]) + _naive_corr_same(hists[1], f_up[1])
        worst = max(worst, float(np.abs(fast - ref).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 60
    report(6, ok, f"max elementwise diff {worst:.2e} over 20 instances in {elapsed:.1f}s")


# ============================================================
# 7. Histogram mass conservation
# ============================================================

def test_criterion_07_histogram_mass():
    t0 = time.perf_counter()
    rng = np.random.default_rng(19)
    eps_exact = bin_width(64) == 0.0890625
    worst = 0.0
    for _ in range(100):
        data = rng.uniform(0.0, 1.0, (3, 16, 16))
        data[data < 0.1] = 0.0  # force skipped pixels
        img = RawImage(data)
        total = float(build_histogram(img.as_matrix()[None])[0].sum())
        m = img.as_matrix()
        valid = (m[0] > 0) & (m[1] > 0) & (m[2] > 0)
        expected = float(np.sqrt((m[:, valid] ** 2).sum(axis=0)).sum())
        if expected > 0:
            worst = max(worst, abs(total - expected) / expected)
    elapsed = time.perf_counter() - t0
    ok = eps_exact and worst < 1e-6
    report(7, ok, f"eps_h(64) exact: {eps_exact}, worst mass dev {worst:.2e} in {elapsed:.1f}s")


# ============================================================
# 8. End-to-end synthetic learning  (slow: dataset + both models)
# ============================================================

@pytest.fixture(scope="module")
def synthetic_run(tmp_path_factory):
    """Generate the criterion-8 dataset and train both estimators once."""
    t_start = time.perf_counter()
    root = str(tmp_path_factory.mktemp("accept") / "data")
    spec = SceneSpec().small()
    manifest = generate_dataset(root, 2400, e_list=(8,), seed=42, spec=spec, splits=(2000, 400, 0))

    train = build_feature_set(root, manifest, "train", 8, with_hists=True)
    val = build_feature_set(root, manifest, "val", 8, with_hists=True)

    gw_errors = []
    from duxwb.evaluation import baseline_predictor

    predict_gw = baseline_predictor("gray-world", root)
    for entry, est in zip(manifest.scenes_for("val"), predict_gw(manifest.scenes_for("val"))):
        gt = Illuminant.from_array(np.array(entry.gt))
        gw_errors.append(angular_error(est, gt))

    emlp_params, _ = train_emlp(train.defs, train.gts, TrainConfig(model="emlp", seed=0))
    eccc_params, _ = train_eccc(train.hists, train.defs, train.gts, TrainConfig(model="eccc", seed=0))

    def emlp_val_errors(params):
        raw = mlp_forward(params, val.defs)
        return [angular_error(raw[i], val.gts[i]) for i in range(len(val))]

    prep = prepare_predictor(eccc_params)
    eccc_errors = []
    for i in range(len(val)):
        est = eccc_forward(eccc_params, val.hists[i:i + 1], val.defs[i:i + 1], prepared=prep)
        eccc_errors.append(angular_error(est[0], val.gts[i]))

    # controls: untrained net and a shuffled-label run from the same seed
    untrained = emlp_init(15, seed=0)
    perm = np.random.default_rng(0).permutation(len(train))
    shuffled_params, _ = train_emlp(train.defs, train.gts[perm], TrainConfig(model="emlp", seed=0))

    return {
        "elapsed": time.perf_counter() - t_start,
        "gw_mean": float(np.mean(gw_errors)),
        "emlp_mean": float(np.mean(emlp_val_errors(emlp_params))),
        "eccc_mean": float(np.mean(eccc_errors)),
        "untrained_mean": float(np.mean(emlp_val_errors(untrained))),
        "shuffled_mean": float(np.mean(emlp_val_errors(shuffled_params))),
    }


@pytest.mark.slow
def test_criterion_08_end_to_end_learning(synthetic_run):
    r = synthetic_run
    control_gap = abs(r["shuffled_mean"] - r["untrained_mean"])
    ok = (
        r["emlp_mean"] <= 0.6 * r["gw_mean"]
        and r["eccc_mean"] <= r["emlp_mean"] + 0.5
        and control_gap <= 2.0
        and r["elapsed"] < 1200
    )
    report(
        8,
        ok,
        f"emlp {r['emlp_mean']:.2f} vs 0.6*gw {0.6 * r['gw_mean']:.2f}; "
        f"eccc {r['eccc_mean']:.2f} vs emlp+0.5 {r['emlp_mean'] + 0.5:.2f}; "
        f"shuffled gap {control_gap:.2f} (untrained {r['untrained_mean']:.2f}); "
        f"total {r['elapsed']:.0f}s",
    )


# ============================================================
# 9. Exposure-factor trend
# ============================================================

@pytest.mark.slow
def test_criterion_09_exposure_trend(tmp_path):
    t0 = time.perf_counter()
    spec = SceneSpec().small()
    means = {2: [], 8: []}
    for seed in range(3):
        root = str(tmp_path / f"trend{seed}")
        manifest = generate_dataset(root, 1500, e_list=(2, 8), seed=1000 + seed,
                                    spec=spec, splits=(1200, 300, 0))
        for e in (2, 8):
            train = build_feature_set(root, manifest, "train", e)
            val = build_feature_set(root, manifest, "val", e)
            params, _ = train_emlp(train.defs, train.gts, TrainConfig(model="emlp", seed=seed))
            raw = mlp_forward(params, val.defs)
            errs = [angular_error(raw[i], val.gts[i]) for i in range(len(val))]
            means[e].append(float(np.mean(errs)))
    med2 = float(np.median(means[2]))
    med8 = float(np.median(means[8]))
    elapsed = time.perf_counter() - t0
    ok = med8 <= med2 and elapsed < 2700
    report(9, ok, f"median val mean e=8 {med8:.2f} <= e=2 {med2:.2f} over 3 seeds in {elapsed:.0f}s")


# ============================================================
# 10. Latency
# ============================================================

def test_criterion_10_latency():
    t0 = time.perf_counter()
    pair = render_pair(SceneSpec(), 8, seed=0)  # 384x256
    params = init_eccc(bins=64, n=20, seed=0)
    rng = np.random.default_rng(0)
    for _, a in params.tensors().items():
        a += rng.standard_normal(a.shape) * 0.1
    defs = compute_def(pair, DefConfig()).values[None]
    hists = hists_for_pair(pair, "both", 64)[None]
    prep = prepare_predictor(params)

    def timed(fn, n):
        fn()
        samples = []
        for _ in range(n):
            s = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - s)
        return float(np.median(samples)) * 1e3

    forward_ms = timed(lambda: eccc_forward(params, hists, defs, prepared=prep), 100)
    full_ms = timed(lambda: eccc_forward(params, hists_for_pair(pair, "both", 64)[None], defs), 50)
    def_ms = timed(lambda: compute_def(pair, DefConfig()), 20)  # informational
    elapsed = time.perf_counter() - t0
    ok = forward_ms <= 1.0 and full_ms <= 10.0 and elapsed < 60
    report(10, ok,
           f"forward {forward_ms:.3f} ms (<=1), forward+histograms {full_ms:.2f} ms (<=10), "
           f"feature extraction {def_ms:.2f} ms (informational) in {elapsed:.0f}s")


# ============================================================
# 11. Metric oracle
# ============================================================

def test_criterion_11_metric_oracle():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 120))
        errors = rng.uniform(0.0, 40.0, n)
        rep = compute_report(errors)
        s = np.sort(errors)

        def quant(q):
            pos = q * (n - 1)
            lo = int(math.floor(pos))
            hi = min(lo + 1, n - 1)
            return float(s[lo] + (pos - lo) * (s[hi] - s[lo]))

        n25 = math.ceil(0.25 * n)
        n5 = math.ceil(0.05 * n)
        oracle = [
            float(s.mean()), quant(0.5),
            (quant(0.25) + 2 * quant(0.5) + quant(0.75)) / 4.0,
            float(s[:n25].mean()), float(s[-n25:].mean()), float(s[-n5:].mean()), float(s[-1]),
        ]
        got = [rep.mean, rep.median, rep.trimean, rep.best25_mean,
               rep.worst25_mean, rep.worst5_mean, rep.max]
        worst = max(worst, max(abs(a - b) for a, b in zip(got, oracle)))
        assert rep.best25_mean <= rep.mean <= rep.worst25_mean <= rep.worst5_mean <= rep.max
    report(11, worst < 1e-12, f"max stat deviation {worst:.2e} over 1000 lists")


# ============================================================
# 12. Determinism
# ============================================================

def _full_run(base: str) -> dict:
    data = os.path.join(base, "data")
    emlp_ckpt = os.path.join(base, "emlp.ckpt")
    eccc_ckpt = os.path.join(base, "eccc.ckpt")
    rep_a = os.path.join(base, "emlp.json")
    rep_b = os.path.join(base, "eccc.json")
    assert cli_main(["gen-data", "--out", data, "--scenes", "30", "--seed", "5",
                     "--small", "--e-list", "8"]) == 0
    assert cli_main(["train", "--data", data, "--model", "emlp", "--e", "8",
                     "--out", emlp_ckpt, "--epochs", "40", "--seed", "5"]) == 0
    assert cli_main(["train", "--data", data, "--model", "eccc", "--e", "8",
                     "--out", eccc_ckpt, "--epochs", "6", "--n", "4", "--seed", "5"]) == 0
    assert cli_main(["eval", "--ckpt", emlp_ckpt, "--data", data, "--split", "val",
                     "--out-report", rep_a]) == 0
    assert cli_main(["eval", "--ckpt", eccc_ckpt, "--data", data, "--split", "val",
                     "--out-report", rep_b]) == 0
    blobs = {}
    for name in ("data/manifest.json", "emlp.ckpt", "emlp.ckpt.bin",
                 "eccc.ckpt", "eccc.ckpt.bin", "emlp.json", "eccc.json"):
        with open(os.path.join(base, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs


@pytest.mark.slow
def test_criterion_12_determinism(tmp_path):
    t0 = time.perf_counter()
    a = _full_run(str(tmp_path / "a"))
    b = _full_run(str(tmp_path / "b"))
    diffs = [name for name in a if a[name] != b[name]]
    elapsed = time.perf_counter() - t0
    report(12, not diffs,
           f"manifest, checkpoints, reports bitwise identical across two runs in {elapsed:.0f}s"
           if not diffs else f"differing artifacts: {diffs}")

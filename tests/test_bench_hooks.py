"""The benchmark's traced runs (perfbench/run.py --trace 1) wrap program
functions by name where the calling module looks them up (PATCHES in
perfbench/workflow.py), and its workflow calls a few library functions
directly. A function removed, renamed or re-signed in the program breaks
those runs; these tests show it at unit-test speed. The benchmark's files are
loaded as they are, not edited."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from duxwb import eccc, models, training
from duxwb.def_feature import DefConfig
from duxwb.mlp import emlp_init, mlp_forward

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_benchmark_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workflow.py imports its siblings by bare name
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_workflow", PERFBENCH / "workflow.py")
    workflow = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(workflow)
    finally:  # drop the benchmark's own modules, which have generic names
        for name in set(sys.modules) - before:
            if str(getattr(sys.modules[name], "__file__", "") or "").startswith(str(PERFBENCH)):
                del sys.modules[name]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in workflow.PATCHES if not callable(getattr(owner, attr, None))]
    assert not missing, f"perfbench/workflow.py wraps names the program no longer has: {missing}"


def test_benchmark_direct_calls_keep_their_signatures(tmp_path):
    """perfbench/workflow.py also calls the library directly; these are its
    calls, with its arguments, on a tiny random train and val split."""
    rng = np.random.default_rng(0)
    seed, e, bins, d = 1, 8, 64, DefConfig().feature_length

    def split(n):
        hists = rng.uniform(0.5, 1.5, (n, 2, bins, bins))
        return (hists / hists.sum(axis=(2, 3), keepdims=True), rng.standard_normal((n, d)),
                rng.uniform(0.2, 1.0, (n, 3)))

    train_hists, train_defs, train_gts = split(24)
    val_hists, val_defs, _ = split(3)

    emlp, res = training.train_emlp(train_defs, train_gts, training.TrainConfig(model="emlp", epochs=2, seed=seed))
    eccc_p, eccc_res = training.train_eccc(train_hists, train_defs, train_gts,
                                           training.TrainConfig(model="eccc", epochs=2, lr=5e-3, seed=seed))
    for log in (res.log, eccc_res.log):
        assert [np.isfinite(row.loss_mean_deg) for row in log] == [True, True]
    models.save_model(str(tmp_path / "emlp.ckpt"), models.ModelBundle("emlp", DefConfig(), e, emlp=emlp))
    models.save_model(str(tmp_path / "eccc.ckpt"), models.ModelBundle("eccc", DefConfig(), e, eccc=eccc_p))

    untrained = mlp_forward(emlp_init(d_in=train_defs.shape[1], seed=seed), val_defs)
    assert untrained.shape == (3, 3)
    cfg = training.TrainConfig(model="eccc", seed=seed).resolved()
    bank, _ = training.init_eccc_biases(train_defs, train_gts, cfg.n_biases, cfg.hist_bins, seed=cfg.seed)
    init = eccc.init_eccc(bins=cfg.hist_bins, n=cfg.n_biases, variant=cfg.variant, use_def=True,
                          def_dim=train_defs.shape[1], seed=cfg.seed, biases=bank)
    direction = eccc._forward_batch(init, hists=val_hists, defs=val_defs)["direction"]
    assert direction.shape == (3, 3)


def _count_calls(monkeypatch, hooks) -> dict:
    """Wrap each (owner, attr) of hooks to count its calls, keyed by attr."""
    calls = {}

    def counted(owner, attr):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[attr] = calls.get(attr, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    for owner, attr in hooks:
        counted(owner, attr)
    return calls


def _random_pairs(n: int, seed: int) -> list:
    from duxwb.core import DualExposurePair, RawImage

    rng = np.random.default_rng(seed)
    return [DualExposurePair(long=RawImage(rng.uniform(0.1, 1.0, (3, 8, 12))),
                             short=RawImage(rng.uniform(0.01, 0.1, (3, 8, 12))), exposure_factor=8.0)
            for _ in range(n)]


def test_predict_pair_reaches_the_per_pair_extractors(monkeypatch):
    """The traced benchmark times DEF and histogram extraction through
    models.compute_def, models.hists_for_pair and eccc.build_histogram; one
    ECCC predict_pair with the feature path calls each of them."""
    calls = _count_calls(monkeypatch, ((models, "compute_def"), (models, "hists_for_pair"),
                                       (eccc, "build_histogram")))
    bundle = models.ModelBundle("eccc", DefConfig(), 8, eccc=eccc.init_eccc(bins=32, n=3, seed=1))
    bundle.predict_pair(_random_pairs(1, 3)[0])
    assert calls == {"compute_def": 1, "hists_for_pair": 1, "build_histogram": 2}


def test_chunk_predict_calls_the_traced_forward_once_per_chunk(monkeypatch):
    """The traced benchmark times ECCC prediction as eccc.forward, around
    eccc._forward_batch, and the predictor's set-up through
    models.prepare_predictor. ModelBundle.predict on chunks of several pairs
    makes one forward call per chunk, and a bundle prepares its predictor
    once."""
    from duxwb.pipeline import PairChunk

    calls = _count_calls(monkeypatch, ((eccc, "_forward_batch"), (models, "prepare_predictor")))
    bundle = models.ModelBundle("eccc", DefConfig(), 8, eccc=eccc.init_eccc(bins=32, n=3, seed=1))
    pairs = _random_pairs(7, 4)
    for part in (pairs[:4], pairs[4:]):
        rows = bundle.predict(PairChunk.from_pairs([f"s{i}" for i in range(len(part))], part))
        assert rows.shape == (len(part), 3)
    assert calls == {"_forward_batch": 2, "prepare_predictor": 1}


def test_chunked_features_reach_the_histogram_kernel(monkeypatch, tmp_path):
    """build_feature_set over a chunk of several pairs stacks their frames
    into eccc.build_histogram, the function the benchmark times as
    histogram.build_histogram: one call per frame kind."""
    from duxwb import pipeline
    from duxwb.synth import SceneSpec, generate_dataset

    manifest = generate_dataset(str(tmp_path / "d"), 4, e_list=(8,), seed=1,
                                spec=SceneSpec(width=16, height=12), splits=(4, 0, 0))
    stacks = []
    kernel = eccc.build_histogram
    monkeypatch.setattr(eccc, "build_histogram", lambda frames, bins: stacks.append(len(frames)) or kernel(frames, bins))
    fs = pipeline.build_feature_set(str(tmp_path / "d"), manifest, "train", 8, with_hists=True, bins=32)
    assert fs.hists.shape == (4, 2, 32, 32)
    assert stacks == [4, 4]

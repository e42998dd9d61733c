"""One benchmark run: set-up, whole rounds of the user workflow, checks.

A round is: build the train and val feature sets (with histograms), train
EMLP (three times) and ECCC, save both checkpoints, `duxwb eval` each on
val, `duxwb ensemble-eval` the two, time warm
`ModelBundle.predict_pair` calls on one in-memory pair, and run `duxwb infer`
as fresh child processes. Rounds repeat on the same dataset until the run's
time is used, and per-round figures are summarised by their median. The
oracle checks run on round 1's outputs right after it, and every later round
must reproduce round 1 bit for bit.

With tracing on, a first untraced round warms the program up and is left out;
after it rounds alternate untraced and traced. The traced ones give the
per-layer figures, and the difference between the two kinds of round is the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np
import scipy.fft  # noqa: F401  (part of the measured import time)

import duxwb
from duxwb import cli, eccc, evaluation, models, pipeline, synth, training
from duxwb.core import DualExposurePair, RawImage
from duxwb.def_feature import DefConfig
from duxwb.mlp import emlp_init, mlp_forward

import checks
from calibrate import REFERENCE_S, Kernel
from spans import Span, Tracer, self_times
from workloads import SETUP_REPEATS, Workload

# Every figure is CPU time of the process (children: their own CPU time), not
# wall time. The program runs on one thread, so on an idle machine the two
# agree; on a shared host CPU time leaves out the spells in which the process
# waits for a core, or the virtual CPU is stolen by the host (the kernel
# accounts steal time apart), which made wall-clock runs of the same code
# differ by half. Each round's CPU times are then scaled to the reference host
# speed by the calibration kernel timed between its phases (calibrate.py).
# Wall time only bounds how long a run goes on.
now = time.process_time
wall = time.perf_counter
median = statistics.median
CHECK_PAIRS = 8  # val pairs whose DEF and histograms are recomputed
IMPORT_PROBES = 3  # fresh interpreters timed for cli.import_s
RELIGHT_PROBES = 8  # relight calls timed when the workflow makes none
INFER_BURSTS = 4  # warm predict_pair calls are spread over this many bursts per round
EMLP_TRAIN_REPEATS = 3  # EMLP training is the shortest timed phase but one; each repeat must match the first
LAYERS = ("synth", "def_feature", "histogram", "convops", "eccc", "mlp", "training",
          "pipeline", "evaluation", "checkpoint", "models", "cli")

# (owner, attribute, span name): each function is wrapped where the calling
# module looks it up, so the program itself is not edited.
PATCHES = [
    (synth, "generate_dataset", "synth.generate_dataset"),
    (synth, "read_tensor", "synth.read_tensor"),
    (pipeline, "compute_def", "def_feature.compute_def"),
    (models, "compute_def", "def_feature.compute_def"),
    (eccc, "build_histogram", "histogram.build_histogram"),
    (pipeline, "hists_for_pair", "eccc.hists_for_pair"),
    (models, "hists_for_pair", "eccc.hists_for_pair"),
    (eccc, "_forward_batch", "eccc.forward"),
    (models, "prepare_predictor", "eccc.prepare_predictor"),
    (training, "_forward_batch", "eccc.train_forward"),
    (training, "_backward_batch", "eccc.train_backward"),
    (eccc, "sobel_smoothness", "convops.sobel_smoothness"),
    (eccc, "corr_same_multi_fft", "convops.corr_same_multi_fft"),
    (eccc, "fft_image", "convops.fft_image"),
    (training, "fft_image", "convops.fft_image"),
    (training, "mlp_forward_trace", "mlp.forward_trace"),
    (training, "mlp_backward", "mlp.backward"),
    (training, "train_emlp", "training.train_emlp"),
    (training, "train_eccc", "training.train_eccc"),
    (training, "adam_step", "training.adam_step"),
    (training, "kmeans", "training.kmeans"),
    (pipeline, "kmeans", "training.kmeans"),
    (pipeline, "relight_pair", "training.relight_pair"),
    (pipeline, "build_feature_set", "pipeline.build_feature_set"),
    (models, "save_checkpoint", "checkpoint.save_checkpoint"),
    (models, "load_checkpoint", "checkpoint.load_checkpoint"),
    (models, "load_model", "models.load_model"),
    (models, "save_model", "models.save_model"),
    (models.ModelBundle, "predict_pair", "models.predict_pair"),
    (models, "ensemble_predict", "models.ensemble_predict"),
    (cli, "main", "cli.main"),
]

# (span, per-call time metric, unit, call-count metric); counts are per round
PER_CALL = [
    ("synth.read_tensor", "synth.read_tensor_ms", "ms", "synth.frames_read"),
    ("def_feature.compute_def", "def_feature.compute_def_ms", "ms", "def_feature.calls"),
    ("histogram.build_histogram", "histogram.build_histogram_ms", "ms", "histogram.build_histogram.calls"),
    ("eccc.hists_for_pair", "eccc.hists_for_pair_ms", "ms", "eccc.hists_for_pair.calls"),
    ("eccc.forward", "eccc.forward_ms", "ms", "eccc.forward.calls"),
    ("eccc.prepare_predictor", "eccc.prepare_predictor_ms", "ms", "eccc.prepare_predictor.calls"),
    ("eccc.train_forward", "eccc.train_forward_ms", "ms", "eccc.train_steps"),
    ("eccc.train_backward", "eccc.train_backward_ms", "ms", "eccc.train_backward.calls"),
    ("convops.sobel_smoothness", "convops.sobel_smoothness_ms", "ms", "convops.sobel_smoothness.calls"),
    ("convops.corr_same_multi_fft", "convops.corr_same_multi_fft_ms", "ms", "convops.corr_same_multi_fft.calls"),
    ("convops.fft_image", "convops.fft_image_ms", "ms", "convops.fft_image.calls"),
    ("mlp.forward_trace", "mlp.forward_trace_ms", "ms", "mlp.forward_trace.calls"),
    ("mlp.backward", "mlp.backward_ms", "ms", "mlp.backward.calls"),
    ("training.adam_step", "training.adam_step_ms", "ms", "training.adam_step.calls"),
    ("training.kmeans", "training.kmeans_ms", "ms", "training.kmeans.calls"),
    ("training.relight_pair", "training.relight_pair_ms", "ms", "training.relight_pair.calls"),
    ("pipeline.build_feature_set", "pipeline.build_feature_set_s", "s", "pipeline.build_feature_set.calls"),
    ("evaluation.evaluate_scenes", "evaluation.evaluate_scenes_s", "s", "evaluation.evaluate_scenes.calls"),
    ("evaluation.predict", "evaluation.predict_ms", "ms", "evaluation.predict.calls"),
    ("models.load_model", "models.load_model_ms", "ms", "models.load_model.calls"),
    ("models.save_model", "models.save_model_ms", "ms", "models.save_model.calls"),
]


UNITS = {
    "setup_s": "s", "features_pairs_per_s": "pairs/s", "emlp_train_s": "s", "eccc_train_s": "s",
    "eval_emlp_pairs_per_s": "pairs/s", "eval_eccc_pairs_per_s": "pairs/s", "ensemble_pairs_per_s": "pairs/s",
    "infer_p50_ms": "ms", "infer_p90_ms": "ms", "cold_infer_s": "s",
    "emlp_val_deg": "deg", "eccc_val_deg": "deg", "peak_rss_mib": "MiB",
}


class OperationFailed(Exception):
    pass


def _install(tracer: Tracer) -> None:
    for owner, attr, name in PATCHES:
        tracer.patch(owner, attr, name)

    def evaluate_wrapper(original):
        def traced(predict, *args, **kwargs):
            with tracer.span("evaluation.evaluate_scenes"):
                return original(tracer.wrap(predict, "evaluation.predict"), *args, **kwargs)

        return traced

    tracer.patch(evaluation, "evaluate_scenes", "evaluation.evaluate_scenes", evaluate_wrapper)


@contextlib.contextmanager
def traced(tracer):
    """Record spans into `tracer` for the duration; a no-op for None."""
    if tracer is None:
        yield
        return
    _install(tracer)
    try:
        yield
    finally:
        tracer.unpatch_all()


def run_cli(argv: List[str]) -> str:
    """In-process `duxwb <argv>`; returns its stdout, raises on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        raise OperationFailed(f"duxwb {' '.join(argv)} exited {code}: {err.getvalue().strip()[-800:]}")
    return out.getvalue()


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _child(argv: List[str]) -> tuple:
    """Run a fresh interpreter to completion; returns (its CPU seconds, stdout)."""
    t0 = _children_cpu()
    proc = subprocess.run([sys.executable] + argv, capture_output=True, text=True, timeout=120)
    cpu = _children_cpu() - t0  # the child has been waited for, so its usage is in
    if proc.returncode != 0:
        raise OperationFailed(f"child {argv[:3]} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return cpu, proc.stdout


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: int, trace: bool, home: Path, import_s: float):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.import_s = import_s
        self.attempted = 0
        self.failed = 0
        self.work = home / ".work" / f"{workload.name}-s{seed}-t{int(trace)}"
        self.results = home / "results"
        self.data = self.work / "data"
        self.manifest = None
        self.rounds: List[Dict] = []
        self.first_features = None  # round 1's (train, val) FeatureSets, for the oracle checks
        self.peak_rss_mib = 0.0
        self.kernel = Kernel()
        self.setup_kernel_s: List[float] = []  # the host speed reference around set-up
        self.setup_tracer = Tracer(now)
        self.round_tracer = Tracer(now)
        self.probe_tracer = Tracer(now)

    # ------------------------------------------------------------ run

    def run(self) -> Dict[str, dict]:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        try:
            gen_s = self.setup()
            t0 = wall()
            while True:
                # traced runs: round 1 warms up, then untraced and traced rounds alternate
                tracer = self.round_tracer if self.trace and self.rounds and len(self.rounds) % 2 == 0 else None
                t_wall, t_cpu = wall(), now()
                with traced(tracer):
                    self.rounds.append(self.run_round())
                self.rounds[-1]["cpu_s"] = now() - t_cpu
                self.rounds[-1]["wall_s"] = wall() - t_wall
                self.rounds[-1]["traced"] = tracer is not None
                print(f"round {len(self.rounds)}: " + ", ".join(
                    f"{k} {median(v) if isinstance(v, list) else v:.4g}" for k, v in self.rounds[-1].items()
                    if isinstance(v, float) or k.endswith("_per_s")), file=sys.stderr)
                if len(self.rounds) == 1:
                    # right after round 1, so the heap the checks grow does not depend on
                    # how many rounds fit into the run
                    self.check_first()
                    # one pass of the workflow, set-up and checks included; later rounds repeat
                    # it bit for bit and only add the heap's history
                    self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                # whole rounds only; a traced run needs the warm-up, one untraced and one traced
                if len(self.rounds) >= 1 + 2 * self.trace and wall() - t0 + self.rounds[-1]["wall_s"] > self.seconds:
                    break
            self.check_repeats()
            if self.trace:
                return self.per_layer()
            return self.end_to_end(gen_s)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def op(self, fn, *args, **kwargs):
        """One counted operation of the program."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise

    # ------------------------------------------------------------ set-up

    def setup(self) -> List[float]:
        w = self.w
        spec = synth.SceneSpec().small() if w.small else synth.SceneSpec()
        times = []
        self.setup_kernel_s.append(self.kernel.time())
        for _ in range(1 if self.trace else SETUP_REPEATS):
            shutil.rmtree(self.data, ignore_errors=True)
            with traced(self.setup_tracer if self.trace else None):
                t0 = now()
                self.manifest = self.op(
                    synth.generate_dataset, str(self.data), w.n_train + w.n_val, e_list=(w.e,),
                    seed=self.seed, spec=spec, splits=(w.n_train, w.n_val, 0),
                )
                times.append(now() - t0)
            self.setup_kernel_s.append(self.kernel.time())
        return times

    # ------------------------------------------------------------ one round

    def run_round(self) -> Dict:
        w, d, r = self.w, str(self.data), {}
        r["kernel_s"] = [self.kernel.time()]  # the host speed reference, between the phases
        t0 = now()
        train = self.op(pipeline.build_feature_set, d, self.manifest, "train", w.e, with_hists=True)
        val = self.op(pipeline.build_feature_set, d, self.manifest, "val", w.e, with_hists=True)
        r["features_pairs_per_s"] = (len(train) + len(val)) / (now() - t0)
        r["kernel_s"].append(self.kernel.time())

        cfg = dict(seed=self.seed)
        r["emlp_train_s"] = []
        for i in range(EMLP_TRAIN_REPEATS):
            t0 = now()
            params, res = self.op(training.train_emlp, train.defs, train.gts,
                                  training.TrainConfig(model="emlp", epochs=w.emlp_epochs, **cfg))
            r["emlp_train_s"].append(now() - t0)
            if i == 0:
                emlp, emlp_res = params, res
            checks.check_same("EMLP loss log", [row.loss_mean_deg for row in emlp_res.log],
                              [row.loss_mean_deg for row in res.log])
        t0 = now()
        eccc_p, eccc_res = self.op(training.train_eccc, train.hists, train.defs, train.gts,
                                   training.TrainConfig(model="eccc", epochs=w.eccc_epochs, lr=w.eccc_lr, **cfg))
        r["eccc_train_s"] = now() - t0

        r["kernel_s"].append(self.kernel.time())
        ckpt = {k: str(self.work / f"{k}.ckpt") for k in ("emlp", "eccc")}
        self.op(models.save_model, ckpt["emlp"], models.ModelBundle("emlp", DefConfig(), w.e, emlp=emlp))
        self.op(models.save_model, ckpt["eccc"], models.ModelBundle("eccc", DefConfig(), w.e, eccc=eccc_p))

        # warm calls come in bursts between the evals, so a slow spell of
        # the machine touches only part of the sample
        long_path, short_path = self.infer_paths()
        bundle = self.op(models.load_model, ckpt["eccc"])
        pair = DualExposurePair(long=RawImage(synth.read_tensor(long_path)),
                                short=RawImage(synth.read_tensor(short_path)),
                                exposure_factor=float(bundle.e))
        warm = self.op(bundle.predict_pair, pair)  # first call also prepares the predictor
        samples = []

        def warm_burst():
            for _ in range(w.infer_calls // INFER_BURSTS):
                t0 = now()
                self.op(bundle.predict_pair, pair)
                samples.append(now() - t0)

        # the EMLP eval is the shortest timed phase on small frames (a tenth of a
        # second), so it runs several times per round there
        outputs = {}
        evals = [("emlp", "eval_emlp_pairs_per_s", ["eval", "--ckpt", ckpt["emlp"]], w.emlp_eval_repeats),
                 ("eccc", "eval_eccc_pairs_per_s", ["eval", "--ckpt", ckpt["eccc"]], 1),
                 ("ensemble", "ensemble_pairs_per_s",
                  ["ensemble-eval", "--ckpt-a", ckpt["emlp"], "--ckpt-b", ckpt["eccc"]], 1)]
        warm_burst()
        for label, metric, argv, repeats in evals:
            report, table = self.work / f"{label}.json", self.work / f"{label}.csv"
            r[metric] = []
            for _ in range(repeats):
                t0 = now()
                self.op(run_cli, argv + ["--data", d, "--split", "val", "--out-report", str(report),
                                         "--out-csv", str(table)])
                r[metric].append(w.n_val / (now() - t0))
                result = (json.loads(report.read_text()), table.read_text())
                checks.check_same(f"{label} eval", outputs.setdefault(label, result), result)
            warm_burst()
        r["infer_samples"] = samples
        r["kernel_s"].append(self.kernel.time())

        cold_cpu, cold_out = [], []
        for _ in range(w.cold_calls):
            cpu, out = self.op(_child, ["-m", "duxwb.cli", "infer", "--ckpt", ckpt["eccc"],
                                         "--long", long_path, "--short", short_path])
            cold_cpu.append(cpu)
            cold_out.append(json.loads(out.strip().splitlines()[-1])["illuminant"])
        r["cold_infer_s"] = cold_cpu
        r["kernel_s"].append(self.kernel.time())

        r["outputs"] = {
            "reports": outputs,
            "warm": [warm.r, warm.g, warm.b],
            "cold": cold_out,
            "emlp_loss": [row.loss_mean_deg for row in emlp_res.log],
            "eccc_loss": [row.loss_mean_deg for row in eccc_res.log],
        }
        # later rounds keep only a digest, so memory does not grow with the number of rounds
        r["features"] = feature_digest(train, val)
        if not self.rounds:  # this is round 1
            self.first_features = (train, val)
        return r

    def infer_paths(self) -> tuple:
        entry = self.manifest.scenes_for("val")[0]
        return (str(self.data / entry.files[f"long_{self.w.e}"]),
                str(self.data / entry.files[f"short_{self.w.e}"]))

    # ------------------------------------------------------------ checks

    def check_repeats(self) -> None:
        first = self.rounds[0]
        for later in self.rounds[1:]:
            checks.check_same("round outputs", first["outputs"], later["outputs"])
            checks.check_same("train and val feature sets", first["features"], later["features"])

    def check_first(self) -> None:
        """The oracle checks, on round 1's outputs; its feature sets are let go after."""
        w, out = self.w, self.rounds[0]["outputs"]
        train, val = self.first_features
        self.first_features = None
        entries = self.manifest.scenes_for("val")
        ids = [e.scene_id for e in entries]
        gts = np.array([e.gt for e in entries])
        checks.require(val.scene_ids == ids, "val feature set is not in manifest order")
        checks.require(len(train) == w.n_train,
                       f"train feature set holds {len(train)} samples")

        frames = [(checks.read_dxt(str(self.data / e.files[f"long_{w.e}"])),
                   checks.read_dxt(str(self.data / e.files[f"short_{w.e}"]))) for e in entries[:CHECK_PAIRS]]
        checks.check_features("val", val.defs[:CHECK_PAIRS], val.hists[:CHECK_PAIRS], frames)

        rows = {}
        for label, (report, table) in out["reports"].items():
            rows[label] = checks.read_results_csv(table)
            checks.check_report(label, report, rows[label], ids, gts)
        checks.check_ensemble(rows["emlp"]["pred"], rows["eccc"]["pred"], rows["ensemble"]["pred"])

        report, table = self.work / "gray.json", self.work / "gray.csv"
        self.op(run_cli, ["eval", "--baseline", "gray-world", "--data", str(self.data), "--split", "val",
                          "--out-report", str(report), "--out-csv", str(table)])
        gray = checks.read_results_csv(table.read_text())
        checks.check_report("gray-world", json.loads(report.read_text()), gray, ids, gts)
        checks.check_gray_world(gray["pred"], [checks.read_dxt(str(self.data / e.files["auto"])) for e in entries])

        untrained = mlp_forward(emlp_init(d_in=train.defs.shape[1], seed=self.seed), val.defs)
        checks.check_learned("emlp", out["reports"]["emlp"][0]["mean"],
                             checks.angular_deg(untrained, val.gts), out["emlp_loss"])
        cfg = training.TrainConfig(model="eccc", seed=self.seed).resolved()
        bank, _ = training.init_eccc_biases(train.defs, train.gts, cfg.n_biases, cfg.hist_bins, seed=cfg.seed)
        init = eccc.init_eccc(bins=cfg.hist_bins, n=cfg.n_biases, variant=cfg.variant, use_def=True,
                              def_dim=train.defs.shape[1], seed=cfg.seed, biases=bank)
        direction = eccc._forward_batch(init, hists=val.hists, defs=val.defs)["direction"]
        checks.check_learned("eccc", out["reports"]["eccc"][0]["mean"],
                             checks.angular_deg(direction, val.gts), out["eccc_loss"])

        for cold in out["cold"]:
            checks.require(np.allclose(cold, out["warm"], rtol=0.0, atol=1e-12),
                           f"cold infer {cold} differs from warm predict_pair {out['warm']}")

    # ------------------------------------------------------------ metrics

    def end_to_end(self, gen_s: List[float]) -> Dict[str, dict]:
        rounds = self.rounds
        reports = rounds[0]["outputs"]["reports"]
        raw = self.timings(gen_s, lambda r: 1.0, 1.0)
        values = self.timings(gen_s, lambda r: REFERENCE_S / median(r["kernel_s"]),
                              REFERENCE_S / median(self.setup_kernel_s))
        values.update({
            "emlp_val_deg": reports["emlp"][0]["mean"],
            "eccc_val_deg": reports["eccc"][0]["mean"],
            "peak_rss_mib": self.peak_rss_mib,
        })
        kernel_ms = [1e3 * t for r in rounds for t in r["kernel_s"]]
        print(f"{self.w.name}: import {self.import_s:.4g} s, generations {', '.join(f'{t:.4g}' for t in gen_s)} s; "
              f"{len(rounds)} rounds, {sum(len(r['infer_samples']) for r in rounds)} warm infer calls; "
              f"reference kernel {median(kernel_ms):.4g} ms (range {min(kernel_ms):.4g}-{max(kernel_ms):.4g})",
              file=sys.stderr)
        print("unscaled CPU figures: " + json.dumps(raw), file=sys.stderr)
        return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}

    def timings(self, gen_s: List[float], round_scale, setup_scale: float) -> Dict[str, float]:
        """The timing metrics, each round's CPU times multiplied by round_scale(round)."""
        rounds = self.rounds

        def times(key):
            return [t * round_scale(r) for r in rounds for t in np.atleast_1d(r[key])]

        def rates(key):
            return [x / round_scale(r) for r in rounds for x in np.atleast_1d(r[key])]

        samples = times("infer_samples")
        return {
            "setup_s": setup_scale * (self.import_s + median(gen_s)),
            "features_pairs_per_s": median(rates("features_pairs_per_s")),
            "emlp_train_s": median(times("emlp_train_s")),
            "eccc_train_s": median(times("eccc_train_s")),
            "eval_emlp_pairs_per_s": median(rates("eval_emlp_pairs_per_s")),
            "eval_eccc_pairs_per_s": median(rates("eval_eccc_pairs_per_s")),
            "ensemble_pairs_per_s": median(rates("ensemble_pairs_per_s")),
            "infer_p50_ms": 1e3 * float(np.percentile(samples, 50)),
            "infer_p90_ms": 1e3 * float(np.percentile(samples, 90)),
            "cold_infer_s": median(times("cold_infer_s")),
        }

    def per_layer(self) -> Dict[str, dict]:
        spans = self.round_tracer.spans
        traced = [r for r in self.rounds if r["traced"]]
        plain = [r for r in self.rounds[1:] if not r["traced"]]  # without the warm-up round
        n = len(traced)
        values = {}
        if not any(s.name == "training.relight_pair" for s in spans):
            self.relight_probe()
        for span, metric, unit, count in PER_CALL:
            durations = [s.duration for s in spans if s.name == span]
            calls = len(durations) / n
            if not durations:
                durations = [s.duration for s in self.probe_tracer.spans if s.name == span]
            values[metric] = (median(durations) * (1e3 if unit == "ms" else 1.0), unit)
            values[count] = (calls, "count")
        gen = [s.duration for s in self.setup_tracer.spans if s.name == "synth.generate_dataset"]
        values["synth.generate_ms_per_scene"] = (1e3 * median(gen) / len(self.manifest.scenes), "ms")
        values["cli.import_s"] = (median([self.import_probe() for _ in range(IMPORT_PROBES)]), "s")
        for layer, total in layer_self_times(spans).items():
            values[f"layer.{layer}.self_s"] = (total / n, "s")
        plain_s = median([r["cpu_s"] for r in plain])
        values["trace.overhead_pct"] = (100.0 * (median([r["cpu_s"] for r in traced]) / plain_s - 1.0), "%")
        values["trace.spans_per_round"] = (len(spans) / n, "count")

        self.results.mkdir(exist_ok=True)
        path = self.results / f"{self.w.name}-s{self.seed}-spans.json"
        with open(path, "w") as fh:
            json.dump({"fields": list(Span._fields),
                       "setup": [list(s) for s in self.setup_tracer.spans],
                       "rounds": [list(s) for s in spans],
                       "probe": [list(s) for s in self.probe_tracer.spans]}, fh)
        print(f"{self.w.name}: warm-up + {len(plain)} untraced + {n} traced rounds; spans in {path}",
              file=sys.stderr)
        # times at the reference host speed, like the end-to-end figures
        scale = REFERENCE_S / median(self.setup_kernel_s + [t for r in self.rounds for t in r["kernel_s"]])
        return {k: {"value": v * scale if u in ("ms", "s") else v, "unit": u} for k, (v, u) in values.items()}

    def relight_probe(self) -> None:
        """Time relight_pair on train pairs when the workload itself makes no call."""
        entries = self.manifest.scenes_for("train")[:RELIGHT_PROBES + 1]
        pairs = [synth.load_pair(str(self.data), e, self.w.e) for e in entries]
        with traced(self.probe_tracer):
            for pair, donor in zip(pairs, pairs[1:]):
                self.op(pipeline.relight_pair, pair, donor.ground_truth.as_array())

    def import_probe(self) -> float:
        code = ("import time; t = time.process_time(); import numpy, scipy.fft, duxwb.cli, duxwb.models; "
                "print(time.process_time() - t)")
        _, out = self.op(_child, ["-c", code])
        return float(out.strip())


def feature_digest(*feature_sets) -> str:
    h = hashlib.sha256()
    for fs in feature_sets:
        h.update("\n".join(fs.scene_ids).encode())
        for key in ("defs", "gts", "hists"):
            h.update(getattr(fs, key).tobytes())
    return h.hexdigest()


def layer_self_times(spans: List[Span]) -> Dict[str, float]:
    """Total self time per program layer (the span name's first component)."""
    totals = {layer: 0.0 for layer in LAYERS}
    for s, own in zip(spans, self_times(spans)):
        layer = s.name.split(".", 1)[0]
        if layer in totals:
            totals[layer] += own
    return totals

"""Command-line entry point covering the full workflow: dataset generation,
feature extraction, training, evaluation, single-pair inference, and
two-model ensembling.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Every run logs its
resolved configuration as one JSON line on stderr. DUXWB_THREADS caps worker
parallelism, including the BLAS/FFT thread pools (applied before numpy
loads, which is why the heavy imports live inside the command handlers).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys


def _apply_thread_cap() -> None:
    cap = os.environ.get("DUXWB_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


def _log_config(args: argparse.Namespace) -> None:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(json.dumps({"resolved_config": cfg}), file=sys.stderr)


def _def_config(args: argparse.Namespace):
    from .def_feature import DefConfig

    return DefConfig(
        color_repr=args.color_repr,
        mapping=args.mapping,
        include_covariance=not args.no_cov,
    )


def _add_def_flags(p: argparse.ArgumentParser) -> None:
    from .def_feature import COLOR_REPRS, MAPPINGS, DefConfig

    defaults = DefConfig()
    p.add_argument("--color-repr", default=defaults.color_repr, choices=COLOR_REPRS)
    p.add_argument("--mapping", default=defaults.mapping, choices=MAPPINGS)
    p.add_argument("--no-cov", action="store_true", help="drop the covariance block of the feature")


def _exposure(text: str, zero_means: str = "") -> int:
    """An exposure factor: an integer of at least 2, or 0 when zero_means
    names what 0 stands for."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 2 and not (zero_means and value == 0):
        alternative = f", or 0 for {zero_means}" if zero_means else ""
        raise argparse.ArgumentTypeError(f"exposure factor must be an integer of at least 2{alternative}, got {text!r}")
    return value


def _exposure_or_zero(text: str) -> int:
    return _exposure(text, "the checkpoint's")


def _exposure_list(text: str) -> list:
    return [_exposure(v) for v in text.split(",")]


def _int_at_least(low: int):
    """An argument type for integers of at least low."""
    what = {0: "a nonnegative integer", 1: "a positive integer"}.get(low, f"an integer of at least {low}")

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


def _learning_rate(text: str) -> float:
    """A finite, nonnegative learning rate; 0 stands for the model default."""
    try:
        value = float(text)
    except ValueError:
        value = -1.0
    if not 0.0 <= value < math.inf:  # false for NaN too
        raise argparse.ArgumentTypeError(f"learning rate must be finite and nonnegative, got {text!r}")
    return value


def _split_counts(text: str) -> tuple:
    """train,val,test: three nonnegative integers."""
    try:
        counts = tuple(int(v) for v in text.split(","))
    except ValueError:
        counts = ()
    if len(counts) != 3 or min(counts) < 0:
        raise argparse.ArgumentTypeError(f"splits must be three nonnegative integers train,val,test, got {text!r}")
    return counts


# ============================================================
# Subcommands
# ============================================================

def cmd_gen_data(args: argparse.Namespace) -> int:
    from .synth import SceneSpec, generate_dataset

    spec = SceneSpec(width=args.width, height=args.height)
    if args.small:
        spec = spec.small()
    manifest = generate_dataset(
        args.out,
        n_scenes=args.scenes,
        e_list=args.e_list,
        seed=args.seed,
        spec=spec,
        splits=args.splits,
    )
    print(json.dumps({"scenes": len(manifest.scenes), "out": args.out}))
    return 0


def cmd_extract_def(args: argparse.Namespace) -> int:
    from .pipeline import split_chunks
    from .synth import DatasetManifest

    entries = DatasetManifest.load(args.data).scenes_for(args.split)
    cfg = _def_config(args)
    gt_of = {entry.scene_id: entry.gt for entry in entries}
    n_rows = 0
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        width = cfg.feature_length
        header = ["scene_id", "e"] + [f"def_{i}" for i in range(width)]
        if args.with_gt:
            header += ["gt_r", "gt_g", "gt_b"]
        writer.writerow(header)
        for chunk in split_chunks(args.data, entries, args.e):
            for scene_id, values in zip(chunk.ids, chunk.defs(cfg)):
                row = [scene_id, args.e] + [repr(float(v)) for v in values]
                if args.with_gt:
                    row += [repr(float(v)) for v in gt_of[scene_id]]
                writer.writerow(row)
                n_rows += 1
    print(json.dumps({"rows": n_rows, "out": args.out}))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from .models import ModelBundle, save_model
    from .pipeline import build_feature_set
    from .synth import DatasetManifest
    from .training import TrainConfig, train_eccc, train_emlp

    manifest = DatasetManifest.load(args.data)
    def_cfg = _def_config(args)
    cfg = TrainConfig(
        model=args.model,
        epochs=args.epochs,
        lr=args.lr,
        seed=args.seed,
        n_biases=args.n,
        hist_bins=args.hist_bins,
        variant=args.hist_input,
        use_def=not args.no_def,
        bias_init=not args.no_bias_init,
    )
    features = build_feature_set(
        args.data,
        manifest,
        "train",
        args.e,
        def_cfg,
        with_hists=args.model == "eccc",
        variant=args.hist_input,
        bins=args.hist_bins,
        augment=args.augment,
        seed=args.seed,
    )
    if args.model == "emlp":
        params, result = train_emlp(features.defs, features.gts, cfg)
        bundle = ModelBundle(kind="emlp", def_cfg=def_cfg, e=args.e, emlp=params)
    else:
        params, result = train_eccc(
            features.hists,
            features.defs if not args.no_def else None,
            features.gts,
            cfg,
        )
        bundle = ModelBundle(kind="eccc", def_cfg=def_cfg, e=args.e, eccc=params)
    save_model(args.out, bundle)
    log_path = args.log or (args.out + ".losses.csv")
    with open(log_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "split", "loss_mean_deg", "smoothness_terms", "lr", "batch_size"])
        for row in result.log:
            writer.writerow([row.epoch, row.split, repr(row.loss_mean_deg), repr(row.smoothness_terms), repr(row.lr), row.batch_size])
    print(json.dumps({
        "out": args.out,
        "epochs": len(result.log),
        "final_loss": result.log[-1].loss_mean_deg if result.log else None,
        "aborted": result.aborted,
        "skipped_steps": result.skipped_steps,
    }))
    return 0


def _evaluate(args, manifest, predict, label: str, e) -> int:
    """Report predict on args.split; nothing is written unless every scene
    was scored."""
    from .evaluation import evaluate_scenes, results_csv_rows

    report, results = evaluate_scenes(predict, manifest, args.split)
    payload = report.to_dict(model=label, split=args.split, e=e)
    with open(args.out_report, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if args.out_csv:
        with open(args.out_csv, "w", newline="") as fh:
            csv.writer(fh).writerows(results_csv_rows(results))
    print(json.dumps(payload))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from .evaluation import baseline_predictor
    from .models import load_model
    from .pipeline import chunk_predictor
    from .synth import DatasetManifest

    manifest = DatasetManifest.load(args.data)
    if args.baseline:
        return _evaluate(args, manifest, baseline_predictor(args.baseline, args.data), args.baseline, None)
    bundle = load_model(args.ckpt)
    e = args.e or bundle.e
    return _evaluate(args, manifest, chunk_predictor(args.data, e, bundle.predict), bundle.kind, e)


def cmd_infer(args: argparse.Namespace) -> int:
    from .core import DualExposurePair
    from .models import load_model
    from .synth import checked_frame, read_tensor

    bundle = load_model(args.ckpt)
    pair = DualExposurePair(
        long=checked_frame(read_tensor(args.long), args.long),
        short=checked_frame(read_tensor(args.short), args.short),
        exposure_factor=float(args.e or bundle.e),
    )
    ill = bundle.predict_pair(pair)
    print(json.dumps({"illuminant": [ill.r, ill.g, ill.b]}))
    return 0


def cmd_ensemble_eval(args: argparse.Namespace) -> int:
    from .errors import DataError
    from .models import load_model
    from .pipeline import chunk_predictor
    from .synth import DatasetManifest
    from .training import ensemble

    manifest = DatasetManifest.load(args.data)
    bundle_a = load_model(args.ckpt_a)
    bundle_b = load_model(args.ckpt_b)
    if not args.e and bundle_a.e != bundle_b.e:
        low, high = sorted((bundle_a.e, bundle_b.e))
        raise DataError(f"the checkpoints record exposure factors {low} and {high}; choose one with --e")
    e = args.e or bundle_a.e

    def predict(chunk):
        # the chunk keeps each feature per setting, so bundles sharing the DEF compute it once
        return ensemble(bundle_a.predict(chunk), bundle_b.predict(chunk))

    return _evaluate(args, manifest, chunk_predictor(args.data, e, predict), "ensemble", e)


# ============================================================
# Parser
# ============================================================

def build_parser() -> argparse.ArgumentParser:
    # numpy-backed modules; main() caps the thread pools before this runs
    from .eccc import UPSAMPLE_FACTOR, VARIANTS
    from .evaluation import BASELINES
    from .synth import SceneSpec
    from .training import MODEL_DEFAULTS, TrainConfig

    scene_defaults = SceneSpec()
    train_defaults = TrainConfig()

    def model_default(key: str) -> str:
        return "0 = model default (" + ", ".join(f"{m} {d[key]:g}" for m, d in MODEL_DEFAULTS.items()) + ")"

    parser = argparse.ArgumentParser(prog="duxwb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="render a labeled synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--scenes", type=int, required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--e-list", type=_exposure_list, default="2,4,8", help="comma-separated exposure factors, each >= 2")
    p.add_argument("--width", type=_int_at_least(1), default=scene_defaults.width)
    p.add_argument("--height", type=_int_at_least(1), default=scene_defaults.height)
    p.add_argument("--small", action="store_true", help="48x32 frames")
    p.add_argument("--splits", type=_split_counts, default=None,
                   help="train,val,test counts summing to --scenes (default: 387:83:86 ratio)")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("extract-def", help="write feature vectors as CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="all", choices=["all", "train", "val", "test"])
    p.add_argument("--e", type=_exposure, default=8)
    p.add_argument("--with-gt", action="store_true")
    _add_def_flags(p)
    p.set_defaults(func=cmd_extract_def)

    p = sub.add_parser("train", help="train an estimator")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, choices=["emlp", "eccc"])
    p.add_argument("--out", required=True)
    p.add_argument("--e", type=_exposure, default=8)
    p.add_argument("--epochs", type=_int_at_least(0), default=0, help=model_default("epochs"))
    p.add_argument("--lr", type=_learning_rate, default=0.0, help=model_default("lr"))
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--augment", action="store_true")
    p.add_argument("--n", type=_int_at_least(1), default=train_defaults.n_biases, help="bias bank size (eccc)")
    p.add_argument("--hist-bins", type=_int_at_least(UPSAMPLE_FACTOR), default=train_defaults.hist_bins)
    p.add_argument("--hist-input", default=train_defaults.variant, choices=VARIANTS)
    p.add_argument("--no-def", action="store_true", help="eccc variant without the feature path")
    p.add_argument("--no-bias-init", action="store_true")
    p.add_argument("--log", default=None, help="loss CSV path (default: <out>.losses.csv)")
    _add_def_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or baseline on a split")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ckpt")
    group.add_argument("--baseline", choices=list(BASELINES))
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="val", choices=["train", "val", "test"])
    p.add_argument("--e", type=_exposure_or_zero, default=0, help="0 = exposure recorded in the checkpoint")
    p.add_argument("--out-report", required=True)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="estimate the illuminant of one pair")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--long", required=True)
    p.add_argument("--short", required=True)
    p.add_argument("--e", type=_exposure_or_zero, default=0, help="0 = exposure recorded in the checkpoint")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("ensemble-eval", help="evaluate averaged predictions of two checkpoints")
    p.add_argument("--ckpt-a", required=True)
    p.add_argument("--ckpt-b", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="val", choices=["train", "val", "test"])
    p.add_argument("--e", type=_exposure_or_zero, default=0, help="0 = exposure recorded in the checkpoint")
    p.add_argument("--out-report", required=True)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=cmd_ensemble_eval)

    return parser


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = build_parser()
    args = parser.parse_args(argv)
    _log_config(args)
    try:
        return args.func(args)
    except Exception as exc:  # runtime failure -> exit 1 with a message
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Workload definitions for the duxwb benchmark.

Every workload runs every phase of the user workflow (generate, features,
train EMLP and ECCC, eval, ensemble-eval, warm and cold infer), so every
end-to-end metric exists on every workload. They differ in which layers do
the work: frame geometry moves cost between the per-pixel layers and the
histogram-domain ECCC training.
"""

from __future__ import annotations

from dataclasses import dataclass

SETUP_REPEATS = 3  # dataset generations per run; setup_s is their median


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    small: bool  # 48x32 frames (gen-data --small) instead of 384x256
    n_train: int
    n_val: int
    emlp_epochs: int
    eccc_epochs: int
    eccc_lr: float = 0.0  # `duxwb train --lr`; 0 keeps the model default
    infer_calls: int = 200  # warm predict_pair calls per round
    cold_calls: int = 1  # fresh `duxwb infer` processes per round
    emlp_eval_repeats: int = 3  # `duxwb eval` of the EMLP checkpoint per round
    e: int = 8  # exposure factor; the dataset holds only this one


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small-frames",
            why="48x32 frames and a long ECCC run: ECCC forward/backward, Sobel penalties and Adam dominate",
            small=True,
            n_train=300,
            n_val=300,
            emlp_epochs=200,
            eccc_epochs=6,
        ),
        Workload(
            name="full-frames",
            why="384x256 frames, small train and large val split: rendering, tensor reads, DEF and histograms dominate",
            small=False,
            n_train=64,
            n_val=160,
            emlp_epochs=600,
            eccc_epochs=50,
            eccc_lr=0.04,
            cold_calls=2,
            emlp_eval_repeats=1,
        ),
    )
}

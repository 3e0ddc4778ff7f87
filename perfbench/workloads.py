"""The operations the benchmark times, one class per kind of workload.

Every operation runs one pinned case c of its workload, c in
range(workload.cases): dataset seed 1000 + c and training seed 2000 + c.
Test sqrt-PEHE at each case is recorded in reference.json, so a run can check
its outputs against the values of the commit that defined the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable, ContextManager

import numpy as np

from ite_bench import cli, metrics, model, simulate

PEHE_RTOL = 1e-6

Span = Callable[[str], ContextManager]


@dataclass
class OpResult:
    case: int
    wall_s: float  # timed wall of the whole operation
    train_s: float  # wall of the training it contains
    samples: int  # training samples processed: n_train x epochs, summed over fits
    fits: int
    trials: int
    sqrt_pehe: float
    checks: dict[str, bool]  # one entry per attempted operation
    facts: dict  # exact counts and per-trial walls read from the artifacts


def sim_config(case: int) -> simulate.SimConfig:
    return simulate.SimConfig(n=2000, d=32, k=4, centroid_method="kmeans", seed=1000 + case)


def dir_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


def pehe_ok(value: float, reference: float | None) -> bool:
    """Finite, and equal to the recorded value up to roundoff (None: not recorded)."""
    if not math.isfinite(value):
        return False
    return reference is None or abs(value - reference) <= PEHE_RTOL * abs(reference)


@dataclass(frozen=True)
class FitWorkload:
    """simulate -> save -> load -> train -> [checkpoint round-trip ->] evaluate."""

    shape: model.ModelShape
    batch_size: int
    epochs: int
    variant: str
    cases: int
    checkpoint: bool
    # a run reports its fastest operation, not its median one (see WORKLOADS)
    best_of_run = True

    @property
    def n_checks(self) -> int:
        return 3 if self.checkpoint else 2

    def run(self, case: int, work_dir: str, reference: float | None, span: Span) -> OpResult:
        ds_dir = os.path.join(work_dir, "dataset")
        ckpt = os.path.join(work_dir, "checkpoint.json")
        # patience == epochs_max, so every fit trains exactly `epochs` epochs
        cfg = model.TrainConfig(
            batch_size=self.batch_size, epochs_max=self.epochs, patience=self.epochs,
            seed=2000 + case,
        )
        with span("op"):
            t0 = time.perf_counter()
            ds = simulate.simulate_dataset(sim_config(case))
            simulate.save_dataset(ds, ds_dir)
            ds = simulate.load_dataset(ds_dir)
            t1 = time.perf_counter()
            trained = model.train(ds, self.shape, cfg, self.variant)
            t2 = time.perf_counter()
            restored = trained
            if self.checkpoint:
                model.save_checkpoint(ckpt, trained)
                restored = model.load_checkpoint(ckpt)
            report = metrics.evaluate_model(restored.model, ds, split="test", zero_shot_z=0)
            t3 = time.perf_counter()

        x_test = ds.covariates("test")
        epochs = trained.history.n_epochs()
        best = trained.best_val_mse
        checks = {
            "fit": epochs == self.epochs and best is not None and math.isfinite(best),
            "evaluation": pehe_ok(report.sqrt_pehe, reference),
        }
        if self.checkpoint:
            checks["checkpoint"] = np.array_equal(
                model.predict_all_outcomes(trained.model, x_test, ds.T_emb),
                model.predict_all_outcomes(restored.model, x_test, ds.T_emb),
            )
        return OpResult(
            case=case,
            wall_s=t3 - t0,
            train_s=t2 - t1,
            samples=len(ds.splits["train"]) * epochs,
            fits=1,
            trials=1,
            sqrt_pehe=report.sqrt_pehe,
            checks=checks,
            facts={
                "dataset_bytes": dir_bytes(ds_dir),
                "ckpt_bytes": os.path.getsize(ckpt) if self.checkpoint else 0,
            },
        )


@dataclass(frozen=True)
class SweepWorkload:
    """`ite-bench sweep` in-process over a fixed grid at desk scale."""

    grid: dict
    repeats: int
    epochs: int
    threads: int
    cases: int
    best_of_run = False

    @property
    def n_trials(self) -> int:
        return math.prod(len(v) for v in self.grid.values())

    @property
    def n_checks(self) -> int:
        return self.n_trials + 1

    def config(self, case: int) -> dict:
        return {
            "base": {
                "variant": "joint",
                "repeats": self.repeats,
                "sim": sim_config(case).to_dict(),
                "train": {
                    "batch_size": 128, "epochs_max": self.epochs, "patience": self.epochs,
                    "seed": 2000 + case,
                },
            },
            "grid": self.grid,
        }

    def run(self, case: int, work_dir: str, reference: float | None, span: Span) -> OpResult:
        cfg_path = os.path.join(work_dir, "sweep.json")
        out = os.path.join(work_dir, "sweep")
        with open(cfg_path, "w") as fh:
            json.dump(self.config(case), fh)
        argv = ["sweep", "--config", cfg_path, "--threads", str(self.threads), "--out", out]
        with span("op"), contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - t0

        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        records = []
        for trial in summary["trials"]:
            path = os.path.join(out, "trials", f"trial_{trial['trial']:04d}", "record.json")
            with open(path) as fh:
                records.append(json.load(fh))
        n_train = 0
        for r in range(self.repeats):
            with open(os.path.join(out, "datasets", f"rep{r}", "manifest.json")) as fh:
                n_train += len(json.load(fh)["splits"]["train"])
        ckpts = [path for rec in records for path in rec["checkpoints"]]
        pehe = summary["winner"]["test_sqrt_pehe"]["mean"]

        checks = {f"trial_{rec['trial']}": rec["status"] == "ok" for rec in records}
        checks["evaluation"] = (
            code == 0
            and summary["n_trials"] == self.n_trials
            and summary["test_truth_reads_before_selection"] == 0
            and pehe_ok(pehe, reference)
        )
        return OpResult(
            case=case,
            wall_s=wall,
            train_s=wall,
            samples=n_train * self.epochs * len(records),
            fits=self.n_trials * self.repeats,
            trials=len(records),
            sqrt_pehe=pehe,
            checks=checks,
            facts={
                "dataset_bytes": dir_bytes(os.path.join(out, "datasets")),
                "ckpt_bytes": sum(os.path.getsize(p) for p in ckpts),
                "ckpt_writes": len(ckpts),
                "trial_walls": [rec["wall_clock_s"] for rec in records],
                "workers": self.threads,
            },
        )


# A run covers every case of its workload at least once, so its medians do not
# depend on which cases the seed puts first.
#
# Other tenants of a shared host slow every operation for phases of seconds to
# minutes. A fit takes 0.5-2 s and so often runs whole inside a quiet phase:
# the run's fastest fit repeats from run to run better than its median. A
# sweep needs both CPUs quiet for ~3 s, and its median was the steadier figure
# in every set of runs measured.
WORKLOADS = {
    # README quickstart at desk scale: per-call overhead and the MMD dominate
    "desk-joint": FitWorkload(
        model.ModelShape(), batch_size=128, epochs=10, variant="joint", cases=4,
        checkpoint=True,
    ),
    # search-grid width: GEMM-bound, no MMD calls. No checkpoint round-trip:
    # its ~116 MB of JSON doubled in time with the host's load, and no
    # estimator kept the spread of fit_s within its bound
    "wide-tarnet": FitWorkload(
        model.ModelShape(cov_layers=6, cov_width=400, head_layers=6, head_width=400),
        batch_size=256, epochs=2, variant="tarnet", cases=4, checkpoint=False,
    ),
    # two worker processes contending for two cores, desk-scale trials
    "sweep-2w": SweepWorkload(
        grid={"variant": ["joint", "tarnet"], "train.base_lr": [0.1, 0.05],
              "model.cov_width": [48, 64]},
        repeats=2, epochs=3, threads=2, cases=4,
    ),
}

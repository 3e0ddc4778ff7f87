"""Experiment orchestration: repeated runs, hyperparameter sweeps, reports.

A sweep trains every candidate configuration on the same simulated
datasets (one per repeat seed), ranks candidates by mean validation MSE,
and only then evaluates the winner on the test split. Dataset objects
count every access to ground-truth outcome matrices, so the summary can
prove that selection never touched test-set truth.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
import random
import shutil
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import blas
from .errors import (
    ConfigError,
    DataError,
    JsonConfig,
    TrainingDiverged,
    check_artifact,
    check_out_dir,
    check_types,
    write_json_atomic,
)
from .metrics import EvalReport, evaluate_model
from .model import (
    VARIANTS,
    ModelShape,
    TrainConfig,
    TrainedModel,
    load_checkpoint,
    save_checkpoint,
    train,
)
# load_dataset is unused here, but perfbench/tracing.py binds experiments.load_dataset
from .simulate import Dataset, SimConfig, load_dataset, save_dataset, simulate_dataset

RECORD_SCHEMA_VERSION = "2"
RECORD_KEYS = {"kind", "schema_version", "label", "config", "per_seed", "artifacts"}


@dataclass(frozen=True)
class ExperimentConfig(JsonConfig):
    sim: SimConfig = field(default_factory=SimConfig)
    model: ModelShape = field(default_factory=ModelShape)
    train: TrainConfig = field(default_factory=TrainConfig)
    variant: str = "joint"
    repeats: int = 1
    zero_shot: int | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        check_types(self, ConfigError)
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if self.zero_shot is not None and not 0 <= self.zero_shot < self.sim.k:
            raise ConfigError(
                f"zero_shot treatment {self.zero_shot} out of range 0..{self.sim.k - 1}"
            )

    def effective_label(self) -> str:
        return self.label if self.label else self.variant


def _aggregate(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    # population standard deviation: a single seed reports std 0
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std()),
        "n": int(arr.size),
    }


@dataclass
class RunRecord:
    """Per-seed test reports of one config; the aggregate derives from them."""

    label: str
    config: dict
    per_seed: list[EvalReport]
    artifacts: list[str] = field(default_factory=list)

    @property
    def aggregate(self) -> dict:
        """Mean and population std of sqrt_pehe over the seeds; when every
        seed is zero-shot, also of sqrt_pehe_zs, and zs_head_untrained_n,
        the number of seeds whose head z was never trained."""
        aggregate = {"sqrt_pehe": _aggregate([r.sqrt_pehe for r in self.per_seed])}
        if all(r.zero_shot_z is not None for r in self.per_seed):
            aggregate["sqrt_pehe_zs"] = _aggregate([r.sqrt_pehe_zs for r in self.per_seed])
            aggregate["zs_head_untrained_n"] = sum(not r.head_z_trained for r in self.per_seed)
        return aggregate

    def __post_init__(self) -> None:
        check_types(self, DataError)
        if not self.per_seed:
            raise DataError("run record has no per-seed reports")

    def to_dict(self) -> dict:
        return {
            "kind": "run_record",
            "schema_version": RECORD_SCHEMA_VERSION,
            "label": self.label,
            "config": self.config,
            "per_seed": [r.to_dict() for r in self.per_seed],
            "artifacts": self.artifacts,
        }

    @staticmethod
    def from_dict(doc: dict) -> "RunRecord":
        check_artifact(
            doc, "record", RECORD_SCHEMA_VERSION, RECORD_KEYS, "the experiment or sweep"
        )
        return RunRecord(
            label=doc["label"],
            config=doc["config"],
            per_seed=[EvalReport.from_dict(r) for r in doc["per_seed"]],
            artifacts=doc["artifacts"],
        )


def make_record(
    cfg: ExperimentConfig, reports: list[EvalReport], artifacts: list[str] | None = None
) -> RunRecord:
    return RunRecord(
        label=cfg.effective_label(),
        config=cfg.to_dict(),
        per_seed=reports,
        artifacts=artifacts or [],
    )


def _repeat_sim(base: ExperimentConfig, r: int) -> SimConfig:
    return replace(base.sim, seed=base.sim.seed + r)


def _fit_repeat(cfg: ExperimentConfig, ds: Dataset, r: int) -> TrainedModel:
    """Repeat r's fit: train.seed + r, with cfg.zero_shot held out of the
    training and validation rows."""
    return train(
        ds, cfg.model, replace(cfg.train, seed=cfg.train.seed + r), cfg.variant,
        held_out=cfg.zero_shot,
    )


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> RunRecord:
    """Train and evaluate cfg.repeats times.

    Repeat r simulates with sim.seed + r and fits with _fit_repeat. The
    test split then scores every treatment, and with cfg.zero_shot set also
    the pairs that involve the held-out one.
    """
    reports: list[EvalReport] = []
    artifacts: list[str] = []
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    for r in range(cfg.repeats):
        ds = simulate_dataset(_repeat_sim(cfg, r))
        trained = _fit_repeat(cfg, ds, r)
        reports.append(
            evaluate_model(trained.model, ds, split="test", zero_shot_z=cfg.zero_shot)
        )
        if out_dir:
            ckpt = os.path.join(out_dir, f"checkpoint_rep{r}.json")
            save_checkpoint(ckpt, trained)
            artifacts.append(ckpt)
    return make_record(cfg, reports, artifacts)


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepSpec(JsonConfig):
    base: ExperimentConfig
    grid: dict[str, list | tuple]
    max_trials: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_types(self, ConfigError)
        if not self.grid:
            raise ConfigError("sweep grid is empty")
        for key, values in self.grid.items():
            if key != "variant" and not key.startswith(("model.", "train.")):
                raise ConfigError(
                    f"grid axis {key!r} is not sweepable; use variant, "
                    f"model.<field>, or train.<field>"
                )
            if not values:
                raise ConfigError(f"grid axis {key!r} must list at least one value")
        if self.max_trials is not None and self.max_trials < 1:
            raise ConfigError("max_trials must be >= 1")


def expand_grid(grid: dict[str, list]) -> list[dict]:
    """Cartesian product of grid axes in sorted-key order."""
    keys = sorted(grid)
    points = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        points.append(dict(zip(keys, combo)))
    return points


def apply_overrides(base: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    """base with each dotted key ("sim.n", "train.base_lr", "variant") set
    to its value. The result is rebuilt by ExperimentConfig.from_dict, which
    checks every field, and an error names the keys."""
    doc = base.to_dict()
    for key, value in overrides.items():
        section, _, name = key.rpartition(".")
        target = doc.setdefault(section, {}) if section else doc
        if not isinstance(target, dict):
            raise ConfigError(f"overrides {sorted(overrides)}: {section} is not a section")
        if isinstance(target.get(name), dict):
            raise ConfigError(f"overrides {sorted(overrides)}: {key} is a section, not a field")
        target[name] = value
    try:
        return ExperimentConfig.from_dict(doc)
    except ConfigError as exc:
        raise ConfigError(f"overrides {sorted(overrides)}: {exc}") from exc


def _test_truth_reads(datasets: list[Dataset]) -> int:
    return sum(ds.truth_reads.get("test", 0) for ds in datasets)


def _trial_val_mse(trained: TrainedModel) -> float:
    return math.inf if trained.best_val_mse is None else trained.best_val_mse


def _run_trial(
    i: int,
    cfgs: list[ExperimentConfig],
    points: list[dict],
    datasets: list[Dataset],
    trials_root: str,
) -> dict:
    """Train trial i, the config cfgs[i] of grid point points[i], on every
    repeat dataset and write its record; never touches test truth.
    The record's test_truth_reads counts the test-truth reads the trial made,
    which the parent cannot see in a pool worker's own copies of the data."""
    cfg = cfgs[i]
    trial_dir = os.path.join(trials_root, f"trial_{i:04d}")
    os.makedirs(trial_dir, exist_ok=True)
    t0 = time.perf_counter()
    reads_before = _test_truth_reads(datasets)
    val_mse: list[float] = []
    checkpoints: list[str] = []
    status = "ok"
    message = ""
    try:
        for r, ds in enumerate(datasets):
            trained = _fit_repeat(cfg, ds, r)
            val_mse.append(_trial_val_mse(trained))
            ckpt = os.path.join(trial_dir, f"checkpoint_rep{r}.json")
            save_checkpoint(ckpt, trained)
            checkpoints.append(ckpt)
    except TrainingDiverged as exc:
        status = "diverged"
        message = str(exc)
    record = {
        "trial": i,
        "overrides": points[i],
        "status": status,
        "message": message,
        "val_mse": val_mse,
        "mean_val_mse": float(np.mean(val_mse)) if val_mse and status == "ok" else None,
        "checkpoints": checkpoints,
        "wall_clock_s": time.perf_counter() - t0,
        "test_truth_reads": _test_truth_reads(datasets) - reads_before,
    }
    write_json_atomic(os.path.join(trial_dir, "record.json"), record)
    return record


def _print_progress(record: dict, done: int, total: int) -> None:
    mse = record["mean_val_mse"]
    print(
        f"sweep: trial {record['trial']} {record['status']}, mean val mse "
        f"{'-' if mse is None else f'{mse:.6g}'}, {record['wall_clock_s']:.2f} s "
        f"({done} of {total} done)",
        file=sys.stderr, flush=True,
    )


# set in each pool worker by _init_worker: _run_trial's arguments after the
# trial index
_worker_trials: tuple = ()


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _init_worker(trials: tuple) -> None:
    """Pool initializer: keep the sweep's trials. The pool forks, so
    `trials` (configs and datasets) arrives as the parent's memory, neither
    pickled nor read back from disk."""
    global _worker_trials
    _worker_trials = trials


def _worker_trial(i: int) -> dict:
    return _run_trial(i, *_worker_trials)


def _finished_trials(trials: tuple, n: int, workers: int):
    """Yield the records of trials 0..n-1 as they finish, run in this
    process or in `workers` forked workers. A caller that stops early (an
    error, or an interrupt) closes the generator, which cancels the trials
    no worker has taken yet."""
    if workers == 1:
        for i in range(n):
            yield _run_trial(i, *trials)
        return
    # imported here, so a fit or a serial sweep loads no process pool
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker, initargs=(trials,),
    ) as pool:
        try:
            for future in as_completed([pool.submit(_worker_trial, i) for i in range(n)]):
                yield future.result()
        finally:
            pool.shutdown(cancel_futures=True)


def run_sweep(spec: SweepSpec, out_dir, threads: int = 1, force: bool = False) -> dict:
    """Grid search ranked by validation MSE; test truth is read only for the
    winner, after selection. Returns the summary document (also written to
    out_dir/summary.json). Every trial's config is resolved before out_dir
    is touched, so an invalid grid point writes nothing. A non-empty out_dir
    is refused unless force is set; a forced sweep first removes the
    datasets, trials, summary and winner record of the sweep before it.

    With threads > 1, trials run in min(threads, trials) forked worker
    processes, so a one-trial sweep runs serially. The workers train on the
    parent's in-memory datasets at a BLAS thread count of at most
    max(1, ncpu // workers); the calling process runs at that count
    while the workers live and gets its own count back when they have shut
    down. One line per finished trial goes to stderr."""
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    t0 = time.perf_counter()
    points = expand_grid(spec.grid)
    if spec.max_trials is not None and spec.max_trials < len(points):
        points = random.Random(spec.seed).sample(points, spec.max_trials)
    cfgs = [apply_overrides(spec.base, overrides) for overrides in points]
    # the pool forks all its workers at once, so no more than there are trials
    workers = min(threads, len(points))
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigError("threads > 1 needs the fork start method, which this platform lacks")

    check_out_dir(out_dir, force)
    for name in ("datasets", "trials", "summary.json", "winner_record.json"):
        path = os.path.join(out_dir, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.lexists(path):
            os.remove(path)
    os.makedirs(out_dir, exist_ok=True)

    # one dataset per repeat, shared by every trial
    datasets: list[Dataset] = []
    for r in range(spec.base.repeats):
        ds = simulate_dataset(_repeat_sim(spec.base, r))
        save_dataset(ds, os.path.join(out_dir, "datasets", f"rep{r}"))
        datasets.append(ds)

    # test truth read so far; each trial record adds the reads it made
    audit_reads = _test_truth_reads(datasets)
    trials = (cfgs, points, datasets, os.path.join(out_dir, "trials"))
    records: list[dict] = []
    # capped before the fork: a worker forked at a higher count starts an
    # OpenBLAS helper thread on its first BLAS call, which stays and spins
    cap = contextlib.nullcontext()
    if workers > 1:
        cap = blas.threads_capped(max(1, usable_cpus() // workers))
    finished = _finished_trials(trials, len(points), workers)
    # closing the generator shuts the pool down before the count is restored
    with cap as blas_threads, contextlib.closing(finished):
        for record in finished:
            records.append(record)
            _print_progress(record, len(records), len(points))
    records.sort(key=lambda rec: rec["trial"])

    ok = [r for r in records if r["status"] == "ok"]
    if not ok:
        raise DataError("every sweep trial diverged; nothing to select")
    winner = min(ok, key=lambda r: (r["mean_val_mse"], r["trial"]))

    # selection is now frozen; count how often test truth was read so far
    audit_reads += sum(rec["test_truth_reads"] for rec in records)

    winner_cfg = cfgs[winner["trial"]]
    reports = []
    for r, ds in enumerate(datasets):
        trained = load_checkpoint(winner["checkpoints"][r])
        report = evaluate_model(
            trained.model, ds, split="test", zero_shot_z=winner_cfg.zero_shot
        )
        reports.append(report)
    winner_record = make_record(winner_cfg, reports, winner["checkpoints"])
    write_json_atomic(os.path.join(out_dir, "winner_record.json"), winner_record.to_dict())

    summary = {
        "schema_version": "1",
        "n_trials": len(records),
        "trials": [
            {k: rec[k] for k in ("trial", "overrides", "status", "mean_val_mse")}
            for rec in records
        ],
        "winner": {
            "trial": winner["trial"],
            "overrides": winner["overrides"],
            "mean_val_mse": winner["mean_val_mse"],
            "test_sqrt_pehe": winner_record.aggregate["sqrt_pehe"],
            # per repeat; null when the sweep is not zero-shot
            "head_z_trained": [r.head_z_trained for r in reports],
        },
        "test_truth_reads_before_selection": audit_reads,
        # the count read back after the cap, which every worker inherited;
        # null for a serial sweep or without OpenBLAS
        "blas_threads_per_worker": blas_threads,
        "wall_clock_s": time.perf_counter() - t0,
    }
    write_json_atomic(os.path.join(out_dir, "summary.json"), summary)
    return summary


# ---------------------------------------------------------------------------
# report rendering


def render_eval_report(report: EvalReport) -> str:
    lines = [
        f"split: {report.split}   n={report.n_eval}   k={report.k}",
        f"sqrt_pehe:    {report.sqrt_pehe:.6g}",
        f"epsilon_pehe: {report.epsilon_pehe:.6g}",
    ]
    for (a, b), v in sorted(report.per_pair.items()):
        lines.append(f"  pair ({a},{b}): {v:.6g}")
    z = report.zero_shot_z
    if z is not None:
        lines.append(
            f"zero-shot z={z}: sqrt_pehe_zs={report.sqrt_pehe_zs:.6g} "
            f"(epsilon_zs={report.epsilon_zs:.6g})"
        )
        if not report.head_z_trained:
            lines.append(f"  head {z} received no training updates")
    if report.untrained_heads:
        lines.append(f"heads never updated in training: {report.untrained_heads}")
    return "\n".join(lines)


def _report_rows(records: list[RunRecord]) -> list[RunRecord]:
    """One record per label that holds the seeds of all its records,
    ascending by mean sqrt_pehe; each row's figures are its aggregate."""
    ks = {report.k for rec in records for report in rec.per_seed}
    if len(ks) > 1:
        raise DataError(
            f"records disagree on the number of treatments k={sorted(ks)}; "
            "refusing to aggregate"
        )
    grouped: dict[str, list[EvalReport]] = {}
    for rec in records:
        grouped.setdefault(rec.label, []).extend(rec.per_seed)
    # a label's records may hold different configs, so the row holds none
    rows = [RunRecord(label, {}, reports) for label, reports in grouped.items()]
    rows.sort(key=lambda row: (row.aggregate["sqrt_pehe"]["mean"], row.label))
    return rows


def render_report_table(records: list[RunRecord]) -> str:
    """One row per label: mean +/- population std of test sqrt_pehe, and of
    sqrt_pehe_zs when every seed of the label is zero-shot."""
    rows = _report_rows(records)
    width = max(len("method"), max((len(row.label) for row in rows), default=0))
    lines = [f"{'method':<{width}}  sqrt_pehe (mean +/- std over n)"]
    for row in rows:
        agg = row.aggregate
        pehe, zs = agg["sqrt_pehe"], agg.get("sqrt_pehe_zs")
        line = f"{row.label:<{width}}  {pehe['mean']:.2f} +/- {pehe['std']:.2f} (n={pehe['n']})"
        if zs:
            line += f"   zero-shot {zs['mean']:.2f} +/- {zs['std']:.2f}"
        if agg.get("zs_head_untrained_n"):
            line += f"   [head z untrained in {agg['zs_head_untrained_n']} of {zs['n']} seeds]"
        lines.append(line)
    return "\n".join(lines)


def report_table_csv(records: list[RunRecord]) -> str:
    """The report table as CSV; a label holding a comma or a quote is quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "label", "n", "sqrt_pehe_mean", "sqrt_pehe_std", "sqrt_pehe_zs_mean",
        "sqrt_pehe_zs_std", "zs_head_untrained_n",
    ])
    for row in _report_rows(records):
        agg = row.aggregate
        pehe, zs = agg["sqrt_pehe"], agg.get("sqrt_pehe_zs")
        zs_cols = [zs["mean"], zs["std"], agg["zs_head_untrained_n"]] if zs else ["", "", ""]
        writer.writerow([row.label, pehe["n"], pehe["mean"], pehe["std"], *zs_cols])
    return buf.getvalue()

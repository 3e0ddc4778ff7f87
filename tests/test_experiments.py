import concurrent.futures
import dataclasses
import json
import math
import multiprocessing
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from ite_bench import blas, experiments, model, simulate
from ite_bench.errors import ConfigError, DataError, NumericError
from ite_bench.metrics import EvalReport
from ite_bench.model import ModelShape, TrainConfig
from ite_bench.experiments import (
    ExperimentConfig,
    RunRecord,
    SweepSpec,
    apply_overrides,
    expand_grid,
    render_report_table,
    report_table_csv,
    run_experiment,
    run_sweep,
    write_json_atomic,
)
from ite_bench.simulate import SimConfig


def tiny_experiment(**kw):
    base = dict(
        sim=SimConfig(n=80, d=4, k=2, seed=3),
        model=ModelShape(
            cov_layers=1, cov_width=4, cov_out=3,
            treat_layers=1, treat_width=4, treat_out=2,
            head_layers=1, head_width=4,
            activation="elu", dropout_rate=0.0,
        ),
        train=TrainConfig(
            alpha=1.0, beta=0.5, batch_size=32, epochs_max=2, patience=5,
            base_lr=0.05, seed=0,
        ),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def synthetic_report(eps, k=2, z=None, untrained=()):
    pairs = [(a, b) for a in range(k) for b in range(a)]
    report = EvalReport(
        split="test", n_eval=10, per_pair={p: eps for p in pairs},
        untrained_heads=list(untrained), zero_shot_z=z,
    )
    return report


# --- config plumbing ---


def test_experiment_config_round_trip():
    cfg = tiny_experiment(variant="tarnet", repeats=2, zero_shot=1, label="base")
    doc = json.loads(json.dumps(cfg.to_dict()))
    back = ExperimentConfig.from_dict(doc)
    assert back.to_dict() == cfg.to_dict()
    assert back.effective_label() == "base"
    assert tiny_experiment().effective_label() == "joint"
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"sim": {}, "typo": 1})
    with pytest.raises(ConfigError):
        tiny_experiment(zero_shot=5)
    with pytest.raises(ConfigError, match="repeats"):
        tiny_experiment(repeats=0)


def test_experiment_config_refuses_a_bool_zero_shot():
    # False once compared equal to 0: the experiment held treatment 0 out
    # and reported zero_shot_z 0
    for flag in (False, True):
        with pytest.raises(ConfigError, match=r"zero_shot must be int \| None, got"):
            tiny_experiment(zero_shot=flag)
    assert tiny_experiment(zero_shot=0).zero_shot == 0


# one of each config class, every field off its default where it can be
CONFIGS = {
    "SimConfig": SimConfig(n=40, d=3, k=2, kappa=(2.0, 8.0), embedding_file="x.csv", seed=9),
    "ModelShape": ModelShape(cov_layers=3, activation="tanh", dropout_rate=0.0),
    "TrainConfig": TrainConfig(alpha=0.5, beta=0.25, bandwidth=2.0),
    "ExperimentConfig": tiny_experiment(variant="tarnet", repeats=2, zero_shot=1, label="base"),
    "SweepSpec": SweepSpec(
        tiny_experiment(), {"train.base_lr": [0.1, 0.2], "variant": ["joint"]},
        max_trials=1, seed=4,
    ),
}


@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS)
def test_config_json_round_trip(cfg):
    doc = json.loads(json.dumps(cfg.to_dict()))
    # to_dict is the JSON document itself: a tuple field is already a list
    assert doc == cfg.to_dict()
    assert type(cfg).from_dict(doc) == cfg


def test_config_sections_are_named_after_their_fields():
    assert CONFIGS["SimConfig"].to_dict()["kappa"] == [2.0, 8.0]
    doc = CONFIGS["SweepSpec"].to_dict()
    assert set(doc) == {"base", "grid", "max_trials", "seed"}
    assert set(doc["base"]) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert doc["base"]["model"] == CONFIGS["SweepSpec"].base.model.to_dict()


def test_expand_grid_orders_by_sorted_keys():
    points = expand_grid({"b": [1, 2], "a": ["x"]})
    assert points == [{"a": "x", "b": 1}, {"a": "x", "b": 2}]


def test_apply_overrides():
    base = tiny_experiment()
    out = apply_overrides(
        base, {"model.cov_width": 16, "train.alpha": 0.5, "variant": "tarnet"}
    )
    assert out.model.cov_width == 16
    assert out.train.alpha == 0.5
    assert out.variant == "tarnet"
    assert base.model.cov_width == 4  # base untouched
    # the CLI's simulate flags set sim fields; a sweep grid refuses them
    # (test_sweep_spec_validation)
    assert apply_overrides(base, {"sim.n": 100}).sim.n == 100
    # the rebuilt config checks every field, and the error names the key
    for key, value in (
        ("train.momentum", 0.9), ("model.init", "glorot"), ("sim.n", 1.5),
        ("train.base_lr", -1.0), ("variant", "x"), ("colour", "red"), ("nets.x", 1),
        ("sim", {}), ("model", {}), ("train", {}),
    ):
        with pytest.raises(ConfigError, match=key):
            apply_overrides(base, {key: value})
    # a dotted key under a field that holds a value, not a section
    for key in ("variant.x", "repeats.x", "label.y"):
        with pytest.raises(ConfigError, match=re.escape(key)):
            apply_overrides(base, {key: 1})


def test_sweep_spec_validation(tmp_path):
    base = tiny_experiment()
    SweepSpec(base, {"train.base_lr": [0.1]})
    with pytest.raises(ConfigError, match="threads"):
        run_sweep(SweepSpec(base, {"train.base_lr": [0.1]}), tmp_path / "out", threads=0)
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError):
        SweepSpec(base, {})
    for key in ("sim.n", "train", "model"):
        with pytest.raises(ConfigError, match=key):
            SweepSpec(base, {key: [{}]})
    with pytest.raises(ConfigError):
        SweepSpec(base, {"train.base_lr": []})
    with pytest.raises(ConfigError):
        SweepSpec(base, {"train.base_lr": [0.1]}, max_trials=0)
    with pytest.raises(ConfigError):
        SweepSpec.from_dict({"grid": {"train.alpha": [1.0]}})


# --- records ---


def test_run_record_aggregates_mean_and_population_std():
    cfg = tiny_experiment(repeats=2)
    record = RunRecord("joint", cfg.to_dict(), [synthetic_report(1.0), synthetic_report(9.0)])
    agg = record.aggregate["sqrt_pehe"]
    assert agg == {"mean": 2.0, "std": 1.0, "n": 2}
    assert "sqrt_pehe_zs" not in record.aggregate
    assert (record.label, record.config) == ("joint", cfg.to_dict())


def test_run_record_includes_zero_shot_when_present_everywhere():
    doc = tiny_experiment(zero_shot=1).to_dict()
    record = RunRecord("joint", doc, [synthetic_report(4.0, z=1)])
    assert record.aggregate["sqrt_pehe_zs"] == {"mean": 2.0, "std": 0.0, "n": 1}
    assert record.aggregate["zs_head_untrained_n"] == 0
    held_out = RunRecord("joint", doc, [synthetic_report(4.0, z=1, untrained=[1])] * 2)
    assert held_out.aggregate["zs_head_untrained_n"] == 2
    # one seed without a zero-shot score drops the zero-shot aggregate
    mixed = RunRecord("joint", doc, [synthetic_report(4.0, z=1), synthetic_report(4.0)])
    assert set(mixed.aggregate) == {"sqrt_pehe"}


def test_run_record_round_trip_and_validation():
    record = RunRecord(
        "joint", tiny_experiment().to_dict(), [synthetic_report(1.0), synthetic_report(9.0)]
    )
    doc = json.loads(json.dumps(record.to_dict()))
    back = RunRecord.from_dict(doc)
    assert back.aggregate == record.aggregate
    assert len(back.per_seed) == 2
    # a stored aggregate could disagree with per_seed, so none is read
    with pytest.raises(DataError, match="fields"):
        RunRecord.from_dict({**doc, "aggregate": record.aggregate})
    with pytest.raises(DataError, match="re-run"):
        RunRecord.from_dict({**doc, "schema_version": "1"})
    with pytest.raises(DataError, match="no per-seed reports"):
        RunRecord.from_dict({**doc, "per_seed": []})
    # the config is an experiment config document; {} leaves every field at its default
    with pytest.raises(DataError, match="run record config: config: unknown fields"):
        RunRecord.from_dict({**doc, "config": {"anything": [1, 2]}})
    with pytest.raises(DataError, match="run record config: config.sim: n must be"):
        RunRecord.from_dict({**doc, "config": {"sim": {"n": 1}}})
    assert RunRecord.from_dict({**doc, "config": {}}).config == {}


def test_write_json_atomic_leaves_no_temp_file(tmp_path):
    path = tmp_path / "doc.json"
    write_json_atomic(path, {"a": 1})
    assert json.loads(path.read_text()) == {"a": 1}
    assert os.listdir(tmp_path) == ["doc.json"]


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def test_write_json_atomic_writes_non_finite_floats_as_null(tmp_path):
    finite = {"b": [0.1, 1e-300, -2.5, 3], "a": {"x": (1.0, 2.0), "y": None}}
    path = tmp_path / "finite.json"
    write_json_atomic(path, finite)
    assert path.read_text() == json.dumps(finite, indent=2, sort_keys=True)
    non_finite = {"v": [math.inf, -math.inf, math.nan, 1.5], "w": np.float64(math.inf)}
    write_json_atomic(path, non_finite)
    assert strict_json(path.read_text()) == {"v": [None, None, None, 1.5], "w": None}


# --- experiments ---


def test_run_experiment_repeats_and_artifacts(tmp_path):
    cfg = tiny_experiment(repeats=2)
    record = run_experiment(cfg, out_dir=tmp_path / "runs")
    assert len(record.per_seed) == 2
    assert all(r.split == "test" for r in record.per_seed)
    assert record.label == "joint"
    assert len(record.artifacts) == 2
    assert all(os.path.exists(p) for p in record.artifacts)


def test_identical_experiments_into_one_directory_write_identical_records(tmp_path):
    cfg = tiny_experiment(repeats=2)
    for name in ("a.json", "b.json"):
        record = run_experiment(cfg, out_dir=tmp_path / "runs")
        write_json_atomic(tmp_path / name, record.to_dict())
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_run_experiment_zero_shot_reports():
    cfg = tiny_experiment(repeats=1, zero_shot=0, train=TrainConfig(
        alpha=1.0, beta=0.5, batch_size=32, epochs_max=1, base_lr=0.05
    ))
    record = run_experiment(cfg)
    assert record.per_seed[0].zero_shot_z == 0
    assert "sqrt_pehe_zs" in record.aggregate


# --- sweeps ---


def sweep_spec(**kw):
    base = tiny_experiment(repeats=2, train=TrainConfig(
        alpha=1.0, beta=0.5, batch_size=32, epochs_max=1, base_lr=0.05
    ))
    return SweepSpec(base, {"train.base_lr": [0.05, 0.2]}, **kw)


def test_run_sweep_selects_on_validation_only(tmp_path):
    out = tmp_path / "sweep"
    summary = run_sweep(sweep_spec(), out, threads=1)
    assert summary["n_trials"] == 2
    assert summary["test_truth_reads_before_selection"] == 0
    mses = {t["trial"]: t["mean_val_mse"] for t in summary["trials"]}
    assert summary["winner"]["trial"] == min(mses, key=lambda t: (mses[t], t))
    winner_doc = json.loads((out / "winner_record.json").read_text())
    winner = RunRecord.from_dict(winner_doc)
    assert len(winner.per_seed) == 2
    for i in range(2):
        trial_dir = out / "trials" / f"trial_{i:04d}"
        record = json.loads((trial_dir / "record.json").read_text())
        assert record["status"] == "ok"
        assert len(record["checkpoints"]) == 2
        assert record["test_truth_reads"] == 0
        assert set(record) == {
            "trial", "overrides", "status", "message", "val_mse", "mean_val_mse",
            "checkpoints", "wall_clock_s", "test_truth_reads",
        }
    assert (out / "datasets" / "rep0" / "manifest.json").exists()
    assert json.loads((out / "summary.json").read_text())["winner"] == summary["winner"]
    assert summary["winner"]["head_z_trained"] == [None, None]
    # a serial sweep runs in the calling process and caps nothing
    assert summary["blas_threads_per_worker"] is None


def test_zero_shot_sweep_summary_lists_head_z_trained_per_repeat(tmp_path):
    spec = sweep_spec()
    spec = SweepSpec(replace(spec.base, zero_shot=0), spec.grid)
    summary = run_sweep(spec, tmp_path / "sweep", threads=1)
    # the held-out head never sees a sample, in either repeat
    assert summary["winner"]["head_z_trained"] == [False, False]
    on_disk = json.loads((tmp_path / "sweep" / "summary.json").read_text())
    assert on_disk["winner"]["head_z_trained"] == [False, False]


def test_written_record_and_reports_hold_exactly_the_schema_2_keys(tmp_path):
    spec = sweep_spec()
    spec = SweepSpec(replace(spec.base, zero_shot=0), spec.grid)
    run_sweep(spec, tmp_path / "sweep", threads=1)
    record = json.loads((tmp_path / "sweep" / "winner_record.json").read_text())
    assert record["schema_version"] == "2"
    # the aggregate follows from per_seed, so the record stores none
    assert set(record) == {"kind", "schema_version", "label", "config", "per_seed", "artifacts"}
    for report in record["per_seed"]:
        assert report["schema_version"] == "2"
        # every PEHE figure and k follow from per_pair and zero_shot_z
        assert set(report) == {
            "kind", "schema_version", "split", "n_eval", "per_pair", "untrained_heads",
            "zero_shot_z",
        }
        assert report["zero_shot_z"] == 0


def test_sweep_artifacts_are_strict_json_with_a_diverged_trial(tmp_path):
    # at base_lr 1.6 this fit's validation MSE overflows, a divergence; every
    # ok trial has selected an epoch, so its val_mse is finite
    spec = SweepSpec(
        ExperimentConfig(
            sim=SimConfig(n=300, d=6, k=3, seed=2),
            model=ModelShape(
                cov_width=8, cov_out=4, treat_width=4, treat_out=3, head_width=4,
                dropout_rate=0.0,
            ),
            train=TrainConfig(epochs_max=1, batch_size=64, weight_decay=0.0),
            repeats=2,
        ),
        {"train.base_lr": [0.05, 1.6]},
    )
    out = tmp_path / "sweep"
    summary = run_sweep(spec, out, threads=1)
    assert summary["winner"]["trial"] == 0
    ok = strict_json((out / "trials" / "trial_0000" / "record.json").read_text())
    assert ok["status"] == "ok"
    assert len(ok["val_mse"]) == 2 and all(math.isfinite(v) for v in ok["val_mse"])
    diverged = strict_json((out / "trials" / "trial_0001" / "record.json").read_text())
    assert diverged["status"] == "diverged"
    assert "non-finite validation MSE" in diverged["message"]
    assert (diverged["val_mse"], diverged["mean_val_mse"]) == ([], None)
    on_disk = strict_json((out / "summary.json").read_text())
    assert [t["mean_val_mse"] is None for t in on_disk["trials"]] == [False, True]


@pytest.mark.parametrize("threads", [1, 2])
def test_a_trial_whose_mean_validation_mse_overflows_is_diverged(tmp_path, monkeypatch, threads):
    fit = experiments._fit_repeat

    def overflowing(lrs):
        # each repeat's MSE finite, their sum not, at the base_lr in lrs
        def fit_repeat(cfg, ds, r):
            trained = fit(cfg, ds, r)
            return replace(trained, best_val_mse=1.7e308) if cfg.train.base_lr in lrs else trained
        return fit_repeat

    monkeypatch.setattr(experiments, "_fit_repeat", overflowing({0.05}))
    out = tmp_path / "sweep"
    summary = run_sweep(sweep_spec(), out, threads=threads)
    # the overflowing trial 0 neither wins by its index nor has a mean
    assert [t["status"] for t in summary["trials"]] == ["diverged", "ok"]
    assert summary["winner"]["trial"] == 1
    assert math.isfinite(summary["winner"]["mean_val_mse"])
    record = strict_json((out / "trials" / "trial_0000" / "record.json").read_text())
    assert record["message"] == (
        "mean validation MSE over the repeats overflows: [1.7e+308, 1.7e+308]"
    )
    assert (record["val_mse"], record["mean_val_mse"]) == ([1.7e308, 1.7e308], None)
    monkeypatch.setattr(experiments, "_fit_repeat", overflowing({0.05, 0.2}))
    with pytest.raises(NumericError, match="every sweep trial diverged"):
        run_sweep(sweep_spec(), tmp_path / "all", threads=threads)


def test_a_failed_sweep_cancels_the_trials_no_worker_has_taken(tmp_path, monkeypatch):
    def fail(record, done, total):
        raise RuntimeError("progress failed")

    monkeypatch.setattr(experiments, "_print_progress", fail)
    # trials long enough that no other finishes while the first one's error
    # unwinds
    base = tiny_experiment(repeats=2, train=TrainConfig(
        batch_size=32, epochs_max=20, patience=20, base_lr=0.05
    ))
    spec = SweepSpec(base, {"train.base_lr": [0.01, 0.02, 0.03, 0.04],
                            "variant": ["joint", "tarnet"]})
    out = tmp_path / "sweep"
    with pytest.raises(RuntimeError, match="progress failed"):
        run_sweep(spec, out, threads=2)
    # the pool queues max_workers + 1 trials ahead of its workers, which
    # finish them; the others are cancelled
    written = list((out / "trials").glob("trial_*/record.json"))
    assert 1 <= len(written) < 8


def test_run_sweep_parallel_matches_serial(tmp_path):
    serial = run_sweep(sweep_spec(), tmp_path / "serial", threads=1)
    parallel = run_sweep(sweep_spec(), tmp_path / "parallel", threads=2)
    assert serial["winner"]["overrides"] == parallel["winner"]["overrides"]
    assert [t["mean_val_mse"] for t in serial["trials"]] == [
        t["mean_val_mse"] for t in parallel["trials"]
    ]
    assert (
        serial["winner"]["test_sqrt_pehe"]["mean"]
        == parallel["winner"]["test_sqrt_pehe"]["mean"]
    )


def _numpy_blas_is_openblas() -> bool:
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 can only print its config
        return True
    return "openblas" in str(name).lower()


requires_openblas = pytest.mark.skipif(
    not _numpy_blas_is_openblas(), reason="numpy is built against a BLAS other than OpenBLAS"
)


def _cpu_count() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _trial_records(out, n):
    return [
        json.loads((out / "trials" / f"trial_{i:04d}" / "record.json").read_text())
        for i in range(n)
    ]


requires_task_dir = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task to count OS threads"
)


def _watch_progress(monkeypatch, get) -> list[tuple[int, dict]]:
    """(the parent's BLAS thread count, the record) at each finished trial."""
    seen = []
    print_progress = experiments._print_progress

    def watched(record, done, total):
        seen.append((get(), record))
        print_progress(record, done, total)

    monkeypatch.setattr(experiments, "_print_progress", watched)
    return seen


@requires_openblas
def test_parallel_sweep_caps_blas_threads_from_fork_to_shutdown(tmp_path, monkeypatch):
    get, set_ = blas.openblas_controls()
    before = get()
    cap = max(1, _cpu_count() // 2)
    seen = _watch_progress(monkeypatch, get)
    out = tmp_path / "sweep"
    try:
        # one thread above the cap, so that both the cap and the restore show
        set_(cap + 1)
        summary = run_sweep(sweep_spec(), out, threads=2)
        assert get() == cap + 1
    finally:
        set_(before)
    assert [parent for parent, _ in seen] == [cap, cap]
    assert summary["blas_threads_per_worker"] == cap
    assert json.loads((out / "summary.json").read_text())["blas_threads_per_worker"] == cap


@requires_openblas
@requires_task_dir
def test_sweep_workers_start_without_a_blas_helper_thread(tmp_path, monkeypatch):
    # 2 CPUs for 2 workers: a cap of 1 on any runner
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    get, set_ = blas.openblas_controls()
    before = get()
    seen = _watch_progress(monkeypatch, get)
    run_trial = experiments._run_trial

    def counted(*args):
        record = run_trial(*args)
        # after the trial's BLAS calls, which start any helper thread
        return {
            **record, "pid": os.getpid(), "os_threads": len(os.listdir("/proc/self/task")),
            "worker_blas_threads": get(),
        }

    # installed before the pool forks, so the workers run it
    monkeypatch.setattr(experiments, "_run_trial", counted)
    try:
        set_(2)
        if get() != 2:
            pytest.skip("this OpenBLAS cannot run 2 threads")
        run_sweep(sweep_spec(), tmp_path / "sweep", threads=2)
        after = get()
    finally:
        set_(before)
    assert all(rec["pid"] != os.getpid() for _, rec in seen)
    assert [rec["os_threads"] for _, rec in seen] == [1, 1]
    assert [rec["worker_blas_threads"] for _, rec in seen] == [1, 1]
    assert [parent for parent, _ in seen] == [1, 1]
    assert after == 2


@requires_openblas
def test_blas_threads_capped_restores_the_count_on_every_exit(tmp_path, monkeypatch):
    get, set_ = blas.openblas_controls()
    before = get()

    def suspended():
        with blas.threads_capped(1) as got:
            yield got

    def fail(record, done, total):
        raise RuntimeError("progress failed")

    try:
        set_(2)
        with blas.threads_capped(1) as got:
            assert got == get() == 1
        assert get() == 2
        with pytest.raises(RuntimeError, match="inside"):
            with blas.threads_capped(1):
                raise RuntimeError("inside")
        assert get() == 2
        gen = suspended()
        assert next(gen) == get() == 1
        gen.close()
        assert get() == 2
        # a sweep whose caller fails while the pool runs closes the generator
        monkeypatch.setattr(experiments, "_print_progress", fail)
        with pytest.raises(RuntimeError, match="progress failed"):
            run_sweep(sweep_spec(), tmp_path / "sweep", threads=2)
        assert get() == 2
    finally:
        set_(before)


@requires_openblas
def test_blas_cap_never_raises_a_lower_count(tmp_path, monkeypatch):
    get, set_ = blas.openblas_controls()
    parent = get()
    try:
        set_(1)
        with blas.threads_capped(4) as got:
            assert got == 1
        # workers inherit the lowered count; with 8 CPUs their cap would be 4
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(8)), raising=False
        )
        summary = run_sweep(sweep_spec(), tmp_path / "sweep", threads=2)
        assert summary["blas_threads_per_worker"] == 1
        assert get() == 1
    finally:
        set_(parent)
    assert get() == parent


# hidden width 400: OpenBLAS takes a different GEMM path at 1 and at 2
# threads for an inner dimension this large (up to 6e-14 apart on Haswell),
# while the narrow shapes elsewhere in tier-1 agree bit for bit
WIDE_SHAPE = ModelShape(
    cov_layers=3, cov_width=400, cov_out=16, head_layers=2, head_width=32,
    activation="elu", dropout_rate=0.1,
)


def _wide_fit(ds):
    cfg = TrainConfig(batch_size=300, epochs_max=3, patience=3, seed=5)
    trained = model.train(ds, WIDE_SHAPE, cfg, "tarnet")
    return trained.model.theta, trained.history.val_mse, blas.openblas_controls()[0]()


@requires_openblas
@pytest.mark.skipif(experiments.usable_cpus() < 2, reason="needs 2 usable CPUs for 2 BLAS threads")
def test_fit_agrees_up_to_roundoff_across_blas_thread_counts():
    ds = simulate.simulate_dataset(SimConfig(n=1000, d=8, k=2, seed=2))
    get, set_ = blas.openblas_controls()
    before = get()
    try:
        set_(2)
        # a child forked under the cap, as a sweep worker is, then the parent
        # at 2 threads
        with blas.threads_capped(1), ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            theta_1, val_1, threads_1 = pool.submit(_wide_fit, ds).result()
        theta_2, val_2, threads_2 = _wide_fit(ds)
    finally:
        set_(before)
    assert (threads_1, threads_2) == (1, 2)
    np.testing.assert_allclose(theta_1, theta_2, rtol=0, atol=1e-12)
    np.testing.assert_allclose(val_1, val_2, rtol=1e-12, atol=0)


def test_openblas_controls_is_none_without_the_process_maps(monkeypatch):
    def refuse(path, *args, **kwargs):
        raise OSError(f"cannot read {path}")

    # a module-level open in blas shadows the builtin
    monkeypatch.setattr(blas, "open", refuse, raising=False)
    assert blas.openblas_controls() is None


def _cannot_open(path, mode=0):
    raise OSError(f"cannot open {path}")


@requires_openblas
@pytest.mark.parametrize(
    "cdll", [_cannot_open, lambda path, mode=0: object()], ids=["no-open", "no-symbols"]
)
def test_openblas_controls_is_none_when_no_mapped_openblas_serves(monkeypatch, cdll):
    opened = []

    def spy(path, mode=0):
        opened.append(path)
        return cdll(path, mode)

    # every mapped OpenBLAS fails to open, or opens without the thread symbols
    monkeypatch.setattr(blas.ctypes, "CDLL", spy)
    assert blas.openblas_controls() is None
    assert opened


@pytest.mark.parametrize("count, usable", [(3, 3), (None, 1)])
def test_usable_cpus_without_an_affinity_mask_is_the_machines_count(monkeypatch, count, usable):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert experiments.usable_cpus() == usable


def test_sweep_without_openblas_runs_uncapped(tmp_path, monkeypatch):
    monkeypatch.setattr(blas, "openblas_controls", lambda: None)
    with blas.threads_capped(1) as got:
        assert got is None
    out = tmp_path / "sweep"
    summary = run_sweep(sweep_spec(), out, threads=2)
    assert [t["status"] for t in summary["trials"]] == ["ok", "ok"]
    assert summary["blas_threads_per_worker"] is None
    assert strict_json((out / "summary.json").read_text())["blas_threads_per_worker"] is None


@pytest.mark.parametrize("zero_shot", [None, 0])
@pytest.mark.parametrize("threads", [1, 2])
def test_truth_read_audit_counts_reads_in_every_fit(tmp_path, monkeypatch, threads, zero_shot):
    fit = experiments.train

    def peeking_train(ds, *args, **kwargs):
        ds.expected_outcomes("test")
        return fit(ds, *args, **kwargs)

    # forked workers inherit the patch
    monkeypatch.setattr(experiments, "train", peeking_train)
    spec = sweep_spec()
    spec = SweepSpec(replace(spec.base, zero_shot=zero_shot), spec.grid)
    out = tmp_path / "sweep"
    summary = run_sweep(spec, out, threads=threads)
    # one read per fit: 2 trials x 2 repeats
    assert [rec["test_truth_reads"] for rec in _trial_records(out, 2)] == [2, 2]
    assert summary["test_truth_reads_before_selection"] == 4


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_prints_one_progress_line_per_trial(tmp_path, capsys, threads):
    spec = sweep_spec()
    spec = SweepSpec(spec.base, {"train.base_lr": [0.05, 0.1, 0.2]})
    summary = run_sweep(spec, tmp_path / "sweep", threads=threads)
    pattern = r"sweep: trial (\d) ok, mean val mse (\S+), \d+\.\d\d s \((\d) of 3 done\)"
    lines = [re.fullmatch(pattern, line) for line in capsys.readouterr().err.splitlines()]
    assert all(lines) and len(lines) == 3
    assert [int(m[3]) for m in lines] == [1, 2, 3]
    # in the order trials finish; the summary stays in trial order
    assert sorted(int(m[1]) for m in lines) == [0, 1, 2]
    assert [t["trial"] for t in summary["trials"]] == [0, 1, 2]
    for m in lines:
        assert m[2] == f"{summary['trials'][int(m[1])]['mean_val_mse']:.6g}"


def test_reused_sweep_dir_is_refused_and_force_rewrites_datasets(tmp_path):
    spec = sweep_spec()
    out = tmp_path / "sweep"
    run_sweep(spec, out, threads=2)
    (out / "notes.txt").write_text("not the sweep's")
    # the same directory with a new simulation seed: trials must not train on
    # the datasets left there by the first sweep
    sim = replace(spec.base.sim, seed=spec.base.sim.seed + 7)
    reseeded = SweepSpec(replace(spec.base, sim=sim), spec.grid)
    with pytest.raises(DataError, match="not empty"):
        run_sweep(reseeded, out, threads=2)
    forced = run_sweep(reseeded, out, threads=2, force=True)
    fresh = run_sweep(reseeded, tmp_path / "fresh", threads=2)
    assert [t["mean_val_mse"] for t in forced["trials"]] == [
        t["mean_val_mse"] for t in fresh["trials"]
    ]
    assert forced["winner"]["test_sqrt_pehe"] == fresh["winner"]["test_sqrt_pehe"]
    manifest = json.loads((out / "datasets" / "rep0" / "manifest.json").read_text())
    assert manifest["config"]["seed"] == sim.seed
    # an invalid grid point is refused before anything is removed
    with pytest.raises(ConfigError):
        run_sweep(SweepSpec(spec.base, {"train.base_lr": [-1.0]}), out, force=True)
    assert (out / "trials" / "trial_0001" / "record.json").exists()
    # a forced sweep with fewer trials and repeats leaves nothing of the last
    # sweep behind, and no file that is not a sweep's
    smaller = SweepSpec(replace(reseeded.base, repeats=1), reseeded.grid, max_trials=1)
    summary = run_sweep(smaller, out, force=True)
    assert sorted(p.name for p in (out / "trials").iterdir()) == ["trial_0000"]
    assert sorted(p.name for p in (out / "datasets").iterdir()) == ["rep0"]
    assert json.loads((out / "summary.json").read_text()) == summary
    assert (out / "notes.txt").read_text() == "not the sweep's"


def test_parallel_sweep_trains_on_the_parent_datasets_without_reading_them(
    tmp_path, monkeypatch
):
    serial = run_sweep(sweep_spec(), tmp_path / "serial", threads=1)

    def refuse(path):
        raise AssertionError(f"a sweep read {path} back from disk")

    # forked workers inherit the patch
    monkeypatch.setattr(experiments, "load_dataset", refuse)
    monkeypatch.setattr(simulate, "load_dataset", refuse)
    parallel = run_sweep(sweep_spec(), tmp_path / "parallel", threads=2)
    noise = ("wall_clock_s", "blas_threads_per_worker")
    assert {k: v for k, v in parallel.items() if k not in noise} == {
        k: v for k, v in serial.items() if k not in noise
    }


def test_a_sweep_forks_no_more_workers_than_it_has_trials(tmp_path, monkeypatch):
    pools, caps = [], []
    capped = blas.threads_capped

    class SpyPool(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    def spy_cap(limit):
        caps.append(limit)
        return capped(limit)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    monkeypatch.setattr(blas, "threads_capped", spy_cap)
    monkeypatch.setattr(experiments, "usable_cpus", lambda: 6)
    # the pool starts every worker at the first submit: two trials, two
    # workers, each at 6 // 2 BLAS threads
    run_sweep(sweep_spec(), tmp_path / "two", threads=3)
    assert (pools, caps) == ([2], [3])
    # one trial runs serially
    one = run_sweep(sweep_spec(max_trials=1), tmp_path / "one", threads=3)
    assert (pools, caps) == ([2], [3])
    assert one["n_trials"] == 1 and one["blas_threads_per_worker"] is None


def test_parallel_sweep_without_fork_is_a_config_error(tmp_path, monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    with pytest.raises(ConfigError, match="fork"):
        run_sweep(sweep_spec(), tmp_path / "sweep", threads=2)
    assert not (tmp_path / "sweep").exists()


def test_max_trials_subsample_is_deterministic(tmp_path):
    base = tiny_experiment(repeats=1, train=TrainConfig(
        alpha=1.0, beta=0.5, batch_size=32, epochs_max=1, base_lr=0.05
    ))
    grid = {"train.base_lr": [0.01, 0.05, 0.2], "train.alpha": [0.5, 1.0]}
    spec_a = SweepSpec(base, grid, max_trials=2, seed=7)
    spec_b = SweepSpec(base, grid, max_trials=2, seed=7)
    a = run_sweep(spec_a, tmp_path / "a", threads=1)
    b = run_sweep(spec_b, tmp_path / "b", threads=1)
    assert a["n_trials"] == 2
    assert [t["overrides"] for t in a["trials"]] == [t["overrides"] for t in b["trials"]]


# --- tables ---


def make_labeled_record(label, roots, k=2):
    reports = [synthetic_report(r * r, k=k) for r in roots]
    return RunRecord(label=label, config={}, per_seed=reports)


def test_render_report_table_rows():
    table = render_report_table(
        [make_labeled_record("joint", [1.0, 3.0]), make_labeled_record("tarnet", [5.0])]
    )
    lines = table.splitlines()
    assert "sqrt_pehe" in lines[0]
    assert "joint" in lines[1] and "2.00 +/- 1.00 (n=2)" in lines[1]
    assert "tarnet" in lines[2] and "5.00 +/- 0.00 (n=1)" in lines[2]


def test_report_table_sorted_ascending_by_mean():
    table = render_report_table(
        [make_labeled_record("worse", [9.0]), make_labeled_record("better", [1.0])]
    )
    lines = table.splitlines()
    assert lines[1].startswith("better")
    assert lines[2].startswith("worse")


def test_report_table_rejects_mixed_treatment_counts():
    good = make_labeled_record("a", [1.0], k=2)
    reports = [synthetic_report(1.0, k=3)]
    other = RunRecord(label="b", config={}, per_seed=reports)
    with pytest.raises(DataError):
        render_report_table([good, other])


def test_report_table_csv_format():
    csv = report_table_csv([make_labeled_record("joint", [1.0, 3.0])])
    lines = csv.strip().splitlines()
    assert lines[0].startswith("label,n,sqrt_pehe_mean")
    assert lines[1].startswith("joint,2,2.0,1.0")


def zero_shot_record(label, trained_flags):
    reports = [
        synthetic_report(0.25, z=1, untrained=[] if flag else [1]) for flag in trained_flags
    ]
    return RunRecord(label=label, config={}, per_seed=reports)


def test_report_tables_mark_untrained_zero_shot_heads():
    records = [
        zero_shot_record("held-out", [False, True, False]),
        zero_shot_record("trained", [True, True]),
        make_labeled_record("plain", [2.0]),
    ]
    rows = {line.split()[0]: line for line in render_report_table(records).splitlines()}
    assert "zero-shot 0.50 +/- 0.00" in rows["held-out"]
    assert rows["held-out"].endswith("[head z untrained in 2 of 3 seeds]")
    assert "untrained" not in rows["trained"]
    assert "untrained" not in rows["plain"]

    lines = report_table_csv(records).strip().splitlines()
    assert lines[0] == (
        "label,n,sqrt_pehe_mean,sqrt_pehe_std,sqrt_pehe_zs_mean,sqrt_pehe_zs_std,"
        "zs_head_untrained_n"
    )
    by_label = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert by_label["held-out"][4:] == ["0.5", "0.0", "2"]
    assert by_label["trained"][4:] == ["0.5", "0.0", "0"]
    assert by_label["plain"][4:] == ["", "", ""]


def test_report_rows_are_the_aggregate_of_every_seed_of_their_label():
    # one label, two records: a zero-shot seed whose head z is untrained,
    # and a seed without a zero-shot score
    records = [
        RunRecord("mixed", {}, [synthetic_report(1.0, z=1, untrained=[1])]),
        RunRecord("mixed", {}, [synthetic_report(4.0)]),
    ]
    merged = RunRecord("mixed", {}, [r for rec in records for r in rec.per_seed])
    assert set(merged.aggregate) == {"sqrt_pehe"}
    assert render_report_table(records).splitlines()[1] == "mixed   1.50 +/- 0.50 (n=2)"
    assert report_table_csv(records).splitlines()[1] == "mixed,2,1.5,0.5,,,"

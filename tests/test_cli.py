import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import random
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ite_bench import cli, experiments
from ite_bench.cli import main
from ite_bench.errors import DataError
from ite_bench.experiments import ExperimentConfig, SweepSpec, _fit_repeat
from ite_bench.metrics import EvalReport, pehe
from ite_bench.model import (
    ModelShape,
    TrainConfig,
    TrainedModel,
    TrainHistory,
    load_checkpoint,
    save_checkpoint,
    train,
)
from ite_bench.simulate import SimConfig, load_dataset, save_dataset, simulate_dataset

from initial_model import initial_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def simulate_small(capsys, out_dir, seed=4):
    code, _, err = run(
        capsys, "simulate", "--out", str(out_dir),
        "--n", "80", "--d", "4", "--k", "3", "--seed", str(seed),
    )
    assert code == 0, err
    return out_dir


def dir_digest(path):
    parts = []
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            parts.append(name.encode() + hashlib.sha256(fh.read()).digest())
    return hashlib.sha256(b"".join(parts)).hexdigest()


# a small shape on simulate_small's data; with the zero_init fixture,
# initial_model builds the all-zero model of this shape
TINY_CONFIG = {
    "sim": {"n": 80, "d": 4, "k": 3, "seed": 4},
    "model": {
        "cov_layers": 1, "cov_width": 4, "cov_out": 3,
        "treat_layers": 1, "treat_width": 4, "treat_out": 2,
        "head_layers": 1, "head_width": 4,
        "dropout_rate": 0.0,
    },
    "train": {"epochs_max": 1, "batch_size": 32},
}


# --- simulate ---


def test_simulate_writes_dataset(tmp_path, capsys):
    out = simulate_small(capsys, tmp_path / "ds")
    for name in ("manifest.json", "covariates.npy", "y_sampled.npy", "t_obs.npy"):
        assert (out / name).exists()
    ds = load_dataset(out)
    assert (ds.n, ds.d, ds.k) == (80, 4, 3)


def test_simulate_is_deterministic_across_runs(tmp_path, capsys):
    a = simulate_small(capsys, tmp_path / "a", seed=9)
    b = simulate_small(capsys, tmp_path / "b", seed=9)
    assert dir_digest(a) == dir_digest(b)
    c = simulate_small(capsys, tmp_path / "c", seed=10)
    assert dir_digest(a) != dir_digest(c)


def test_simulate_force_semantics(tmp_path, capsys):
    out = simulate_small(capsys, tmp_path / "ds")
    code, _, err = run(capsys, "simulate", "--out", str(out), "--n", "80", "--d", "4", "--k", "3")
    assert code == 3
    assert "not empty" in err
    code, _, _ = run(
        capsys, "simulate", "--out", str(out),
        "--n", "80", "--d", "4", "--k", "3", "--force",
    )
    assert code == 0


def test_simulate_refuses_a_non_empty_out_before_simulating(tmp_path, capsys, monkeypatch):
    calls = []

    def spy(cfg):
        calls.append(cfg)
        return simulate_dataset(cfg)

    monkeypatch.setattr(cli, "simulate_dataset", spy)
    out = tmp_path / "ds"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    argv = ["simulate", "--out", str(out), "--n", "80", "--d", "4", "--k", "3"]
    code, _, err = run(capsys, *argv)
    assert (code, calls) == (3, [])
    assert f"output directory {out} is not empty" in err
    assert run(capsys, *argv, "--force")[0] == 0
    assert len(calls) == 1


@pytest.mark.parametrize("force", [(), ("--force",)], ids=["", "force"])
@pytest.mark.parametrize("command", ["simulate", "train", "sweep"])
def test_a_file_as_out_is_refused_before_any_simulation_or_fit(
    tmp_path, capsys, monkeypatch, command, force
):
    out = tmp_path / "afile"
    out.write_text("kept")
    argv = [command, "--out", str(out), *force]
    if command == "train":
        argv += ["--dataset", str(simulate_small(capsys, tmp_path / "ds")), "--epochs-max", "1"]
    if command == "sweep":
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(sweep_config_doc()))
        argv += ["--config", str(cfg), "--threads", "1"]

    def no_work(*_args, **_kwargs):
        raise AssertionError(f"{command} did work before it refused its --out")

    for module in (cli, experiments):
        monkeypatch.setattr(module, "simulate_dataset", no_work)
        monkeypatch.setattr(module, "_fit_repeat", no_work)
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert f"output path {out} exists and is not a directory" in err
    assert out.read_text() == "kept"


def test_simulate_rejects_bad_config(tmp_path, capsys):
    code, _, err = run(capsys, "simulate", "--out", str(tmp_path / "ds"), "--k", "1")
    assert code == 2
    assert "k must be >= 2" in err


def test_simulate_kappa_vector(tmp_path, capsys):
    code, _, _ = run(
        capsys, "simulate", "--out", str(tmp_path / "ds"),
        "--n", "60", "--d", "4", "--k", "3", "--kappa", "5,10,20",
    )
    assert code == 0
    manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    assert manifest["config"]["kappa"] == [5.0, 10.0, 20.0]
    code, _, _ = run(
        capsys, "simulate", "--out", str(tmp_path / "ds2"),
        "--n", "60", "--d", "4", "--k", "3", "--kappa", "5,10",
    )
    assert code == 2


def test_simulate_from_covariate_file(tmp_path, capsys):
    rows = np.random.default_rng(0).normal(size=(90, 4))
    emb = tmp_path / "emb.csv"
    np.savetxt(emb, rows, delimiter=",")
    out = tmp_path / "ds"
    code, _, _ = run(
        capsys, "simulate", "--out", str(out),
        "--n", "80", "--d", "4", "--k", "3", "--covariate-file", str(emb),
    )
    assert code == 0
    ds = load_dataset(out)
    np.testing.assert_allclose(
        ds.X[0], rows[0] / np.linalg.norm(rows[0]), atol=1e-12
    )


# --- train ---


def test_train_writes_checkpoint_and_history(tmp_path, capsys):
    ds = simulate_small(capsys, tmp_path / "ds")
    out = tmp_path / "run"
    code, stdout, err = run(
        capsys, "train", "--dataset", str(ds), "--out", str(out),
        "--epochs-max", "2", "--seed", "1",
    )
    assert code == 0, err
    assert "best epoch" in stdout
    ckpt = json.loads((out / "checkpoint.json").read_text())
    assert ckpt["variant"] == "joint"
    # the treatment network reads embeddings of the covariates' width
    assert ckpt["input_dim"] == 4
    assert load_checkpoint(out / "checkpoint.json").model.treat_net.layers[0][0].shape[-1] == 4
    doc = json.loads((out / "history.json").read_text())
    # the variant and best epoch are the checkpoint's, which sits next to it
    assert doc.keys() == {"schema_version", "history"}
    assert doc["schema_version"] == "2"
    hist = doc["history"]
    assert len(hist["loss"]) == 2
    trained = load_checkpoint(out / "checkpoint.json")
    assert trained.best_epoch == hist["val_mse"].index(min(hist["val_mse"]))
    assert trained.best_val_mse == min(hist["val_mse"])
    # loss decomposes into alpha * mse + beta * balance (defaults 1.0, 0.5)
    for loss, mse, bal in zip(hist["loss"], hist["mse"], hist["balance"]):
        assert loss == pytest.approx(1.0 * mse + 0.5 * bal, abs=1e-12)


def test_train_tarnet_has_no_treatment_network(tmp_path, capsys):
    ds = simulate_small(capsys, tmp_path / "ds")
    out = tmp_path / "run"
    code, _, _ = run(
        capsys, "train", "--dataset", str(ds), "--out", str(out),
        "--variant", "tarnet", "--epochs-max", "1",
    )
    assert code == 0
    ckpt = json.loads((out / "checkpoint.json").read_text())
    assert ckpt["variant"] == "tarnet"
    assert load_checkpoint(out / "checkpoint.json").model.treat_net is None
    hist = json.loads((out / "history.json").read_text())["history"]
    assert hist["balance"] == [0.0]


def test_train_zero_epochs(tmp_path, capsys):
    # every fit selects an epoch, so it runs at least one
    ds = simulate_small(capsys, tmp_path / "ds")
    out = tmp_path / "run"
    code, _, err = run(
        capsys, "train", "--dataset", str(ds), "--out", str(out), "--epochs-max", "0"
    )
    assert code == 2
    assert "epochs_max must be >= 1" in err
    assert not out.exists()


def test_train_refuses_overwrite_without_force(tmp_path, capsys):
    ds = simulate_small(capsys, tmp_path / "ds")
    out = tmp_path / "run"
    run(capsys, "train", "--dataset", str(ds), "--out", str(out), "--epochs-max", "1")
    code, _, err = run(
        capsys, "train", "--dataset", str(ds), "--out", str(out), "--epochs-max", "1"
    )
    assert code == 3
    assert "exists" in err
    code, _, _ = run(
        capsys, "train", "--dataset", str(ds), "--out", str(out),
        "--epochs-max", "1", "--force",
    )
    assert code == 0


def test_train_refuses_an_existing_checkpoint_before_training(tmp_path, capsys, monkeypatch):
    ds = simulate_small(capsys, tmp_path / "ds")
    out = tmp_path / "run"
    argv = ["train", "--dataset", str(ds), "--out", str(out), "--epochs-max", "1"]
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    before = dir_digest(out)

    def no_training(*_args, **_kwargs):
        raise AssertionError("train ran before the existing checkpoint was refused")

    monkeypatch.setattr(cli, "_fit_repeat", no_training)
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "exists" in err
    assert dir_digest(out) == before


def test_train_checks_config_dataset_agreement(tmp_path, capsys):
    ds = simulate_small(capsys, tmp_path / "ds")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sim": {"n": 80, "d": 9, "k": 3}}))
    code, _, err = run(
        capsys, "train", "--dataset", str(ds), "--out", str(tmp_path / "run"),
        "--config", str(cfg_path),
    )
    assert code == 3
    assert "dataset has" in err


def test_train_refuses_a_sim_that_is_not_the_datasets_config(tmp_path, capsys):
    ds = simulate_small(capsys, tmp_path / "ds", seed=4)
    cfg_path = tmp_path / "cfg.json"
    # the dataset's config in all but the seed
    cfg_path.write_text(json.dumps({"sim": {"n": 80, "d": 4, "k": 3, "seed": 5}}))
    code, _, err = run(
        capsys, "train", "--dataset", str(ds), "--out", str(tmp_path / "run"),
        "--config", str(cfg_path),
    )
    assert code == 3
    assert "seed=5 (dataset has 4)" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("zero_shot", [None, 5])
def test_train_config_without_sim_runs_on_the_datasets_own(tmp_path, capsys, zero_shot):
    # d=8 and k=6 differ from the default SimConfig's, and treatment 5 is
    # out of its range
    ds = tmp_path / "ds"
    code, _, err = run(
        capsys, "simulate", "--out", str(ds), "--n", "200", "--d", "8", "--k", "6",
        "--seed", "0",
    )
    assert code == 0, err
    cfg_path = tmp_path / "cfg.json"
    doc = {"variant": "tarnet", "train": {"epochs_max": 2}}
    cfg_path.write_text(json.dumps({**doc, "zero_shot": zero_shot}))
    out = tmp_path / "run"
    code, _, err = run(
        capsys, "train", "--dataset", str(ds), "--out", str(out), "--config", str(cfg_path)
    )
    assert code == 0, err
    counts = json.loads((out / "checkpoint.json").read_text())["head_updates"]
    assert (counts[5] == 0) == (zero_shot == 5)
    assert all(counts[:5])


def test_train_config_zero_shot_holds_the_treatment_out(tmp_path, capsys):
    ds = simulate_small(capsys, tmp_path / "ds")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "sim": {"n": 80, "d": 4, "k": 3, "seed": 4},
        "train": {"epochs_max": 2, "batch_size": 32},
        "zero_shot": 2,
    }))
    out = tmp_path / "run"
    code, _, err = run(
        capsys, "train", "--dataset", str(ds), "--out", str(out), "--config", str(cfg_path)
    )
    assert code == 0, err
    counts = json.loads((out / "checkpoint.json").read_text())["head_updates"]
    assert counts[2] == 0
    assert counts[0] > 0 and counts[1] > 0
    code, stdout, err = run(
        capsys, "evaluate", "--dataset", str(ds),
        "--checkpoint", str(out / "checkpoint.json"), "--zero-shot", "2",
    )
    assert code == 0, err
    assert "head 2 received no training updates" in stdout


@pytest.mark.parametrize("zero_shot", [None, 1])
def test_train_fits_repeat_0_of_its_experiment_config(tmp_path, capsys, zero_shot):
    ds = simulate_small(capsys, tmp_path / "ds")
    doc = {
        "sim": {"n": 80, "d": 4, "k": 3, "seed": 4},
        "train": {"epochs_max": 3, "batch_size": 16, "seed": 5},
        "variant": "tarnet",
        "zero_shot": zero_shot,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    code, _, err = run(
        capsys, "train", "--dataset", str(ds), "--out", str(out), "--config", str(cfg_path),
        "--variant", "joint", "--seed", "7", "--lr", "0.05",
    )
    assert code == 0, err
    # the flags override the config's fields
    doc["variant"] = "joint"
    doc["train"].update(seed=7, base_lr=0.05)
    fit = _fit_repeat(ExperimentConfig.from_dict(doc), load_dataset(ds), 0)
    ckpt = load_checkpoint(out / "checkpoint.json")
    assert ckpt.model.theta.tobytes() == fit.model.theta.tobytes()
    assert ckpt.model.head_updates == fit.model.head_updates
    assert (ckpt.model.head_updates[1] == 0) == (zero_shot == 1)


@pytest.mark.parametrize("variant", ["joint", "tarnet"])
def test_train_refuses_non_finite_treatment_embeddings(tmp_path, capsys, variant):
    ds = simulate_small(capsys, tmp_path / "ds")
    # the treatment embeddings are the first k centroids
    path = ds / "centroids.npy"
    z = np.load(path)
    z[1, 0] = np.nan
    np.save(path, z)
    # recorded under its own sha256, so the Dataset's finiteness check refuses it
    manifest = json.loads((ds / "manifest.json").read_text())
    manifest["sha256"]["centroids"] = hashlib.sha256(path.read_bytes()).hexdigest()
    (ds / "manifest.json").write_text(json.dumps(manifest))
    code, _, err = run(
        capsys, "train", "--dataset", str(ds), "--out", str(tmp_path / "run"),
        "--variant", variant, "--epochs-max", "1",
    )
    assert code == 4
    assert "non-finite values in Z" in err
    assert "diverged" not in err
    assert not (tmp_path / "run").exists()


def test_a_dataset_holding_arrays_of_another_seed_is_refused(tmp_path, capsys):
    for seed in (0, 1):
        code, _, err = run(
            capsys, "simulate", "--out", str(tmp_path / f"s{seed}"),
            "--n", "300", "--d", "8", "--k", "3", "--seed", str(seed),
        )
        assert code == 0, err
    for name in ("y_sampled.npy", "t_obs.npy"):
        shutil.copyfile(tmp_path / "s1" / name, tmp_path / "s0" / name)
    message = "s0/y_sampled.npy does not match the sha256 recorded for it"
    with pytest.raises(DataError, match=message):
        load_dataset(tmp_path / "s0")
    code, _, err = run(
        capsys, "train", "--dataset", str(tmp_path / "s0"), "--out", str(tmp_path / "run"),
        "--epochs-max", "1",
    )
    assert code == 3
    assert message in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("name", ["covariates", "centroids", "mu_sigma", "y_sampled", "t_obs"])
def test_train_refuses_a_dataset_array_with_a_flipped_byte(tmp_path, capsys, name):
    ds = simulate_small(capsys, tmp_path / "ds")
    path = ds / f"{name}.npy"
    data = bytearray(path.read_bytes())
    data[-8] ^= 0x01  # the lowest byte of the last value
    path.write_bytes(bytes(data))
    message = f"{name}.npy does not match the sha256 recorded for it"
    with pytest.raises(DataError, match=message):
        load_dataset(ds)
    code, _, err = run(
        capsys, "train", "--dataset", str(ds), "--out", str(tmp_path / "run"), "--epochs-max", "1"
    )
    assert code == 3
    assert message in err


def test_train_missing_dataset(tmp_path, capsys):
    code, _, _ = run(
        capsys, "train", "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "run")
    )
    assert code == 3


def test_train_refuses_a_dataset_without_validation_rows(tmp_path, capsys):
    ds = tmp_path / "ds"
    code, stdout, err = run(
        capsys, "simulate", "--out", str(ds), "--n", "3", "--d", "4", "--k", "2", "--seed", "0"
    )
    assert code == 0, err
    assert "'val': 0" in stdout
    out = tmp_path / "run"
    code, _, err = run(
        capsys, "train", "--dataset", str(ds), "--out", str(out), "--epochs-max", "3"
    )
    assert code == 3
    assert "validation split is empty" in err
    assert not out.exists()


# the simulate and train arguments that set no config field
NON_OVERRIDE_DESTS = {"help", "config", "out", "force", "dataset"}


def test_every_override_flag_sets_the_config_field_its_dest_names(tmp_path, capsys):
    defaults = ExperimentConfig().to_dict()
    sub = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    flags = {}  # command -> {flag: dest}
    for command in ("simulate", "train"):
        actions = [a for a in sub.choices[command]._actions if a.dest not in NON_OVERRIDE_DESTS]
        for action in actions:
            section, _, name = action.dest.rpartition(".")
            assert name in (defaults[section] if section else defaults), action.dest
        flags[command] = {a.option_strings[0]: a.dest for a in actions}
    rows = np.random.default_rng(0).normal(size=(100, 5))
    emb = tmp_path / "emb.csv"
    np.savetxt(emb, rows, delimiter=",")
    # a non-default value per field, and the flag text that gives it
    values = {
        "sim.seed": (3, "3"), "sim.n": (90, "90"), "sim.d": (5, "5"), "sim.k": (3, "3"),
        "sim.c": (4.0, "4"), "sim.kappa": ([5.0, 10.0, 20.0], "5,10,20"),
        "sim.centroid_method": ("kmeans", "kmeans"), "sim.embedding_file": (str(emb), str(emb)),
        "variant": ("tarnet", "tarnet"), "train.seed": (7, "7"),
        "train.epochs_max": (2, "2"), "train.alpha": (0.5, "0.5"), "train.beta": (0.25, "0.25"),
        "train.batch_size": (16, "16"), "train.base_lr": (0.05, "0.05"),
    }
    assert set(values) == {*flags["simulate"].values(), *flags["train"].values()}
    for key, (value, _) in values.items():
        section, _, name = key.rpartition(".")
        assert value != (defaults[section][name] if section else defaults[name]), key

    def argv(command):
        return [part for flag, dest in flags[command].items() for part in (flag, values[dest][1])]

    ds, out = tmp_path / "ds", tmp_path / "run"
    code, _, err = run(capsys, "simulate", "--out", str(ds), *argv("simulate"))
    assert code == 0, err
    config = json.loads((ds / "manifest.json").read_text())["config"]
    code, _, err = run(capsys, "train", "--dataset", str(ds), "--out", str(out), *argv("train"))
    assert code == 0, err
    header = json.loads((out / "checkpoint.json").read_text())
    stored = {"sim": config, "train": header["train_config"], "": header}
    for key, (value, _) in values.items():
        section, _, name = key.rpartition(".")
        assert stored[section][name] == value, key


# --- evaluate ---


def test_evaluate_zero_model_matches_library(tmp_path, capsys, zero_init):
    ds_dir = simulate_small(capsys, tmp_path / "ds")
    ds = load_dataset(ds_dir)
    cfg = ExperimentConfig.from_dict(TINY_CONFIG)
    model = initial_model(ds, cfg.model, cfg.train)
    assert not model.theta.any()
    out = tmp_path / "run"
    out.mkdir()
    val_mse = float(np.mean(ds.observed("val")[2] ** 2))
    save_checkpoint(
        out / "checkpoint.json", TrainedModel(model, TrainHistory(), 0, val_mse, cfg.train)
    )
    report_path = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys, "evaluate", "--dataset", str(ds_dir),
        "--checkpoint", str(out / "checkpoint.json"),
        "--zero-shot", "1", "--out", str(report_path),
    )
    assert code == 0
    assert "sqrt_pehe" in stdout
    report = EvalReport.from_dict(json.loads(report_path.read_text()))
    y_true = ds.expected_outcomes("test")
    expected = pehe(np.zeros_like(y_true), y_true)
    assert report.epsilon_pehe == pytest.approx(expected.epsilon, abs=1e-12)
    assert report.zero_shot_z == 1


def test_plain_evaluate_lists_heads_never_updated(tmp_path, capsys):
    from ite_bench.experiments import ExperimentConfig
    from ite_bench.model import save_checkpoint, train

    ds_dir = simulate_small(capsys, tmp_path / "ds")
    ds = load_dataset(ds_dir)
    cfg = ExperimentConfig.from_dict(
        {**TINY_CONFIG, "train": {"epochs_max": 2, "batch_size": 32}}
    )
    listed = {}
    for name, held_out in (("all", None), ("held-out", 2)):
        ckpt = tmp_path / name / "checkpoint.json"
        ckpt.parent.mkdir()
        save_checkpoint(ckpt, train(ds, cfg.model, cfg.train, "joint", held_out=held_out))
        report_path = tmp_path / name / "report.json"
        code, stdout, err = run(
            capsys, "evaluate", "--dataset", str(ds_dir), "--checkpoint", str(ckpt),
            "--out", str(report_path),
        )
        assert code == 0, err
        doc = json.loads(report_path.read_text())
        assert doc["zero_shot_z"] is None
        assert EvalReport.from_dict(doc).untrained_heads == doc["untrained_heads"]
        listed[name] = (doc["untrained_heads"], stdout)
    assert listed["all"][0] == []
    assert "never updated" not in listed["all"][1]
    assert listed["held-out"][0] == [2]
    assert "heads never updated in training: [2]" in listed["held-out"][1].splitlines()


def test_evaluate_splits_differ(tmp_path, capsys):
    ds = simulate_small(capsys, tmp_path / "ds")
    out = tmp_path / "run"
    run(capsys, "train", "--dataset", str(ds), "--out", str(out), "--epochs-max", "1")
    ckpt = str(out / "checkpoint.json")
    paths = {}
    for split in ("val", "test"):
        paths[split] = tmp_path / f"{split}.json"
        code, _, _ = run(
            capsys, "evaluate", "--dataset", str(ds), "--checkpoint", ckpt,
            "--split", split, "--out", str(paths[split]),
        )
        assert code == 0
    val = json.loads(paths["val"].read_text())
    test = json.loads(paths["test"].read_text())
    assert val["split"] == "val" and test["split"] == "test"
    assert EvalReport.from_dict(val).epsilon_pehe != EvalReport.from_dict(test).epsilon_pehe


def test_evaluate_into_a_directory_exits_3_and_leaves_no_temporary_file(tmp_path, capsys):
    ds = simulate_small(capsys, tmp_path / "ds")
    out = tmp_path / "run"
    run(capsys, "train", "--dataset", str(ds), "--out", str(out), "--epochs-max", "1")
    target = tmp_path / "reports"
    target.mkdir()
    before = sorted(os.listdir(tmp_path))
    code, _, err = run(
        capsys, "evaluate", "--dataset", str(ds), "--checkpoint", str(out / "checkpoint.json"),
        "--out", str(target),
    )
    assert code == 3, err
    assert sorted(os.listdir(tmp_path)) == before
    assert os.listdir(target) == []


def test_evaluate_of_predictions_that_overflow_exits_4(tmp_path, capsys):
    ds = simulate_dataset(SimConfig(n=200, d=8, k=3, seed=0))
    save_dataset(ds, tmp_path / "ds")
    trained = train(ds, ModelShape(), TrainConfig(epochs_max=1), "tarnet")
    # finite parameters whose head outputs overflow: the last head layer's
    # weights at +-1e308
    theta = trained.model.theta.copy()
    w = trained.model.views(theta)[-1][-1][0]
    w[...] = np.where(w < 0, -1e308, 1e308)
    model = dataclasses.replace(trained.model, theta=theta)
    header = tmp_path / "checkpoint.json"
    save_checkpoint(header, dataclasses.replace(trained, model=model))
    code, _, err = run(
        capsys, "evaluate", "--dataset", str(tmp_path / "ds"), "--checkpoint", str(header)
    )
    assert code == 4, err
    assert "numeric error" in err and "non-finite predictions" in err


MALFORMED_HEADERS = {
    "truncated": lambda doc: '{"schema_version": "2", ',
    "not-an-object": lambda doc: "[]",
    # k = 3 counts, none of them an int: refused, not rounded
    "head-updates-not-ints": lambda doc: json.dumps({**doc, "head_updates": [1.5, "2", True]}),
    "head-updates-empty": lambda doc: json.dumps({**doc, "head_updates": []}),
    # best_epoch an int >= 0 and best_val_mse a finite float >= 0, never null
    "best-val-mse-string": lambda doc: json.dumps({**doc, "best_val_mse": "x"}),
    "best-epoch-list": lambda doc: json.dumps({**doc, "best_epoch": [1]}),
    "best-epoch-negative": lambda doc: json.dumps({**doc, "best_epoch": -1}),
    "best-epoch-bool": lambda doc: json.dumps({**doc, "best_epoch": True}),
    "best-val-mse-negative": lambda doc: json.dumps({**doc, "best_val_mse": -1.0}),
    "best-val-mse-nan": lambda doc: json.dumps({**doc, "best_val_mse": math.nan}),
    "best-epoch-null-alone": lambda doc: json.dumps({**doc, "best_epoch": None}),
    "best-epoch-and-val-mse-null": lambda doc: json.dumps(
        {**doc, "best_epoch": None, "best_val_mse": None}
    ),
    "best-val-mse-missing": lambda doc: json.dumps(
        {k: v for k, v in doc.items() if k != "best_val_mse"}
    ),
    # a header holds exactly its fields
    "unknown-field": lambda doc: json.dumps({**doc, "colour": "red"}),
}


@pytest.mark.parametrize("header", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS)
def test_evaluate_malformed_checkpoint_header_exits_3(tmp_path, capsys, header):
    ds = simulate_small(capsys, tmp_path / "ds")
    out = tmp_path / "run"
    code, _, err = run(
        capsys, "train", "--dataset", str(ds), "--out", str(out), "--epochs-max", "1"
    )
    assert code == 0, err
    path = out / "checkpoint.json"
    path.write_text(header(json.loads(path.read_text())))
    code, _, err = run(
        capsys, "evaluate", "--dataset", str(ds), "--checkpoint", str(out / "checkpoint.json")
    )
    assert code == 3
    assert "checkpoint.json" in err


MALFORMED_MANIFESTS = {
    "truncated": lambda doc: '{"schema_version": ',
    "not-an-object": lambda doc: "[1]",
    "config-wrong-type": lambda doc: json.dumps(
        {**doc, "config": {**doc["config"], "seed": "3"}}
    ),
    "config-unknown-field": lambda doc: json.dumps(
        {**doc, "config": {**doc["config"], "colour": "red"}}
    ),
    "config-not-an-object": lambda doc: json.dumps({**doc, "config": 5}),
    # the config is the one source of n, d and k, so a manifest needs it
    "config-missing": lambda doc: json.dumps({k: v for k, v in doc.items() if k != "config"}),
    "config-null": lambda doc: json.dumps({**doc, "config": None}),
    # a manifest holds exactly its fields
    "unknown-field": lambda doc: json.dumps({**doc, "colour": "red"}),
    "splits-missing": lambda doc: json.dumps({k: v for k, v in doc.items() if k != "splits"}),
}


@pytest.mark.parametrize("manifest", MALFORMED_MANIFESTS.values(), ids=MALFORMED_MANIFESTS)
def test_train_malformed_manifest_exits_3(tmp_path, capsys, manifest):
    ds = simulate_small(capsys, tmp_path / "ds")
    path = ds / "manifest.json"
    path.write_text(manifest(json.loads(path.read_text())))
    code, _, err = run(capsys, "train", "--dataset", str(ds), "--out", str(tmp_path / "run"))
    assert code == 3
    assert "manifest.json" in err


MALFORMED_SPLITS = {
    # each split is a list of ints: neither rounded, parsed nor flattened
    "shifted": lambda splits: {**splits, "train": [i + 0.4 for i in splits["train"]]},
    "strings": lambda splits: {**splits, "train": [str(i) for i in splits["train"]]},
    "bools": lambda splits: {**splits, "train": [True] + splits["train"][1:]},
    "nested": lambda splits: {**splits, "train": [splits["train"]]},
    "a-string": lambda splits: {**splits, "train": "abc"},
    "a-list": lambda splits: list(splits.values()),
    "null": lambda splits: None,
    "extra-split": lambda splits: {**splits, "holdout": []},
    "huge-index": lambda splits: {**splits, "test": splits["test"] + [2**70]},
    # in range, but a row twice or a row in no split
    "row-twice": lambda splits: {**splits, "val": splits["val"] + splits["train"][:1]},
    "row-missing": lambda splits: {**splits, "test": splits["test"][1:]},
}


@pytest.mark.parametrize("splits", MALFORMED_SPLITS.values(), ids=MALFORMED_SPLITS)
def test_train_malformed_manifest_splits_exit_3(tmp_path, capsys, splits):
    ds = simulate_small(capsys, tmp_path / "ds")
    path = ds / "manifest.json"
    manifest = json.loads(path.read_text())
    path.write_text(json.dumps({**manifest, "splits": splits(manifest["splits"])}))
    code, _, err = run(
        capsys, "train", "--dataset", str(ds), "--out", str(tmp_path / "run"),
        "--epochs-max", "1",
    )
    assert code == 3, err
    assert "data error" in err


def test_schema_2_dataset_and_schema_3_checkpoint_are_refused(tmp_path, capsys):
    ds = simulate_small(capsys, tmp_path / "ds")
    out = tmp_path / "run"
    code, _, err = run(
        capsys, "train", "--dataset", str(ds), "--out", str(out), "--epochs-max", "1"
    )
    assert code == 0, err
    # schema 3 also stored each network's layer list
    ckpt = out / "checkpoint.json"
    doc = json.loads(ckpt.read_text())
    layers = {"layers": [[4, 4]], "activation": "elu", "dropout_rate": 0.1}
    ckpt.write_text(json.dumps({**doc, "schema_version": "3", "cov_net": layers}))
    code, _, err = run(capsys, "evaluate", "--dataset", str(ds), "--checkpoint", str(ckpt))
    assert code == 3
    assert "re-run `ite-bench train`" in err
    # schema 2 also listed the array files
    path = ds / "manifest.json"
    manifest = json.loads(path.read_text())
    files = {name: name + ".npy" for name in ("covariates", "t_obs")}
    path.write_text(json.dumps({**manifest, "schema_version": "2", "files": files}))
    code, _, err = run(capsys, "train", "--dataset", str(ds), "--out", str(tmp_path / "run2"))
    assert code == 3
    assert "re-run `ite-bench simulate`" in err


def test_schema_3_dataset_and_schema_4_checkpoint_are_refused(tmp_path, capsys):
    ds = simulate_small(capsys, tmp_path / "ds")
    out = tmp_path / "run"
    code, _, err = run(
        capsys, "train", "--dataset", str(ds), "--out", str(out), "--epochs-max", "1"
    )
    assert code == 0, err
    # schema 4 also stored the treatment network's input width
    ckpt = out / "checkpoint.json"
    doc = json.loads(ckpt.read_text())
    ckpt.write_text(json.dumps({**doc, "schema_version": "4", "treat_input_dim": 4}))
    code, _, err = run(capsys, "evaluate", "--dataset", str(ds), "--checkpoint", str(ckpt))
    assert code == 3
    assert "re-run `ite-bench train`" in err
    # schema 3 also stored n, d and k and three derived arrays
    path = ds / "manifest.json"
    manifest = json.loads(path.read_text())
    path.write_text(json.dumps({**manifest, "schema_version": "3", "n": 80, "d": 4, "k": 3}))
    for name in ("treatment_embeddings", "y_expected", "y_factual"):
        np.save(ds / f"{name}.npy", np.zeros(3))
    code, _, err = run(capsys, "train", "--dataset", str(ds), "--out", str(tmp_path / "run2"))
    assert code == 3
    assert "re-run `ite-bench simulate`" in err


def test_schema_1_csv_dataset_is_refused(tmp_path, capsys):
    old = tmp_path / "old"
    old.mkdir()
    (old / "manifest.json").write_text(json.dumps({"schema_version": "1"}))
    (old / "assignments.csv").write_text("0,1,0.5\n")
    code, _, err = run(capsys, "train", "--dataset", str(old), "--out", str(tmp_path / "run"))
    assert code == 3
    assert "re-run `ite-bench simulate`" in err


def test_evaluate_zero_shot_out_of_range(tmp_path, capsys):
    ds = simulate_small(capsys, tmp_path / "ds")
    out = tmp_path / "run"
    run(capsys, "train", "--dataset", str(ds), "--out", str(out), "--epochs-max", "1")
    code, _, err = run(
        capsys, "evaluate", "--dataset", str(ds),
        "--checkpoint", str(out / "checkpoint.json"), "--zero-shot", "7",
    )
    assert code == 2
    assert "out of range" in err


# --- pipeline determinism ---


def test_pipeline_is_byte_identical_across_runs(tmp_path, capsys):
    reports = []
    for tag in ("a", "b"):
        root = tmp_path / tag
        ds = simulate_small(capsys, root / "ds", seed=6)
        out = root / "run"
        code, _, _ = run(
            capsys, "train", "--dataset", str(ds), "--out", str(out),
            "--epochs-max", "2", "--seed", "5",
        )
        assert code == 0
        report = root / "report.json"
        code, _, _ = run(
            capsys, "evaluate", "--dataset", str(ds),
            "--checkpoint", str(out / "checkpoint.json"), "--out", str(report),
        )
        assert code == 0
        reports.append(report.read_bytes())
        assert dir_digest(root / "ds") == dir_digest(tmp_path / "a" / "ds")
    assert reports[0] == reports[1]


def test_inputs_are_never_mutated(tmp_path, capsys):
    ds = simulate_small(capsys, tmp_path / "ds")
    before = dir_digest(ds)
    out = tmp_path / "run"
    run(capsys, "train", "--dataset", str(ds), "--out", str(out), "--epochs-max", "1")
    run(
        capsys, "evaluate", "--dataset", str(ds),
        "--checkpoint", str(out / "checkpoint.json"),
    )
    assert dir_digest(ds) == before


# --- sweep ---


def sweep_config_doc():
    return {
        "base": {
            "sim": {"n": 80, "d": 4, "k": 2, "seed": 3},
            "model": {
                "cov_layers": 1, "cov_width": 4, "cov_out": 3,
                "treat_layers": 1, "treat_width": 4, "treat_out": 2,
                "head_layers": 1, "head_width": 4, "dropout_rate": 0.0,
            },
            "train": {"epochs_max": 1, "batch_size": 32, "base_lr": 0.05},
            "repeats": 2,
        },
        "grid": {"train.base_lr": [0.05, 0.2]},
    }


def test_sweep_cli_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(sweep_config_doc()))
    out = tmp_path / "sweep_out"
    code, stdout, err = run(
        capsys, "sweep", "--config", str(cfg), "--out", str(out), "--threads", "1"
    )
    assert code == 0, err
    assert "winner trial" in stdout
    assert "test truth reads before selection: 0" in stdout
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_trials"] == 2
    assert (out / "winner_record.json").exists()


def test_sweep_refuses_reused_out_without_force(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(sweep_config_doc()))
    argv = ("sweep", "--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", "1")
    assert run(capsys, *argv)[0] == 0
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "not empty" in err
    code, _, err = run(capsys, *argv, "--force")
    assert code == 0, err


def test_default_threads_count_only_the_cpus_this_process_may_use(
    tmp_path, capsys, monkeypatch
):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(sweep_config_doc()))
    threads_used = []

    def fake_sweep(spec, out_dir, threads, force):
        threads_used.append(threads)
        raise DataError("stopped before any trial")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli, "run_sweep", fake_sweep)
    code, _, _ = run(capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 3
    assert threads_used == [1]


def test_model_init_is_refused_in_a_config_and_a_grid(tmp_path, capsys):
    ds = simulate_small(capsys, tmp_path / "ds")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {**TINY_CONFIG, "model": {**TINY_CONFIG["model"], "init": "glorot"}}
    ))
    code, _, err = run(
        capsys, "train", "--dataset", str(ds), "--out", str(tmp_path / "run"),
        "--config", str(cfg_path),
    )
    assert code == 2
    assert "init" in err
    # every trial's config is checked before the sweep writes anything, so
    # the corrected config runs on the same --out without --force
    out = tmp_path / "o"
    doc = sweep_config_doc()
    argv = ("sweep", "--config", str(cfg_path), "--out", str(out), "--threads")
    for grid, name in (
        ({"model.init": ["glorot", "zeros"]}, "model.init"),
        ({"train.batch_size": [1]}, "batch_size"),
    ):
        doc["grid"] = grid
        cfg_path.write_text(json.dumps(doc))
        for threads in ("1", "2"):
            code, _, err = run(capsys, *argv, threads)
            assert code == 2
            assert name in err
            assert not out.exists()
    doc["grid"] = {"train.batch_size": [16, 32]}
    cfg_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, *argv, "2")
    assert code == 0, err


def _with(doc, updates):
    """doc with updates applied, merging one level into its sections."""
    merged = dict(doc)
    for key, value in updates.items():
        merged[key] = {**doc.get(key, {}), **value} if isinstance(value, dict) else value
    return merged


WRONG_TYPES = [
    ("train", {"repeats": "x"}, (), "repeats"),
    ("train", {"repeats": 1.5}, (), "repeats"),
    ("train", {"zero_shot": "1"}, (), "zero_shot"),
    ("train", {"train": {"batch_size": "128"}}, (), "batch_size"),
    ("train", {"train": {"batch_size": 2.5}}, (), "batch_size"),
    ("train", {"train": {"seed": 1.5}}, (), "seed"),
    ("train", {"train": {"bandwidth": "x"}}, (), "bandwidth"),
    ("train", {"train": {"epochs_max": True}}, (), "epochs_max"),
    # every fit selects an epoch, so it runs at least one
    ("train", {"train": {"epochs_max": 0}}, (), "config.train: epochs_max must be >= 1"),
    ("train", {"model": {"cov_width": 2.5}}, (), "cov_width"),
    ("simulate", {"sim": {"n": 200.5}}, (), "config.sim: n must be int"),
    ("simulate", {"sim": {"seed": "3"}}, (), "seed"),
    ("simulate", {}, ("--kappa", "abc"), "kappa"),
    ("sweep", {"grid": ["x"]}, (), "grid"),
    ("sweep", {"max_trials": "3"}, (), "max_trials"),
    ("sweep", {"seed": 1.5}, (), "seed"),
    # a generator takes no negative seed
    ("simulate", {}, ("--seed", "-1"), "config.sim: seed must be >= 0"),
    ("train", {}, ("--seed", "-5"), "config.train: seed must be >= 0"),
    ("sweep", {"base": {"sim": {"n": 80, "d": 4, "k": 2, "seed": -1}}}, (),
     "config.base.sim: seed must be >= 0"),
    # a section of the wrong type is named by its dotted path
    ("train", {"model": 3}, (), "config.model must be an object"),
    ("sweep", {"base": {"model": 3}}, (), "config.base.model must be an object"),
    # JSON and argparse both accept NaN and infinities
    ("train", {"train": {"base_lr": math.nan}}, (), "base_lr"),
    ("train", {"train": {"alpha": math.nan}}, (), "alpha"),
    ("train", {"train": {"beta": math.nan}}, (), "beta"),
    ("train", {"train": {"weight_decay": math.inf}}, (), "weight_decay"),
    ("train", {"train": {"base_lr": math.inf}}, (), "base_lr"),
    ("train", {"train": {"bandwidth": math.inf}}, (), "bandwidth"),
    # 2 / bandwidth^2 overflows below ~1.0548e-154, and bandwidth^2 is 0 at 1e-200
    ("train", {"train": {"bandwidth": 1e-155}}, (), "bandwidth must be finite and above"),
    ("train", {"train": {"bandwidth": 1e-200}}, (), "bandwidth must be finite and above"),
    ("train", {}, ("--lr", "nan"), "base_lr"),
    ("simulate", {"sim": {"c": math.nan}}, (), "c must be finite"),
    ("simulate", {}, ("--kappa", "1,inf,2"), "kappa"),
    ("sweep", {"grid": {"train.base_lr": [0.05, math.nan]}}, (), "base_lr"),
]


@pytest.mark.parametrize(
    "command, updates, flags, name", WRONG_TYPES,
    ids=[f"{c} {json.dumps(u) if u else ' '.join(f)}" for c, u, f, _ in WRONG_TYPES],
)
def test_wrong_typed_config_value_exits_2(tmp_path, capsys, command, updates, flags, name):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out), *flags]
    if command == "sweep":
        doc = _with(sweep_config_doc(), updates)
        argv += ["--threads", "1"]
    else:
        doc = _with(TINY_CONFIG, updates)
    if command == "train":
        argv += ["--dataset", str(simulate_small(capsys, tmp_path / "ds"))]
    cfg.write_text(json.dumps(doc))
    code, _, err = run(capsys, *argv)
    assert code == 2, err
    assert name in err
    assert not out.exists()


@pytest.mark.parametrize("section", ["base", "grid"])
def test_sweep_config_without_a_required_section_exits_2(tmp_path, capsys, section):
    doc = sweep_config_doc()
    del doc[section]
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code, _, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out), "--threads", "1")
    assert code == 2, err
    assert f"config: missing fields ['{section}']" in err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_records_a_trial_whose_validation_overflows_as_diverged(
    tmp_path, capsys, threads
):
    # at base_lr 0.2 the last step's weights overflow the validation forward
    doc = {
        "base": {"sim": {"n": 300, "d": 6, "k": 3, "seed": 2},
                 "train": {"epochs_max": 3, "batch_size": 64}},
        "grid": {"train.base_lr": [0.05, 0.1, 0.2]},
    }
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code, _, err = run(
        capsys, "sweep", "--config", str(cfg), "--out", str(out), "--threads", threads
    )
    assert code == 0, err
    summary = json.loads((out / "summary.json").read_text())
    assert [t["status"] for t in summary["trials"]] == ["ok", "ok", "diverged"]
    assert summary["winner"]["trial"] in (0, 1)
    record = json.loads((out / "trials" / "trial_0002" / "record.json").read_text())
    assert "(validation pass): non-finite network input" in record["message"]
    # with no trial left to select, the sweep fails
    cfg.write_text(json.dumps({**doc, "grid": {"train.base_lr": [0.2]}}))
    code, _, err = run(
        capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path / "all"),
        "--threads", threads,
    )
    assert code == 4
    assert "every sweep trial diverged" in err


# a fit on this data and shape at base_lr ~1.45-1.8 (tarnet) or ~1.25-1.9
# (joint) for one epoch predicts finite validation outcomes whose squared
# errors overflow, with no forward pass overflowing on the way
MSE_OVERFLOW_CONFIG = {
    "sim": {"n": 300, "d": 6, "k": 3, "seed": 2},
    "model": {
        "cov_width": 8, "cov_out": 4, "treat_width": 4, "treat_out": 3, "head_width": 4,
        "dropout_rate": 0.0,
    },
    "train": {"epochs_max": 1, "batch_size": 64, "weight_decay": 0.0, "base_lr": 1.6},
}


@pytest.mark.parametrize("variant", ["joint", "tarnet"])
def test_train_whose_validation_mse_overflows_exits_4(tmp_path, capsys, variant):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**MSE_OVERFLOW_CONFIG, "variant": variant}))
    ds = tmp_path / "ds"
    assert run(capsys, "simulate", "--config", str(cfg), "--out", str(ds))[0] == 0
    out = tmp_path / "run"
    code, _, err = run(
        capsys, "train", "--dataset", str(ds), "--out", str(out), "--config", str(cfg)
    )
    assert code == 4
    assert (
        "training diverged at epoch 0, batch 3 (validation pass): non-finite validation MSE"
        in err
    )
    assert not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_records_a_trial_whose_validation_mse_overflows_as_diverged(
    tmp_path, capsys, threads
):
    doc = {
        "base": {**MSE_OVERFLOW_CONFIG, "variant": "tarnet"},
        "grid": {"train.base_lr": [1.55, 0.05, 1.7]},
    }
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code, _, err = run(
        capsys, "sweep", "--config", str(cfg), "--out", str(out), "--threads", threads
    )
    assert code == 0, err
    summary = json.loads((out / "summary.json").read_text())
    assert [t["status"] for t in summary["trials"]] == ["diverged", "ok", "diverged"]
    assert summary["winner"]["trial"] == 1
    assert math.isfinite(summary["winner"]["mean_val_mse"])
    for trial in (0, 2):
        record = json.loads((out / "trials" / f"trial_{trial:04d}" / "record.json").read_text())
        assert "(validation pass): non-finite validation MSE" in record["message"]
        assert (record["val_mse"], record["mean_val_mse"]) == ([], None)
    # with no trial left to select, the sweep fails
    cfg.write_text(json.dumps({**doc, "grid": {"train.base_lr": [1.55, 1.7]}}))
    code, _, err = run(
        capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path / "all"),
        "--threads", threads,
    )
    assert code == 4
    assert "every sweep trial diverged" in err


# at base_lr 1.95 (2.0 likewise) the last step's weights overflow a matmul of
# the validation forward, which then predicts non-finite outcomes
FORWARD_OVERFLOW_CONFIG = {
    **MSE_OVERFLOW_CONFIG, "variant": "tarnet",
    "train": {**MSE_OVERFLOW_CONFIG["train"], "base_lr": 1.95},
}


def run_with_warnings_as_errors(*argv, warnings_as_errors=True):
    """The CLI in a new interpreter under -W error::RuntimeWarning, which its
    forked sweep workers inherit, or with warnings_as_errors False under
    Python's default filters, where a warning is printed and the command
    goes on; returns the exit code and stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("PYTHONWARNINGS", None)
    flags = ["-W", "error::RuntimeWarning"] if warnings_as_errors else []
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "ite_bench.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stderr


def test_a_fit_whose_forward_overflows_exits_4_with_warnings_as_errors(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FORWARD_OVERFLOW_CONFIG))
    ds = tmp_path / "ds"
    assert run(capsys, "simulate", "--config", str(cfg), "--out", str(ds))[0] == 0
    out = tmp_path / "run"
    code, err = run_with_warnings_as_errors(
        "train", "--dataset", str(ds), "--config", str(cfg), "--out", str(out)
    )
    assert code == 4, err
    assert err == (
        "numeric error: training diverged at epoch 0, batch 3 (validation pass): "
        "non-finite predictions\n"
    )
    assert not out.exists()


def test_a_pooled_sweep_whose_trials_all_overflow_exits_4_with_warnings_as_errors(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(
        {"base": FORWARD_OVERFLOW_CONFIG, "grid": {"train.base_lr": [1.95, 2.0]}}
    ))
    code, err = run_with_warnings_as_errors(
        "sweep", "--config", str(cfg), "--out", str(tmp_path / "out"), "--threads", "2"
    )
    assert code == 4, err
    assert err.splitlines()[-1] == "numeric error: every sweep trial diverged; nothing to select"
    assert "Warning" not in err


def test_simulate_whose_assignment_logits_overflow_exits_4(tmp_path, capsys):
    # kappa 1e308 times outcomes of order 1 overflows the softmax logits
    out = tmp_path / "ds"
    code, _, err = run(
        capsys, "simulate", "--out", str(out),
        "--n", "200", "--d", "4", "--k", "3", "--kappa", "1e308",
    )
    assert code == 4, err
    assert "numeric error: non-finite assignment logits" in err
    assert not out.exists()


@pytest.mark.parametrize("scale, norm", [(1e200, "inf"), (1e-200, "0.0")])
def test_simulate_refuses_a_covariate_row_whose_norm_overflows_or_underflows(
    tmp_path, capsys, scale, norm
):
    rows = np.random.default_rng(0).normal(size=(10, 4))
    rows[3] = np.array([1.0, 1.0, -1.0, 1.0]) * scale
    emb = tmp_path / "emb.csv"
    np.savetxt(emb, rows, delimiter=",")
    out = tmp_path / "ds"
    code, _, err = run(
        capsys, "simulate", "--out", str(out),
        "--n", "10", "--d", "4", "--k", "3", "--covariate-file", str(emb),
    )
    assert code == 3, err
    assert f"data error: covariate row 3 has norm {norm} in float64" in err
    assert not out.exists()


def test_train_at_a_bandwidth_of_1e_150_exits_0(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_with(TINY_CONFIG, {"train": {"bandwidth": 1e-150}})))
    ds = simulate_small(capsys, tmp_path / "ds")
    code, _, err = run(
        capsys, "train", "--dataset", str(ds), "--config", str(cfg), "--out", str(tmp_path / "run")
    )
    assert code == 0, err


def test_sweep_single_point_matches_run_experiment(tmp_path, capsys):
    doc = sweep_config_doc()
    doc["grid"] = {"train.base_lr": [0.05]}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code, _, _ = run(
        capsys, "sweep", "--config", str(cfg), "--out", str(out), "--threads", "1"
    )
    assert code == 0
    from ite_bench.experiments import ExperimentConfig, run_experiment

    record = run_experiment(ExperimentConfig.from_dict(doc["base"]))
    winner = json.loads((out / "winner_record.json").read_text())
    # the sweep's winner and run_experiment take the same fit and scoring steps
    assert winner["per_seed"] == [r.to_dict() for r in record.per_seed]


# --- report ---


def write_record(path, label, roots):
    from ite_bench.experiments import RunRecord
    from ite_bench.metrics import EvalReport

    reports = [
        EvalReport(
            split="test", n_eval=5, per_pair={(1, 0): r * r}, untrained_heads=[]
        )
        for r in roots
    ]
    record = RunRecord(label=label, config={}, per_seed=reports)
    path.write_text(json.dumps(record.to_dict()))
    return path


def test_report_cli_table_and_csv(tmp_path, capsys):
    a = write_record(tmp_path / "joint.json", "joint", [1.0, 3.0])
    b = write_record(tmp_path / "tarnet.json", "tarnet", [5.0])
    csv_path = tmp_path / "table.csv"
    code, stdout, _ = run(
        capsys, "report", str(a), str(b), "--csv", str(csv_path)
    )
    assert code == 0
    lines = stdout.splitlines()
    assert "2.00 +/- 1.00 (n=2)" in lines[1]
    assert lines[1].startswith("joint")
    assert csv_path.read_text().startswith("label,")


def test_report_csv_quotes_labels_that_hold_a_comma_or_a_quote(tmp_path, capsys):
    labels = ['a,b/report', 'say "hi"', "plain"]
    paths = [write_record(tmp_path / f"r{i}.json", label, [1.0]) for i, label in enumerate(labels)]
    csv_path = tmp_path / "table.csv"
    code, _, err = run(capsys, "report", *map(str, paths), "--csv", str(csv_path))
    assert code == 0, err
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [7] * 4
    assert sorted(row[0] for row in rows[1:]) == sorted(labels)


def test_a_csv_write_whose_rename_fails_exits_3_and_keeps_the_previous_table(
    tmp_path, capsys, monkeypatch
):
    record = write_record(tmp_path / "joint.json", "joint", [1.0])
    csv_path = tmp_path / "table.csv"
    csv_path.write_bytes(b"previous table\n")

    def fail(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", fail)
    code, _, err = run(capsys, "report", str(record), "--csv", str(csv_path))
    assert code == 3, err
    assert csv_path.read_bytes() == b"previous table\n"
    assert sorted(os.listdir(tmp_path)) == ["joint.json", "table.csv"]


def test_report_cli_accepts_eval_reports(tmp_path, capsys):
    ds = simulate_small(capsys, tmp_path / "ds")
    out = tmp_path / "run"
    run(capsys, "train", "--dataset", str(ds), "--out", str(out), "--epochs-max", "1")
    report_path = tmp_path / "solo.json"
    run(
        capsys, "evaluate", "--dataset", str(ds),
        "--checkpoint", str(out / "checkpoint.json"), "--out", str(report_path),
    )
    code, stdout, _ = run(capsys, "report", str(report_path))
    assert code == 0
    assert "solo" in stdout  # labeled by file stem
    assert "(n=1)" in stdout


def _quickstart_commands():
    """The ite-bench commands of the README quickstart, one argv each."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quickstart (CLI)", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("ite-bench ")]


def _readme_json_block(after: str):
    """The first JSON block of README.md after the text after, parsed."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return json.loads(readme.split(after, 1)[1].split("```json", 1)[1].split("```", 1)[0])


def test_readme_config_examples_match_the_dataclasses():
    # the experiment config shows every key at its default
    doc = _readme_json_block("every key has the default shown by the dataclasses")
    assert doc == ExperimentConfig(label="demo").to_dict()
    # the documented search space builds a sweep, and a sample of its points
    # resolves as run_sweep resolves them
    spec = SweepSpec.from_dict(_readme_json_block("The search space documented"))
    points = experiments.expand_grid(spec.grid)
    assert len(points) == 23_328
    for overrides in random.Random(spec.seed).sample(points, spec.max_trials):
        experiments.apply_overrides(spec.base, overrides)


def test_readme_quickstart_reports_one_row_per_variant(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _quickstart_commands()
    assert [argv[0] for argv in commands] == [
        "simulate", "train", "train", "evaluate", "evaluate", "report"
    ]
    for argv in commands:
        if argv[0] == "simulate":
            argv[argv.index("--n") + 1] = "300"
        if argv[0] == "train":
            argv += ["--epochs-max", "1"]
        code, stdout, err = run(capsys, *argv)
        assert code == 0, (argv, err)
    # one row per run directory, not one row per file name
    *rows, last = stdout.splitlines()[1:]
    assert sorted((row.split()[0], row.split()[4]) for row in rows) == [
        ("joint/report", "(n=1)"), ("tarnet/report", "(n=1)")
    ]
    assert last == "wrote csv to runs/summary.csv"
    csv_rows = (tmp_path / "runs" / "summary.csv").read_text().splitlines()[1:]
    assert sorted(row.split(",")[0] for row in csv_rows) == ["joint/report", "tarnet/report"]


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_evaluate_into_a_closed_pipe_writes_its_report_and_exits_0(tmp_path, capsys, unbuffered):
    ds = simulate_small(capsys, tmp_path / "ds")
    out = tmp_path / "run"
    code, _, err = run(
        capsys, "train", "--dataset", str(ds), "--out", str(out), "--epochs-max", "1"
    )
    assert code == 0, err
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    report = tmp_path / "r.json"
    argv = [
        sys.executable, "-m", "ite_bench.cli", "evaluate", "--dataset", str(ds),
        "--checkpoint", str(out / "checkpoint.json"), "--out", str(report),
    ]
    # stdout is a pipe whose read end is closed, as after `| head` has exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert EvalReport.from_dict(json.loads(report.read_text())).split == "test"


def test_report_refuses_a_json_array(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]")
    code, _, err = run(capsys, "report", str(path))
    assert code == 3
    assert "not a JSON object" in err


def test_train_refuses_a_json_array_config(tmp_path, capsys):
    ds = simulate_small(capsys, tmp_path / "ds")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[]")
    code, _, err = run(
        capsys, "train", "--dataset", str(ds), "--out", str(tmp_path / "run"),
        "--config", str(cfg_path),
    )
    assert code == 2
    assert "not a JSON object" in err


def test_report_cli_error_paths(tmp_path, capsys):
    code, _, _ = run(capsys, "report", str(tmp_path / "missing.json"))
    assert code == 3
    junk = tmp_path / "junk.json"
    junk.write_text(json.dumps({"kind": "other"}))
    code, _, err = run(capsys, "report", str(junk))
    assert code == 3
    assert "not a run record" in err
    a = write_record(tmp_path / "a.json", "a", [1.0])
    from ite_bench.metrics import EvalReport
    from ite_bench.experiments import RunRecord

    mixed = RunRecord(
        label="b", config={},
        per_seed=[
            EvalReport(
                split="test", n_eval=5, per_pair={(1, 0): 1.0, (2, 0): 1.0, (2, 1): 1.0},
                untrained_heads=[],
            )
        ],
    )
    path_b = tmp_path / "b.json"
    path_b.write_text(json.dumps(mixed.to_dict()))
    code, _, err = run(capsys, "report", str(a), str(path_b))
    assert code == 3
    assert "disagree" in err


def _run_record_doc(tmp, **changes):
    return {**json.loads(write_record(tmp / "r.json", "a", [1.0]).read_text()), **changes}


def _eval_report_doc(**changes):
    from ite_bench.metrics import EvalReport

    report = EvalReport(
        split="test", n_eval=5, per_pair={(1, 0): 1.0, (2, 0): 1.0, (2, 1): 1.0},
        untrained_heads=[],
    )
    return {**report.to_dict(), **changes}


MALFORMED_RECORDS = {
    "record-without-label": lambda tmp: {
        k: v for k, v in _run_record_doc(tmp).items() if k != "label"
    },
    # a stored aggregate that disagrees with its one seed
    "record-aggregate-n-7": lambda tmp: _run_record_doc(
        tmp, aggregate={"sqrt_pehe": {"mean": 1.0, "std": 0.0, "n": 7}}
    ),
    "record-schema-1": lambda tmp: _run_record_doc(tmp, schema_version="1"),
    # a list label cannot key the rows of the table
    "record-label-list": lambda tmp: _run_record_doc(tmp, label=["a"]),
    "record-artifacts-string": lambda tmp: _run_record_doc(tmp, artifacts="checkpoint.json"),
    "report-pair-key-x": lambda tmp: _eval_report_doc(per_pair={"x": 1.0}),
    # "01,0" would read as the pair (1, 0) and replace its error
    "report-pair-key-01": lambda tmp: _eval_report_doc(
        per_pair={"1,0": 1.0, "2,0": 1.0, "2,1": 1.0, "01,0": 9.0}
    ),
    # one entry, as k=2 makes, but not the pair (1, 0)
    "report-pair-out-of-range": lambda tmp: _eval_report_doc(per_pair={"5,9": 1.0}),
    "report-without-pairs": lambda tmp: _eval_report_doc(per_pair={}),
    "report-of-nans": lambda tmp: _eval_report_doc(
        per_pair={"1,0": math.nan, "2,0": math.nan, "2,1": math.nan},
    ),
    "report-negative-pair": lambda tmp: _eval_report_doc(
        per_pair={"1,0": 1.0, "2,0": -0.5, "2,1": 1.0},
    ),
    "report-pair-string": lambda tmp: _eval_report_doc(
        per_pair={"1,0": 1.0, "2,0": "0.25", "2,1": 1.0},
    ),
    "report-n-eval-string": lambda tmp: _eval_report_doc(n_eval="10"),
    "report-n-eval-10.9": lambda tmp: _eval_report_doc(n_eval=10.9),
    "report-n-eval-true": lambda tmp: _eval_report_doc(n_eval=True),
    "report-untrained-heads-string": lambda tmp: _eval_report_doc(untrained_heads="01"),
    # head 7 at k=2
    "report-untrained-head-7": lambda tmp: _eval_report_doc(
        per_pair={"1,0": 1.0}, untrained_heads=[7]
    ),
    "report-split-bogus": lambda tmp: _eval_report_doc(split="bogus"),
    "report-schema-1": lambda tmp: {
        "kind": "eval_report", "schema_version": "1", "split": "test", "n_eval": 5, "k": 2,
        "epsilon_pehe": 1.0, "sqrt_pehe": 1.0, "per_pair": {"1,0": 1.0}, "zero_shot": None,
        "untrained_heads": [],
    },
}


@pytest.mark.parametrize("make", MALFORMED_RECORDS.values(), ids=MALFORMED_RECORDS)
def test_report_refuses_a_malformed_record_or_report(tmp_path, capsys, make):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(make(tmp_path)))
    code, stdout, err = run(capsys, "report", str(path))
    assert code == 3, err
    assert "bad.json" in err
    assert "+/-" not in stdout


@pytest.mark.parametrize("name", ["record-schema-1", "report-schema-1"])
def test_report_asks_to_re_run_a_schema_1_file(tmp_path, capsys, name):
    path = tmp_path / "old.json"
    path.write_text(json.dumps(MALFORMED_RECORDS[name](tmp_path)))
    code, _, err = run(capsys, "report", str(path))
    assert code == 3
    assert err.startswith(f"data error: {path}: unsupported")
    assert "re-run" in err


def _alternating_seeds_record_doc(tmp):
    # sqrt_pehe alternates 0 and ~1.3e154: a finite mean, but the squared
    # deviations behind the std sum past float max
    seeds = [_eval_report_doc(per_pair={"1,0": v}) for v in [0.0, 1.7e308] * 3]
    return _run_record_doc(tmp, per_seed=seeds)


# files whose figures overflow, or whose config is no experiment config:
# (exit code, part of the error message, document)
UNREPORTABLE_FILES = {
    "report-pair-mean-overflows": (
        3, "per_pair errors must be finite floats >= 0 with a finite mean",
        lambda tmp: _eval_report_doc(per_pair={"1,0": 1e308, "2,0": 1e308, "2,1": 1e308}),
    ),
    "record-aggregate-overflows": (4, "non-finite aggregate", _alternating_seeds_record_doc),
    "record-config-unknown-field": (
        3, "run record config: config: unknown fields ['anything']",
        lambda tmp: _run_record_doc(tmp, config={"anything": [1, 2]}),
    ),
}


@pytest.mark.parametrize("warnings_as_errors", [False, True], ids=["default", "W-error"])
@pytest.mark.parametrize("name", UNREPORTABLE_FILES)
def test_report_refuses_figures_that_overflow_and_a_config_that_is_not_one(
    tmp_path, name, warnings_as_errors
):
    code, message, make = UNREPORTABLE_FILES[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(make(tmp_path)))
    got, err = run_with_warnings_as_errors(
        "report", str(path), warnings_as_errors=warnings_as_errors
    )
    assert got == code, err
    assert message in err
    assert "Warning" not in err



# --- one exit-code rule ---


# each bad input's name: its exit code, a text that the last line on stderr
# holds, and a function that, given the test's directory and a trained
# run's dataset and checkpoint header, breaks one input and returns the
# command that reads it
BAD_INPUTS = {}


def bad_input(code, text=""):
    def register(make):
        BAD_INPUTS[make.__name__.replace("_", "-")] = (code, text, make)
        return make
    return register


def _evaluate(ds, ckpt):
    return ("evaluate", "--dataset", str(ds), "--checkpoint", str(ckpt))


def _flip_last_byte(path):
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x80
    path.write_bytes(bytes(data))


# 2: a config, from a file or a flag


@bad_input(2)
def config_not_json(tmp, ds, ckpt):
    (tmp / "cfg.json").write_text("{")
    return ("simulate", "--config", str(tmp / "cfg.json"), "--out", str(tmp / "ds2"))


@bad_input(2, "No such file or directory")
def config_missing(tmp, ds, ckpt):
    return ("simulate", "--config", str(tmp / "missing.json"), "--out", str(tmp / "ds2"))


@bad_input(2, "Is a directory")
def config_is_a_directory(tmp, ds, ckpt):
    return ("sweep", "--config", str(tmp), "--out", str(tmp / "sweep"), "--threads", "1")


@bad_input(2)
def flag_out_of_range(tmp, ds, ckpt):
    return ("train", "--dataset", str(ds), "--out", str(tmp / "run2"), "--epochs-max", "0")


# 3: any other input file


@bad_input(3)
def dataset_array_tampered(tmp, ds, ckpt):
    _flip_last_byte(ds / "covariates.npy")
    return ("train", "--dataset", str(ds), "--out", str(tmp / "run2"))


@bad_input(3, "sha256")
def checkpoint_sidecar_tampered(tmp, ds, ckpt):
    _flip_last_byte(ckpt.with_suffix(".npy"))
    return _evaluate(ds, ckpt)


@bad_input(3, "checkpoint.npy")
def checkpoint_sidecar_missing(tmp, ds, ckpt):
    ckpt.with_suffix(".npy").unlink()
    return _evaluate(ds, ckpt)


@bad_input(3)
def checkpoint_header_not_json(tmp, ds, ckpt):
    ckpt.write_text("{")
    return _evaluate(ds, ckpt)


@bad_input(3)
def eval_report_not_json(tmp, ds, ckpt):
    (tmp / "report.json").write_text("{")
    return ("report", str(tmp / "report.json"))


@bad_input(3)
def eval_report_not_utf8(tmp, ds, ckpt):
    (tmp / "report.json").write_bytes(b"\xff{}")
    return ("report", str(tmp / "report.json"))


@bad_input(3)
def run_record_empty(tmp, ds, ckpt):
    (tmp / "record.json").write_text("{}")
    return ("report", str(tmp / "record.json"))


@bad_input(3)
def covariate_csv_empty(tmp, ds, ckpt):
    (tmp / "emb.csv").write_text("")
    return (
        "simulate", "--out", str(tmp / "ds2"), "--n", "10", "--d", "3", "--k", "2",
        "--covariate-file", str(tmp / "emb.csv"),
    )


# 4: a non-finite value, also one read from a file, or a divergence


@bad_input(4, "non-finite parameters")
def checkpoint_sidecar_nan(tmp, ds, ckpt):
    # a NaN recorded under its own sha256: the file is intact, the model is not
    sidecar = ckpt.with_suffix(".npy")
    vec = np.load(sidecar)
    vec[5] = np.nan
    np.save(sidecar, vec)
    doc = json.loads(ckpt.read_text())
    ckpt.write_text(json.dumps(
        {**doc, "params_sha256": hashlib.sha256(sidecar.read_bytes()).hexdigest()}
    ))
    return _evaluate(ds, ckpt)


@bad_input(4)
def sweep_all_diverged(tmp, ds, ckpt):
    cfg = tmp / "sweep.json"
    cfg.write_text(json.dumps(
        {"base": FORWARD_OVERFLOW_CONFIG, "grid": {"train.base_lr": [1.95, 2.0]}}
    ))
    return ("sweep", "--config", str(cfg), "--out", str(tmp / "sweep"), "--threads", "1")


EXIT_LABELS = {2: "config error", 3: "data error", 4: "numeric error"}


# any warning, such as numpy's on an empty CSV, fails the command (exit 1)
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", BAD_INPUTS)
def test_each_kind_of_bad_input_gives_its_exit_code(tmp_path, capsys, name):
    code, text, make = BAD_INPUTS[name]
    ds = simulate_small(capsys, tmp_path / "ds")
    out = tmp_path / "run"
    got, _, err = run(capsys, "train", "--dataset", str(ds), "--out", str(out), "--epochs-max", "1")
    assert got == 0, err
    got, _, err = run(capsys, *make(tmp_path, ds, out / "checkpoint.json"))
    assert got == code, err
    # the last line on stderr names the class of the failure; only a
    # sweep's progress lines come before it
    *progress, last = err.splitlines()
    assert last.startswith(EXIT_LABELS[code] + ": "), err
    assert text in last, err
    assert all(line.startswith("sweep: trial ") for line in progress), err

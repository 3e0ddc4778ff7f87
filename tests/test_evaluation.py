import dataclasses
import json
import math

import numpy as np
import pytest

from ite_bench.errors import ConfigError, DataError, ShapeError
from ite_bench.experiments import ExperimentConfig, _fit_repeat, run_experiment
from ite_bench.metrics import (
    EvalReport,
    evaluate_model,
    ite_matrix,
    pehe,
    zero_shot_pehe,
)
from ite_bench.cli import main
from ite_bench.model import ModelShape, OutcomeModel, TrainConfig, build_model
from ite_bench.simulate import SimConfig, save_dataset, simulate_dataset


def brute_force_pehe(y_hat, y_true):
    """Triple-loop reference implementation in plain Python floats."""
    n = len(y_hat)
    k = len(y_hat[0])
    pair_errors = []
    for a in range(k):
        for b in range(a):
            total = 0.0
            for i in range(n):
                diff = (y_hat[i][a] - y_hat[i][b]) - (y_true[i][a] - y_true[i][b])
                total += diff * diff
            pair_errors.append(total / n)
    return sum(pair_errors) / len(pair_errors)


def tiny_shape():
    return ModelShape(
        cov_layers=2, cov_width=8, cov_out=4,
        treat_layers=1, treat_width=4, treat_out=3,
        head_layers=1, head_width=4,
        activation="elu", dropout_rate=0.0,
    )


# --- effect matrices ---


def test_ite_matrix_pairs():
    y = np.array([[1.0, 4.0, 9.0], [0.0, 2.0, 5.0]])
    taus = ite_matrix(y)
    assert set(taus) == {(1, 0), (2, 0), (2, 1)}
    np.testing.assert_array_equal(taus[(1, 0)], [3.0, 2.0])
    np.testing.assert_array_equal(taus[(2, 0)], [8.0, 5.0])
    np.testing.assert_array_equal(taus[(2, 1)], [5.0, 3.0])


def test_ite_matrix_shape_checks():
    with pytest.raises(ShapeError):
        ite_matrix(np.zeros(4))
    with pytest.raises(ShapeError):
        ite_matrix(np.zeros((3, 1)))
    with pytest.raises(ShapeError):
        ite_matrix(np.zeros((0, 2)))


# --- pehe ---


def test_pehe_hand_case():
    result = pehe([[1.0, 0.0]], [[0.0, 0.0]])
    assert result.epsilon == 1.0
    assert result.root == 1.0
    assert result.per_pair == {(1, 0): 1.0}


def test_pehe_matches_brute_force_on_random_matrices():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        y_hat = rng.integers(-3, 4, size=(n, k)).astype(float)
        y_true = rng.integers(-3, 4, size=(n, k)).astype(float)
        expected = brute_force_pehe(y_hat.tolist(), y_true.tolist())
        result = pehe(y_hat, y_true)
        assert abs(result.epsilon - expected) <= 1e-12
        assert abs(result.root - math.sqrt(expected)) <= 1e-12


def test_per_pair_errors_average_to_epsilon():
    rng = np.random.default_rng(5)
    result = pehe(rng.normal(size=(20, 4)), rng.normal(size=(20, 4)))
    assert len(result.per_pair) == 6
    assert abs(np.mean(list(result.per_pair.values())) - result.epsilon) <= 1e-12


def test_pehe_invariances():
    rng = np.random.default_rng(9)
    y_hat = rng.normal(size=(15, 3))
    y_true = rng.normal(size=(15, 3))
    base = pehe(y_hat, y_true).epsilon
    # a per-user offset shared by all treatments cancels out of every effect
    shifted = pehe(y_hat + rng.normal(size=(15, 1)), y_true).epsilon
    assert abs(shifted - base) <= 1e-10
    # relabeling treatments consistently permutes the pairs only
    perm = np.array([2, 0, 1])
    relabeled = pehe(y_hat[:, perm], y_true[:, perm]).epsilon
    assert abs(relabeled - base) <= 1e-12


def test_constant_column_error_closed_form():
    rng = np.random.default_rng(3)
    y_true = rng.normal(size=(30, 3))
    e = np.array([0.5, -0.5, 2.0])
    result = pehe(y_true + e[None, :], y_true)
    for (a, b), value in result.per_pair.items():
        assert value == pytest.approx((e[a] - e[b]) ** 2, abs=1e-12)


# --- zero-shot pehe ---


def test_zero_shot_is_mean_over_pairs_containing_z():
    rng = np.random.default_rng(7)
    y_hat = rng.normal(size=(25, 4))
    y_true = rng.normal(size=(25, 4))
    per_pair = pehe(y_hat, y_true).per_pair
    for z in range(4):
        zs = zero_shot_pehe(y_hat, y_true, z)
        relevant = [v for pair, v in per_pair.items() if z in pair]
        assert len(relevant) == 3
        assert abs(zs.epsilon - np.mean(relevant)) <= 1e-12
        assert abs(zs.root - math.sqrt(zs.epsilon)) <= 1e-15


def test_zero_shot_equals_pehe_for_two_treatments():
    rng = np.random.default_rng(2)
    y_hat = rng.normal(size=(10, 2))
    y_true = rng.normal(size=(10, 2))
    full = pehe(y_hat, y_true)
    for z in (0, 1):
        assert zero_shot_pehe(y_hat, y_true, z).epsilon == pytest.approx(
            full.epsilon, abs=1e-15
        )


def test_zero_predictor_zero_shot_closed_form():
    rng = np.random.default_rng(11)
    y_true = rng.normal(size=(40, 3))
    z = 1
    zs = zero_shot_pehe(np.zeros_like(y_true), y_true, z)
    expected = np.mean(
        [np.mean((y_true[:, a] - y_true[:, z]) ** 2) for a in (0, 2)]
    )
    assert zs.epsilon == pytest.approx(float(expected), abs=1e-12)


def test_zero_shot_range_check():
    y = np.zeros((3, 3))
    with pytest.raises(ConfigError):
        zero_shot_pehe(y, y, 3)
    with pytest.raises(ConfigError):
        zero_shot_pehe(y, y, -1)


# --- reports ---


def test_eval_report_round_trip():
    ds = simulate_dataset(SimConfig(n=200, d=5, k=3, seed=4))
    model = build_model(5, 3, tiny_shape(), "joint", rng=0)
    report = evaluate_model(model, ds, split="test", zero_shot_z=2)
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["kind"] == "eval_report"
    assert doc["schema_version"] == "1"
    back = EvalReport.from_dict(doc)
    assert back.epsilon_pehe == report.epsilon_pehe
    assert back.per_pair == report.per_pair
    assert back.zero_shot == report.zero_shot
    assert back.zero_shot["z"] == 2
    assert back.zero_shot["head_z_trained"] is False  # freshly built: no updates
    assert back.untrained_heads == report.untrained_heads == [0, 1, 2]
    # a model built without a record counts zero updates for every head
    bare = OutcomeModel(model.cov_net, model.treat_net, model.heads)
    assert evaluate_model(bare, ds, split="test").untrained_heads == [0, 1, 2]
    # a stored null still reads back
    assert EvalReport.from_dict({**doc, "untrained_heads": None}).untrained_heads is None


def test_eval_report_validate_catches_inconsistency():
    report = EvalReport(
        split="test", n_eval=10, k=2,
        epsilon_pehe=1.0, sqrt_pehe=1.0, per_pair={(1, 0): 1.0},
    )
    report.validate()
    with pytest.raises(DataError):
        dataclasses.replace(report, epsilon_pehe=2.0).validate()
    with pytest.raises(DataError):
        dataclasses.replace(report, sqrt_pehe=0.3).validate()
    with pytest.raises(DataError):
        dataclasses.replace(report, n_eval=0).validate()


def test_evaluate_model_audits_truth_reads():
    ds = simulate_dataset(SimConfig(n=200, d=5, k=3, seed=4))
    model = build_model(5, 3, tiny_shape(), "joint", rng=0)
    assert ds.truth_reads == {}
    evaluate_model(model, ds, split="val")
    evaluate_model(model, ds, split="test")
    assert ds.truth_reads == {"val": 1, "test": 1}


def test_evaluate_model_error_paths():
    ds = simulate_dataset(SimConfig(n=200, d=5, k=3, seed=4))
    wrong_k = build_model(5, 2, tiny_shape(), "joint", rng=0)
    with pytest.raises(ShapeError):
        evaluate_model(wrong_k, ds)
    model = build_model(5, 3, tiny_shape(), "joint", rng=0)
    empty = dataclasses.replace(
        ds, splits={**ds.splits, "test": np.array([], dtype=np.int64)}
    )
    with pytest.raises(DataError):
        evaluate_model(model, empty)


# --- zero-shot protocol ---


def zero_shot_fit(ds, shape, cfg, z, variant="joint"):
    """run_experiment's repeat 0 with treatment z held out of fitting: the
    fit, and the test report that scores every treatment."""
    exp = ExperimentConfig(shape=shape, train=cfg, variant=variant, zero_shot=z)
    trained = _fit_repeat(exp, ds, 0)
    return evaluate_model(trained.model, ds, split="test", zero_shot_z=z), trained


def test_protocol_zero_model_matches_direct_computation(zero_init):
    ds = simulate_dataset(SimConfig(n=300, d=5, k=3, seed=6))
    cfg = TrainConfig(alpha=1.0, beta=0.5, epochs_max=0, batch_size=64)
    report, trained = zero_shot_fit(ds, tiny_shape(), cfg, z=1)
    assert trained.best_epoch is None
    y_true = ds.Y_expected[ds.splits["test"]]
    expected = pehe(np.zeros_like(y_true), y_true)
    assert report.epsilon_pehe == pytest.approx(expected.epsilon, abs=1e-12)
    zs = zero_shot_pehe(np.zeros_like(y_true), y_true, 1)
    assert report.zero_shot["epsilon_zs"] == pytest.approx(zs.epsilon, abs=1e-12)
    assert report.zero_shot["z"] == 1
    assert report.split == "test"


@pytest.mark.parametrize("variant", ["joint", "tarnet"])
def test_held_out_head_receives_no_gradient_updates(variant):
    ds = simulate_dataset(SimConfig(n=400, d=5, k=3, seed=8))
    cfg = TrainConfig(
        alpha=1.0, beta=0.5, epochs_max=3, batch_size=32, base_lr=0.05, seed=3
    )
    report, trained = zero_shot_fit(ds, tiny_shape(), cfg, z=2, variant=variant)
    norms = np.asarray(trained.history.head_grad_norms)
    assert norms.shape == (3, 3)
    assert not norms[:, 2].any()  # held-out head: zero gradient updates
    assert norms[:, 0].all() and norms[:, 1].all()
    assert trained.model.head_updates[2] == 0
    assert report.zero_shot["z"] == 2
    assert report.zero_shot["head_z_trained"] is False


@pytest.mark.parametrize("variant", ["joint", "tarnet"])
def test_evaluate_cli_on_checkpoint_matches_protocol(tmp_path, capsys, variant):
    ds = simulate_dataset(SimConfig(n=300, d=5, k=3, seed=8))
    cfg = ExperimentConfig(
        sim=ds.config, shape=tiny_shape(),
        train=TrainConfig(epochs_max=3, batch_size=32, base_lr=0.05, seed=3),
        variant=variant, zero_shot=1,
    )
    record = run_experiment(cfg, datasets=[ds], out_dir=tmp_path / "run")
    report = record.per_seed[0]
    save_dataset(ds, tmp_path / "ds")
    code = main([
        "evaluate", "--dataset", str(tmp_path / "ds"),
        "--checkpoint", str(tmp_path / "run" / "checkpoint_rep0.json"),
        "--zero-shot", "1", "--out", str(tmp_path / "report.json"),
    ])
    assert code == 0
    assert "head 1 received no training updates" in capsys.readouterr().out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["zero_shot"] == report.zero_shot
    assert doc["zero_shot"]["head_z_trained"] is False
    assert doc["sqrt_pehe"] == report.sqrt_pehe


def test_protocol_error_paths():
    ds = simulate_dataset(SimConfig(n=200, d=5, k=2, seed=9))
    cfg = TrainConfig(epochs_max=1)
    with pytest.raises(ConfigError):
        zero_shot_fit(ds, tiny_shape(), cfg, z=5)
    # rewire observed treatments so treatment 1 never appears in fitting splits
    t = ds.t_obs.copy()
    for split in ("train", "val"):
        t[ds.splits[split]] = 0
    missing = dataclasses.replace(
        ds,
        t_obs=t,
        y_factual=ds.Y_sampled[np.arange(ds.n), t],
        config=None,
    )
    with pytest.raises(DataError):
        zero_shot_fit(missing, tiny_shape(), cfg, z=1)

import dataclasses
import json
import math

import numpy as np
import pytest

from ite_bench.errors import ConfigError, DataError, NumericError, ShapeError
from ite_bench.experiments import ExperimentConfig, _fit_repeat, run_experiment
from ite_bench.metrics import (
    EvalReport,
    evaluate_model,
    ite_matrix,
    pehe,
)
from ite_bench.cli import main
from ite_bench.model import ModelShape, OutcomeModel, TrainConfig, build_model
from ite_bench.simulate import SimConfig, save_dataset, simulate_dataset

from gradcheck import brute_force_pehe


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
    with pytest.raises(ShapeError, match="shape mismatch"):
        pehe([[1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])


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


def zero_shot_report(y_hat, y_true, z):
    per_pair = pehe(y_hat, y_true).per_pair
    return EvalReport("test", len(y_true), per_pair, [], zero_shot_z=z)


def test_zero_shot_is_mean_over_pairs_containing_z():
    rng = np.random.default_rng(7)
    y_hat = rng.normal(size=(25, 4))
    y_true = rng.normal(size=(25, 4))
    for z in range(4):
        report = zero_shot_report(y_hat, y_true, z)
        # the k-1 effects against z, computed from the outcomes
        relevant = [
            np.mean(((y_hat[:, a] - y_hat[:, z]) - (y_true[:, a] - y_true[:, z])) ** 2)
            for a in range(4) if a != z
        ]
        assert len(relevant) == 3
        assert abs(report.epsilon_zs - np.mean(relevant)) <= 1e-12
        assert abs(report.sqrt_pehe_zs - math.sqrt(report.epsilon_zs)) <= 1e-15


def test_zero_shot_equals_pehe_for_two_treatments():
    rng = np.random.default_rng(2)
    y_hat = rng.normal(size=(10, 2))
    y_true = rng.normal(size=(10, 2))
    full = pehe(y_hat, y_true)
    for z in (0, 1):
        assert zero_shot_report(y_hat, y_true, z).epsilon_zs == pytest.approx(
            full.epsilon, abs=1e-15
        )


def test_zero_predictor_zero_shot_closed_form():
    rng = np.random.default_rng(11)
    y_true = rng.normal(size=(40, 3))
    z = 1
    report = zero_shot_report(np.zeros_like(y_true), y_true, z)
    expected = np.mean(
        [np.mean((y_true[:, a] - y_true[:, z]) ** 2) for a in (0, 2)]
    )
    assert report.epsilon_zs == pytest.approx(float(expected), abs=1e-12)


def test_zero_shot_range_check():
    ds = simulate_dataset(SimConfig(n=200, d=5, k=3, seed=4))
    model = build_model(5, 3, tiny_shape(), "joint", rng=0)
    for z in (3, -1):
        with pytest.raises(ConfigError, match="out of range"):
            evaluate_model(model, ds, zero_shot_z=z)
        y = np.zeros((3, 3))
        with pytest.raises(DataError, match="zero_shot_z"):
            zero_shot_report(y, y, z)


def test_zero_shot_treatment_must_be_an_int():
    # 1.7 and True once both reported zero_shot_z 1; a numpy int is refused
    # as a report field would refuse it
    ds = simulate_dataset(SimConfig(n=200, d=5, k=3, seed=4))
    model = build_model(5, 3, tiny_shape(), "joint", rng=0)
    for z in (1.7, True, False, "1", np.int64(1), [1]):
        with pytest.raises(ConfigError, match="zero_shot_z must be an int treatment index"):
            evaluate_model(model, ds, zero_shot_z=z)
    assert evaluate_model(model, ds, zero_shot_z=0).zero_shot_z == 0


# --- reports ---


def test_eval_report_round_trip():
    ds = simulate_dataset(SimConfig(n=200, d=5, k=3, seed=4))
    model = build_model(5, 3, tiny_shape(), "joint", rng=0)
    report = evaluate_model(model, ds, split="test", zero_shot_z=2)
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["kind"] == "eval_report"
    assert doc["schema_version"] == "2"
    back = EvalReport.from_dict(doc)
    assert back.epsilon_pehe == report.epsilon_pehe
    assert back.per_pair == report.per_pair
    assert back.zero_shot_z == report.zero_shot_z == 2
    assert back.head_z_trained is False  # freshly built: no updates
    assert back.untrained_heads == report.untrained_heads == [0, 1, 2]
    # a model built without a record counts zero updates for every head
    bare = OutcomeModel(model.shape, model.input_dim, model.k, model.variant, model.theta)
    assert evaluate_model(bare, ds, split="test").untrained_heads == [0, 1, 2]
    # every report lists its untrained heads: a null is no longer read
    with pytest.raises(DataError, match="untrained_heads"):
        EvalReport.from_dict({**doc, "untrained_heads": None})


def test_k12_report_round_trip_keeps_every_figure_bit_for_bit():
    rng = np.random.default_rng(10)
    y_hat, y_true = rng.normal(size=(9, 12)), rng.normal(size=(9, 12))
    result = pehe(y_hat, y_true)
    report = EvalReport("test", 9, result.per_pair, [], zero_shot_z=0)
    # as write_json_atomic writes it: "10,0" sorts before "2,0"
    doc = json.loads(json.dumps(report.to_dict(), sort_keys=True))
    back = EvalReport.from_dict(doc)
    assert (back.sqrt_pehe, back.epsilon_pehe) == (result.root, result.epsilon)
    assert back.sqrt_pehe_zs == report.sqrt_pehe_zs
    assert back.epsilon_zs == report.epsilon_zs
    # averaged in the file's key order, both figures differ in the last bit
    in_file_order = list(doc["per_pair"].values())
    assert math.sqrt(float(np.mean(in_file_order))) != result.root
    with_0 = [v for key, v in doc["per_pair"].items() if "0" in key.split(",")]
    assert math.sqrt(float(np.mean(with_0))) != report.sqrt_pehe_zs


def test_eval_report_validate_catches_inconsistency():
    report = EvalReport(split="test", n_eval=10, per_pair={(1, 0): 1.0}, untrained_heads=[])
    assert (report.k, report.epsilon_pehe, report.sqrt_pehe) == (2, 1.0, 1.0)
    for bad in (
        {"n_eval": 0}, {"n_eval": "10"}, {"n_eval": 10.9}, {"n_eval": True},
        {"split": "bogus"},
        {"per_pair": {(1, 0): -1.0}}, {"per_pair": {(1, 0): math.nan}},
        {"per_pair": {(1, 0): math.inf}}, {"per_pair": {(1, 0): "0.25"}},
        {"per_pair": {(1, 0): 1}}, {"per_pair": {(1, 0): None}},
        {"untrained_heads": "01"}, {"untrained_heads": [7]}, {"untrained_heads": [1, 0]},
        {"untrained_heads": [0, 0]}, {"untrained_heads": [True]}, {"untrained_heads": None},
    ):
        with pytest.raises(DataError, match=next(iter(bad))):
            dataclasses.replace(report, **bad)
    # the pairs must be exactly those of k treatments, not just as many
    for pairs in ({}, {(0, 1): 1.0}, {(9, 5): 1.0}, {(1, 0): 1.0, (2, 0): 1.0}):
        with pytest.raises(DataError, match="per_pair"):
            dataclasses.replace(report, per_pair=pairs)


@pytest.mark.parametrize(
    "zero_shot",
    # valid at k=2 are null, 0 and 1; a report file can hold every other value here
    [
        {"zero_shot_z": z}
        for z in (2, 3, -1, True, False, 1.0, 0.0, "1", "01", [1], {"z": 1}, math.nan,
                  math.inf, 1.5)
    ],
)
def test_eval_report_validate_checks_the_zero_shot_block(zero_shot):
    report = EvalReport(
        split="test", n_eval=10, per_pair={(1, 0): 0.25}, untrained_heads=[1], zero_shot_z=1,
    )
    assert (report.epsilon_zs, report.sqrt_pehe_zs, report.head_z_trained) == (0.25, 0.5, False)
    assert dataclasses.replace(report, zero_shot_z=0).head_z_trained is True
    plain = dataclasses.replace(report, zero_shot_z=None)
    assert (plain.epsilon_zs, plain.sqrt_pehe_zs, plain.head_z_trained) == (None, None, None)
    with pytest.raises(DataError, match="zero_shot_z"):
        EvalReport.from_dict({**report.to_dict(), **zero_shot})


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
    val, test = ds.splits["val"], ds.splits["test"]
    empty = dataclasses.replace(
        ds, splits={**ds.splits, "val": np.concatenate([val, test]), "test": test[:0]}
    )
    with pytest.raises(DataError):
        evaluate_model(model, empty)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_effect_errors_that_overflow_raise_numeric_error():
    ds = simulate_dataset(SimConfig(n=200, d=5, k=3, seed=4))
    model = build_model(5, 3, tiny_shape(), "tarnet", rng=0)
    # head 2's bias: finite predictions near 1e200, whose squared effect
    # errors overflow
    model.views(model.theta)[-1][-1][1][2] = 1e200
    with pytest.raises(NumericError, match="non-finite effect errors"):
        evaluate_model(model, ds)


# --- zero-shot protocol ---


def zero_shot_fit(ds, shape, cfg, z, variant="joint"):
    """run_experiment's repeat 0 with treatment z held out of fitting: the
    fit, and the test report that scores every treatment."""
    exp = ExperimentConfig(model=shape, train=cfg, variant=variant, zero_shot=z)
    trained = _fit_repeat(exp, ds, 0)
    return evaluate_model(trained.model, ds, split="test", zero_shot_z=z), trained


def test_protocol_zero_model_matches_direct_computation(zero_init):
    ds = simulate_dataset(SimConfig(n=300, d=5, k=3, seed=6))
    cfg = TrainConfig(alpha=1.0, beta=0.5, epochs_max=0, batch_size=64)
    report, trained = zero_shot_fit(ds, tiny_shape(), cfg, z=1)
    assert trained.best_epoch is None
    y_true = ds.expected_outcomes("test")
    expected = pehe(np.zeros_like(y_true), y_true)
    assert report.epsilon_pehe == pytest.approx(expected.epsilon, abs=1e-12)
    zs = np.mean([np.mean((y_true[:, a] - y_true[:, 1]) ** 2) for a in (0, 2)])
    assert report.epsilon_zs == pytest.approx(float(zs), abs=1e-12)
    assert report.zero_shot_z == 1
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
    assert report.zero_shot_z == 2
    assert report.head_z_trained is False


@pytest.mark.parametrize("variant", ["joint", "tarnet"])
def test_evaluate_cli_on_checkpoint_matches_protocol(tmp_path, capsys, variant):
    ds = simulate_dataset(SimConfig(n=300, d=5, k=3, seed=8))
    cfg = ExperimentConfig(
        sim=ds.config, model=tiny_shape(),
        train=TrainConfig(epochs_max=3, batch_size=32, base_lr=0.05, seed=3),
        variant=variant, zero_shot=1,
    )
    record = run_experiment(cfg, out_dir=tmp_path / "run")
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
    assert doc["zero_shot_z"] == 1
    assert EvalReport.from_dict(doc).head_z_trained is False
    assert EvalReport.from_dict(doc).sqrt_pehe == report.sqrt_pehe


def test_protocol_error_paths():
    ds = simulate_dataset(SimConfig(n=200, d=5, k=2, seed=9))
    cfg = TrainConfig(epochs_max=1)
    with pytest.raises(ConfigError):
        zero_shot_fit(ds, tiny_shape(), cfg, z=5)
    # rewire observed treatments so treatment 1 never appears in fitting splits
    t = ds.t_obs.copy()
    for split in ("train", "val"):
        t[ds.splits[split]] = 0
    missing = dataclasses.replace(ds, t_obs=t)
    with pytest.raises(DataError):
        zero_shot_fit(missing, tiny_shape(), cfg, z=1)

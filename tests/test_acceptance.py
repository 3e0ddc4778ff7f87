"""End-to-end acceptance gate: nine checks, one test and one printed
PASS/FAIL line per check.

Checks 1-5, 8, and 9 are oracle- and property-based. Checks 6 and 7 compare
the joint model (treatment network plus distribution-balancing penalty,
alpha=1, beta=0.5) with the treatment-blind tarnet ablation at desk scale,
over five simulation seeds, on test sqrt-PEHE (check 6) and on zero-shot
sqrt-PEHE for a treatment held out of fitting (check 7). Both variants train
at the README's default schedule (TrainConfig() with seed 100).

Each check asserts two things:

- every variant learns effects: its mean beats the zero-effect predictor,
  which predicts 0 for every outcome;
- the ablation is not beaten: its mean is at most joint's, and it is
  better on at least 4 of 5 seeds.

The second is the direction this design determines. batch_loss routes head
t only the rows observed under t, so head t only ever sees psi(T_emb[t]),
which is constant apart from dropout noise. The treatment network therefore
adds no more than a per-head bias, and the two variants differ only by the
balance penalty, which costs factual accuracy. The simulated outcome is
linear in x for each treatment, which per-treatment heads on phi(x) fit
directly. Measured: check 6 tarnet 0.466, joint 0.557, zero-effect 0.667;
check 7 tarnet 0.568, joint 0.607, zero-effect 0.643; tarnet better on 5 of
5 seeds in both.

In check 7 the held-out head receives no update in either variant, so its
column is the mean of the trained heads (predict_all_outcomes); for joint
those heads see psi(T_emb[z]), so the held-out embedding reaches the score.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from gradcheck import (
    assert_grads_close,
    brute_force_pehe,
    central_difference,
    empty_grads,
    flatten_grads,
    flatten_params,
    glorot_mlp,
    unflatten_params,
)
from ite_bench.experiments import ExperimentConfig, _fit_repeat
from ite_bench.metrics import (
    evaluate_model,
    pair_mean,
    pehe,
)
from ite_bench.mmd import treatment_regularization_loss
from ite_bench.model import (
    Batch,
    ModelShape,
    TrainConfig,
    batch_loss,
    build_model,
    save_checkpoint,
    train,
)
from ite_bench.nn import mlp_backward, mlp_forward
from ite_bench.simulate import (
    SimConfig,
    assign_treatments,
    assignment_probabilities,
    kmeans,
    sample_outcome_params,
    save_dataset,
    simulate_dataset,
)

# Desk-scale comparison configuration shared by checks 6 and 7: the paper-free
# equivalent of a small laptop run. Both variants get the same shape and
# schedule; only the variant flag differs.
DESK_SHAPE = ModelShape(
    cov_layers=2,
    cov_width=64,
    cov_out=32,
    treat_layers=2,
    treat_width=32,
    treat_out=16,
    head_layers=2,
    head_width=32,
    activation="elu",
    dropout_rate=0.1,
)
# README default schedule (batch 128, up to 100 epochs, patience 10)
DESK_TRAIN = TrainConfig(alpha=1.0, beta=0.5, seed=100)
DESK_SIM_SEEDS = (0, 1, 2, 3, 4)


def desk_sim_config(seed):
    return SimConfig(n=2000, d=32, k=4, c=5.0, kappa=10.0, seed=seed)


def report(n, name, ok, detail):
    print(f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# 1. gradient suite


def _check_mlp_gradients(rng, dims, activation, dropout, mask_seed):
    params = glorot_mlp(dims, activation, dropout, rng=rng)
    x = rng.standard_normal((4, dims[0]))
    upstream = rng.standard_normal((4, dims[-1]))

    def objective(vec):
        p = unflatten_params(params, vec)
        mask_rng = np.random.default_rng(mask_seed) if dropout else None
        out, _ = mlp_forward(p, x, rng=mask_rng)
        return float((out * upstream).sum())

    mask_rng = np.random.default_rng(mask_seed) if dropout else None
    _, cache = mlp_forward(params, x, rng=mask_rng)
    grads = empty_grads(params)
    mlp_backward(params, cache, upstream, grads)
    fd = central_difference(objective, flatten_params(params))
    assert_grads_close(flatten_grads(grads), fd, rtol=1e-4)


def _check_mmd_gradients(rng):
    dim = int(rng.integers(1, 9))
    na = int(rng.integers(1, 6))
    nb = int(rng.integers(1, 6))
    a = rng.standard_normal((na, dim))
    b = rng.standard_normal((nb, dim))
    bandwidth = float(rng.uniform(0.5, 2.0))
    _, grads = treatment_regularization_loss({0: a, 1: b}, bandwidth)

    def objective(vec):
        av = vec[: na * dim].reshape(na, dim)
        bv = vec[na * dim :].reshape(nb, dim)
        return treatment_regularization_loss({0: av, 1: bv}, bandwidth)[0]

    fd = central_difference(objective, np.concatenate([a.ravel(), b.ravel()]))
    assert_grads_close(
        np.concatenate([grads[0].ravel(), grads[1].ravel()]), fd, rtol=1e-4
    )


def _check_batch_loss_gradients(rng, variant, activation, dropout, mask_seed):
    shape = ModelShape(
        cov_layers=2,
        cov_width=4,
        cov_out=2,
        treat_layers=2,
        treat_width=3,
        treat_out=2,
        head_layers=2,
        head_width=3,
        activation=activation,
        dropout_rate=dropout,
    )
    model = build_model(3, 2, shape, variant, rng=rng)
    t_emb = rng.standard_normal((2, 3))
    t = np.array([0, 1, 0, 1, 0])
    batch = Batch(x=rng.standard_normal((5, 3)), t=t, y=rng.standard_normal(5))
    # Bandwidth held fixed so finite differences see the same constant the
    # analytic gradient treats it as (the median heuristic is not
    # differentiated through).
    cfg = TrainConfig(alpha=1.0, beta=0.5, batch_size=5, bandwidth=0.9, seed=0)
    res = batch_loss(model, batch, t_emb, cfg, dropout_seed=mask_seed)

    def objective(vec):
        return batch_loss(
            replace(model, theta=vec), batch, t_emb, cfg, dropout_seed=mask_seed
        ).total

    # fd perturbs theta itself, so agreement also checks the gradient's layout
    fd = central_difference(objective, model.theta)
    assert_grads_close(res.grad, fd, rtol=1e-4)


def test_01_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240501)
    instances = 0
    mlp_cases = [
        ([3, 5, 2], "tanh", 0.0, None),
        ([4, 4, 4, 1], "tanh", 0.0, None),
        ([2, 6, 3], "elu", 0.0, None),
        ([5, 3, 3, 2], "elu", 0.0, None),
        ([3, 8, 2], "tanh", 0.3, 11),
        ([4, 5, 5, 1], "elu", 0.25, 12),
        ([6, 4, 3], "elu", 0.0, None),
        ([2, 2, 2, 2], "tanh", 0.0, None),
    ]
    for dims, act, drop, seed in mlp_cases:
        _check_mlp_gradients(rng, dims, act, drop, seed)
        instances += 1
    for _ in range(8):
        _check_mmd_gradients(rng)
        instances += 1
    loss_cases = [
        ("joint", "tanh", 0.0, None),
        ("joint", "elu", 0.0, None),
        ("joint", "elu", 0.2, 7),
        ("tarnet", "tanh", 0.0, None),
        ("tarnet", "elu", 0.0, None),
        ("tarnet", "elu", 0.2, 8),
    ]
    for variant, act, drop, seed in loss_cases:
        _check_batch_loss_gradients(rng, variant, act, drop, seed)
        instances += 1
    elapsed = time.perf_counter() - t0
    ok = instances >= 20 and elapsed < 30.0
    report(1, "gradient-suite", ok, f"{instances} instances, {elapsed:.1f}s")
    assert instances >= 20
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 2. closed-form kernel-discrepancy oracles


def test_02_mmd_closed_forms():
    two_point, grads = treatment_regularization_loss({0: [[0.0]], 1: [[1.0]]}, 1.0)
    expected_two_point = 2.0 - 2.0 * math.exp(-0.5)
    err1 = abs(two_point - expected_two_point)

    ga, gb = grads[0], grads[1]
    err2 = max(abs(ga[0, 0] + 2.0 * math.exp(-0.5)), abs(gb[0, 0] - 2.0 * math.exp(-0.5)))

    groups = {0: [[0.0]], 1: [[1.0]], 2: [[2.0]]}
    three_group, _ = treatment_regularization_loss(groups, 1.0)
    near = 2.0 - 2.0 * math.exp(-0.5)
    far = 2.0 - 2.0 * math.exp(-2.0)
    err3 = abs(three_group - (2.0 * near + far) / 3.0)

    same = np.arange(6.0).reshape(3, 2)
    identical, _ = treatment_regularization_loss({0: same, 1: same.copy()}, 1.0)

    ok = err1 <= 1e-9 and err2 <= 1e-9 and err3 <= 1e-9 and abs(identical) <= 1e-12
    report(
        2,
        "mmd-closed-forms",
        ok,
        f"errs {err1:.1e}/{err2:.1e}/{err3:.1e}, identical {identical:.1e}",
    )
    assert err1 <= 1e-9
    assert err2 <= 1e-9
    assert err3 <= 1e-9
    assert abs(identical) <= 1e-12


# ---------------------------------------------------------------------------
# 3. effect-error metric vs brute force


def _brute_force_zero_shot(y_hat, y_true, z):
    n, k = len(y_hat), len(y_hat[0])
    pair_errors = []
    for a in range(k):
        if a != z:
            total = 0.0
            for i in range(n):
                tau_hat = y_hat[i][a] - y_hat[i][z]
                tau = y_true[i][a] - y_true[i][z]
                total += (tau_hat - tau) ** 2
            pair_errors.append(total / n)
    return sum(pair_errors) / len(pair_errors)


def test_03_pehe_brute_force():
    rng = np.random.default_rng(33)
    worst_eps = 0.0
    worst_zs = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        y_hat = rng.integers(-2, 3, size=(n, k)).astype(float)
        y_true = rng.integers(-2, 3, size=(n, k)).astype(float)
        result = pehe(y_hat, y_true)
        brute = brute_force_pehe(y_hat.tolist(), y_true.tolist())
        worst_eps = max(worst_eps, abs(result.epsilon - brute))
        for z in range(k):
            epsilon_zs = pair_mean(result.per_pair, z)[0]
            brute_zs = _brute_force_zero_shot(y_hat.tolist(), y_true.tolist(), z)
            worst_zs = max(worst_zs, abs(epsilon_zs - brute_zs))
    ok = worst_eps <= 1e-12 and worst_zs <= 1e-12
    report(
        3,
        "pehe-brute-force",
        ok,
        f"100 cases, max err {worst_eps:.1e}, zero-shot max err {worst_zs:.1e}",
    )
    assert worst_eps <= 1e-12
    assert worst_zs <= 1e-12


# ---------------------------------------------------------------------------
# 4. simulator statistics


def test_04_simulator_statistics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    y = rng.standard_normal((500, 6))
    kappa = rng.uniform(0.5, 20.0, size=6)
    p = assignment_probabilities(y, kappa)
    sum_err = float(np.abs(p.sum(axis=1) - 1.0).max())

    k = 4
    draws = 100_000
    t_obs = assign_treatments(np.zeros((draws, k)), np.full(k, 7.0), rng=99)
    freqs = np.bincount(t_obs, minlength=k) / draws
    sigma = math.sqrt((1 / k) * (1 - 1 / k) / draws)
    freq_dev = float(np.abs(freqs - 1 / k).max())

    cfg = SimConfig(n=10_001, d=2, k=10_000, seed=77)
    mu, sig = sample_outcome_params(cfg, rng=77)
    mu_mean_err = abs(float(mu.mean()) - 0.45)
    mu_sd_err = abs(float(mu.std()) - 0.15)
    sig_mean_err = abs(float(sig.mean()) - 0.10)
    sig_sd_err = abs(float(sig.std()) - 0.05)

    elapsed = time.perf_counter() - t0
    ok = (
        sum_err <= 1e-12
        and freq_dev <= 3 * sigma
        and mu_mean_err <= 0.005
        and mu_sd_err <= 0.005
        and sig_mean_err <= 0.005
        and sig_sd_err <= 0.005
        and elapsed < 60.0
    )
    report(
        4,
        "simulator-statistics",
        ok,
        f"softmax {sum_err:.1e}, freq dev {freq_dev:.2e} vs 3s={3 * sigma:.2e}, "
        f"mu {mu_mean_err:.4f}/{mu_sd_err:.4f}, sigma {sig_mean_err:.4f}/{sig_sd_err:.4f}, "
        f"{elapsed:.1f}s",
    )
    assert sum_err <= 1e-12
    assert freq_dev <= 3 * sigma
    assert mu_mean_err <= 0.005
    assert mu_sd_err <= 0.005
    assert sig_mean_err <= 0.005
    assert sig_sd_err <= 0.005
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 5. assignment skew protocol


def test_05_assignment_skew():
    shares = {}
    for kappa_last in (10.0, 50.0, 100.0):
        cfg = SimConfig(
            n=20_000,
            d=32,
            k=4,
            c=5.0,
            kappa=(10.0, 10.0, 10.0, kappa_last),
            seed=0,
        )
        ds = simulate_dataset(cfg)
        shares[kappa_last] = float(np.mean(ds.t_obs == 3))
    ok = (
        shares[50.0] > 0.25
        and shares[100.0] > 0.25
        and shares[10.0] < shares[50.0] < shares[100.0]
    )
    report(
        5,
        "assignment-skew",
        ok,
        "shares " + ", ".join(f"k={k:g}: {v:.3f}" for k, v in shares.items()),
    )
    assert shares[50.0] > 0.25
    assert shares[100.0] > 0.25
    assert shares[10.0] < shares[50.0] < shares[100.0]


# ---------------------------------------------------------------------------
# 6. desk-scale effect-estimation comparison


def _assert_direction(n, name, scores, detail_extra=""):
    """Both variants beat the zero-effect predictor on the mean, and the
    tarnet ablation is not beaten by joint (mean and >= 4 of 5 seeds)."""
    joint, tarnet, null = (np.array(scores[v]) for v in ("joint", "tarnet", "null"))
    tarnet_wins = int((tarnet < joint).sum())
    learns = joint.mean() < null.mean() and tarnet.mean() < null.mean()
    not_beaten = tarnet.mean() <= joint.mean() and tarnet_wins >= 4
    detail = (
        f"joint mean {joint.mean():.4f}, tarnet {tarnet.mean():.4f}, "
        f"zero-effect {null.mean():.4f}; tarnet better on {tarnet_wins}/5"
        + detail_extra
    )
    report(n, name, learns and not_beaten, detail)
    assert learns, "a variant does not beat the zero-effect predictor: " + detail
    assert not_beaten, "joint beats the treatment-blind ablation: " + detail


def test_06_desk_scale_pehe_comparison():
    t0 = time.perf_counter()
    scores = {"joint": [], "tarnet": [], "null": []}
    for seed in DESK_SIM_SEEDS:
        ds = simulate_dataset(desk_sim_config(seed))
        y_true = ds.expected_outcomes("test")
        scores["null"].append(pehe(np.zeros_like(y_true), y_true).root)
        for variant in ("joint", "tarnet"):
            trained = train(ds, DESK_SHAPE, DESK_TRAIN, variant)
            scores[variant].append(
                evaluate_model(trained.model, ds, split="test").sqrt_pehe
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _assert_direction(6, "desk-scale-pehe", scores, f", {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. desk-scale zero-shot comparison


def test_07_desk_scale_zero_shot():
    scores = {"joint": [], "tarnet": [], "null": []}
    for seed in DESK_SIM_SEEDS:
        ds = simulate_dataset(desk_sim_config(seed))
        z = seed % 4
        y_true = ds.expected_outcomes("test")
        null = pehe(np.zeros_like(y_true), y_true)
        scores["null"].append(pair_mean(null.per_pair, z)[1])
        for variant in ("joint", "tarnet"):
            cfg = ExperimentConfig(
                sim=desk_sim_config(seed), model=DESK_SHAPE, train=DESK_TRAIN,
                variant=variant, zero_shot=z,
            )
            # run_experiment's repeat 0: fit without z, then score every treatment
            trained = _fit_repeat(cfg, ds, 0)
            rep = evaluate_model(trained.model, ds, split="test", zero_shot_z=z)
            # The held-out head never receives an update, every other head
            # does, and the report says so.
            norms = np.array(trained.history.head_grad_norms)
            assert norms.shape[1] == 4
            assert np.all(norms[:, z] == 0.0)
            updates = trained.model.head_updates
            assert updates[z] == 0
            assert all(n > 0 for t, n in enumerate(updates) if t != z)
            assert rep.head_z_trained is False
            scores[variant].append(rep.sqrt_pehe_zs)
    _assert_direction(
        7, "desk-scale-zero-shot", scores, "; held-out heads untrained in both"
    )


# ---------------------------------------------------------------------------
# 8. pipeline determinism


def _pipeline_artifacts(base_dir, tag):
    cfg = SimConfig(n=400, d=8, k=3, c=5.0, kappa=10.0, seed=11)
    ds = simulate_dataset(cfg)
    ds_dir = base_dir / f"dataset_{tag}"
    save_dataset(ds, ds_dir)
    shape = ModelShape(
        cov_layers=2,
        cov_width=16,
        cov_out=8,
        treat_layers=2,
        treat_width=8,
        treat_out=4,
        head_layers=2,
        head_width=8,
        activation="elu",
        dropout_rate=0.1,
    )
    tcfg = TrainConfig(
        alpha=1.0, beta=0.5, batch_size=64, epochs_max=6, patience=6, seed=5
    )
    trained = train(ds, shape, tcfg, "joint")
    ckpt = base_dir / f"checkpoint_{tag}.json"
    save_checkpoint(ckpt, trained)
    rep = evaluate_model(trained.model, ds, split="test")
    rep_path = base_dir / f"report_{tag}.json"
    rep_path.write_text(json.dumps(rep.to_dict(), sort_keys=True))
    params = base_dir / f"checkpoint_{tag}.npy"
    files = {ckpt.name.replace(f"_{tag}", ""): ckpt.read_bytes()}
    files[params.name.replace(f"_{tag}", "")] = params.read_bytes()
    files[rep_path.name.replace(f"_{tag}", "")] = rep_path.read_bytes()
    for f in sorted(ds_dir.iterdir()):
        files[f"dataset/{f.name}"] = f.read_bytes()
    return files


def test_08_pipeline_determinism(tmp_path):
    first = _pipeline_artifacts(tmp_path, "a")
    second = _pipeline_artifacts(tmp_path, "b")
    assert first.keys() == second.keys()
    mismatched = [name for name in first if first[name] != second[name]]
    ok = not mismatched
    report(
        8,
        "pipeline-determinism",
        ok,
        f"{len(first)} artifacts byte-compared"
        + (f", mismatches: {mismatched}" if mismatched else ""),
    )
    assert not mismatched


# ---------------------------------------------------------------------------
# 9. clustering used for centroid selection


def test_09_kmeans_properties():
    worst_rise = -math.inf
    for seed in range(50):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(120, 4))
        result = kmeans(x, 5, rng=seed)
        hist = result.objective_history
        assert len(hist) >= 2
        worst_rise = max(
            worst_rise, max(b - a for a, b in zip(hist, hist[1:]))
        )
    non_increasing = worst_rise <= 1e-9

    blobs = np.array([[0.0], [0.1], [0.2], [10.0], [10.1]])
    centers = np.sort(kmeans(blobs, 2, rng=0).centroids[:, 0])
    blob_err = float(np.abs(centers - np.array([0.1, 10.05])).max())

    ok = non_increasing and blob_err <= 1e-9
    report(
        9,
        "kmeans-properties",
        ok,
        f"max objective rise {worst_rise:.1e} over 50 runs, blob err {blob_err:.1e}",
    )
    assert non_increasing
    assert blob_err <= 1e-9

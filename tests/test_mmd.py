import math

import numpy as np
import pytest

from ite_bench.errors import ConfigError, NumericError, ShapeError
from ite_bench.mmd import (
    _balance,
    _median_distance,
    _sqdist,
    treatment_regularization_loss,
)

from gradcheck import central_difference


def test_mmd2_two_singletons_closed_form():
    value = treatment_regularization_loss({0: [[0.0]], 1: [[1.0]]}, 1.0)[0]
    assert value == pytest.approx(2.0 - 2.0 * math.exp(-0.5), abs=1e-9)


def test_mmd2_identical_groups_is_zero():
    x = np.random.default_rng(0).normal(size=(7, 3))
    assert treatment_regularization_loss({0: x, 1: x.copy()}, 0.7)[0] == 0.0
    # median heuristic path
    assert treatment_regularization_loss({0: x, 1: x.copy()})[0] == 0.0


def test_mmd2_symmetry_and_permutation_invariance():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 2))
    b = rng.normal(size=(9, 2)) + 0.5
    forward = treatment_regularization_loss({0: a, 1: b}, 1.3)[0]
    assert abs(forward - treatment_regularization_loss({0: b, 1: a}, 1.3)[0]) <= 1e-12
    perm = rng.permutation(6)
    assert abs(forward - treatment_regularization_loss({0: a[perm], 1: b}, 1.3)[0]) <= 1e-12


def test_mmd2_nonnegative_on_random_groups():
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = rng.normal(size=(rng.integers(1, 8), 2))
        b = rng.normal(size=(rng.integers(1, 8), 2))
        assert treatment_regularization_loss({0: a, 1: b}, 0.9)[0] >= 0.0


def test_mmd2_bias_shrinks_with_sample_size():
    # both groups drawn from the same distribution: the V-statistic's own
    # bias dominates and decays as the groups grow
    rng = np.random.default_rng(42)
    values = []
    for n in (10, 100, 1000):
        a = rng.normal(size=(n, 2))
        b = rng.normal(size=(n, 2))
        values.append(treatment_regularization_loss({0: a, 1: b}, 1.0)[0])
    assert values[0] > values[1] > values[2]


def test_mmd2_input_checks():
    with pytest.raises(ShapeError):
        treatment_regularization_loss({0: np.zeros((3, 2)), 1: np.zeros((3, 4))}, 1.0)
    with pytest.raises(NumericError):
        treatment_regularization_loss({0: np.array([[np.nan]]), 1: np.zeros((3, 1))}, 1.0)
    for bandwidth in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            treatment_regularization_loss({0: [[0.0]], 1: [[1.0]]}, bandwidth)


def test_a_bandwidth_too_small_for_the_kernel_is_refused():
    # 2 / bandwidth^2 is finite down to ~1.0548e-154: at 1e-155 the kernel's
    # factor is infinite, and at 1e-200 bandwidth^2 is 0
    groups = {0: [[0.0]], 1: [[1.0]]}
    for bandwidth in (1e-155, 1e-200, 5e-324):
        with pytest.raises(ConfigError, match="kernel bandwidth must be finite and above"):
            treatment_regularization_loss(groups, bandwidth)
    loss, grads = treatment_regularization_loss(groups, 1e-150)
    # the kernel between the two points is exp(-5e299) = 0: MMD^2 = 1 + 1 - 0
    assert loss == 2.0
    assert all(np.isfinite(g).all() for g in grads.values())


def test_median_heuristic_values():
    # pairwise distances of {0, 1, 3} are {1, 2, 3} -> median 2
    x = np.array([[0.0], [1.0], [3.0]])
    assert _median_distance(_sqdist(x)) == pytest.approx(2.0, abs=1e-12)
    # all-zero distances fall back
    assert _median_distance(_sqdist(np.ones((5, 3)))) == 1.0


def test_median_heuristic_even_pair_count():
    # pairwise distances of {0, 1, 3, 7} are {1, 2, 3, 4, 6, 7} -> median 3.5
    assert _median_distance(_sqdist(np.array([[0.0], [1.0], [3.0], [7.0]]))) == 3.5
    rng = np.random.default_rng(4)
    for n in (5, 6, 40):
        x = rng.normal(size=(n, 3))
        rows, cols = np.triu_indices(n, k=1)
        expected = np.median(np.linalg.norm(x[rows] - x[cols], axis=1))
        assert _median_distance(_sqdist(x)) == pytest.approx(expected, rel=1e-12)


def test_gradient_two_singletons_closed_form():
    _, grads = treatment_regularization_loss({0: [[0.0]], 1: [[1.0]]}, 1.0)
    ga, gb = grads[0], grads[1]
    expected = 2.0 * math.exp(-0.5)
    assert ga.shape == (1, 1) and gb.shape == (1, 1)
    # moving the lone a-sample toward b decreases the discrepancy, so the
    # gradient at a points away from b (negative direction)
    assert ga[0, 0] == pytest.approx(-expected, abs=1e-12)
    assert gb[0, 0] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("sizes", [(3, 4), (5, 2), (4, 4)])
def test_gradient_matches_finite_differences(dim, sizes):
    rng = np.random.default_rng(dim * 100 + sizes[0] * 10 + sizes[1])
    a = rng.normal(size=(sizes[0], dim))
    b = rng.normal(size=(sizes[1], dim)) + 1.0  # offset keeps the value off the clamp
    _, grads = treatment_regularization_loss({0: a, 1: b}, 0.8)

    def value_from(flat):
        a2 = flat[: a.size].reshape(a.shape)
        b2 = flat[a.size :].reshape(b.shape)
        return treatment_regularization_loss({0: a2, 1: b2}, 0.8)[0]

    flat = np.concatenate([a.ravel(), b.ravel()])
    fd = central_difference(value_from, flat)
    analytic = np.concatenate([grads[0].ravel(), grads[1].ravel()])
    np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)


def test_gradient_median_heuristic_is_straight_through():
    # with bandwidth=None the analytic gradient must equal the fixed-bandwidth
    # gradient at the heuristic value, not differentiate through the median
    rng = np.random.default_rng(13)
    a = rng.normal(size=(4, 2))
    b = rng.normal(size=(5, 2)) + 0.7
    bw = _median_distance(_sqdist(np.vstack([a, b])))
    _, sth = treatment_regularization_loss({0: a, 1: b})
    _, fix = treatment_regularization_loss({0: a, 1: b}, bw)
    np.testing.assert_array_equal(sth[0], fix[0])
    np.testing.assert_array_equal(sth[1], fix[1])


def test_regularization_three_singletons_closed_form():
    groups = {0: [[0.0]], 1: [[1.0]], 2: [[2.0]]}
    loss, grads = treatment_regularization_loss(groups, 1.0)
    near = 2.0 - 2.0 * math.exp(-0.5)
    far = 2.0 - 2.0 * math.exp(-2.0)
    assert loss == pytest.approx((2.0 * near + far) / 3.0, abs=1e-9)
    assert set(grads) == {0, 1, 2}
    # middle point is pulled equally from both sides
    assert grads[1][0, 0] == pytest.approx(0.0, abs=1e-12)


def test_regularization_degenerate_batches():
    empty = np.zeros((0, 3))
    filled = np.ones((4, 3))
    for groups in (
        {0: empty, 1: empty},
        {0: filled, 1: empty},
        {2: filled},
    ):
        loss, grads = treatment_regularization_loss(groups, 1.0)
        assert loss == 0.0
        assert set(grads) == set(groups)
        for key, g in grads.items():
            assert g.shape == np.asarray(groups[key]).shape
            assert not g.any()


def test_regularization_skips_empty_groups_in_pair_count():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 2))
    b = rng.normal(size=(6, 2)) + 1.0
    loss, grads = treatment_regularization_loss(
        {0: a, 1: np.zeros((0, 2)), 2: b}, 1.1
    )
    pair_loss, pair_grads = treatment_regularization_loss({0: a, 1: b}, 1.1)
    assert loss == pytest.approx(pair_loss, abs=1e-12)
    np.testing.assert_allclose(grads[0], pair_grads[0], atol=1e-14)
    np.testing.assert_allclose(grads[2], pair_grads[1], atol=1e-14)
    assert grads[1].shape == (0, 2)
    # the same holds under the median heuristic: empty groups do not feed
    # the bandwidth either
    loss_mh, _ = treatment_regularization_loss({0: a, 1: np.zeros((0, 2)), 2: b})
    assert loss_mh == pytest.approx(
        treatment_regularization_loss({0: a, 1: b})[0], abs=1e-12
    )


def test_regularization_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    shapes = {0: (3, 2), 1: (2, 2), 3: (4, 2)}
    groups = {key: rng.normal(size=s) + key for key, s in shapes.items()}
    loss, grads = treatment_regularization_loss(groups, 0.9)
    assert loss > 0.0

    keys = sorted(groups)
    sizes = [groups[k].size for k in keys]

    def value_from(flat):
        rebuilt = {}
        pos = 0
        for k, size in zip(keys, sizes):
            rebuilt[k] = flat[pos : pos + size].reshape(groups[k].shape)
            pos += size
        return treatment_regularization_loss(rebuilt, 0.9)[0]

    flat = np.concatenate([groups[k].ravel() for k in keys])
    fd = central_difference(value_from, flat)
    analytic = np.concatenate([grads[k].ravel() for k in keys])
    np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)


def test_regularization_refuses_flat_sample_vectors():
    # groups are matrices of sample rows, as nn's batches are
    with pytest.raises(ShapeError, match="group 0"):
        treatment_regularization_loss({0: np.array([0.0, 0.5]), 1: np.array([[1.0]])}, 1.0)
    loss_col, grads = treatment_regularization_loss(
        {0: np.array([[0.0], [0.5]]), 1: np.array([[1.0]])}, 1.0
    )
    assert loss_col > 0.0
    assert grads[0].shape == (2, 1)


def test_regularization_rejects_mixed_dimensions_and_nonfinite():
    with pytest.raises(ShapeError):
        treatment_regularization_loss(
            {0: np.zeros((2, 2)), 1: np.zeros((2, 3))}, 1.0
        )
    with pytest.raises(NumericError):
        treatment_regularization_loss(
            {0: np.array([[np.inf]]), 1: np.zeros((2, 1))}, 1.0
        )


# --- the one-Gram estimator against the pair-by-pair formula ---


def three_gram_reference(groups, bandwidth=None):
    """Mean MMD^2 over pairs of non-empty groups, and its gradients, from
    three Gram matrices per pair with distances taken from differences."""
    keys = [key for key in sorted(groups) if len(groups[key])]
    z = np.vstack([groups[key] for key in keys])
    if bandwidth is None:
        rows, cols = np.triu_indices(len(z), k=1)
        dist = np.sqrt(np.sum((z[rows] - z[cols]) ** 2, axis=1))
        bandwidth = float(np.median(dist))
    s2 = bandwidth * bandwidth

    def gram(a, b):
        d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
        return np.exp(-d2 / (2.0 * s2))

    grads = {key: np.zeros_like(groups[key]) for key in groups}
    pairs = [(p, q) for i, p in enumerate(keys) for q in keys[i + 1 :]]
    total = 0.0
    for p, q in pairs:
        a, b = groups[p], groups[q]
        m, n = len(a), len(b)
        kaa, kbb, kab = gram(a, a), gram(b, b), gram(a, b)
        value = kaa.mean() + kbb.mean() - 2.0 * kab.mean()
        if value <= 0.0:
            continue
        total += value
        grads[p] += (2.0 / (m * m * s2)) * (kaa @ a - kaa.sum(axis=1)[:, None] * a)
        grads[p] -= (2.0 / (m * n * s2)) * (kab @ b - kab.sum(axis=1)[:, None] * a)
        grads[q] += (2.0 / (n * n * s2)) * (kbb @ b - kbb.sum(axis=1)[:, None] * b)
        grads[q] -= (2.0 / (m * n * s2)) * (kab.T @ a - kab.sum(axis=0)[:, None] * b)
    return total / len(pairs), {key: g / len(pairs) for key, g in grads.items()}


def random_layout(rng, sizes, dim=5):
    return {
        key: rng.normal(size=(size, dim)) + 0.3 * key for key, size in sizes.items()
    }


def batch_layout(rng, batch, k, dim=5):
    labels = rng.integers(0, k, size=batch)
    z = rng.normal(size=(batch, dim))
    return {t: z[labels == t] + 0.2 * t for t in range(k)}


LAYOUTS = {
    "singletons": lambda rng: random_layout(rng, {0: 1, 1: 1, 2: 1}),
    "empty-group": lambda rng: random_layout(rng, {0: 5, 1: 0, 2: 7}),
    "unequal-sparse-keys": lambda rng: random_layout(rng, {1: 3, 4: 10, 9: 6, 12: 2}),
    "B128-k4": lambda rng: batch_layout(rng, 128, 4),
    "B256-k8": lambda rng: batch_layout(rng, 256, 8),
}


@pytest.mark.parametrize("bandwidth", [1.7, None])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_regularization_matches_three_gram_reference(layout, bandwidth):
    groups = LAYOUTS[layout](np.random.default_rng(len(layout)))
    loss, grads = treatment_regularization_loss(groups, bandwidth)
    ref_loss, ref_grads = three_gram_reference(groups, bandwidth)
    assert ref_loss > 0.0
    assert abs(loss - ref_loss) <= 1e-12 * ref_loss
    assert set(grads) == set(groups)
    for key in groups:
        assert grads[key].shape == groups[key].shape
        np.testing.assert_allclose(grads[key], ref_grads[key], rtol=0, atol=1e-12)


@pytest.mark.parametrize("bandwidth", [0.7, None])
@pytest.mark.parametrize("size", [1, 7, 40])
def test_clamped_pairs_contribute_no_loss_and_no_gradient(size, bandwidth):
    rng = np.random.default_rng(size)
    x = rng.normal(size=(size, 3))
    for y in (x.copy(), x[rng.permutation(size)]):
        pair_loss, pair_grads = treatment_regularization_loss({0: x, 1: y}, bandwidth)
        assert pair_loss == 0.0
        for g in pair_grads.values():
            assert not g.any()
        loss, grads = treatment_regularization_loss({0: x, 1: y, 2: x.copy()}, bandwidth)
        assert loss == 0.0
        for g in grads.values():
            assert not g.any()


def test_clamped_pair_drops_out_of_a_larger_batch():
    # groups 0 and 1 hold the same samples: their pair adds nothing, while
    # the pair count still includes it
    rng = np.random.default_rng(8)
    x = rng.normal(size=(6, 2))
    far = rng.normal(size=(4, 2)) + 1.5
    groups = {0: x, 1: x[::-1].copy(), 2: far}
    loss, grads = treatment_regularization_loss(groups, 1.2)
    pair_loss, pair_grads = treatment_regularization_loss({0: x, 1: far}, 1.2)
    assert loss == pytest.approx(2.0 * pair_loss / 3.0, rel=1e-12)
    ga, gb = pair_grads[0], pair_grads[1]
    np.testing.assert_allclose(grads[0], ga / 3.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(grads[1], ga[::-1] / 3.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(grads[2], 2.0 * gb / 3.0, rtol=0, atol=1e-14)


# --- the product-kernel factorization when psi is constant per group ---


def factorized_reference(phis, psis, bandwidth):
    """Loss and stacked gradient of the mean MMD^2 over pairs of groups whose
    rows are [phi_i, psi_a], from the k x k psi-kernel and the phi-Gram alone:
    k([phi, psi_a], [phi', psi_b]) = k(phi, phi') * k(psi_a, psi_b), so the
    block means are K_psi times the phi-Gram block means."""
    k = len(phis)
    s2 = bandwidth * bandwidth
    psi_d2 = np.sum((psis[:, None, :] - psis[None, :, :]) ** 2, axis=2)
    k_psi = np.exp(-psi_d2 / (2.0 * s2))
    blocks = [
        np.hstack([phi, np.repeat(psi[None, :], len(phi), axis=0)])
        for phi, psi in zip(phis, psis)
    ]
    n_pairs = k * (k - 1) // 2
    loss = 0.0
    grads = [np.zeros_like(blk) for blk in blocks]
    phi_gram = [[None] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            d2 = np.sum((phis[a][:, None, :] - phis[b][None, :, :]) ** 2, axis=2)
            phi_gram[a][b] = np.exp(-d2 / (2.0 * s2))
    means = k_psi * np.array([[phi_gram[a][b].mean() for b in range(k)] for a in range(k)])
    for a in range(k):
        for b in range(a + 1, k):
            loss += (means[a, a] + means[b, b] - 2.0 * means[a, b]) / n_pairs
    for a in range(k):
        for b in range(k):
            # d loss / d M_ab: k - 1 pairs hold M_aa, and pair (a, b) holds
            # M_ab twice; the gradient of M_ab with respect to row i of a is
            # the block mean of K_psi[a, b] * G_phi[i, j] * (z_j - z_i) / s2
            coef = (k - 1 if a == b else -1) * 2.0 / n_pairs
            weights = coef * k_psi[a, b] * phi_gram[a][b] / (len(blocks[a]) * len(blocks[b]))
            grads[a] += (weights @ blocks[b] - weights.sum(axis=1)[:, None] * blocks[a]) / s2
    return loss, np.vstack(grads)


@pytest.mark.parametrize("bandwidth", [0.8, 2.5, None])
def test_balance_factorizes_when_psi_is_constant_per_group(bandwidth):
    rng = np.random.default_rng(23)
    phis = [rng.normal(size=(n, 6)) + 0.1 * a for a, n in enumerate((3, 7, 1, 5))]
    psis = rng.normal(size=(4, 3))
    blocks = [
        np.hstack([phi, np.repeat(psi[None, :], len(phi), axis=0)])
        for phi, psi in zip(phis, psis)
    ]
    if bandwidth is None:
        bandwidth = _median_distance(_sqdist(np.vstack(blocks)))
    loss, grad = _balance(blocks, bandwidth)
    ref_loss, ref_grad = factorized_reference(phis, psis, bandwidth)
    assert ref_loss > 0.0
    assert abs(loss - ref_loss) <= 1e-12
    np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12)

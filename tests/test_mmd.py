import math

import numpy as np
import pytest

from ite_bench.errors import (
    ConfigError,
    InsufficientDataError,
    NumericError,
    ShapeError,
)
from ite_bench.mmd import (
    KernelSpec,
    _balance,
    median_heuristic,
    mmd2_biased,
    mmd2_gradient,
    rbf_kernel,
    treatment_regularization_loss,
)

from gradcheck import central_difference

UNIT_BW = KernelSpec(bandwidth=1.0)


def test_rbf_kernel_closed_forms():
    assert rbf_kernel([0.0], [1.0], 1.0) == pytest.approx(math.exp(-0.5), abs=1e-15)
    assert rbf_kernel([2.0, -1.0], [2.0, -1.0], 0.3) == 1.0
    # ||u - v|| = 5, bandwidth 5 -> exp(-25 / 50)
    assert rbf_kernel([0.0, 0.0], [3.0, 4.0], 5.0) == pytest.approx(
        math.exp(-0.5), abs=1e-15
    )
    with pytest.raises(ConfigError):
        rbf_kernel([0.0], [1.0], 0.0)
    with pytest.raises(ShapeError):
        rbf_kernel([0.0], [1.0, 2.0], 1.0)


def test_mmd2_two_singletons_closed_form():
    value = mmd2_biased([[0.0]], [[1.0]], UNIT_BW)
    assert value == pytest.approx(2.0 - 2.0 * math.exp(-0.5), abs=1e-9)


def test_mmd2_identical_groups_is_zero():
    x = np.random.default_rng(0).normal(size=(7, 3))
    assert mmd2_biased(x, x.copy(), KernelSpec(0.7)) == 0.0
    assert mmd2_biased(x, x.copy()) == 0.0  # median heuristic path


def test_mmd2_symmetry_and_permutation_invariance():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 2))
    b = rng.normal(size=(9, 2)) + 0.5
    spec = KernelSpec(1.3)
    forward = mmd2_biased(a, b, spec)
    assert abs(forward - mmd2_biased(b, a, spec)) <= 1e-12
    perm = rng.permutation(6)
    assert abs(forward - mmd2_biased(a[perm], b, spec)) <= 1e-12


def test_mmd2_nonnegative_on_random_groups():
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = rng.normal(size=(rng.integers(1, 8), 2))
        b = rng.normal(size=(rng.integers(1, 8), 2))
        assert mmd2_biased(a, b, KernelSpec(0.9)) >= 0.0


def test_mmd2_bias_shrinks_with_sample_size():
    # both groups drawn from the same distribution: the V-statistic's own
    # bias dominates and decays as the groups grow
    spec = KernelSpec(1.0)
    rng = np.random.default_rng(42)
    values = []
    for n in (10, 100, 1000):
        a = rng.normal(size=(n, 2))
        b = rng.normal(size=(n, 2))
        values.append(mmd2_biased(a, b, spec))
    assert values[0] > values[1] > values[2]


def test_mmd2_input_checks():
    with pytest.raises(ShapeError):
        mmd2_biased(np.zeros((3, 2)), np.zeros((3, 4)), UNIT_BW)
    with pytest.raises(InsufficientDataError):
        mmd2_biased(np.zeros((0, 2)), np.zeros((3, 2)), UNIT_BW)
    with pytest.raises(NumericError):
        mmd2_biased(np.array([[np.nan]]), np.zeros((3, 1)), UNIT_BW)
    with pytest.raises(ConfigError):
        mmd2_biased([[0.0]], [[1.0]], KernelSpec(-1.0))


def test_median_heuristic_values():
    # pairwise distances of {0, 1, 3} are {1, 2, 3} -> median 2
    assert median_heuristic([0.0, 1.0, 3.0]) == pytest.approx(2.0, abs=1e-12)
    assert median_heuristic(np.ones((5, 3))) == 1.0  # all-zero distances fall back
    with pytest.raises(InsufficientDataError):
        median_heuristic([[1.0]])


def test_median_heuristic_even_pair_count():
    # pairwise distances of {0, 1, 3, 7} are {1, 2, 3, 4, 6, 7} -> median 3.5
    assert median_heuristic([0.0, 1.0, 3.0, 7.0]) == 3.5
    rng = np.random.default_rng(4)
    for n in (5, 6, 40):
        x = rng.normal(size=(n, 3))
        rows, cols = np.triu_indices(n, k=1)
        expected = np.median(np.linalg.norm(x[rows] - x[cols], axis=1))
        assert median_heuristic(x) == pytest.approx(expected, rel=1e-12)


def test_gradient_two_singletons_closed_form():
    ga, gb = mmd2_gradient([[0.0]], [[1.0]], UNIT_BW)
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
    spec = KernelSpec(0.8)
    ga, gb = mmd2_gradient(a, b, spec)

    def value_from(flat):
        a2 = flat[: a.size].reshape(a.shape)
        b2 = flat[a.size :].reshape(b.shape)
        return mmd2_biased(a2, b2, spec)

    flat = np.concatenate([a.ravel(), b.ravel()])
    fd = central_difference(value_from, flat)
    analytic = np.concatenate([ga.ravel(), gb.ravel()])
    np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)


def test_gradient_median_heuristic_is_straight_through():
    # with bandwidth=None the analytic gradient must equal the fixed-bandwidth
    # gradient at the heuristic value, not differentiate through the median
    rng = np.random.default_rng(13)
    a = rng.normal(size=(4, 2))
    b = rng.normal(size=(5, 2)) + 0.7
    bw = median_heuristic(np.vstack([a, b]))
    ga_sth, gb_sth = mmd2_gradient(a, b, KernelSpec())
    ga_fix, gb_fix = mmd2_gradient(a, b, KernelSpec(bw))
    np.testing.assert_array_equal(ga_sth, ga_fix)
    np.testing.assert_array_equal(gb_sth, gb_fix)


def test_regularization_three_singletons_closed_form():
    groups = {0: [[0.0]], 1: [[1.0]], 2: [[2.0]]}
    loss, grads = treatment_regularization_loss(groups, UNIT_BW)
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
        loss, grads = treatment_regularization_loss(groups, UNIT_BW)
        assert loss == 0.0
        assert set(grads) == set(groups)
        for key, g in grads.items():
            assert g.shape == np.asarray(groups[key]).shape
            assert not g.any()


def test_regularization_skips_empty_groups_in_pair_count():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 2))
    b = rng.normal(size=(6, 2)) + 1.0
    spec = KernelSpec(1.1)
    loss, grads = treatment_regularization_loss(
        {0: a, 1: np.zeros((0, 2)), 2: b}, spec
    )
    assert loss == pytest.approx(mmd2_biased(a, b, spec), abs=1e-12)
    ga, gb = mmd2_gradient(a, b, spec)
    np.testing.assert_allclose(grads[0], ga, atol=1e-14)
    np.testing.assert_allclose(grads[2], gb, atol=1e-14)
    assert grads[1].shape == (0, 2)
    # the same holds under the median heuristic: empty groups do not feed
    # the bandwidth either
    loss_mh, _ = treatment_regularization_loss({0: a, 1: np.zeros((0, 2)), 2: b})
    assert loss_mh == pytest.approx(mmd2_biased(a, b), abs=1e-12)


def test_regularization_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    shapes = {0: (3, 2), 1: (2, 2), 3: (4, 2)}
    groups = {key: rng.normal(size=s) + key for key, s in shapes.items()}
    spec = KernelSpec(0.9)
    loss, grads = treatment_regularization_loss(groups, spec)
    assert loss > 0.0

    keys = sorted(groups)
    sizes = [groups[k].size for k in keys]

    def value_from(flat):
        rebuilt = {}
        pos = 0
        for k, size in zip(keys, sizes):
            rebuilt[k] = flat[pos : pos + size].reshape(groups[k].shape)
            pos += size
        return treatment_regularization_loss(rebuilt, spec)[0]

    flat = np.concatenate([groups[k].ravel() for k in keys])
    fd = central_difference(value_from, flat)
    analytic = np.concatenate([grads[k].ravel() for k in keys])
    np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)


def test_regularization_accepts_flat_sample_vectors():
    loss_flat, grads_flat = treatment_regularization_loss(
        {0: np.array([0.0, 0.5]), 1: np.array([1.0])}, UNIT_BW
    )
    loss_col, _ = treatment_regularization_loss(
        {0: np.array([[0.0], [0.5]]), 1: np.array([[1.0]])}, UNIT_BW
    )
    assert loss_flat == loss_col
    assert grads_flat[0].shape == (2, 1)


def test_regularization_rejects_mixed_dimensions_and_nonfinite():
    with pytest.raises(ShapeError):
        treatment_regularization_loss(
            {0: np.zeros((2, 2)), 1: np.zeros((2, 3))}, UNIT_BW
        )
    with pytest.raises(NumericError):
        treatment_regularization_loss(
            {0: np.array([[np.inf]]), 1: np.zeros((2, 1))}, UNIT_BW
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
    loss, grads = treatment_regularization_loss(groups, KernelSpec(bandwidth))
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
    spec = KernelSpec(bandwidth)
    rng = np.random.default_rng(size)
    x = rng.normal(size=(size, 3))
    for y in (x.copy(), x[rng.permutation(size)]):
        assert mmd2_biased(x, y, spec) == 0.0
        for g in mmd2_gradient(x, y, spec):
            assert not g.any()
        loss, grads = treatment_regularization_loss({0: x, 1: y, 2: x.copy()}, spec)
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
    spec = KernelSpec(1.2)
    loss, grads = treatment_regularization_loss(groups, spec)
    assert loss == pytest.approx(2.0 * mmd2_biased(x, far, spec) / 3.0, rel=1e-12)
    ga, gb = mmd2_gradient(x, far, spec)
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
        bandwidth = median_heuristic(np.vstack(blocks))
    loss, grad = _balance(blocks, KernelSpec(bandwidth))
    ref_loss, ref_grad = factorized_reference(phis, psis, bandwidth)
    assert ref_loss > 0.0
    assert abs(loss - ref_loss) <= 1e-12
    np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12)

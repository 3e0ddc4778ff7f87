import dataclasses
import hashlib
import json
import math
import pickle

import numpy as np
import pytest

from ite_bench import model as model_module
from ite_bench import simulate
from ite_bench.errors import (
    ConfigError,
    DataError,
    InsufficientDataError,
    NumericError,
    ShapeError,
    read_array,
    write_array,
)
from ite_bench.model import ModelShape, TrainConfig, train
from ite_bench.simulate import (
    SIGMA_FLOOR,
    Dataset,
    SimConfig,
    assign_treatments,
    assignment_probabilities,
    expected_outcomes,
    generate_covariates,
    kmeans,
    load_dataset,
    potential_outcomes,
    sample_outcome_params,
    save_dataset,
    select_centroids,
    simulate_dataset,
)

from per_cluster import per_cluster_kmeans


def small_cfg(**kw):
    base = dict(n=60, d=5, k=3, seed=0)
    base.update(kw)
    return SimConfig(**base)


# --- covariates ---


def test_gaussian_covariates_have_unit_norm():
    x = generate_covariates(small_cfg(n=200), rng=0)
    assert x.shape == (200, 5)
    np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, rtol=0.0, atol=1e-12)


def test_file_covariates_normalize_rows(tmp_path):
    rows = np.array([[3.0, 4.0], [0.0, 2.0], [1.0, 1.0], [5.0, 0.0]])
    path = tmp_path / "emb.csv"
    np.savetxt(path, rows, delimiter=",")
    # setting embedding_file alone selects the file
    cfg = SimConfig(n=3, d=2, k=2, embedding_file=str(path))
    x = generate_covariates(cfg, 0)
    # first n rows only, each scaled to unit norm
    np.testing.assert_allclose(x[0], [0.6, 0.8], atol=1e-15)
    np.testing.assert_allclose(x[1], [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(x[2], [1 / math.sqrt(2)] * 2, atol=1e-15)


def test_file_covariates_error_paths(tmp_path):
    cfg = dict(n=3, d=2, k=2)
    with pytest.raises(DataError):
        generate_covariates(SimConfig(embedding_file=str(tmp_path / "nope.csv"), **cfg), 0)
    # no data rows: refused as such, with no loadtxt warning, not as width 1
    for name, text in (("e.csv", ""), ("c.csv", "# a comment\n\n")):
        empty = tmp_path / name
        empty.write_text(text)
        with pytest.raises(DataError, match=f"embedding file .*{name} holds no rows"):
            generate_covariates(SimConfig(embedding_file=str(empty), **cfg), 0)
    wrong_width = tmp_path / "w.csv"
    np.savetxt(wrong_width, np.ones((5, 3)), delimiter=",")
    with pytest.raises(DataError):
        generate_covariates(SimConfig(embedding_file=str(wrong_width), **cfg), 0)
    too_short = tmp_path / "s.csv"
    np.savetxt(too_short, np.ones((2, 2)), delimiter=",")
    with pytest.raises(DataError):
        generate_covariates(SimConfig(embedding_file=str(too_short), **cfg), 0)
    garbled = tmp_path / "g.csv"
    garbled.write_text("1.0,2.0\nfoo,bar\n1.0,1.0\n")
    with pytest.raises(DataError):
        generate_covariates(SimConfig(embedding_file=str(garbled), **cfg), 0)
    undecodable = tmp_path / "u.csv"
    undecodable.write_bytes(b"1.0,2.0\n\xff,1.0\n1.0,1.0\n")
    with pytest.raises(DataError, match="malformed embedding file"):
        generate_covariates(SimConfig(embedding_file=str(undecodable), **cfg), 0)
    nonfinite = tmp_path / "n.csv"
    nonfinite.write_text("1.0,2.0\nnan,1.0\n1.0,1.0\n")
    with pytest.raises(NumericError):
        generate_covariates(SimConfig(embedding_file=str(nonfinite), **cfg), 0)
    zero_row = tmp_path / "z.csv"
    zero_row.write_text("1.0,2.0\n0.0,0.0\n1.0,1.0\n")
    with pytest.raises(DataError, match="nonzero norm"):
        generate_covariates(SimConfig(embedding_file=str(zero_row), **cfg), 0)
    # finite rows whose squares overflow or underflow in float64 have no
    # unit-norm scaling: refused, not stored as a zero row
    for scale, norm in ((1e200, "inf"), (1e-200, "0.0")):
        extreme = tmp_path / "e.csv"
        np.savetxt(extreme, [[1.0, 2.0], [scale, -scale], [1.0, 1.0]], delimiter=",")
        with pytest.raises(DataError, match=f"row 1 has norm {norm} in float64"):
            generate_covariates(SimConfig(embedding_file=str(extreme), **cfg), 0)
    # the file alone selects the source; the former selector is an unknown field
    with pytest.raises(ConfigError, match="covariate_source"):
        SimConfig.from_dict({"covariate_source": "file", "embedding_file": str(nonfinite)})


# --- kmeans ---


def test_kmeans_recovers_exact_clusters():
    points = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [7.0, 7.0]])
    x = np.repeat(points, 5, axis=0)
    result = kmeans(x, 4, rng=3)
    found = result.centroids[np.lexsort(result.centroids.T)]
    expected = points[np.lexsort(points.T)]
    np.testing.assert_allclose(found, expected, atol=1e-9)
    assert result.objective_history[-1] == pytest.approx(0.0, abs=1e-18)


def test_kmeans_two_blob_means():
    x = np.array([[0.0], [0.1], [0.2], [10.0], [10.1]])
    result = kmeans(x, 2, rng=0)
    centers = np.sort(result.centroids[:, 0])
    np.testing.assert_allclose(centers, [0.1, 10.05], atol=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_kmeans_objective_never_increases(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(120, 4))
    result = kmeans(x, 5, rng=seed)
    hist = result.objective_history
    assert len(hist) >= 2
    assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))


def test_kmeans_handles_duplicate_points():
    # fewer distinct values than clusters forces the reseeding path
    x = np.array([[0.0], [0.0], [1.0], [1.0], [1.0]])
    result = kmeans(x, 3, rng=1)
    assert np.isfinite(result.centroids).all()
    hist = result.objective_history
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


KMEANS_CASES = {
    # desk scale: the simulator's covariates at n=2000, d=32, k=4
    **{f"desk-{seed}": (generate_covariates(SimConfig(n=2000, d=32, k=4, seed=seed), seed), 5, seed)
       for seed in range(3)},
    **{f"normal-{seed}": (np.random.default_rng(seed).normal(size=(120, 4)), 5, seed)
       for seed in range(10)},
    # fewer distinct points than clusters: every distance is 0 at the reseed
    "duplicates": (np.array([[0.0], [0.0], [1.0], [1.0], [1.0]]), 3, 1),
    # a cluster that Lloyd's update leaves empty takes the farthest point
    "emptied": (np.array([[2, 2], [3, 0], [1, 0], [2, 3], [2, 0], [2, 0], [3, 3]], float), 3, 1094),
    "blobs-1d": (np.array([[0.0], [0.1], [0.2], [10.0], [10.1]]), 2, 0),
}


@pytest.mark.parametrize("case", KMEANS_CASES)
def test_kmeans_equals_the_per_cluster_loop(case):
    # not bit for bit: a cluster's sum is a BLAS product here and numpy's
    # row-by-row sum there
    x, n_clusters, seed = KMEANS_CASES[case]
    result = kmeans(x, n_clusters, rng=seed)
    reference, reseeded = per_cluster_kmeans(x, n_clusters, seed)
    assert reseeded == (case in ("duplicates", "emptied"))
    assert len(result.objective_history) == len(reference.objective_history)
    np.testing.assert_allclose(result.centroids, reference.centroids, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(
        result.objective_history, reference.objective_history, rtol=1e-12, atol=0.0
    )


def test_kmeans_needs_enough_rows():
    with pytest.raises(InsufficientDataError):
        kmeans(np.zeros((2, 3)), 3, rng=0)
    with pytest.raises(ConfigError, match="n_clusters"):
        kmeans(np.zeros((2, 3)), 0, rng=0)
    with pytest.raises(ShapeError):
        kmeans(np.zeros(5), 2, rng=0)


# --- centroid selection ---


def test_random_centroids_are_distinct_dataset_rows():
    x = generate_covariates(small_cfg(n=50), rng=1)
    z = select_centroids(x, 3, "random", rng=2)
    assert z.shape == (4, 5)
    matches = [np.flatnonzero((x == row).all(axis=1)) for row in z]
    picked = [m[0] for m in matches]
    assert all(m.size == 1 for m in matches)
    assert len(set(picked)) == 4


def test_kmeans_centroids_shape():
    x = generate_covariates(small_cfg(n=50), rng=1)
    z = select_centroids(x, 3, "kmeans", rng=2)
    assert z.shape == (4, 5)
    assert np.isfinite(z).all()


def test_select_centroids_errors():
    x = np.eye(3)
    with pytest.raises(InsufficientDataError):
        select_centroids(x, 3, "random", rng=0)
    with pytest.raises(ConfigError):
        select_centroids(x, 2, "medoids", rng=0)


# --- outcome priors ---


def test_sigma_clamped_at_floor(monkeypatch):
    monkeypatch.setattr(simulate, "SIGMA_PRIOR", (-1.0, 0.01))
    _, sigma = sample_outcome_params(small_cfg(), rng=0)
    np.testing.assert_array_equal(sigma, np.full(3, SIGMA_FLOOR))


# --- potential outcomes ---


def test_potential_outcome_hand_case():
    # x.(z_t + z_shared) = 1*(2+3) = 5, so E[y] = 5 * 0.5 * 5 = 12.5
    x, z, mu = np.array([[1.0]]), np.array([[2.0], [3.0]]), np.array([0.5])
    assert expected_outcomes(x, z, mu, 5.0)[0, 0] == 12.5
    # sigma 0 removes all noise
    assert potential_outcomes(x, z, mu, np.array([0.0]), 5.0, rng=0)[0, 0] == 12.5


def test_zero_sigma_makes_sampled_equal_expected():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(20, 3))
    z = rng.normal(size=(4, 3))
    mu = rng.normal(size=3)
    np.testing.assert_array_equal(
        potential_outcomes(x, z, mu, np.zeros(3), 5.0, rng=9), expected_outcomes(x, z, mu, 5.0)
    )


def test_noise_is_centered_with_prior_scale():
    rng = np.random.default_rng(7)
    n = 4000
    x = rng.normal(size=(n, 4))
    x /= np.linalg.norm(x, axis=1)[:, None]
    z = rng.normal(size=(4, 4))
    mu = np.array([0.5, 0.4, 0.6])
    sigma = np.array([0.1, 0.2, 0.05])
    y_sampled = potential_outcomes(x, z, mu, sigma, 5.0, rng=21)
    y_expected = expected_outcomes(x, z, mu, 5.0)
    d_all = x @ (z[:-1] + z[-1]).T
    standardized = (y_sampled - y_expected) / (5.0 * sigma[None, :] * d_all)
    bound = 3.5 / math.sqrt(n)
    assert np.all(np.abs(standardized.mean(axis=0)) < bound)
    assert np.all(np.abs(standardized.std(axis=0) - 1.0) < 0.06)


def test_potential_outcomes_shape_errors():
    with pytest.raises(ShapeError):
        potential_outcomes(
            np.ones((2, 3)), np.ones((3, 2)), np.ones(2), np.ones(2), 5.0, 0
        )
    with pytest.raises(ShapeError):
        potential_outcomes(
            np.ones((2, 2)), np.ones((3, 2)), np.ones(1), np.ones(1), 5.0, 0
        )
    with pytest.raises(ConfigError):
        potential_outcomes(
            np.ones((2, 2)), np.ones((3, 2)), np.ones(2), np.ones(2), 0.0, 0
        )


def test_potential_outcomes_that_overflow_are_refused():
    # the hand case at c = 1e308: 1e308 * 0.5 * 5 overflows
    x, z = np.array([[1.0]]), np.array([[2.0], [3.0]])
    with pytest.raises(NumericError, match="non-finite potential outcomes"):
        potential_outcomes(x, z, np.array([0.5]), np.array([0.0]), 1e308, rng=0)


# --- treatment assignment ---


def test_assignment_probabilities_rows_sum_to_one():
    rng = np.random.default_rng(2)
    p = assignment_probabilities(rng.normal(size=(50, 4)), np.full(4, 10.0))
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert np.all(p >= 0.0)


def test_assignment_probabilities_hand_case():
    # logits (ln 3, 0) -> probabilities (3/4, 1/4)
    p = assignment_probabilities(np.array([[math.log(3.0), 0.0]]), np.ones(2))
    np.testing.assert_allclose(p[0], [0.75, 0.25], atol=1e-15)


def test_equal_outcomes_give_uniform_assignment():
    p = assignment_probabilities(np.full((3, 4), 2.7), np.full(4, 50.0))
    np.testing.assert_allclose(p, 0.25, atol=1e-15)


def test_assignment_skew_grows_with_kappa():
    rng = np.random.default_rng(6)
    y = rng.normal(size=(3000, 4))
    best = y.argmax(axis=1)
    shares = []
    for kappa in (1.0, 10.0, 100.0):
        t = assign_treatments(y, np.full(4, kappa), rng=123)
        shares.append(float((t == best).mean()))
    assert shares[0] < shares[1] < shares[2]
    assert shares[2] > 0.95


def test_assignment_input_checks():
    with pytest.raises(ConfigError):
        assignment_probabilities(np.ones((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(ShapeError):
        assignment_probabilities(np.ones((2, 2)), np.ones(3))
    with pytest.raises(NumericError):
        assignment_probabilities(np.array([[np.inf, 0.0]]), np.ones(2))


def test_assignment_logits_that_overflow_are_refused():
    # finite outcomes whose products with kappa overflow: the softmax of an
    # infinite logit is NaN, which assign_treatments read as treatment 0
    y = np.array([[0.5, 2.0, -1.0]])
    with pytest.raises(NumericError, match="non-finite assignment logits"):
        assignment_probabilities(y, np.full(3, 1e308))
    with pytest.raises(NumericError, match="non-finite assignment logits"):
        simulate_dataset(SimConfig(n=200, d=4, k=3, kappa=1e308))


def test_a_logit_far_below_its_row_maximum_gets_probability_0():
    # logits +-1e308 are finite; their difference overflows to -inf
    p = assignment_probabilities(np.array([[10.0, -10.0]]), np.full(2, 1e307))
    np.testing.assert_array_equal(p, [[1.0, 0.0]])


# --- full simulation ---


def test_simulated_dataset_invariants():
    cfg = SimConfig(n=1000, d=8, k=4, seed=5)
    ds = simulate_dataset(cfg)
    assert ds.X.shape == (1000, 8)
    assert ds.Z.shape == (5, 8)
    np.testing.assert_array_equal(ds.T_emb, ds.Z[:4])
    assert not ds.T_emb.flags.writeable
    assert len(ds.splits["train"]) == 700
    assert len(ds.splits["val"]) == 150
    assert len(ds.splits["test"]) == 150
    assert sorted(np.concatenate(list(ds.splits.values())).tolist()) == list(range(1000))
    for split, idx in ds.splits.items():
        x, t, y = ds.observed(split)
        np.testing.assert_array_equal(x, ds.X[idx])
        np.testing.assert_array_equal(t, ds.t_obs[idx])
        np.testing.assert_array_equal(y, ds.Y_sampled[idx, ds.t_obs[idx]])
    assert set(np.unique(ds.t_obs)) <= set(range(4))
    assert ds.truth_reads == {}


def test_simulation_is_deterministic():
    cfg = small_cfg(seed=33)
    a = simulate_dataset(cfg)
    b = simulate_dataset(cfg)
    for name in ("X", "Z", "mu", "sigma", "Y_sampled", "t_obs"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    for split in a.splits:
        np.testing.assert_array_equal(a.splits[split], b.splits[split])
    c = simulate_dataset(small_cfg(seed=34))
    assert not np.array_equal(a.X, c.X)


def test_config_validation_errors():
    for bad, match in (
        ({"k": 1}, "k must be >= 2"),
        ({"n": 4, "k": 4}, "n must be >= k"),
        ({"d": 0}, "d must be >= 1"),
        ({"centroid_method": "spectral"}, "centroid_method"),
        ({"c": 0.0}, "outcome scale c"),
        ({"kappa": (1.0, 2.0), "k": 3}, "kappa must be a scalar"),
        ({"kappa": 0.0}, "kappa entries"),
    ):
        with pytest.raises(ConfigError, match=match):
            SimConfig(**bad)
    with pytest.raises(ConfigError, match="kappa must be finite"):
        SimConfig(kappa=(1.0, math.nan, 1.0, 1.0))
    with pytest.raises(ConfigError):
        SimConfig.from_dict({"n": 10, "bogus": 1})
    with pytest.raises(ConfigError):
        SimConfig.from_dict({"n": "ten"})


def test_dataset_save_load_round_trip(tmp_path):
    ds = simulate_dataset(small_cfg(seed=2))
    out = tmp_path / "ds"
    save_dataset(ds, out)
    loaded = load_dataset(out)
    for name in ("X", "Z", "T_emb", "mu", "sigma", "Y_sampled"):
        np.testing.assert_array_equal(
            getattr(ds, name), getattr(loaded, name), err_msg=name
        )
    np.testing.assert_array_equal(ds.t_obs, loaded.t_obs)
    assert loaded.config == ds.config
    for split in ds.splits:
        np.testing.assert_array_equal(ds.splits[split], loaded.splits[split])
        np.testing.assert_array_equal(ds.expected_outcomes(split), loaded.expected_outcomes(split))


def test_save_refuses_nonempty_dir_without_force(tmp_path):
    ds = simulate_dataset(small_cfg())
    out = tmp_path / "ds"
    save_dataset(ds, out)
    with pytest.raises(DataError):
        save_dataset(ds, out)
    save_dataset(ds, out, force=True)
    assert load_dataset(out).n == ds.n


def test_a_forced_rewrite_that_stops_part_way_leaves_no_loadable_dataset(tmp_path, monkeypatch):
    cfg = SimConfig(n=200, d=4, k=3, seed=0)
    out = tmp_path / "ds"
    save_dataset(simulate_dataset(cfg), out)
    saves = []
    save = np.save

    def stop_at_the_third_array(path, arr):
        saves.append(path)
        if len(saves) == 3:
            raise OSError("No space left on device")
        save(path, arr)

    monkeypatch.setattr(np, "save", stop_at_the_third_array)
    with pytest.raises(OSError):
        save_dataset(simulate_dataset(dataclasses.replace(cfg, seed=1)), out, force=True)
    monkeypatch.undo()
    # seed 1's first arrays over seed 0's others, under no manifest
    with pytest.raises(DataError, match="no manifest.json"):
        load_dataset(out)


def test_load_rejects_non_dataset_dir(tmp_path):
    with pytest.raises(DataError):
        load_dataset(tmp_path)


UNPICKLED = []


def _record_unpickling():
    UNPICKLED.append(True)
    return 0.0


class _Tripwire:
    def __reduce__(self):
        return (_record_unpickling, ())


def test_array_codec_checks_the_digest_and_never_unpickles(tmp_path):
    arr = np.arange(12.0).reshape(3, 4).T
    path = tmp_path / "a.npy"
    digest = write_array(path, arr)
    # np.save's bytes for the C-contiguous array, under their sha256
    np.save(tmp_path / "b.npy", np.ascontiguousarray(arr))
    assert path.read_bytes() == (tmp_path / "b.npy").read_bytes()
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    np.testing.assert_array_equal(read_array(path, digest), arr)
    # a DataError for bytes that do not match or hold no array, and for a
    # missing file
    with pytest.raises(DataError, match="a.npy does not match the sha256 recorded for it"):
        read_array(path, "0" * 64)
    UNPICKLED.clear()
    np.save(path, np.array([_Tripwire()] * 3, dtype=object), allow_pickle=True)
    own = hashlib.sha256(path.read_bytes()).hexdigest()
    with pytest.raises(DataError, match="malformed array file .*a.npy"):
        read_array(path, own)
    assert not UNPICKLED
    with pytest.raises(DataError, match="missing.npy; copy it together with its JSON file"):
        read_array(tmp_path / "missing.npy", digest)


def test_dataset_directory_holds_npy_arrays(tmp_path):
    ds = simulate_dataset(small_cfg(seed=2))
    save_dataset(ds, tmp_path / "ds")
    manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    assert manifest["schema_version"] == "7"
    # the array files follow from the schema and n, d, k from the config, so
    # the manifest lists neither; it records each array's sha256
    assert set(manifest) == {"schema_version", "config", "splits", "sha256"}
    # only what was drawn is stored: the treatment embeddings, factual and
    # expected outcomes are derived from these
    names = sorted(p.name for p in (tmp_path / "ds").iterdir())
    assert names == sorted([
        "manifest.json", "covariates.npy", "centroids.npy", "mu_sigma.npy",
        "y_sampled.npy", "t_obs.npy",
    ])
    assert manifest["sha256"] == {
        name[: -len(".npy")]: hashlib.sha256((tmp_path / "ds" / name).read_bytes()).hexdigest()
        for name in names if name.endswith(".npy")
    }
    t_obs = np.load(tmp_path / "ds" / "t_obs.npy", allow_pickle=False)
    assert t_obs.dtype == np.int64
    np.testing.assert_array_equal(t_obs, ds.t_obs)
    y = np.load(tmp_path / "ds" / "y_sampled.npy", allow_pickle=False)
    assert y.dtype == np.float64 and y.shape == (ds.n, ds.k)


def _record_digest(dataset_dir, fname):
    """Record the sha256 of the array file fname in the dataset's manifest,
    as if the file had been saved with it."""
    path = dataset_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    digest = hashlib.sha256((dataset_dir / fname).read_bytes()).hexdigest()
    manifest["sha256"][fname[: -len(".npy")]] = digest
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize(
    "fname, bad",
    [
        ("covariates.npy", "object"),
        ("covariates.npy", "float32"),
        ("t_obs.npy", "int32"),
        ("t_obs.npy", "short"),
        ("y_sampled.npy", "transposed"),
        ("centroids.npy", "truncated"),
        ("mu_sigma.npy", "missing"),
    ],
)
def test_load_refuses_a_malformed_array(tmp_path, fname, bad):
    ds = simulate_dataset(small_cfg(seed=2))
    out = tmp_path / "ds"
    save_dataset(ds, out)
    path = out / fname
    arr = np.load(path, allow_pickle=False)
    if bad == "object":
        UNPICKLED.clear()
        np.save(path, np.array([_Tripwire()] * 3, dtype=object), allow_pickle=True)
    elif bad in ("float32", "int32"):
        np.save(path, arr.astype(bad))
    elif bad == "short":
        np.save(path, arr[:-1])
    elif bad == "transposed":
        np.save(path, np.ascontiguousarray(arr.T))
    elif bad == "truncated":
        path.write_bytes(path.read_bytes()[:-8])
    else:
        path.unlink()
    # recorded under its own sha256, so the file's presence, the .npy format
    # and the Dataset's dtype and shape checks refuse it, not the digest
    if bad != "missing":
        _record_digest(out, fname)
    with pytest.raises(DataError, match=fname) as err:
        load_dataset(out)
    assert "sha256" not in str(err.value)
    if bad == "object":
        assert not UNPICKLED


@pytest.mark.parametrize("digests", [
    pytest.param(lambda d: {k: v for k, v in d.items() if k != "t_obs"}, id="missing-name"),
    pytest.param(lambda d: {**d, "y_factual": d["t_obs"]}, id="extra-name"),
    pytest.param(lambda d: {**d, "t_obs": 0}, id="non-string"),
    pytest.param(lambda d: sorted(d.values()), id="not-an-object"),
])
def test_load_refuses_a_malformed_digest_map(tmp_path, digests):
    save_dataset(simulate_dataset(small_cfg()), tmp_path / "ds")
    path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(path.read_text())
    path.write_text(json.dumps({**manifest, "sha256": digests(manifest["sha256"])}))
    with pytest.raises(DataError, match="manifest.json: sha256 must map"):
        load_dataset(tmp_path / "ds")


def test_load_refuses_schema_1_csv_directory(tmp_path):
    out = tmp_path / "old"
    out.mkdir()
    (out / "covariates.csv").write_text("0.6,0.8\n")
    (out / "manifest.json").write_text(json.dumps({"schema_version": "1", "n": 1}))
    with pytest.raises(DataError, match="re-run"):
        load_dataset(out)


@pytest.mark.parametrize("version, removed", [
    # schema 4 configs also held kmeans_iters and kmeans_tol
    pytest.param("4", {"kmeans_iters": 50, "kmeans_tol": 1e-6}, id="4"),
    # schema 5 configs also held the outcome priors
    pytest.param(
        "5", {"mu_mean": 0.45, "mu_sd": 0.15, "sigma_mean": 0.10, "sigma_sd": 0.05}, id="5"
    ),
    # schema 6 recorded no sha256 of its arrays
    pytest.param("6", {}, id="6"),
])
def test_load_refuses_an_old_schema_manifest(tmp_path, version, removed):
    save_dataset(simulate_dataset(small_cfg()), tmp_path / "ds")
    path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["sha256"]
    config = {**manifest["config"], **removed}
    path.write_text(json.dumps({**manifest, "schema_version": version, "config": config}))
    with pytest.raises(DataError, match="re-run `ite-bench simulate`"):
        load_dataset(tmp_path / "ds")


def test_manifest_refuses_non_finite_values(tmp_path):
    # a config strict JSON cannot hold is refused when it is built, so
    # nothing is simulated and no directory is made
    with pytest.raises(ConfigError, match="c must be finite"):
        save_dataset(simulate_dataset(small_cfg(c=math.inf)), tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


def test_truth_read_audit_counter():
    ds = simulate_dataset(small_cfg())
    assert ds.truth_reads == {}
    ds.expected_outcomes("test")
    ds.expected_outcomes("test")
    ds.expected_outcomes("val")
    assert ds.truth_reads == {"test": 2, "val": 1}


def test_expected_outcomes_are_derived_and_audited():
    ds = simulate_dataset(small_cfg(seed=7))
    # the only way to read them from a dataset is the audited accessor
    assert not hasattr(ds, "Y_expected")
    full = expected_outcomes(ds.X, ds.Z, ds.mu, ds.config.c)
    d_all = ds.X @ (ds.Z[:-1] + ds.Z[-1]).T
    np.testing.assert_array_equal(full, ds.config.c * ds.mu[None, :] * d_all)
    for split, idx in ds.splits.items():
        before = ds.truth_reads.get(split, 0)
        np.testing.assert_array_equal(ds.expected_outcomes(split), full[idx])
        assert ds.truth_reads[split] == before + 1
    reads = dict(ds.truth_reads)
    with pytest.raises(ConfigError, match="unknown split"):
        ds.expected_outcomes("holdout")
    assert ds.truth_reads == reads


def _manual_dataset():
    n, d, k = 4, 1, 2
    x = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    z = np.array([[1.0], [0.5], [0.2]])
    mu_sigma = np.array([[0.5, 0.1], [0.4, 0.1]])
    y = np.arange(n * k, dtype=np.float64).reshape(n, k)
    t_obs = np.array([0, 0, 0, 1])
    return Dataset(
        X=x,
        Z=z,
        mu_sigma=mu_sigma,
        Y_sampled=y,
        t_obs=t_obs,
        splits={
            "train": np.array([0, 1]),
            "val": np.array([2]),
            "test": np.array([3]),
        },
        config=SimConfig(n=n, d=d, k=k),
    )


def _held_out_fit(ds, held_out):
    """A one-epoch fit of a small model on ds with treatment held_out."""
    shape = ModelShape(cov_width=8, cov_out=4, treat_width=4, treat_out=3, head_width=4)
    return train(ds, shape, TrainConfig(epochs_max=1, batch_size=32), held_out=held_out)


def test_holdout_removes_treatment_from_fitting_splits(monkeypatch):
    ds = simulate_dataset(SimConfig(n=400, d=6, k=3, seed=1))
    # the treatments of every training batch, and the validation rows scored
    seen = {"train": [], "val": []}
    real_loss, real_val = model_module.batch_loss, model_module.factual_predictions

    def loss(model, batch, *args, **kwargs):
        seen["train"].append(batch.t)
        return real_loss(model, batch, *args, **kwargs)

    def scored(model, x, t, *args):
        seen["val"].append((x, t))
        return real_val(model, x, t, *args)

    monkeypatch.setattr(model_module, "batch_loss", loss)
    monkeypatch.setattr(model_module, "factual_predictions", scored)
    trained = _held_out_fit(ds, 1)
    assert trained.model.head_updates[1] == 0
    # one epoch: every training row but treatment 1's steps once
    t_train = ds.t_obs[ds.splits["train"]]
    fitted = np.concatenate(seen["train"])
    assert not (fitted == 1).any() and 0 < fitted.size < t_train.size
    np.testing.assert_array_equal(np.sort(fitted), np.sort(t_train[t_train != 1]))
    # validation scores the other validation rows, in split order
    (x_val, t_val), = seen["val"]
    val = ds.splits["val"]
    kept = val[ds.t_obs[val] != 1]
    assert 0 < kept.size < val.size
    np.testing.assert_array_equal(x_val, ds.X[kept])
    np.testing.assert_array_equal(t_val, ds.t_obs[kept])
    # the dataset is untouched, and no truth was read
    assert (ds.t_obs[ds.splits["train"]] == 1).any()
    assert ds.truth_reads == {}


def test_holdout_error_paths():
    ds = _manual_dataset()
    with pytest.raises(ConfigError, match="out of range"):
        _held_out_fit(ds, 2)
    with pytest.raises(DataError, match="nothing is held out"):
        _held_out_fit(ds, 1)  # only present in test
    with pytest.raises(ShapeError, match="training split is empty"):
        _held_out_fit(ds, 0)


def test_held_out_treatment_must_be_an_int():
    # held_out=True once held treatment 1 out
    ds = simulate_dataset(SimConfig(n=200, d=6, k=3, seed=1))
    for held_out in (True, False, 1.0, "1", np.int64(1)):
        with pytest.raises(ConfigError, match="held_out must be an int treatment index"):
            _held_out_fit(ds, held_out)
    assert _held_out_fit(ds, 1).model.head_updates[1] == 0


def _with_nan(arr):
    arr = arr.copy()
    arr.flat[0] = np.nan
    return arr


def _with_first(arr, value):
    arr = arr.copy()
    arr[0] = value
    return arr


# name -> (fields that replace a valid dataset's, the error, a message fragment)
INVALID_DATASET_FIELDS = {
    # n, d and k come from the config, and every array must agree with it
    "X-float32": (lambda ds: {"X": ds.X.astype(np.float32)}, ShapeError, "X"),
    "t_obs-int32": (lambda ds: {"t_obs": ds.t_obs.astype(np.int32)}, ShapeError, "t_obs"),
    "t_obs-a-list": (lambda ds: {"t_obs": ds.t_obs.tolist()}, ShapeError, "t_obs"),
    "Z-one-row-short": (lambda ds: {"Z": ds.Z[1:]}, ShapeError, "Z"),
    "mu_sigma-transposed": (lambda ds: {"mu_sigma": ds.mu_sigma.T}, ShapeError, "mu_sigma"),
    "config-n": (lambda ds: {"config": small_cfg(n=61)}, ShapeError, "X"),
    "Z-nan": (lambda ds: {"Z": _with_nan(ds.Z)}, NumericError, "Z"),
    "mu_sigma-nan": (lambda ds: {"mu_sigma": _with_nan(ds.mu_sigma)}, NumericError, "mu_sigma"),
    "Y_sampled-inf": (
        lambda ds: {"Y_sampled": ds.Y_sampled * np.inf}, NumericError, "Y_sampled"
    ),
    "t_obs-k": (lambda ds: {"t_obs": _with_first(ds.t_obs, 3)}, DataError, "t_obs"),
    "t_obs-negative": (lambda ds: {"t_obs": _with_first(ds.t_obs, -1)}, DataError, "t_obs"),
    "split-index-n": (
        lambda ds: {"splits": {**ds.splits, "test": _with_first(ds.splits["test"], 60)}},
        DataError, "test",
    ),
    "split-index-negative": (
        lambda ds: {"splits": {**ds.splits, "val": _with_first(ds.splits["val"], -1)}},
        DataError, "val",
    ),
    "split-floats": (
        lambda ds: {"splits": {**ds.splits, "train": ds.splits["train"] + 0.0}},
        DataError, "train",
    ),
    "split-a-matrix": (
        lambda ds: {"splits": {**ds.splits, "train": ds.splits["train"][None, :]}},
        DataError, "train",
    ),
    "row-in-two-splits": (
        lambda ds: {"splits": {
            **ds.splits, "val": np.concatenate([ds.splits["val"], ds.splits["train"][:1]])
        }},
        DataError, "exactly once",
    ),
    "row-in-no-split": (
        lambda ds: {"splits": {**ds.splits, "test": ds.splits["test"][1:]}},
        DataError, "exactly once",
    ),
    "split-missing": (
        lambda ds: {"splits": {k: v for k, v in ds.splits.items() if k != "test"}},
        DataError, "exactly",
    ),
}


@pytest.mark.parametrize(
    "bad, error, match", INVALID_DATASET_FIELDS.values(), ids=INVALID_DATASET_FIELDS
)
def test_dataset_refuses_invalid_fields_when_built(bad, error, match):
    ds = simulate_dataset(small_cfg())
    fields = {f.name: getattr(ds, f.name) for f in dataclasses.fields(ds)}
    with pytest.raises(error, match=match):
        Dataset(**{**fields, **bad(ds)})
    with pytest.raises(error, match=match):
        dataclasses.replace(ds, **bad(ds))


# name -> a write into a dataset's checked arrays or split vectors
DATASET_WRITES = {
    "X": lambda ds: ds.X.__setitem__((0, 0), 2.0),
    "Z": lambda ds: ds.Z.__setitem__((0, 0), 2.0),
    "mu_sigma": lambda ds: ds.mu_sigma.__setitem__((0, 1), -1.0),
    "Y_sampled": lambda ds: ds.Y_sampled.__setitem__((0, 0), np.nan),
    "t_obs": lambda ds: ds.t_obs.__setitem__(0, 7),
    "split-train": lambda ds: ds.splits["train"].__setitem__(0, -1),
    "split-val": lambda ds: ds.splits["val"].__setitem__(0, 10**6),
    "split-test": lambda ds: ds.splits["test"].__setitem__(0, ds.splits["train"][0]),
}


@pytest.mark.parametrize("write", DATASET_WRITES.values(), ids=DATASET_WRITES)
@pytest.mark.parametrize("origin", ["simulated", "loaded", "unpickled"])
def test_dataset_arrays_are_read_only_once_checked(tmp_path, write, origin):
    ds = simulate_dataset(small_cfg())
    if origin == "loaded":
        save_dataset(ds, tmp_path / "ds")
        ds = load_dataset(tmp_path / "ds")
    elif origin == "unpickled":
        ds = pickle.loads(pickle.dumps(ds))
    with pytest.raises(ValueError, match="read-only"):
        write(ds)


# field -> a value that would skip the dataset's checks if it could be bound
DATASET_REBINDINGS = {
    "X": lambda ds: np.zeros_like(ds.X),
    "Z": lambda ds: np.full_like(ds.Z, np.nan),
    "mu_sigma": lambda ds: -ds.mu_sigma,
    "Y_sampled": lambda ds: ds.Y_sampled[:1],
    "t_obs": lambda ds: np.full(60, 7),
    "splits": lambda ds: {**ds.splits, "val": ds.splits["train"]},
    "config": lambda ds: small_cfg(n=10),
    "truth_reads": lambda ds: {},
}


@pytest.mark.parametrize("name", DATASET_REBINDINGS)
def test_dataset_fields_cannot_be_rebound(name):
    assert set(DATASET_REBINDINGS) == {f.name for f in dataclasses.fields(Dataset)}
    ds = simulate_dataset(small_cfg())
    before = getattr(ds, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(ds, name, DATASET_REBINDINGS[name](ds))
    assert getattr(ds, name) is before


def test_dataset_splits_mapping_is_read_only():
    ds = simulate_dataset(small_cfg())
    with pytest.raises(TypeError):
        ds.splits["val"] = ds.splits["train"]
    with pytest.raises(TypeError):
        del ds.splits["test"]
    # a new mapping still builds a checked copy
    with pytest.raises(DataError, match="exactly once"):
        dataclasses.replace(ds, splits={**ds.splits, "val": ds.splits["train"]})
    # the truth-read audit stays writable
    ds.expected_outcomes("val")
    assert ds.truth_reads == {"val": 1}


def test_load_refuses_a_manifest_whose_splits_leave_a_row_out(tmp_path):
    save_dataset(simulate_dataset(small_cfg()), tmp_path / "ds")
    path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(path.read_text())
    splits = {**manifest["splits"], "test": manifest["splits"]["test"][1:]}
    path.write_text(json.dumps({**manifest, "splits": splits}))
    with pytest.raises(DataError, match=r"manifest\.json: splits must hold each of the 60 rows"):
        load_dataset(tmp_path / "ds")


def test_mu_and_sigma_are_the_columns_of_mu_sigma():
    ds = simulate_dataset(small_cfg(seed=3))
    np.testing.assert_array_equal(np.column_stack([ds.mu, ds.sigma]), ds.mu_sigma)
    assert np.shares_memory(ds.mu, ds.mu_sigma) and np.shares_memory(ds.sigma, ds.mu_sigma)


def test_moderate_scale_smoke():
    cfg = SimConfig(n=20000, d=512, k=8, seed=0)
    ds = simulate_dataset(cfg)
    np.testing.assert_allclose(
        np.linalg.norm(ds.X, axis=1), 1.0, rtol=0.0, atol=1e-12
    )
    assert set(np.unique(ds.t_obs)) == set(range(8))
    assert len(ds.splits["train"]) == 14000

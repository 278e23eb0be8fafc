import numpy as np
import pytest

from ridkit.tasks import Dataset, NoiseSpec, make_task
from ridkit.weights import (
    RobustnessEstimate,
    WeightConfig,
    WeightVector,
    estimate_sample_robustness,
    kfold_split,
    robustness_to_weights,
)


def _toy_dataset(x, y, name="radian"):
    return Dataset(x=x, y=y, task=make_task(name), noise=NoiseSpec(mode="none"))


def test_kfold_even_split():
    folds = kfold_split(10, 5, seed=0)
    assert [len(f) for f in folds] == [2] * 5
    merged = np.sort(np.concatenate(folds))
    np.testing.assert_array_equal(merged, np.arange(10))


def test_kfold_uneven_sizes():
    folds = kfold_split(7, 3, seed=1)
    assert sorted(len(f) for f in folds) == [2, 2, 3]
    assert len(np.unique(np.concatenate(folds))) == 7


def test_kfold_seeded_and_bounded():
    a = kfold_split(20, 4, seed=9)
    b = kfold_split(20, 4, seed=9)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa, fb)
    with pytest.raises(ValueError):
        kfold_split(5, 6, seed=0)
    with pytest.raises(ValueError):
        kfold_split(5, 1, seed=0)


def test_weight_config_validation():
    with pytest.raises(ValueError):
        WeightConfig(k_folds=1)
    with pytest.raises(ValueError):
        WeightConfig(tau=-0.5)
    with pytest.raises(ValueError):
        WeightConfig(eps=0.0)


def test_hand_computed_weights():
    w = robustness_to_weights(np.array([0.0, 2.0]), tau=1.0, eps=1e-3)
    np.testing.assert_allclose(w.w, [1.76259, 0.23941], atol=1e-5)


def test_tau_zero_gives_uniform_weights():
    r = np.array([0.1, 0.5, 2.4]) / np.mean([0.1, 0.5, 2.4])
    w = robustness_to_weights(r, tau=0.0, eps=1e-3)
    np.testing.assert_allclose(w.w, np.full(3, 1.001), rtol=1e-12)


def test_equal_scores_give_uniform_weights():
    w = robustness_to_weights(np.ones(8), tau=5.0, eps=1e-3)
    np.testing.assert_allclose(w.w, np.full(8, 1.001), rtol=1e-12)


def test_weight_invariants_over_random_scores():
    rng = np.random.default_rng(0)
    for _ in range(200):
        raw = rng.uniform(0.0, 3.0, size=rng.integers(4, 40))
        r = raw / raw.mean() if raw.mean() > 0 else raw
        tau = float(rng.uniform(0.0, 4.0))
        eps = 1e-3
        w = robustness_to_weights(r, tau, eps).w
        assert w.mean() == pytest.approx(1.0 + eps, abs=1e-9)
        assert w.min() >= eps
        # monotone: larger r never gets a larger weight
        order = np.argsort(r)
        assert np.all(np.diff(w[order]) <= 1e-12)


def test_scale_invariance_of_raw_scores():
    rng = np.random.default_rng(1)
    raw = rng.uniform(0.1, 2.0, size=30)
    w1 = robustness_to_weights(raw / raw.mean(), tau=1.7, eps=1e-3).w
    scaled = raw * 123.4
    w2 = robustness_to_weights(scaled / scaled.mean(), tau=1.7, eps=1e-3).w
    np.testing.assert_allclose(w1, w2, rtol=1e-12)


def test_unnormalized_scores_rejected():
    with pytest.raises(ValueError, match="normalized"):
        robustness_to_weights(np.array([1.0, 5.0]), tau=1.0, eps=1e-3)


def test_all_zero_scores_map_to_uniform():
    w = robustness_to_weights(np.zeros(5), tau=3.0, eps=1e-3)
    np.testing.assert_allclose(w.w, np.full(5, 1.001), rtol=1e-12)


def test_robustness_on_deterministic_rule_is_flat():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, size=(300, 2))
    y = (2.0 * x[:, :1]) + x[:, 1:]
    cfg = WeightConfig(k_folds=5, epochs=80, batch_size=64, seed=0)
    r = estimate_sample_robustness(_toy_dataset(x, y), cfg)
    assert r.r.mean() == pytest.approx(1.0, abs=1e-9)
    # normalized scores concentrate near 1 when raw errors are uniformly tiny
    w = robustness_to_weights(r, tau=0.0, eps=1e-3)
    assert w.w.max() - w.w.min() < 0.2


def test_noisy_half_gets_higher_scores():
    rng = np.random.default_rng(3)
    n = 400
    x = rng.uniform(-1, 1, size=(n, 2))
    y = x[:, :1] + x[:, 1:]
    noisy = np.arange(n) >= n // 2
    y[noisy] += rng.standard_normal((n // 2, 1))  # sigma 1 on half the data
    cfg = WeightConfig(k_folds=4, epochs=60, batch_size=64, seed=1)
    r = estimate_sample_robustness(_toy_dataset(x, y), cfg)
    assert r.r[noisy].mean() > 5.0 * r.r[~noisy].mean()
    w = robustness_to_weights(r, tau=2.0, eps=1e-3)
    assert w.w[~noisy].mean() > w.w[noisy].mean()


def test_minimal_dataset_size_and_partition():
    rng = np.random.default_rng(4)
    k = 3
    n = 2 * k
    x = rng.standard_normal((n, 2))
    y = x[:, :1]
    cfg = WeightConfig(k_folds=k, epochs=5, batch_size=4, seed=2)
    r = estimate_sample_robustness(_toy_dataset(x, y), cfg)
    assert r.r.shape == (n,)
    with pytest.raises(ValueError, match="too small"):
        estimate_sample_robustness(_toy_dataset(x[: 2 * k - 1], y[: 2 * k - 1]), cfg)


def test_robustness_deterministic_and_thread_invariant():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((60, 2))
    y = x[:, :1] * 0.5
    cfg = WeightConfig(k_folds=3, epochs=10, batch_size=16, seed=3)
    ds = _toy_dataset(x, y)
    r1 = estimate_sample_robustness(ds, cfg)
    r2 = estimate_sample_robustness(ds, cfg)
    r3 = estimate_sample_robustness(ds, cfg, threads=3)
    np.testing.assert_array_equal(r1.r, r2.r)
    np.testing.assert_array_equal(r1.r, r3.r)


def test_robustness_estimate_validation():
    with pytest.raises(ValueError):
        RobustnessEstimate(r=np.array([-0.1, 2.1]))


def test_weight_vector_rejects_non_finite_and_non_positive():
    for bad in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError):
            WeightVector(w=np.array([1.0, bad]))


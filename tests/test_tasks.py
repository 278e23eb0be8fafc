import math

import numpy as np
import pytest

from ridkit.tasks import (
    GRAVITY,
    NoiseSpec,
    apply_noise_batch,
    generate_dataset,
    kinematics_sigma_x,
    make_task,
    prior_sample,
    task_forward,
)


def _forward(name, x):
    """The noiseless response of one design."""
    return task_forward(make_task(name), np.array([x]))[0]


def _on_noisy_radius_cluster(x) -> bool:
    """Whether radius's n_y noise, which only the noisy cluster gets, moves x's response."""
    task, xs = make_task("radius"), np.repeat([x], 50, axis=0)
    draws = apply_noise_batch(task, NoiseSpec(mode="n_y"), xs, np.random.default_rng(0))
    return not np.array_equal(draws, task_forward(task, xs))


def test_radian_axis_points():
    assert _forward("radian", [1.0, 0.0]) == 0.0
    assert _forward("radian", [0.0, 1.0]) == pytest.approx(math.pi / 2)
    assert _forward("radian", [-1.0, -1.0]) == pytest.approx(5 * math.pi / 4)


def test_radian_range():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1000, 2))
    y = task_forward(make_task("radian"), x)
    assert np.all((y >= 0.0) & (y < 2 * math.pi))


def test_radius_center_points():
    assert _forward("radius", [0.0, 1.0]) == 0.0
    assert not _on_noisy_radius_cluster([0.0, 1.0])  # clean cluster
    assert _forward("radius", [1.0, 1.0]) == pytest.approx(1.0)
    assert not _on_noisy_radius_cluster([1.0, 1.0])
    assert _forward("radius", [0.0, -2.0]) == pytest.approx(1.0)
    assert _on_noisy_radius_cluster([0.0, -2.0])


def test_radius_tie_goes_to_clean_center():
    assert not _on_noisy_radius_cluster([5.0, 0.0])  # equidistant from both centers


def test_kinematics_extended_arm():
    np.testing.assert_allclose(
        _forward("kinematics", [0.5, 0.0, 0.0, 0.0]), [2.0, 0.5], atol=1e-12
    )


def test_kinematics_vertical_arm():
    np.testing.assert_allclose(
        _forward("kinematics", [0.0, math.pi / 2, 0.0, 0.0]), [0.0, 2.0], atol=1e-12
    )


def test_kinematics_reach_bound():
    rng = np.random.default_rng(1)
    task = make_task("kinematics")
    x = prior_sample(task, 500, rng)
    y = task_forward(task, x)
    reach = 2.0 + np.abs(x[:, 0])
    assert np.all(np.linalg.norm(y - np.stack([np.zeros(500), x[:, 0]], axis=1), axis=1) <= reach + 1e-9)


def test_ballistics_unit_range_at_45_degrees():
    y = _forward("ballistics", [0.0, 0.0, math.pi / 4, math.sqrt(GRAVITY)])
    assert y == pytest.approx([1.0])


def test_ballistics_zero_speed_lands_at_start():
    assert _forward("ballistics", [0.7, 0.0, 0.3, 0.0]) == pytest.approx([0.7])


def test_ballistics_range_scales_with_speed_squared():
    theta = 0.6
    r1 = _forward("ballistics", [0.0, 0.0, theta, 2.0])
    r2 = _forward("ballistics", [0.0, 0.0, theta, 4.0])
    assert r2 == pytest.approx(4.0 * r1)


def test_clusters_labels_exact():
    task = make_task("clusters")
    data = generate_dataset(task, NoiseSpec(mode="none"), 500, seed=0)
    labels = {0.0, 1.0 / 3.0, 2.0 / 3.0}
    assert set(np.unique(data.y)).issubset(labels)


def test_clusters_proportions():
    rng = np.random.default_rng(2)
    task = make_task("clusters")
    x = prior_sample(task, 30_000, rng)
    y = task_forward(task, x)
    for label in (0.0, 1.0 / 3.0, 2.0 / 3.0):
        frac = (y == label).mean()
        assert abs(frac - 1.0 / 3.0) < 3.0 / math.sqrt(30_000)


def test_generate_dataset_reproducible():
    task = make_task("radian")
    noise = NoiseSpec(mode="n_x")
    a = generate_dataset(task, noise, 50, seed=7)
    b = generate_dataset(task, noise, 50, seed=7)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)


def test_generate_dataset_boundaries():
    task = make_task("radian")
    with pytest.raises(ValueError):
        generate_dataset(task, NoiseSpec(), 0, seed=0)
    one = generate_dataset(task, NoiseSpec(), 1, seed=0)
    assert one.n == 1


def test_radian_prior_respects_exclusion_ball():
    rng = np.random.default_rng(3)
    x = prior_sample(make_task("radian"), 5000, rng)
    assert np.linalg.norm(x, axis=1).min() >= 0.1


def test_ballistics_prior_truncations():
    rng = np.random.default_rng(4)
    x = prior_sample(make_task("ballistics"), 5000, rng)
    assert x[:, 1].min() >= 0.0
    assert x[:, 3].min() >= 0.1
    assert np.all((x[:, 2] >= math.pi / 18) & (x[:, 2] <= math.pi / 3))


def test_mode_none_is_deterministic_forward_bitwise():
    rng = np.random.default_rng(5)
    for name in ("radian", "clusters", "radius", "kinematics", "ballistics"):
        task = make_task(name)
        x = prior_sample(task, 50, rng)
        y1 = apply_noise_batch(task, NoiseSpec(mode="none"), x, np.random.default_rng(0))
        np.testing.assert_array_equal(y1, task_forward(task, x))


def test_n_y_noise_is_zero_mean():
    task = make_task("ballistics")
    noise = NoiseSpec(mode="n_y", y_sigma=0.1)
    rng = np.random.default_rng(6)
    x = prior_sample(task, 1, rng)
    n = 10_000
    draws = apply_noise_batch(task, noise, np.repeat(x, n, axis=0), rng)
    clean = task_forward(task, x)[0, 0]
    sigma = 0.1 * (1 + abs(clean))
    assert abs(draws.mean() - clean) < 4 * sigma / math.sqrt(n)


def test_constant_sigma_ny_mean_bound():
    # constant-scale response noise: 10k-draw mean within 4*sigma/sqrt(n)
    task = make_task("radius")
    noise = NoiseSpec(mode="n_y", y_sigma=0.1)
    rng = np.random.default_rng(7)
    x = np.array([[0.0, -1.8]])  # noisy cluster
    draws = apply_noise_batch(task, noise, np.repeat(x, 10_000, axis=0), rng)
    clean = task_forward(task, x)[0, 0]
    assert abs(draws.mean() - clean) < 0.004


def test_radius_noise_only_on_noisy_cluster():
    task = make_task("radius")
    noise = NoiseSpec(mode="n_y")
    rng = np.random.default_rng(8)
    clean_x = np.repeat([[0.3, 1.4]], 200, axis=0)  # nearer (0, 1)
    noisy_x = np.repeat([[0.3, -1.4]], 200, axis=0)
    clean_draws = apply_noise_batch(task, noise, clean_x, rng)
    noisy_draws = apply_noise_batch(task, noise, noisy_x, rng)
    np.testing.assert_array_equal(clean_draws, task_forward(task, clean_x))
    assert noisy_draws.std() > 0.05


def test_radian_wraparound_variance_blows_up_near_gap():
    # x-noise near the positive axis flips the response between ~0 and ~2pi
    task = make_task("radian")
    noise = NoiseSpec(mode="n_x", x_sigma=0.05)
    rng = np.random.default_rng(9)
    on_gap = apply_noise_batch(task, noise, np.repeat([[1.0, 0.0]], 2000, axis=0), rng)
    off_gap = apply_noise_batch(task, noise, np.repeat([[-1.0, 0.0]], 2000, axis=0), rng)
    near_zero = (on_gap < 1.0).any() and (on_gap > 5.0).any()
    assert near_zero
    assert on_gap.var() > 100 * off_gap.var()


def test_kinematics_sigma_monotone_in_endpoint_height():
    task = make_task("kinematics")
    low = np.array([[-0.5, -0.3, 0.1, 0.2]])
    high = np.array([[0.5, 0.9, 0.1, 0.2]])
    assert kinematics_sigma_x(task, high)[0] <= kinematics_sigma_x(task, low)[0]
    # and directly: raising only the rail raises the endpoint, lowering sigma
    base = np.array([[0.0, 0.2, 0.1, -0.1]])
    raised = base.copy()
    raised[0, 0] += 1.0
    assert kinematics_sigma_x(task, raised)[0] < kinematics_sigma_x(task, base)[0]


def test_apply_noise_batch_single_row():
    task = make_task("kinematics")
    noise = NoiseSpec(mode="n_xy")
    y = apply_noise_batch(task, noise, np.array([[0.1, 0.2, 0.3, 0.4]]), np.random.default_rng(10))
    assert y.shape == (1, 2)
    assert np.all(np.isfinite(y))


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        make_task("nope")
    with pytest.raises(ValueError):
        NoiseSpec(mode="weird")
    with pytest.raises(ValueError):
        NoiseSpec(mode="n_x", x_sigma=-0.1)

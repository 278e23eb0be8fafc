import math
from dataclasses import replace

import numpy as np
import pytest

from ridkit.flow import (
    CouplingBlock,
    WnllConfig,
    build_flow,
    coupling_forward,
    coupling_inverse,
    flow_forward,
    flow_from_jsonable,
    flow_log_prob,
    flow_sample,
    flow_to_jsonable,
    train_flow_wnll,
)
from ridkit.neural import MlpParams, TrainingError, init_mlp, mlp_forward


def _randomized(model, seed):
    """Replaces the identity-initialized subnets with random ones."""
    rng = np.random.default_rng(seed)
    blocks = tuple(
        replace(
            blk,
            s_params=init_mlp(blk.s_params.spec, rng),
            t_params=init_mlp(blk.t_params.spec, rng),
        )
        for blk in model.blocks
    )
    return replace(model, blocks=blocks, _cache={})


def test_identity_init_block_is_identity():
    model = build_flow(2, 1, n_blocks=1, hidden=(8,), seed=0)
    u = np.random.default_rng(0).standard_normal((10, 2))
    cond = np.zeros((10, 1))
    v, logdet = coupling_forward(model.blocks[0], u, cond)
    np.testing.assert_array_equal(v, u)
    np.testing.assert_array_equal(logdet, np.zeros((10, 1)))
    np.testing.assert_array_equal(coupling_inverse(model.blocks[0], u, cond), u)


def test_constant_log2_scale_doubles_active_coordinate():
    # force the scale subnet to emit exactly log 2 through the soft clamp
    model = build_flow(2, 1, n_blocks=1, hidden=(4,), clamp=2.0, seed=0)
    blk = model.blocks[0]
    raw_bias = math.tan(math.log(2.0) * math.pi / (2.0 * blk.clamp))
    s = blk.s_params
    new_biases = list(s.biases)
    new_biases[-1] = np.full_like(new_biases[-1], raw_bias)
    blk = replace(blk, s_params=MlpParams(s.spec, s.weights, tuple(new_biases)))
    u = np.array([[3.0, 5.0]])
    v, logdet = coupling_forward(blk, u, np.zeros((1, 1)))
    active = blk.active[0]
    np.testing.assert_allclose(v[0, active], 2.0 * u[0, active], rtol=1e-12)
    np.testing.assert_allclose(logdet, [[math.log(2.0)]], rtol=1e-12)


def test_constant_shift_inverse_subtracts():
    model = build_flow(2, 1, n_blocks=1, hidden=(4,), seed=0)
    blk = model.blocks[0]
    t = blk.t_params
    new_biases = list(t.biases)
    new_biases[-1] = np.ones_like(new_biases[-1])
    blk = replace(blk, t_params=MlpParams(t.spec, t.weights, tuple(new_biases)))
    u = np.array([[0.25, -1.5]])
    cond = np.zeros((1, 1))
    v, _ = coupling_forward(blk, u, cond)
    active = blk.active[0]
    assert v[0, active] == pytest.approx(u[0, active] + 1.0)
    np.testing.assert_allclose(coupling_inverse(blk, v, cond), u, atol=1e-12)


@pytest.mark.parametrize("d_x,d_y", [(1, 1), (2, 1), (3, 2), (4, 2)])
def test_round_trip_random_parameters(d_x, d_y):
    model = _randomized(build_flow(d_x, d_y, n_blocks=4, hidden=(8, 8), seed=0), seed=1)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10):
        u = rng.standard_normal((100, d_x))
        cond = rng.standard_normal((100, d_y))
        for blk in model.blocks:
            v, _ = coupling_forward(blk, u, cond)
            back = coupling_inverse(blk, v, cond)
            worst = max(worst, np.abs(back - u).max())
    assert worst < 1e-9


def test_logdet_matches_finite_difference_jacobian():
    for d_x in (2, 3):
        model = _randomized(build_flow(d_x, 1, n_blocks=3, hidden=(6,), seed=3), seed=4)
        rng = np.random.default_rng(5)
        z0 = rng.standard_normal((1, d_x))
        y0 = rng.standard_normal((1, 1))
        _, ld = flow_forward(model, z0, y0)
        h = 1e-6
        jac = np.zeros((d_x, d_x))
        for j in range(d_x):
            zp, zm = z0.copy(), z0.copy()
            zp[0, j] += h
            zm[0, j] -= h
            jac[:, j] = (flow_forward(model, zp, y0)[0] - flow_forward(model, zm, y0)[0])[0] / (2 * h)
        numeric = math.log(abs(np.linalg.det(jac)))
        assert abs(ld[0, 0] - numeric) / max(abs(numeric), 1.0) < 1e-4


def test_identity_model_log_prob_is_standard_normal():
    model = build_flow(2, 1, n_blocks=4, hidden=(8,), seed=0)
    lp = flow_log_prob(model, np.array([[0.0, 0.0]]), np.array([[2.5]]))
    assert lp[0, 0] == pytest.approx(-math.log(2.0 * math.pi), abs=1e-12)


def test_identity_model_log_prob_independent_of_condition():
    model = build_flow(2, 1, n_blocks=4, hidden=(8,), seed=0)
    x = np.random.default_rng(1).standard_normal((5, 2))
    lp1 = flow_log_prob(model, x, np.zeros((5, 1)))
    lp2 = flow_log_prob(model, x, np.full((5, 1), 7.0))
    np.testing.assert_array_equal(lp1, lp2)


def test_change_of_variables_consistency():
    model = _randomized(build_flow(3, 2, n_blocks=4, hidden=(8, 8), seed=6), seed=7)
    rng = np.random.default_rng(8)
    z = rng.standard_normal((200, 3))
    y = rng.standard_normal((200, 2))
    x, ld = flow_forward(model, z, y)
    lp = flow_log_prob(model, x, y)
    expected = -0.5 * 3 * math.log(2.0 * math.pi) - 0.5 * (z**2).sum(1, keepdims=True) - ld
    assert np.abs(lp - expected).max() < 1e-9


def test_clamp_bounds_every_log_scale():
    clamp = 1.5
    model = _randomized(build_flow(2, 1, n_blocks=3, hidden=(8,), clamp=clamp, seed=9), seed=10)
    rng = np.random.default_rng(11)
    u = 50.0 * rng.standard_normal((500, 2))  # extreme inputs push atan to saturation
    cond = 50.0 * rng.standard_normal((500, 1))
    for blk in model.blocks:
        h = np.concatenate([u[:, list(blk.passive)], cond], axis=1)
        s_raw = mlp_forward(blk.s_params, h)
        s_eff = np.arctan(s_raw) * (clamp * 2.0 / math.pi)
        assert np.abs(s_eff).max() < clamp


def test_sampling_reproducible_and_scored_finite():
    model = _randomized(build_flow(2, 1, n_blocks=4, hidden=(8,), seed=12), seed=13)
    y = np.array([[0.3], [1.2]])
    a = flow_sample(model, y, 7, seed=99)
    b = flow_sample(model, y, 7, seed=99)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (14, 2)
    lp = flow_log_prob(model, a, np.repeat(y, 7, axis=0))
    assert np.all(np.isfinite(lp))


def test_identity_model_samples_are_standard_normal():
    model = build_flow(2, 1, n_blocks=4, hidden=(8,), seed=0)
    n = 4000
    xs = flow_sample(model, np.array([[0.0]]), n, seed=5)
    assert np.abs(xs.mean(axis=0)).max() < 4.0 / math.sqrt(n)


def test_wnll_equal_weights_is_scaled_nll():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((64, 2))
    y = rng.standard_normal((64, 1))
    model = build_flow(2, 1, n_blocks=2, hidden=(8,), seed=0)
    cfg = WnllConfig(epochs=1, batch_size=64, seed=0, sigma_aug=0.0)
    _, trace_unit = train_flow_wnll(model, x, y, np.ones(64), cfg)
    _, trace_scaled = train_flow_wnll(model, x, y, np.full(64, 3.0), cfg)
    assert trace_scaled[0] == pytest.approx(3.0 * trace_unit[0], rel=1e-12)


def test_wnll_none_weights_matches_all_ones_bitwise():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((50, 2))
    y = rng.standard_normal((50, 1))
    model = build_flow(2, 1, n_blocks=2, hidden=(8,), seed=1)
    cfg = WnllConfig(epochs=3, batch_size=16, seed=2)
    m1, t1 = train_flow_wnll(model, x, y, None, cfg)
    m2, t2 = train_flow_wnll(model, x, y, np.ones(50), cfg)
    assert t1 == t2
    for b1, b2 in zip(m1.blocks, m2.blocks):
        for w1, w2 in zip(b1.s_params.weights, b2.s_params.weights):
            np.testing.assert_array_equal(w1, w2)


def test_wnll_downweights_a_point():
    # two-point dataset with weights (1, ~0): nearly all samples end up
    # nearer the heavy point
    x = np.array([[1.0, 1.0], [-1.0, -1.0]])
    x = np.repeat(x, 30, axis=0)
    y = np.zeros((60, 1))
    w = np.where(np.arange(60) < 30, 1.0, 1e-6)
    model = build_flow(2, 1, n_blocks=6, hidden=(16,), seed=3)
    cfg = WnllConfig(epochs=1000, batch_size=60, seed=4, sigma_aug=0.02)
    trained, _ = train_flow_wnll(model, x, y, w, cfg)
    samples = flow_sample(trained, np.zeros((1, 1)), 10_000, seed=6)
    d_heavy = np.linalg.norm(samples - np.array([1.0, 1.0]), axis=1)
    d_light = np.linalg.norm(samples - np.array([-1.0, -1.0]), axis=1)
    assert (d_heavy < d_light).mean() >= 0.95


def test_wnll_reaches_gaussian_entropy():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((2000, 2))
    y = np.zeros((2000, 1))
    model = build_flow(2, 1, n_blocks=4, hidden=(32,), seed=5)
    cfg = WnllConfig(epochs=25, batch_size=250, seed=6)
    _, trace = train_flow_wnll(model, x, y, None, cfg)
    assert trace[-1] == pytest.approx(1.0 + math.log(2.0 * math.pi), abs=0.1)


def test_wnll_validates_weights():
    x = np.zeros((4, 2))
    y = np.zeros((4, 1))
    model = build_flow(2, 1, n_blocks=2, hidden=(4,), seed=0)
    with pytest.raises(ValueError, match="weights"):
        train_flow_wnll(model, x, y, np.ones(3), WnllConfig(epochs=1))
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            train_flow_wnll(model, x, y, np.array([1.0, 1.0, bad, 1.0]), WnllConfig(epochs=1))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_wnll_non_finite_loss_names_the_epoch():
    # finite weights near the float64 limit overflow the weighted batch sum
    rng = np.random.default_rng(20)
    x = rng.standard_normal((8, 2))
    y = rng.standard_normal((8, 1))
    model = build_flow(2, 1, n_blocks=2, hidden=(4,), seed=0)
    with pytest.raises(TrainingError, match="non-finite loss at epoch 0"):
        train_flow_wnll(model, x, y, np.full(8, 1e308), WnllConfig(epochs=2, batch_size=8))


def test_flow_serialization_round_trip():
    model = _randomized(build_flow(3, 2, n_blocks=3, hidden=(8,), seed=17), seed=18)
    model = replace(
        model,
        x_shift=np.array([[0.1, -0.2, 0.3]]),
        x_scale=np.array([[1.5, 0.7, 2.0]]),
        y_shift=np.array([[0.5, 0.0]]),
        y_scale=np.array([[2.0, 0.4]]),
        _cache={},
    )
    back = flow_from_jsonable(flow_to_jsonable(model))
    rng = np.random.default_rng(19)
    x = rng.standard_normal((20, 3))
    y = rng.standard_normal((20, 2))
    np.testing.assert_array_equal(flow_log_prob(model, x, y), flow_log_prob(back, x, y))
    np.testing.assert_array_equal(
        flow_sample(model, y, 3, seed=1), flow_sample(back, y, 3, seed=1)
    )

import base64
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ridkit.fileio import write_json
from ridkit.flow import (
    _TILE_ROWS,
    WnllConfig,
    _coupling_forward,
    _to_latent,
    build_flow,
    flow_forward,
    flow_from_jsonable,
    flow_log_prob,
    flow_sample,
    flow_to_jsonable,
    train_flow_wnll,
    value_and_gradients,
)
from ridkit.neural import (
    MlpParams,
    MlpSpec,
    TrainingError,
    init_mlp,
    mlp_forward,
    with_bias_column,
)


def _random_subnets(spec, rng):
    """A random s subnet, then a random t subnet, as one stack."""
    s, t = init_mlp(spec, rng), init_mlp(spec, rng)
    return MlpParams(spec, tuple(map(np.stack, zip(s.layers, t.layers))))


def _randomized(model, seed):
    """Replaces the identity-initialized subnets with random ones."""
    rng = np.random.default_rng(seed)
    blocks = tuple(replace(blk, subnets=_random_subnets(blk.subnets.spec, rng))
                   for blk in model.blocks)
    return replace(model, blocks=blocks)


def _one_block(model, blk):
    """blk alone as a flow, over model's standardization (identity as
    build_flow leaves it) and the identity permutation, so the flow's
    passes are the block's."""
    return replace(model, blocks=(blk,), perms=(tuple(range(model.d_x)),))


def _block_inverse(model, blk, v, cond):
    return _to_latent(_one_block(model, blk), v, cond)[0]


def test_identity_init_block_is_identity():
    model = build_flow(2, 1, n_blocks=1, hidden=(8,), seed=0)
    u = np.random.default_rng(0).standard_normal((10, 2))
    cond = np.zeros((10, 1))
    v, logdet = flow_forward(model, u, cond)
    np.testing.assert_array_equal(v, u)
    np.testing.assert_array_equal(logdet, np.zeros((10, 1)))
    np.testing.assert_array_equal(_block_inverse(model, model.blocks[0], u, cond), u)


def _with_final_bias(blk, half, value):
    """blk with every output bias (the last row of the last layer) of its s
    (half 0) or t (half 1) subnet set to value."""
    layers = [a.copy() for a in blk.subnets.layers]
    layers[-1][half, -1] = value
    return replace(blk, subnets=blk.subnets.with_arrays(layers))


def test_constant_log2_scale_doubles_active_coordinate():
    # force the scale subnet to emit exactly log 2 through the soft clamp
    model = build_flow(2, 1, n_blocks=1, hidden=(4,), clamp=2.0, seed=0)
    blk = model.blocks[0]
    raw_bias = math.tan(math.log(2.0) * math.pi / (2.0 * model.clamp))
    blk = _with_final_bias(blk, 0, raw_bias)
    u = np.array([[3.0, 5.0]])
    v, logdet = flow_forward(_one_block(model, blk), u, np.zeros((1, 1)))
    active = blk.active[0]
    np.testing.assert_allclose(v[0, active], 2.0 * u[0, active], rtol=1e-12)
    np.testing.assert_allclose(logdet, [[math.log(2.0)]], rtol=1e-12)


def test_constant_shift_inverse_subtracts():
    model = build_flow(2, 1, n_blocks=1, hidden=(4,), seed=0)
    blk = model.blocks[0]
    blk = _with_final_bias(blk, 1, 1.0)
    u = np.array([[0.25, -1.5]])
    cond = np.zeros((1, 1))
    v, _ = flow_forward(_one_block(model, blk), u, cond)
    active = blk.active[0]
    assert v[0, active] == pytest.approx(u[0, active] + 1.0)
    np.testing.assert_allclose(_block_inverse(model, blk, v, cond), u, atol=1e-12)


@pytest.mark.parametrize("d_x,d_y", [(1, 1), (2, 1), (3, 2), (4, 2)])
def test_round_trip_random_parameters(d_x, d_y):
    model = _randomized(build_flow(d_x, d_y, n_blocks=4, hidden=(8, 8), seed=0), seed=1)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10):
        u = rng.standard_normal((100, d_x))
        cond = rng.standard_normal((100, d_y))
        for blk in model.blocks:
            v, _ = flow_forward(_one_block(model, blk), u, cond)
            back = _block_inverse(model, blk, v, cond)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["x", "y"])
def test_log_prob_and_wnll_reject_non_finite_data(where, bad):
    model = build_flow(2, 1, n_blocks=2, hidden=(4,), seed=0)
    data = {"x": np.zeros((6, 2)), "y": np.zeros((6, 1))}
    data[where][2, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        flow_log_prob(model, data["x"], data["y"])
    with pytest.raises(ValueError, match="finite"):
        train_flow_wnll(model, data["x"], data["y"], None, WnllConfig(epochs=1))


@pytest.mark.parametrize("d_x", [1, 2, 3])
def test_value_and_gradients_match_finite_differences(d_x):
    # d_x=1 has blocks with an empty passive half
    rng = np.random.default_rng(30 + d_x)
    model = _randomized(build_flow(d_x, 2, n_blocks=3, hidden=(5,), seed=d_x), seed=d_x)
    model = replace(
        model,
        x_shift=rng.standard_normal((1, d_x)),
        x_scale=rng.uniform(0.5, 2.0, (1, d_x)),
        y_shift=rng.standard_normal((1, 2)),
        y_scale=rng.uniform(0.5, 2.0, (1, 2)),
    )
    x = rng.standard_normal((7, d_x))
    y = rng.standard_normal((7, 2))
    w_row = rng.uniform(0.2, 3.0, (1, 7)) / 7

    def loss_of_model():
        return (w_row @ -flow_log_prob(model, x, y))[0, 0]

    grads = model.with_arrays([np.zeros_like(a) for a in model.arrays()])
    loss = value_and_gradients(model, {"x": x, "y": y, "w_row": w_row}, grads)
    assert loss == pytest.approx(loss_of_model(), rel=1e-12)
    h = 1e-6
    # each array the model holds, perturbed in place, against its gradient
    for i, (arr, grad) in enumerate(zip(model.arrays(), grads.arrays(), strict=True)):
        assert grad.shape == arr.shape
        for ij in np.ndindex(arr.shape):
            orig = arr[ij]
            arr[ij] = orig + h
            up = loss_of_model()
            arr[ij] = orig - h
            down = loss_of_model()
            arr[ij] = orig
            fd = (up - down) / (2.0 * h)
            assert abs(grad[ij] - fd) <= 1e-6 * max(abs(fd), 1.0), (i, ij)


def test_flow_arrays_are_each_blocks_s_then_t_arrays():
    # one array per layer of each block, s stacked before t
    model = build_flow(3, 2, n_blocks=2, hidden=(4,), seed=0)
    expect = [a for blk in model.blocks for a in blk.subnets.layers]
    assert all(a is b for a, b in zip(model.arrays(), expect, strict=True))
    assert [a.shape for a in model.arrays()] == [(2, 4, 4), (2, 5, 2), (2, 5, 4), (2, 5, 1)]
    rng = np.random.default_rng(0)
    s, t = (init_mlp(model.blocks[0].subnets.spec, rng, zero_final=True) for _ in "st")
    for a, sa, ta in zip(model.blocks[0].subnets.layers, s.layers, t.layers, strict=True):
        np.testing.assert_array_equal(a[0], sa)
        np.testing.assert_array_equal(a[1], ta)
    back = model.with_arrays([a + 1.0 for a in model.arrays()])
    assert back.perms == model.perms and back.x_scale is model.x_scale
    for a, b in zip(back.arrays(), model.arrays(), strict=True):
        np.testing.assert_array_equal(a, b + 1.0)
    with pytest.raises(ValueError):
        model.with_arrays(model.arrays()[:-1])


def test_clamp_bounds_every_log_scale():
    clamp = 1.5
    model = _randomized(build_flow(2, 1, n_blocks=3, hidden=(8,), clamp=clamp, seed=9), seed=10)
    rng = np.random.default_rng(11)
    u = 50.0 * rng.standard_normal((500, 2))  # extreme inputs push atan to saturation
    cond = 50.0 * rng.standard_normal((500, 1))
    for blk in model.blocks:
        h = with_bias_column(np.concatenate([u[:, list(blk.passive)], cond], axis=1))
        s_raw = mlp_forward(blk.subnets, h)[0]
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


def _untiled_forward(model, z, y):
    """flow_forward as it ran before row tiling: every block over the whole batch."""
    dtype = model.blocks[0].subnets.layers[0].dtype
    cond1 = with_bias_column((y - model.y_shift) / model.y_scale, dtype)
    u, logdet = z.astype(dtype), np.zeros((z.shape[0], 1))
    for blk, perm in zip(model.blocks, model.perms):
        u, ld = _coupling_forward(blk, model.clamp, u[:, list(perm)], cond1)
        logdet = logdet + ld
    return u * model.x_scale + model.x_shift, logdet + float(np.log(model.x_scale).sum())


def _standardized(model, seed):
    rng = np.random.default_rng(seed)
    return replace(
        model,
        x_shift=rng.standard_normal((1, model.d_x)), x_scale=rng.uniform(0.5, 2.0, (1, model.d_x)),
        y_shift=rng.standard_normal((1, model.d_y)), y_scale=rng.uniform(0.5, 2.0, (1, model.d_y)),
    )


@pytest.mark.parametrize("n", [1, _TILE_ROWS - 1, _TILE_ROWS, _TILE_ROWS + 1, 3 * _TILE_ROWS + 37])
def test_tiled_forward_matches_untiled(n):
    model = _standardized(_randomized(build_flow(3, 2, n_blocks=3, hidden=(32, 32), seed=30),
                                      seed=31), seed=32)
    rng = np.random.default_rng(33)
    z, y = rng.standard_normal((n, 3)), rng.standard_normal((n, 2))
    x, ld = flow_forward(model, z, y)
    x_ref, ld_ref = _untiled_forward(model, z, y)
    assert x.shape == (n, 3) and ld.shape == (n, 1)
    np.testing.assert_allclose(x, x_ref, rtol=1e-12)
    np.testing.assert_allclose(ld, ld_ref, rtol=1e-12)


def _assert_within_float32_rounding(x, x_ref, model):
    """x is x_ref up to float32 rounding: eps/2 for each multiply-add of
    every subnet layer the flow runs, each scaled by up to e^clamp by the
    block it feeds, relative to the largest |x_ref|; each block runs an s and
    a t subnet."""
    roundings = 2 * sum(din for blk in model.blocks for din, _ in blk.subnets.spec.layer_dims)
    tol = roundings * np.finfo(np.float32).eps / 2 * math.exp(model.clamp)
    np.testing.assert_allclose(x, x_ref, rtol=0, atol=tol * np.abs(x_ref).max())


def test_tiled_sample_draws_the_untiled_latents_and_repeats_bitwise():
    model = _standardized(_randomized(build_flow(3, 2, n_blocks=3, hidden=(16,), seed=34),
                                      seed=35), seed=36)
    y = np.random.default_rng(37).standard_normal((3 * _TILE_ROWS + 37, 2))
    a = flow_sample(model, y, 2, seed=38)
    np.testing.assert_array_equal(a, flow_sample(model, y, 2, seed=38))
    z = np.random.default_rng(38).standard_normal((a.shape[0], 3))
    f32 = model.with_arrays([a.astype(np.float32) for a in model.arrays()])
    _assert_within_float32_rounding(a, _untiled_forward(f32, z, np.repeat(y, 2, axis=0))[0],
                                    model)


def test_sample_runs_float32_within_rounding_of_the_float64_forward():
    model = _standardized(_randomized(build_flow(3, 2, n_blocks=3, hidden=(32, 32), seed=40),
                                      seed=41), seed=42)
    y = np.random.default_rng(43).standard_normal((300, 2))
    x = flow_sample(model, y, 4, seed=44)
    z = np.random.default_rng(44).standard_normal((x.shape[0], 3))
    x64, _ = flow_forward(model, z, np.repeat(y, 4, axis=0))
    assert x.dtype == np.float64
    assert not np.array_equal(x, x64)  # the blocks ran in float32
    _assert_within_float32_rounding(x, x64, model)


def test_sample_rejects_parameters_that_overflow_float32():
    model = build_flow(2, 1, n_blocks=1, hidden=(4,), seed=0)
    arrays = model.arrays()
    arrays[0] = np.full_like(arrays[0], 1e39)
    with pytest.raises(ValueError, match="overflow float32"):
        flow_sample(model.with_arrays(arrays), np.zeros((1, 1)), 2, seed=0)


def test_forward_rejects_unequal_row_counts():
    model = build_flow(2, 1, n_blocks=1, hidden=(4,), seed=0)
    with pytest.raises(ValueError, match="equal row counts"):
        flow_forward(model, np.zeros((_TILE_ROWS, 2)), np.zeros((2 * _TILE_ROWS, 1)))


def test_sampling_memory_stays_tile_sized():
    # 2048 targets x 32 designs through 6 blocks of 64x64 subnets: whole-batch
    # layers peak near 75 MB here, 1,024-row tiles near 7 MB
    model = _randomized(build_flow(4, 2, n_blocks=6, hidden=(64, 64), seed=39), seed=40)
    y = np.random.default_rng(41).standard_normal((2048, 2))
    tracemalloc.start()
    try:
        flow_sample(model, y, 32, seed=42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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
        for w1, w2 in zip(b1.subnets.layers, b2.subnets.layers, strict=True):
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


def test_wnll_rejects_rows_whose_standardization_overflows():
    # finite rows whose spread overflows the float64 variance, so their
    # standardization is not finite
    rng = np.random.default_rng(21)
    x = rng.standard_normal((8, 2))
    x[:, 0] *= 1e200
    model = build_flow(2, 1, n_blocks=2, hidden=(4,), seed=0)
    with pytest.raises(ValueError, match="do not standardize to finite float32"):
        train_flow_wnll(model, x, rng.standard_normal((8, 1)), None, WnllConfig(epochs=1))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_wnll_non_finite_loss_names_the_epoch():
    # finite weights near the float64 limit overflow the weighted batch sum
    rng = np.random.default_rng(20)
    x = rng.standard_normal((8, 2))
    y = rng.standard_normal((8, 1))
    model = build_flow(2, 1, n_blocks=2, hidden=(4,), seed=0)
    with pytest.raises(TrainingError, match="non-finite loss at epoch 0"):
        train_flow_wnll(model, x, y, np.full(8, 1e308), WnllConfig(epochs=2, batch_size=8))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("error:invalid value:RuntimeWarning")
def test_wnll_non_finite_loss_skips_the_reverse_pass():
    # the reverse pass of an infinite loss would run on inf and nan
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
    )
    back = flow_from_jsonable(flow_to_jsonable(model, "0" * 64, None))
    # bitwise: every subnet array, as shaped and typed, has the same bytes
    assert [(a.shape, a.dtype, a.tobytes()) for a in back.arrays()] == [
        (a.shape, a.dtype, a.tobytes()) for a in model.arrays()]
    rng = np.random.default_rng(19)
    x = rng.standard_normal((20, 3))
    y = rng.standard_normal((20, 2))
    np.testing.assert_array_equal(flow_log_prob(model, x, y), flow_log_prob(back, x, y))
    np.testing.assert_array_equal(
        flow_sample(model, y, 3, seed=1), flow_sample(back, y, 3, seed=1)
    )


def _values(text):
    """The entries a model.json layer string holds."""
    return np.frombuffer(base64.b64decode(text, validate=True), "<f8")


def _text(values):
    """A model.json layer string holding the given entries."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def _string_weight(subnets):
    # the layer as format 3 held it: the flat list of its entries
    subnets[0]["s"][0] = _values(subnets[0]["s"][0]).tolist()
    return subnets


def _true_bias(subnets):
    subnets[1]["t"][-1] = True
    return subnets


def _short_layer(subnets):
    subnets[0]["t"][1] = _text(_values(subnets[0]["t"][1])[:-1])
    return subnets


def _non_alphabet(subnets):
    subnets[0]["s"][1] = "*" + subnets[0]["s"][1][1:]
    return subnets


def _ragged_bytes(subnets):
    # 37 bytes: four entries and five bytes of a fifth
    raw = base64.b64decode(subnets[1]["s"][1])
    subnets[1]["s"][1] = base64.b64encode(raw[:-3]).decode("ascii")
    return subnets


def _inf_weight(subnets):
    values = _values(subnets[1]["t"][0]).copy()
    values[3] = -np.inf
    subnets[1]["t"][0] = _text(values)
    return subnets


def test_layer_strings_round_trip_every_float64_bitwise(tmp_path):
    model = _randomized(build_flow(3, 2, n_blocks=2, hidden=(8,), seed=3), seed=4)
    # a signed zero, the least subnormal, the extremes near float64's largest
    # value, and 0.1, which float32 cannot hold
    special = [-0.0, 5e-324, 1.7e308, -1.7e308, 0.1]
    assert float(np.float32(0.1)) != 0.1
    arrays = [a.copy() for a in model.arrays()]
    arrays[0].flat[:len(special)] = special
    arrays[-1].flat[-len(special):] = special
    model = model.with_arrays(arrays)
    doc = flow_to_jsonable(model, "0" * 64, None)
    back = flow_from_jsonable(doc)
    for a, b in zip(model.arrays(), back.arrays(), strict=True):
        assert (b.shape, b.dtype) == (a.shape, np.float64)
        np.testing.assert_array_equal(b.view(np.uint64), a.view(np.uint64))
    for name in ("a.json", "b.json"):
        write_json(tmp_path / name, flow_to_jsonable(model, "0" * 64, None))
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    layers = [text for sub in doc["subnets"] for name in "st" for text in sub[name]]
    assert layers and all(_text(_values(text)) == text for text in layers)


@pytest.mark.parametrize("key, value, match", [
    ("x_scale", [1.0, 0.0], "x_scale must be positive"),
    ("y_shift", [float("nan")], "y_shift must be finite"),
    ("clamp", float("nan"), "clamp must be finite and positive"),
    ("clamp", float("inf"), "clamp must be finite and positive"),
    ("masks", [[0, 0], [1]], "not a set of coordinates"),
    ("masks", [[7], [1]], "not a set of coordinates"),
    ("d_x", 2.5, "d_x 2.5 is not an integer"),
    ("d_y", True, "d_y True is not an integer"),
    ("masks", [[0.5], [1]], "mask entry 0.5 is not an integer"),
    ("masks", [[1.0], [0]], "mask entry 1.0 is not an integer"),
    ("permutations", [[0, 1], [1, 0.0]], "permutation entry 0.0 is not an integer"),
    ("clamp", "2.0", "clamp must hold JSON numbers only, not a str"),
    ("clamp", True, "clamp must hold JSON numbers only, not a bool"),
    ("x_scale", ["1", "1"], "x_scale must hold JSON numbers only, not a str"),
    ("subnets", _string_weight, "block 0 s layer 0 is not a base64 string, but a list"),
    ("subnets", _true_bias, "block 1 t layer 1 is not a base64 string, but a bool"),
    ("hidden", [3.0], "hidden entry 3.0 is not an integer"),
    ("hidden", [True], "hidden entry True is not an integer"),
    ("hidden", [0], "hidden entry 0 is below 1"),
    ("hidden", "64", "hidden '64' is not a list"),
    ("y_scale", [1.0, 1.0], "y_scale has 2 entries, not 1"),
    ("subnets", _short_layer, "block 0 t layer 1 has 4 entries, not 5"),
    ("subnets", _non_alphabet, "block 0 s layer 1 is not valid base64"),
    ("subnets", _ragged_bytes, "block 1 s layer 1 has 37 bytes, not 8 x 5"),
    ("subnets", _inf_weight, "block 1 t layer 0 must be finite"),
])
def test_flow_from_jsonable_rejects_invalid_numbers_and_masks(key, value, match):
    doc = flow_to_jsonable(build_flow(2, 1, n_blocks=2, hidden=(4,), seed=0), "0" * 64, None)
    doc[key] = value(doc[key]) if callable(value) else value
    with pytest.raises(ValueError, match=match):
        flow_from_jsonable(doc)


@pytest.mark.parametrize("key, value, match", [
    ("dataset_sha256", None, "dataset_sha256 None is not a sha256 hex digest$"),
    ("dataset_sha256", "0" * 63, "is not a sha256 hex digest$"),
    ("dataset_sha256", "A" * 64, "is not a sha256 hex digest$"),
    ("weights_sha256", "g" * 64, "is not a sha256 hex digest or null"),
    ("weights_sha256", 0, "weights_sha256 0 is not a sha256 hex digest or null"),
    ("weights_sha256", KeyError, "has no weights_sha256"),
], ids=["dataset-null", "dataset-short", "dataset-uppercase",
        "weights-not-hex", "weights-number", "weights-missing"])
def test_flow_from_jsonable_requires_its_input_hashes(key, value, match):
    doc = flow_to_jsonable(build_flow(2, 1, n_blocks=2, hidden=(4,), seed=0), "0" * 64, "f" * 64)
    flow_from_jsonable(doc)
    if value is KeyError:
        del doc[key]
    else:
        doc[key] = value
    with pytest.raises(ValueError, match=match):
        flow_from_jsonable(doc)


def _subnets(spec):
    """An edit giving a block random subnets of the given spec."""
    return lambda blk: replace(blk, subnets=_random_subnets(spec, np.random.default_rng(0)))


@pytest.mark.parametrize("edit, match", [
    # one output for the block's two active coordinates
    (_subnets(MlpSpec(3, 1, (4,))), r"block 0: subnets are a stack \(2,\) of 3 -> \[4\] -> 1 "
     r"MLPs, not a stack \(2,\) of 3 -> \[4\] -> 2 MLPs"),
    (_subnets(MlpSpec(2, 2, (4,))), r"block 0: subnets are a stack \(2,\) of 2 -> \[4\] -> 2 "
     r"MLPs, not a stack \(2,\) of 3 -> \[4\] -> 2 MLPs"),
    (lambda blk: replace(blk, passive=(1,)), "not a set of coordinates with passive"),
    (lambda blk: replace(blk, active=(), passive=(0, 1, 2, 3)),
     "a coupling block must transform at least one coordinate"),
    (_subnets(MlpSpec(3, 2, (5,))), r"block 1: subnets are a stack \(2,\) of 3 -> \[4\] -> 2 "
     r"MLPs, not a stack \(2,\) of 3 -> \[5\] -> 2 MLPs"),
    (lambda blk: replace(blk, subnets=init_mlp(blk.subnets.spec, np.random.default_rng(0))),
     r"block 0: subnets are a stack \(\) of 3 -> \[4\] -> 2 MLPs, not a stack \(2,\)"),
], ids=["narrow-subnets", "input-too-narrow", "passive-misses-a-coordinate", "empty-mask",
        "hidden-widths-differ", "subnets-not-stacked"])
def test_flow_model_rejects_a_layout_its_passes_cannot_run(edit, match):
    model = build_flow(4, 1, n_blocks=2, hidden=(4,), seed=0)
    blocks = (edit(model.blocks[0]), *model.blocks[1:])
    with pytest.raises(ValueError, match=match):
        replace(model, blocks=blocks)

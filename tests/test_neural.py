import numpy as np
import pytest

from ridkit.backend import row_sumsq_diff
from ridkit.neural import (
    _WEIGHT_DECAY,
    _adam_update,
    _mlp_backward,
    FlatAdam,
    MlpParams,
    MlpSpec,
    TrainingError,
    init_mlp,
    mlp_forward,
    train_regressor,
    value_and_gradients,
    with_bias_column,
)


def _mse(y_pred, y_true) -> float:
    return float(row_sumsq_diff(y_pred, y_true).mean())


def test_zero_linear_model_outputs_zero():
    spec = MlpSpec(3, 2)
    params = MlpParams(spec, (np.zeros((4, 2)),))
    out = mlp_forward(params, with_bias_column(np.random.default_rng(0).standard_normal((5, 3))))
    np.testing.assert_array_equal(out, np.zeros((5, 2)))


def test_identity_weight_linear_layer():
    spec = MlpSpec(2, 2)
    params = MlpParams(spec, (np.vstack([np.eye(2), np.zeros((1, 2))]),))
    np.testing.assert_array_equal(mlp_forward(params, [[1.0, 2.0, 1.0]]), [[1.0, 2.0]])


def test_forward_rejects_rows_without_the_constant_column():
    params = init_mlp(MlpSpec(2, 1, (4,)), np.random.default_rng(0))
    with pytest.raises(ValueError, match="constant column"):
        mlp_forward(params, np.zeros((3, 2)))


def test_params_reject_a_layer_without_its_bias_row():
    with pytest.raises(ValueError, match="layer shape"):
        MlpParams(MlpSpec(2, 1), (np.zeros((2, 1)),))


def test_params_reject_layers_of_unequal_stacks():
    with pytest.raises(ValueError, match=r"layer shape \(3, 5, 1\) is not \(2, 5, 1\)"):
        MlpParams(MlpSpec(2, 1, (4,)), (np.zeros((2, 3, 4)), np.zeros((3, 5, 1))))


def test_hidden_layer_bias_determines_output_at_zero():
    # tanh net evaluated at x=0: output = w2.T tanh(b1) + b2
    spec = MlpSpec(1, 1, (2,))
    w1 = np.array([[1.0, -1.0]])
    b1 = np.array([[0.5, 0.25]])
    w2 = np.array([[2.0], [1.0]])
    b2 = np.array([[0.1]])
    params = MlpParams(spec, (np.vstack([w1, b1]), np.vstack([w2, b2])))
    expected = 2.0 * np.tanh(0.5) + 1.0 * np.tanh(0.25) + 0.1
    np.testing.assert_allclose(mlp_forward(params, [[0.0, 1.0]]), [[expected]])


def test_mse_hand_values():
    assert _mse(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]])) == 0.0
    assert _mse(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == 25.0
    rows = row_sumsq_diff(np.array([[1.0, 2.0], [0.0, 0.0]]), np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_allclose(rows, [[0.0], [25.0]])
    assert rows.mean() == 12.5


def test_mse_symmetry_and_zero_iff_equal():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal((6, 3))
    assert _mse(a, b) == _mse(b, a)
    assert _mse(a, a) == 0.0
    assert _mse(a, b) > 0.0


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        row_sumsq_diff(np.zeros((2, 2)), np.zeros((2, 3)))


def _step(opt, grads):
    for view, g in zip(opt.views(opt.grads), grads, strict=True):
        view[...] = g
    opt.step()


def _adam_once(params, grads, **kwargs):
    opt = FlatAdam(params, **kwargs)
    _step(opt, grads)
    return opt.views(opt.params)


def test_adam_first_step_hand_value():
    # t=1 bias correction makes m_hat = v_hat = 1, so delta = lr / (1 + eps)
    new_p = _adam_once([np.zeros((2, 2))], [np.ones((2, 2))], learning_rate=1e-3)
    expected = -1e-3 * (1.0 / (1.0 + 1e-8))
    np.testing.assert_allclose(new_p[0], np.full((2, 2), expected), rtol=1e-12)


def test_adam_zero_grad_keeps_params():
    p = np.full((2, 2), 0.7)
    m, v, tmp, tmp2 = (np.zeros((2, 2)) for _ in range(4))
    _adam_update(p, np.zeros((2, 2)), m, v, 1, 1e-3, 0.0, tmp, tmp2)
    np.testing.assert_array_equal(p, np.full((2, 2), 0.7))


def test_adam_identical_params_get_identical_updates():
    p = [np.full((2, 1), 0.3), np.full((2, 1), 0.3)]
    g = [np.full((2, 1), 0.1), np.full((2, 1), 0.1)]
    new_p = _adam_once(p, g)
    np.testing.assert_array_equal(new_p[0], new_p[1])


def test_adam_zero_lr_keeps_params():
    rng = np.random.default_rng(2)
    p = [rng.standard_normal((3, 3))]
    g = [rng.standard_normal((3, 3))]
    new_p = _adam_once(p, g, learning_rate=0.0)
    np.testing.assert_array_equal(new_p[0], p[0])


def test_flat_adam_rejects_negative_learning_rate():
    with pytest.raises(ValueError, match="learning_rate"):
        FlatAdam([np.zeros((2, 2))], learning_rate=-1.0)


def test_glorot_init_bounds():
    spec = MlpSpec(10, 4, (8,))
    params = init_mlp(spec, np.random.default_rng(0))
    bound0 = np.sqrt(6.0 / (10 + 8))
    assert np.abs(params.layers[0][:-1]).max() <= bound0
    assert np.all(params.layers[0][-1] == 0.0)


def test_train_regressor_fits_noiseless_linear_rule():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(400, 1))
    y = 2.0 * x
    params, trace = train_regressor(
        MlpSpec(1, 1, (16,)), (x, y), epochs=400, batch_size=64, seed=0,
    )
    assert _mse(mlp_forward(params, with_bias_column(x)), y) < 1e-3
    assert len(trace) == 400


def test_train_regressor_constant_zero_target():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((200, 2))
    y = np.zeros((200, 1))
    params, _ = train_regressor(MlpSpec(2, 1, (8,)), (x, y), epochs=100, batch_size=50, seed=0)
    assert _mse(mlp_forward(params, with_bias_column(x)), y) < 1e-4


def test_train_regressor_recovers_mean_function_under_noise():
    # y = x + N(0, 0.1^2): held-out MSE should sit near the noise floor and
    # the prediction error against the clean rule should be well below sigma
    rng = np.random.default_rng(7)
    sigma = 0.1
    x = rng.uniform(-1, 1, size=(4000, 1))
    y = x + sigma * rng.standard_normal((4000, 1))
    params, _ = train_regressor(
        MlpSpec(1, 1, (32,)), (x[:3500], y[:3500]), epochs=120, batch_size=128, seed=0,
    )
    pred = mlp_forward(params, with_bias_column(x))
    held_out_mse = _mse(pred[3500:], y[3500:])
    assert held_out_mse == pytest.approx(sigma**2, rel=0.5)
    clean_err = np.sqrt(_mse(pred, x))
    assert clean_err < sigma


def test_train_regressor_reproducible():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((100, 2))
    y = x[:, :1] - x[:, 1:]
    a = train_regressor(MlpSpec(2, 1, (8,)), (x, y), epochs=20, batch_size=32, seed=5)
    b = train_regressor(MlpSpec(2, 1, (8,)), (x, y), epochs=20, batch_size=32, seed=5)
    assert a[1] == b[1]
    for wa, wb in zip(a[0].layers, b[0].layers, strict=True):
        np.testing.assert_array_equal(wa, wb)


def test_train_regressor_empty_raises():
    with pytest.raises(ValueError):
        train_regressor(MlpSpec(1, 1), (np.zeros((0, 1)), np.zeros((0, 1))), 1, 8, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["x", "y"])
def test_train_regressor_rejects_non_finite_data(where, bad):
    data = {"x": np.zeros((10, 2)), "y": np.zeros((10, 1))}
    data[where][3, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        train_regressor(MlpSpec(2, 1, (4,)), (data["x"], data["y"]), 1, 8, 0)


def _with_random_biases(params, rng):
    """params with standard normal biases in place of init_mlp's zeros."""
    return params.with_arrays([np.vstack([a[:-1], rng.standard_normal((1, a.shape[1]))])
                               for a in params.layers])


def test_value_and_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    spec = MlpSpec(3, 2, (6, 5))
    params = _with_random_biases(init_mlp(spec, rng), rng)
    x = with_bias_column(rng.standard_normal((9, 3)))
    y = rng.standard_normal((9, 2))
    batch = {"x": x, "y": y, "mean_row": np.full((1, 9), 1.0 / 9)}
    grads = params.with_arrays([np.zeros_like(a) for a in params.arrays()])
    loss = value_and_gradients(params, batch, grads)
    assert loss == pytest.approx(_mse(mlp_forward(params, x), y), rel=1e-12)
    h = 1e-6
    # each array params holds, perturbed in place, against its gradient
    for i, (arr, grad) in enumerate(zip(params.arrays(), grads.arrays(), strict=True)):
        assert grad.shape == arr.shape
        for ij in np.ndindex(arr.shape):
            orig = arr[ij]
            arr[ij] = orig + h
            up = _mse(mlp_forward(params, x), y)
            arr[ij] = orig - h
            down = _mse(mlp_forward(params, x), y)
            arr[ij] = orig
            fd = (up - down) / (2.0 * h)
            assert abs(grad[ij] - fd) <= 1e-6 * max(abs(fd), 1.0), (i, ij)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_loss_returns_before_the_reverse_pass():
    rng = np.random.default_rng(24)
    params = init_mlp(MlpSpec(3, 2, (6,)), rng)
    # squared errors of 1e200 overflow the loss; the gradient rows would not
    batch = {"x": with_bias_column(rng.standard_normal((9, 3))), "y": np.full((9, 2), 1e200),
             "mean_row": np.full((1, 9), 1.0 / 9)}
    grads = params.with_arrays([np.full_like(a, 7.0) for a in params.arrays()])
    assert value_and_gradients(params, batch, grads) == np.inf
    assert all((g == 7.0).all() for g in grads.arrays())


def test_arrays_round_trip_through_with_arrays():
    params = init_mlp(MlpSpec(3, 2, (5, 4)), np.random.default_rng(8))
    arrays = params.arrays()
    assert [a.shape for a in arrays] == [(4, 5), (6, 4), (5, 2)]  # [w; b] per layer
    back = params.with_arrays(arrays)
    assert back.spec == params.spec
    assert all(a is b for a, b in zip(back.arrays(), arrays, strict=True))
    with pytest.raises(ValueError):
        params.with_arrays(arrays[:-1])


def test_mlp_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec(0, 1)
    with pytest.raises(ValueError):
        MlpSpec(1, 1, (4, 0))


def _reference_adam(p, g, m, v, t, lr, beta1, beta2, eps, weight_decay):
    """The per-array Adam formula the optimizer must reproduce bit for bit."""
    m_new = beta1 * m + (1.0 - beta1) * g
    v_new = beta2 * v + (1.0 - beta2) * (g * g)
    c1 = 1.0 / (1.0 - beta1 ** t)
    c2 = 1.0 / (1.0 - beta2 ** t)
    p_new = p * (1.0 - lr * weight_decay) - lr * ((m_new * c1) / (np.sqrt(v_new * c2) + eps))
    return p_new, m_new, v_new


def test_flat_and_per_array_adam_bitwise_equal_reference():
    rng = np.random.default_rng(21)
    shapes = [(3, 5), (1, 5), (5, 2), (1, 2)]
    params = [rng.standard_normal(s) for s in shapes]
    lr, wd = 3e-3, _WEIGHT_DECAY
    ref = [(p.copy(), np.zeros_like(p), np.zeros_like(p)) for p in params]
    flat = FlatAdam(params, learning_rate=lr)
    views = flat.views(flat.params)
    m_views, v_views = flat.views(flat._m), flat.views(flat._v)
    for t in range(1, 5):
        grads = [rng.standard_normal(s) * 10.0 ** (t - 2) for s in shapes]
        ref = [_reference_adam(p, g, m, v, t, lr, 0.9, 0.999, 1e-8, wd)
               for (p, m, v), g in zip(ref, grads)]
        _step(flat, grads)
        for (p_ref, m_ref, v_ref), p_flat, m_flat, v_flat in zip(ref, views, m_views, v_views):
            np.testing.assert_array_equal(p_flat, p_ref)
            np.testing.assert_array_equal(m_flat, m_ref)
            np.testing.assert_array_equal(v_flat, v_ref)
    assert flat.step_count == 4


def test_adam_update_decays_at_any_rate_bitwise_equal_reference():
    rng = np.random.default_rng(22)
    p, m, v, tmp, tmp2 = rng.standard_normal((3, 4)), *(np.zeros((3, 4)) for _ in range(4))
    p_ref, m_ref, v_ref = p.copy(), m.copy(), v.copy()
    for t in range(1, 4):
        g = rng.standard_normal((3, 4))
        p_ref, m_ref, v_ref = _reference_adam(p_ref, g, m_ref, v_ref, t, 3e-3, 0.9, 0.999, 1e-8,
                                              1e-2)
        _adam_update(p, g, m, v, t, 3e-3, 1e-2, tmp, tmp2)
        np.testing.assert_array_equal(p, p_ref)
        np.testing.assert_array_equal(m, m_ref)
        np.testing.assert_array_equal(v, v_ref)


def test_flat_adam_rejects_non_finite_parameters():
    flat = FlatAdam([np.zeros((2, 2))])
    with pytest.raises(TrainingError, match="non-finite"), np.errstate(invalid="ignore"):
        _step(flat, [np.full((2, 2), np.inf)])


def test_flat_adam_rejects_parameters_that_overflow_float32():
    with pytest.raises(ValueError, match="fit float32"):
        FlatAdam([np.zeros((2, 2)), np.full((1, 2), 1e39)])


def test_flat_adam_names_the_step_whose_parameters_overflow_float32():
    # 3.4e38 fits float32; one step at learning rate 1e37 takes it past the
    # float32 range (its weight-decay factor 1 - 1e37 * _WEIGHT_DECAY alone does)
    flat = FlatAdam([np.full((2, 2), 3.4e38)], learning_rate=1e37)
    with pytest.raises(TrainingError, match="parameters overflow float32 after Adam step 1"):
        _step(flat, [np.full((2, 2), -1.0)])


def test_train_regressor_rejects_rows_that_overflow_float32():
    # finite in float64, infinite once cast for the float32 training passes
    x = np.zeros((10, 2))
    x[3, 0] = 1e39
    with pytest.raises(TrainingError, match="overflow float32"):
        train_regressor(MlpSpec(2, 1, (4,)), (x, np.zeros((10, 1))), 1, 8, 0)


def test_in_place_forward_bitwise_equals_fresh_arrays():
    rng = np.random.default_rng(22)
    spec = MlpSpec(3, 2, (16, 8))
    params = _with_random_biases(init_mlp(spec, rng), rng)
    x = with_bias_column(rng.standard_normal((50, 3)))
    h = x
    for li, layer in enumerate(params.layers):
        h = h @ layer
        if li < len(params.layers) - 1:
            h = np.hstack([np.tanh(h), np.ones((h.shape[0], 1))])
    x_before = x.copy()
    np.testing.assert_array_equal(mlp_forward(params, x), h)
    np.testing.assert_array_equal(x, x_before)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_computes_in_the_parameter_dtype(dtype):
    params = init_mlp(MlpSpec(3, 2, (8,)), np.random.default_rng(23))
    cast = params.with_arrays([a.astype(dtype) for a in params.arrays()])
    x = with_bias_column(np.random.default_rng(24).standard_normal((5, 3)))
    out = mlp_forward(cast, x)
    assert out.dtype == dtype
    np.testing.assert_allclose(out, mlp_forward(params, x), rtol=0,
                               atol=64 * np.finfo(dtype).eps)


def _forward_and_backward(params, x, g):
    """The output, the layer gradients and the input adjoint of one forward
    and reverse pass, the adjoint formed as the flow forms it."""
    tape = []
    out = mlp_forward(params, x, tape)
    grads = params.with_arrays([np.full_like(a, np.nan) for a in params.arrays()])
    d = _mlp_backward(params, x, tape, g, grads)
    return [out, *grads.arrays(), d @ params.layers[0][..., :-1, :].swapaxes(-1, -2)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [1, 7, 1025])
def test_stacked_mlps_match_their_halves_run_alone_bitwise(dtype, rows):
    # a coupling block's s and t subnets run as one stack; each slice of
    # every result must carry the bits of its MLP run on its own
    rng = np.random.default_rng(rows)
    spec = MlpSpec(5, 3, (64, 64))
    halves = [_with_random_biases(init_mlp(spec, rng), rng) for _ in "st"]
    halves = [h.with_arrays([a.astype(dtype) for a in h.arrays()]) for h in halves]
    stacked = MlpParams(spec, tuple(map(np.stack, zip(*(h.layers for h in halves)))))
    x = with_bias_column(rng.standard_normal((rows, 5)), dtype)
    g = rng.standard_normal((2, rows, 3)).astype(dtype)
    got = _forward_and_backward(stacked, x, g)
    for i, half in enumerate(halves):
        for a, ref in zip(got, _forward_and_backward(half, x, g[i]), strict=True):
            assert a.dtype == ref.dtype == dtype
            assert a[i].shape == ref.shape and a[i].tobytes() == ref.tobytes()

import numpy as np
import pytest

from ridkit.neural import (
    FlatAdam,
    MlpParams,
    MlpSpec,
    TrainingError,
    init_mlp,
    mlp_forward,
    mlp_from_jsonable,
    mlp_to_jsonable,
    mse_loss,
    train_regressor,
)


def test_zero_linear_model_outputs_zero():
    spec = MlpSpec(3, 2)
    params = MlpParams(spec, (np.zeros((3, 2)),), (np.zeros((1, 2)),))
    out = mlp_forward(params, np.random.default_rng(0).standard_normal((5, 3)))
    np.testing.assert_array_equal(out, np.zeros((5, 2)))


def test_identity_weight_linear_layer():
    spec = MlpSpec(2, 2)
    params = MlpParams(spec, (np.eye(2),), (np.zeros((1, 2)),))
    np.testing.assert_array_equal(mlp_forward(params, [[1.0, 2.0]]), [[1.0, 2.0]])


def test_hidden_layer_bias_determines_output_at_zero():
    # tanh net evaluated at x=0: output = w2.T tanh(b1) + b2
    spec = MlpSpec(1, 1, (2,), "tanh")
    w1 = np.array([[1.0, -1.0]])
    b1 = np.array([[0.5, 0.25]])
    w2 = np.array([[2.0], [1.0]])
    b2 = np.array([[0.1]])
    params = MlpParams(spec, (w1, w2), (b1, b2))
    expected = 2.0 * np.tanh(0.5) + 1.0 * np.tanh(0.25) + 0.1
    np.testing.assert_allclose(mlp_forward(params, [[0.0]]), [[expected]])


def test_mse_hand_values():
    rows, mean = mse_loss(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]))
    assert mean == 0.0
    rows, mean = mse_loss(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
    assert mean == 25.0
    rows, mean = mse_loss(
        np.array([[1.0, 2.0], [0.0, 0.0]]), np.array([[1.0, 2.0], [3.0, 4.0]])
    )
    np.testing.assert_allclose(rows, [[0.0], [25.0]])
    assert mean == 12.5


def test_mse_symmetry_and_zero_iff_equal():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal((6, 3))
    assert mse_loss(a, b)[1] == mse_loss(b, a)[1]
    assert mse_loss(a, a)[1] == 0.0
    assert mse_loss(a, b)[1] > 0.0


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        mse_loss(np.zeros((2, 2)), np.zeros((2, 3)))


def _adam_once(params, grads, **kwargs):
    opt = FlatAdam(params, **kwargs)
    opt.step(grads)
    return opt.views(opt.params)


def test_adam_first_step_hand_value():
    # t=1 bias correction makes m_hat = v_hat = 1, so delta = lr / (1 + eps)
    new_p = _adam_once([np.zeros((2, 2))], [np.ones((2, 2))], learning_rate=1e-3,
                       weight_decay=0.0)
    expected = -1e-3 * (1.0 / (1.0 + 1e-8))
    np.testing.assert_allclose(new_p[0], np.full((2, 2), expected), rtol=1e-12)


def test_adam_zero_grad_keeps_params():
    p = [np.full((2, 2), 0.7)]
    new_p = _adam_once(p, [np.zeros((2, 2))], weight_decay=0.0)
    np.testing.assert_array_equal(new_p[0], p[0])


def test_adam_identical_params_get_identical_updates():
    p = [np.full((2, 1), 0.3), np.full((2, 1), 0.3)]
    g = [np.full((2, 1), 0.1), np.full((2, 1), 0.1)]
    new_p = _adam_once(p, g)
    np.testing.assert_array_equal(new_p[0], new_p[1])


def test_adam_zero_lr_keeps_params():
    rng = np.random.default_rng(2)
    p = [rng.standard_normal((3, 3))]
    g = [rng.standard_normal((3, 3))]
    new_p = _adam_once(p, g, learning_rate=0.0, weight_decay=0.1)
    np.testing.assert_array_equal(new_p[0], p[0])


def test_flat_adam_rejects_negative_learning_rate():
    with pytest.raises(ValueError, match="learning_rate"):
        FlatAdam([np.zeros((2, 2))], learning_rate=-1.0)


def test_glorot_init_bounds():
    spec = MlpSpec(10, 4, (8,))
    params = init_mlp(spec, np.random.default_rng(0))
    bound0 = np.sqrt(6.0 / (10 + 8))
    assert np.abs(params.weights[0]).max() <= bound0
    assert np.all(params.biases[0] == 0.0)


def test_train_regressor_fits_noiseless_linear_rule():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(400, 1))
    y = 2.0 * x
    params, trace = train_regressor(
        MlpSpec(1, 1, (16,)), (x, y), epochs=400, batch_size=64, seed=0, weight_decay=0.0,
    )
    _, final_mse = mse_loss(mlp_forward(params, x), y)
    assert final_mse < 1e-3
    assert len(trace) == 400


def test_train_regressor_constant_zero_target():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((200, 2))
    y = np.zeros((200, 1))
    params, _ = train_regressor(MlpSpec(2, 1, (8,)), (x, y), epochs=100, batch_size=50, seed=0)
    _, m = mse_loss(mlp_forward(params, x), y)
    assert m < 1e-4


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
    _, held_out_mse = mse_loss(mlp_forward(params, x[3500:]), y[3500:])
    assert held_out_mse == pytest.approx(sigma**2, rel=0.5)
    clean_err = np.sqrt(mse_loss(mlp_forward(params, x), x)[1])
    assert clean_err < sigma


def test_train_regressor_reproducible():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((100, 2))
    y = x[:, :1] - x[:, 1:]
    a = train_regressor(MlpSpec(2, 1, (8,)), (x, y), epochs=20, batch_size=32, seed=5)
    b = train_regressor(MlpSpec(2, 1, (8,)), (x, y), epochs=20, batch_size=32, seed=5)
    assert a[1] == b[1]
    for wa, wb in zip(a[0].weights, b[0].weights):
        np.testing.assert_array_equal(wa, wb)


def test_train_regressor_empty_raises():
    with pytest.raises(ValueError):
        train_regressor(MlpSpec(1, 1), (np.zeros((0, 1)), np.zeros((0, 1))), 1, 8, 0)


def test_mlp_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec(0, 1)
    with pytest.raises(ValueError):
        MlpSpec(1, 1, (4,), "sigmoid")


def test_mlp_serialization_round_trip():
    params = init_mlp(MlpSpec(3, 2, (5, 4), "relu"), np.random.default_rng(9))
    doc = mlp_to_jsonable(params)
    back = mlp_from_jsonable(doc)
    assert back.spec == params.spec
    for w1, w2 in zip(params.weights, back.weights):
        np.testing.assert_array_equal(w1, w2)
    assert doc["format_version"] == 1


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
    lr, wd = 3e-3, 1e-2
    ref = [(p.copy(), np.zeros_like(p), np.zeros_like(p)) for p in params]
    flat = FlatAdam(params, learning_rate=lr, weight_decay=wd)
    views = flat.views(flat.params)
    m_views, v_views = flat.views(flat._m), flat.views(flat._v)
    for t in range(1, 5):
        grads = [rng.standard_normal(s) * 10.0 ** (t - 2) for s in shapes]
        ref = [_reference_adam(p, g, m, v, t, lr, 0.9, 0.999, 1e-8, wd)
               for (p, m, v), g in zip(ref, grads)]
        flat.step(grads)
        for (p_ref, m_ref, v_ref), p_flat, m_flat, v_flat in zip(ref, views, m_views, v_views):
            np.testing.assert_array_equal(p_flat, p_ref)
            np.testing.assert_array_equal(m_flat, m_ref)
            np.testing.assert_array_equal(v_flat, v_ref)
    assert flat.step_count == 4


def test_flat_adam_rejects_non_finite_parameters():
    flat = FlatAdam([np.zeros((2, 2))])
    with pytest.raises(TrainingError, match="non-finite"), np.errstate(invalid="ignore"):
        flat.step([np.full((2, 2), np.inf)])


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_in_place_forward_bitwise_equals_fresh_arrays(activation):
    rng = np.random.default_rng(22)
    spec = MlpSpec(3, 2, (16, 8), activation)
    params = init_mlp(spec, rng)
    params = MlpParams(spec, params.weights,
                       tuple(rng.standard_normal(b.shape) for b in params.biases))
    x = rng.standard_normal((50, 3))
    act = np.tanh if activation == "tanh" else (lambda a: np.maximum(a, 0.0))
    h = x
    for li, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if li < len(params.weights) - 1:
            h = act(h)
    x_before = x.copy()
    np.testing.assert_array_equal(mlp_forward(params, x), h)
    np.testing.assert_array_equal(x, x_before)

"""Reverse-mode gradients of the MLP layers and of the surrogate's MSE loss:
hand values, finite differences and a plain composite reference.

The flow NLL's reverse pass is checked against finite differences in
test_flow.py; the MSE gradient of deeper networks in test_neural.py.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ridkit import flow
from ridkit.neural import (
    MlpParams,
    MlpSpec,
    _mlp_backward,
    init_mlp,
    mlp_forward,
    mlp_param_bindings,
    value_and_gradients,
)


def _params(spec, weights, biases):
    return MlpParams(spec, tuple(np.asarray(w, dtype=np.float64) for w in weights),
                     tuple(np.asarray(b, dtype=np.float64) for b in biases))


def _random_params(spec, rng):
    return _params(spec, [rng.standard_normal((i, o)) for i, o in spec.layer_dims],
                   [rng.standard_normal((1, o)) for _, o in spec.layer_dims])


def _backward(params, x, g):
    tape = []
    mlp_forward(params, x, tape)
    grads = {}
    g_x = _mlp_backward(params, x, tape, g, "n", grads)
    return g_x, grads


def _bindings(params, x, y):
    rows = x.shape[0]
    return {**mlp_param_bindings("mlp", params), "x": x, "y": y,
            "mean_row": np.full((1, rows), 1.0 / rows)}


def test_grad_matmul_by_hand():
    spec = MlpSpec(2, 1)
    params = _params(spec, [[[1.0], [1.0]]], [[[0.5]]])
    g_x, grads = _backward(params, np.array([[1.0, 2.0]]), np.array([[1.0]]))
    np.testing.assert_array_equal(g_x, [[1.0, 1.0]])
    np.testing.assert_array_equal(grads["n.w0"], [[1.0], [2.0]])
    np.testing.assert_array_equal(grads["n.b0"], [[1.0]])


def test_tanh_grad_at_zero_is_one():
    spec = MlpSpec(2, 2, (2,), "tanh")
    params = _params(spec, [np.eye(2), np.eye(2)], [np.zeros((1, 2)), np.zeros((1, 2))])
    g = np.array([[0.25, -3.0]])
    g_x, _ = _backward(params, np.zeros((1, 2)), g)
    np.testing.assert_array_equal(g_x, g)


def test_grad_of_sum_of_squares():
    # loss = (3w + b - 0)^2 at w = 1, b = 0: 9, with d/dw = 18 and d/db = 6
    params = _params(MlpSpec(1, 1), [[[1.0]]], [[[0.0]]])
    loss, grads = value_and_gradients(params.spec, _bindings(params, np.array([[3.0]]),
                                                             np.array([[0.0]])))
    assert loss == 9.0
    np.testing.assert_array_equal(grads["mlp.w0"], [[18.0]])
    np.testing.assert_array_equal(grads["mlp.b0"], [[6.0]])


@pytest.mark.parametrize("act", ["identity", "tanh", "relu"])
def test_dense_finite_diff(act):
    # one dense layer (identity) or a hidden layer of `act` plus the linear
    # head; the probe sum(out * out) keeps the reverse pass nonlinear
    rng = np.random.default_rng(11)
    spec = MlpSpec(3, 2) if act == "identity" else MlpSpec(3, 2, (4,), act)
    params = _random_params(spec, rng)
    x = rng.standard_normal((5, 3))
    if act == "relu":  # keep every pre-activation off the kink
        pre = x @ params.weights[0] + params.biases[0]
        params.biases[0][...] += np.where(np.abs(pre) < 1e-2, 0.5, 0.0).max(axis=0)

    def probe():
        out = mlp_forward(params, x)
        return float((out * out).sum())

    out = mlp_forward(params, x)
    g_x, grads = _backward(params, x, out + out)
    arrays = {"x": (x, g_x), **{
        f"n.{kind}{li}": (arr, grads[f"n.{kind}{li}"])
        for li in range(len(spec.layer_dims))
        for kind, arr in (("w", params.weights[li]), ("b", params.biases[li]))
    }}
    h = 1e-6
    for name, (arr, grad) in arrays.items():
        assert grad.shape == arr.shape
        for ij in np.ndindex(arr.shape):
            orig = arr[ij]
            arr[ij] = orig + h
            up = probe()
            arr[ij] = orig - h
            down = probe()
            arr[ij] = orig
            fd = (up - down) / (2.0 * h)
            assert abs(grad[ij] - fd) <= 1e-5 * max(abs(fd), 1.0), (name, ij)


def _composite_reference(params, x, y, mean_row, act):
    """The MSE loss and its gradient in plain numpy, one fresh array per
    operation: h = act(x @ w0 + b0), out = h @ w1 + b1 (or out = x @ w0 + b0)."""
    w, b = params.weights, params.biases
    if act == "identity":
        diff = (x @ w[0] + b[0]) - y
    else:
        pre = x @ w[0] + b[0]
        h = np.tanh(pre) if act == "tanh" else np.maximum(pre, 0.0)
        diff = (h @ w[1] + b[1]) - y
    loss = mean_row @ (diff * diff).sum(axis=1, keepdims=True)
    d_out = 2.0 * (mean_row.T * diff)
    if act == "identity":
        return float(loss[0, 0]), {"mlp.w0": x.T @ d_out, "mlp.b0": d_out.sum(axis=0, keepdims=True)}
    g_h = d_out @ w[1].T
    d_h = g_h * (1.0 - h * h) if act == "tanh" else g_h * (h > 0.0)
    return float(loss[0, 0]), {
        "mlp.w1": h.T @ d_out, "mlp.b1": d_out.sum(axis=0, keepdims=True),
        "mlp.w0": x.T @ d_h, "mlp.b0": d_h.sum(axis=0, keepdims=True),
    }


@pytest.mark.parametrize("act", ["identity", "tanh", "relu"])
def test_dense_bitwise_equals_composite(act):
    rng = np.random.default_rng(12)
    spec = MlpSpec(3, 2) if act == "identity" else MlpSpec(3, 2, (5,), act)
    params = _random_params(spec, rng)
    x, y = rng.standard_normal((7, 3)), rng.standard_normal((7, 2))
    bindings = _bindings(params, x, y)
    loss, grads = value_and_gradients(spec, bindings)
    ref_loss, ref_grads = _composite_reference(params, x, y, bindings["mean_row"], act)
    assert loss == ref_loss
    assert sorted(grads) == sorted(ref_grads)
    for name, ref in ref_grads.items():
        np.testing.assert_array_equal(grads[name], ref)


def test_gradient_wrt_unused_leaf_is_zero():
    # hidden relu unit 1 is dead on every row, so nothing flows into its
    # incoming weights, its bias or its outgoing weight
    rng = np.random.default_rng(4)
    spec = MlpSpec(3, 2, (3,), "relu")
    params = _random_params(spec, rng)
    params.biases[0][0, 1] = -100.0
    x, y = rng.standard_normal((6, 3)), rng.standard_normal((6, 2))
    _, grads = value_and_gradients(spec, _bindings(params, x, y))
    np.testing.assert_array_equal(grads["mlp.w0"][:, 1], 0.0)
    np.testing.assert_array_equal(grads["mlp.b0"][:, 1], 0.0)
    np.testing.assert_array_equal(grads["mlp.w1"][1, :], 0.0)
    assert np.abs(grads["mlp.w0"][:, [0, 2]]).max() > 0.0


def test_gradient_linearity_over_random_graphs():
    # the reverse pass is linear in the output adjoint
    rng = np.random.default_rng(42)
    for trial in range(20):
        hidden = tuple(int(k) for k in rng.integers(1, 6, size=trial % 3))
        spec = MlpSpec(3, 2, hidden, ("tanh", "relu")[trial % 2])
        params = _random_params(spec, rng)
        x = rng.standard_normal((4, 3))
        g1, g2 = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
        gx1, gr1 = _backward(params, x, g1)
        gx2, gr2 = _backward(params, x, g2)
        gxb, grb = _backward(params, x, g1 + g2)
        np.testing.assert_allclose(gxb, gx1 + gx2, rtol=1e-12, atol=1e-12)
        for name in grb:
            np.testing.assert_allclose(grb[name], gr1[name] + gr2[name], rtol=1e-12, atol=1e-12)


def test_evaluate_is_pure():
    rng = np.random.default_rng(5)
    spec = MlpSpec(3, 2, (6, 4), "tanh")
    bindings = _bindings(_random_params(spec, rng), rng.standard_normal((8, 3)),
                         rng.standard_normal((8, 2)))
    before = {k: v.copy() for k, v in bindings.items()}
    first = value_and_gradients(spec, bindings)
    second = value_and_gradients(spec, bindings)
    for k, v in bindings.items():
        np.testing.assert_array_equal(v, before[k])
    assert first[0] == second[0]
    for name in first[1]:
        np.testing.assert_array_equal(first[1][name], second[1][name])

    model = flow.build_flow(2, 1, n_blocks=2, hidden=(5,), seed=3)
    x, y = rng.standard_normal((6, 2)), rng.standard_normal((6, 1))
    fb = {**model.param_bindings(), "x": x, "y": y, "w_row": np.full((1, 6), 1.0 / 6)}
    fb_before = {k: v.copy() for k, v in fb.items()}
    f1, f2 = flow.value_and_gradients(model, fb), flow.value_and_gradients(model, fb)
    for k, v in fb.items():
        np.testing.assert_array_equal(v, fb_before[k])
    assert f1[0] == f2[0]
    for name in f1[1]:
        np.testing.assert_array_equal(f1[1][name], f2[1][name])


def test_concurrent_value_and_gradients_on_one_graph():
    rng = np.random.default_rng(14)
    spec = MlpSpec(3, 2, (5,), "tanh")
    params = mlp_param_bindings("mlp", init_mlp(spec, rng))
    inputs = []
    for _ in range(4):
        x, y = rng.standard_normal((64, 3)), rng.standard_normal((64, 2))
        inputs.append({**params, "x": x, "y": y, "mean_row": np.full((1, 64), 1.0 / 64)})
    expected = [value_and_gradients(spec, bnd) for bnd in inputs]
    jobs = inputs * 25
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda bnd: value_and_gradients(spec, bnd), jobs))
    finally:
        sys.setswitchinterval(old)
    for i, (val, grads) in enumerate(results):
        ref_val, ref_grads = expected[i % len(inputs)]
        assert val == ref_val
        for name, ref in ref_grads.items():
            np.testing.assert_array_equal(grads[name], ref)

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
    value_and_gradients,
    with_bias_column,
)

EPS32 = float(np.finfo(np.float32).eps)


def _params(spec, weights, biases):
    """The MLP whose layers are [w; b] for the given weights and biases."""
    return MlpParams(spec, tuple(np.vstack([np.asarray(w, dtype=np.float64),
                                            np.asarray(b, dtype=np.float64)])
                                 for w, b in zip(weights, biases, strict=True)))


def _random_params(spec, rng):
    return _params(spec, [rng.standard_normal((i, o)) for i, o in spec.layer_dims],
                   [rng.standard_normal((1, o)) for _, o in spec.layer_dims])


def _nan_grads(model):
    """A gradient holder shaped like `model` (MlpParams or FlowModel) that
    holds NaN until a reverse pass overwrites it."""
    return model.with_arrays([np.full_like(a, np.nan) for a in model.arrays()])


def _backward(params, x, g):
    """The reverse pass for rows x (without their constant column): the
    adjoint of x, formed from the first layer's adjoint as the flow forms
    it, and the gradients."""
    x1, tape = with_bias_column(x, params.layers[0].dtype), []
    mlp_forward(params, x1, tape)
    grads = _nan_grads(params)
    d = _mlp_backward(params, x1, tape, g, grads)
    return d @ params.layers[0][:-1].T, grads


def _batch(x, y):
    rows = x.shape[0]
    return {"x": with_bias_column(x), "y": y, "mean_row": np.full((1, rows), 1.0 / rows)}


def _value_and_gradients(params, batch):
    grads = _nan_grads(params)
    return value_and_gradients(params, batch, grads), grads


def test_grad_matmul_by_hand():
    spec = MlpSpec(2, 1)
    params = _params(spec, [[[1.0], [1.0]]], [[[0.5]]])
    g_x, grads = _backward(params, np.array([[1.0, 2.0]]), np.array([[1.0]]))
    np.testing.assert_array_equal(g_x, [[1.0, 1.0]])
    np.testing.assert_array_equal(grads.layers[0], [[1.0], [2.0], [1.0]])  # w, then b


def test_tanh_grad_at_zero_is_one():
    spec = MlpSpec(2, 2, (2,))
    params = _params(spec, [np.eye(2), np.eye(2)], [np.zeros((1, 2)), np.zeros((1, 2))])
    g = np.array([[0.25, -3.0]])
    g_x, _ = _backward(params, np.zeros((1, 2)), g)
    np.testing.assert_array_equal(g_x, g)


def test_grad_of_sum_of_squares():
    # loss = (3w + b - 0)^2 at w = 1, b = 0: 9, with d/dw = 18 and d/db = 6
    params = _params(MlpSpec(1, 1), [[[1.0]]], [[[0.0]]])
    loss, grads = _value_and_gradients(params, _batch(np.array([[3.0]]), np.array([[0.0]])))
    assert loss == 9.0
    np.testing.assert_array_equal(grads.layers[0], [[18.0], [6.0]])


@pytest.mark.parametrize("act", ["identity", "tanh"])
def test_dense_finite_diff(act):
    # one dense layer (identity) or a tanh hidden layer plus the linear
    # head; the probe sum(out * out) keeps the reverse pass nonlinear
    rng = np.random.default_rng(11)
    spec = MlpSpec(3, 2) if act == "identity" else MlpSpec(3, 2, (4,))
    params = _random_params(spec, rng)
    x = rng.standard_normal((5, 3))

    def probe():
        out = mlp_forward(params, with_bias_column(x))
        return float((out * out).sum())

    out = mlp_forward(params, with_bias_column(x))
    g_x, grads = _backward(params, x, out + out)
    # x first, then every parameter array with the gradient written for it
    arrays = [("x", x, g_x), *((f"array {i}", arr, grad) for i, (arr, grad)
                               in enumerate(zip(params.arrays(), grads.arrays(), strict=True)))]
    h = 1e-6
    for name, arr, grad in arrays:
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
    operation, with each layer L = [w; b] applied to its input and a column
    of ones: h = tanh([x, 1] @ L0), out = [h, 1] @ L1 (or out = [x, 1] @ L0).
    The gradients come in MlpParams.arrays() order."""
    layers = params.layers
    x1 = np.hstack([x, np.ones((x.shape[0], 1))])
    if act == "identity":
        diff = x1 @ layers[0] - y
    else:
        h = np.tanh(x1 @ layers[0])
        h1 = np.hstack([h, np.ones((h.shape[0], 1))])
        diff = h1 @ layers[1] - y
    loss = mean_row @ (diff * diff).sum(axis=1, keepdims=True)
    d_out = 2.0 * (mean_row.T * diff)
    if act == "identity":
        return float(loss[0, 0]), [x1.T @ d_out]
    g_h = d_out @ layers[1][:-1].T
    d_h = g_h * (1.0 - h * h)
    return float(loss[0, 0]), [x1.T @ d_h, h1.T @ d_out]


@pytest.mark.parametrize("act", ["identity", "tanh"])
def test_dense_bitwise_equals_composite(act):
    rng = np.random.default_rng(12)
    spec = MlpSpec(3, 2) if act == "identity" else MlpSpec(3, 2, (5,))
    params = _random_params(spec, rng)
    x, y = rng.standard_normal((7, 3)), rng.standard_normal((7, 2))
    batch = _batch(x, y)
    loss, grads = _value_and_gradients(params, batch)
    ref_loss, ref_grads = _composite_reference(params, x, y, batch["mean_row"], act)
    assert loss == ref_loss
    for got, ref in zip(grads.arrays(), ref_grads, strict=True):
        np.testing.assert_array_equal(got, ref)


def test_gradient_wrt_unused_leaf_is_zero():
    # hidden unit 1 is cut off: zero incoming weights, bias and outgoing
    # weights, so it outputs tanh(0) = 0 on every row and nothing flows into
    # its incoming weights, its bias or its outgoing weights
    rng = np.random.default_rng(4)
    spec = MlpSpec(3, 2, (3,))
    params = _random_params(spec, rng)
    params.layers[0][:, 1] = 0.0  # its weights and bias (the last row)
    params.layers[1][1, :] = 0.0
    x, y = rng.standard_normal((6, 3)), rng.standard_normal((6, 2))
    _, grads = _value_and_gradients(params, _batch(x, y))
    np.testing.assert_array_equal(grads.layers[0][:, 1], 0.0)
    np.testing.assert_array_equal(grads.layers[1][1, :], 0.0)
    assert np.abs(grads.layers[0][:, [0, 2]]).max() > 0.0


def test_gradient_linearity_over_random_graphs():
    # the reverse pass is linear in the output adjoint
    rng = np.random.default_rng(42)
    for trial in range(20):
        hidden = tuple(int(k) for k in rng.integers(1, 6, size=trial % 3))
        spec = MlpSpec(3, 2, hidden)
        params = _random_params(spec, rng)
        x = rng.standard_normal((4, 3))
        g1, g2 = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
        gx1, gr1 = _backward(params, x, g1)
        gx2, gr2 = _backward(params, x, g2)
        gxb, grb = _backward(params, x, g1 + g2)
        np.testing.assert_allclose(gxb, gx1 + gx2, rtol=1e-12, atol=1e-12)
        for both, a1, a2 in zip(grb.arrays(), gr1.arrays(), gr2.arrays(), strict=True):
            np.testing.assert_allclose(both, a1 + a2, rtol=1e-12, atol=1e-12)


def _assert_pure(value_and_gradients, model, batch):
    """Two calls on one model and batch, each with its own gradient holder,
    leave the model and the batch alone and agree bit for bit."""
    before = [a.copy() for a in model.arrays()], {k: v.copy() for k, v in batch.items()}
    g1, g2 = _nan_grads(model), _nan_grads(model)
    assert value_and_gradients(model, batch, g1) == value_and_gradients(model, batch, g2)
    for a, b in zip(model.arrays(), before[0], strict=True):
        np.testing.assert_array_equal(a, b)
    for k, v in batch.items():
        np.testing.assert_array_equal(v, before[1][k])
    for a, b in zip(g1.arrays(), g2.arrays(), strict=True):
        np.testing.assert_array_equal(a, b)


def test_evaluate_is_pure():
    rng = np.random.default_rng(5)
    spec = MlpSpec(3, 2, (6, 4))
    _assert_pure(value_and_gradients, _random_params(spec, rng),
                 _batch(rng.standard_normal((8, 3)), rng.standard_normal((8, 2))))
    model = flow.build_flow(2, 1, n_blocks=2, hidden=(5,), seed=3)
    x, y = rng.standard_normal((6, 2)), rng.standard_normal((6, 1))
    _assert_pure(flow.value_and_gradients, model,
                 {"x": x, "y": y, "w_row": np.full((1, 6), 1.0 / 6)})


def _random_flow(d_x, rng):
    model = flow.build_flow(d_x, 2, n_blocks=3, hidden=(5,), seed=d_x)
    return model.with_arrays([rng.standard_normal(a.shape) for a in model.arrays()])


@pytest.mark.parametrize("case", ["mlp-tanh", "flow-dx1", "flow-dx3"])
def test_reverse_pass_writes_every_gradient_array(case):
    # the optimizer's gradient buffer persists across steps, so an array the
    # reverse pass skipped would silently feed Adam the previous step's
    # gradient; here it would keep its NaN
    rng = np.random.default_rng(31)
    kind, variant = case.split("-")
    if kind == "mlp":
        model = _random_params(MlpSpec(3, 2, (6, 5)), rng)
        vg, batch = value_and_gradients, _batch(rng.standard_normal((9, 3)),
                                                rng.standard_normal((9, 2)))
    else:  # d_x=1 has blocks with an empty passive half
        d_x = int(variant[2:])
        model = _random_flow(d_x, rng)
        vg, batch = flow.value_and_gradients, {
            "x": rng.standard_normal((9, d_x)), "y": rng.standard_normal((9, 2)),
            "w_row": np.full((1, 9), 1.0 / 9)}
    grads = _nan_grads(model)
    assert np.isfinite(vg(model, batch, grads))
    assert len(grads.arrays()) == len(model.arrays())
    for i, g in enumerate(grads.arrays()):
        assert np.isfinite(g).all(), f"array {i} was not written"


def _subnet_tapes(tape):
    """The MLP tapes in a tape: the tape itself, or the stacked s and t
    subnet tape of each flow block record."""
    if tape and isinstance(tape[0], list):
        return [record[1] for record in tape]
    return [tape]


def _tape_arrays(tape):
    """The activation arrays in a tape: the layer outputs of its MLP tapes."""
    return [a for t in _subnet_tapes(tape) for a in t]


@pytest.mark.parametrize("kind", ["mlp", "flow"])
def test_tape_reused_across_calls_matches_a_fresh_tape(kind):
    # fit_minibatch passes one tape to every step; a smaller last batch
    # replaces its buffers, and the next full batch replaces them again
    rng = np.random.default_rng(32)
    sizes = (9, 9, 4, 9)
    if kind == "mlp":
        model, vg = _random_params(MlpSpec(3, 2, (6, 5)), rng), value_and_gradients
        batches = [_batch(rng.standard_normal((n, 3)), rng.standard_normal((n, 2))) for n in sizes]
    else:
        model, vg = _random_flow(3, rng), flow.value_and_gradients
        batches = [{"x": rng.standard_normal((n, 3)), "y": rng.standard_normal((n, 2)),
                    "w_row": np.full((1, n), 1.0 / n)} for n in sizes]
    tape, kept = [], []
    for batch in batches:
        fresh, reused, fresh_tape = _nan_grads(model), _nan_grads(model), []
        assert vg(model, batch, reused, tape) == vg(model, batch, fresh, fresh_tape)
        for a, b in zip(reused.arrays(), fresh.arrays(), strict=True):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(_tape_arrays(tape), _tape_arrays(fresh_tape), strict=True):
            np.testing.assert_array_equal(a, b)
        for layer_outputs in _subnet_tapes(tape):
            for a in layer_outputs[:-1]:  # hidden layers end in the next layer's constant column
                assert (a[..., -1] == 1.0).all()
        kept.append(_tape_arrays(tape))
    assert all(a is b for a, b in zip(kept[0], kept[1], strict=True))  # same size: rewritten
    assert not any(a is b for a, b in zip(kept[1], kept[2], strict=True))


def test_concurrent_value_and_gradients_on_one_graph():
    rng = np.random.default_rng(14)
    spec = MlpSpec(3, 2, (5,))
    params = init_mlp(spec, rng)
    batches = [_batch(rng.standard_normal((64, 3)), rng.standard_normal((64, 2)))
               for _ in range(4)]
    expected = [_value_and_gradients(params, b) for b in batches]
    jobs = batches * 25
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda b: _value_and_gradients(params, b), jobs))
    finally:
        sys.setswitchinterval(old)
    for i, (val, grads) in enumerate(results):
        ref_val, ref_grads = expected[i % len(batches)]
        assert val == ref_val
        for got, ref in zip(grads.arrays(), ref_grads.arrays(), strict=True):
            np.testing.assert_array_equal(got, ref)


def test_bias_row_gradient_is_the_column_sum_of_the_layer_adjoint():
    # float32 at a training batch size: the bias row comes out of [h, 1].T @ d,
    # which sums d's rows in BLAS order; it must match d.sum(axis=0), taken
    # in float64 from the same float32 tape, within the float32 rounding
    # bound of an n-term sum (plus the few roundings in d itself)
    rng = np.random.default_rng(33)
    n = 2000
    params = _random_params(MlpSpec(3, 2, (64,)), rng)
    params = params.with_arrays([a.astype(np.float32) for a in params.arrays()])
    g = rng.standard_normal((n, 2)).astype(np.float32)
    x1, tape = with_bias_column(rng.standard_normal((n, 3)), np.float32), []
    mlp_forward(params, x1, tape)
    grads = _nan_grads(params)
    _mlp_backward(params, x1, tape, g, grads)
    d_out = g.astype(np.float64)
    t = tape[0][:, :-1].astype(np.float64)
    d_h = (d_out @ params.layers[1][:-1].T.astype(np.float64)) * (1.0 - t * t)
    for layer, d in zip(grads.layers, (d_h, d_out), strict=True):
        bound = (n + 4) * (EPS32 / 2) * np.abs(d).sum(axis=0)
        assert (np.abs(layer[-1] - d.sum(axis=0)) <= bound).all()

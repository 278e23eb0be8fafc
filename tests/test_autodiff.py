import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ridkit.autodiff import (
    GraphBuilder,
    GraphError,
    ShapeMismatch,
    UnboundLeaf,
    evaluate,
    finite_diff_check,
    gradients,
    value_and_gradients,
)


def test_matmul_identity():
    b = GraphBuilder()
    a = b.input("a")
    i = b.const(np.eye(2))
    out = b.matmul(a, i)
    g = b.build()
    res = evaluate(g, {"a": [[1.0, 2.0], [3.0, 4.0]]})[out]
    np.testing.assert_array_equal(res, [[1.0, 2.0], [3.0, 4.0]])


def test_tanh_at_zero():
    b = GraphBuilder()
    x = b.input("x")
    out = b.tanh(x)
    g = b.build()
    np.testing.assert_array_equal(evaluate(g, {"x": [[0.0]]})[out], [[0.0]])


def test_square_then_row_sum():
    b = GraphBuilder()
    x = b.input("x")
    out = b.row_sum(b.mul(x, x))
    g = b.build()
    np.testing.assert_array_equal(evaluate(g, {"x": [[3.0]]})[out], [[9.0]])


def test_grad_of_sum_of_squares():
    b = GraphBuilder()
    x = b.input("x")
    out = b.row_sum(b.mul(x, x))
    g = b.build()
    grad = gradients(g, {"x": [[3.0]]}, out, ["x"])
    np.testing.assert_allclose(grad["x"], [[6.0]])


def test_grad_matmul_by_hand():
    b = GraphBuilder()
    a = b.input("a")
    w = b.input("w")
    out = b.row_sum(b.matmul(a, w))
    g = b.build()
    grad = gradients(g, {"a": [[1.0, 2.0]], "w": [[1.0], [1.0]]}, out, ["a"])
    np.testing.assert_allclose(grad["a"], [[1.0, 1.0]])


def test_tanh_grad_at_zero_is_one():
    b = GraphBuilder()
    x = b.input("x")
    out = b.row_sum(b.tanh(x))
    g = b.build()
    grad = gradients(g, {"x": [[0.0]]}, out, ["x"])
    np.testing.assert_allclose(grad["x"], [[1.0]])


def test_finite_diff_quadratic_tight():
    b = GraphBuilder()
    x = b.input("x")
    out = b.row_sum(b.mul(x, x))
    g = b.build()
    err = finite_diff_check(g, {"x": [[0.7, -1.3]]}, out, ["x"], h=1e-5)
    assert err < 1e-6


def test_finite_diff_linear_near_exact():
    b = GraphBuilder()
    x = b.input("x")
    w = b.const([[2.0], [3.0]])
    out = b.matmul(x, w)
    g = b.build()
    err = finite_diff_check(g, {"x": [[0.4, -0.9]]}, out, ["x"], h=1e-5)
    assert err < 1e-9


def test_finite_diff_composed_mlp():
    rng = np.random.default_rng(0)
    b = GraphBuilder()
    x = b.input("x")
    w1 = b.param("w1")
    b1 = b.param("b1")
    w2 = b.param("w2")
    h = b.tanh(b.badd(b.matmul(x, w1), b1))
    out = b.row_sum(b.matmul(h, w2))
    g = b.build()
    bindings = {
        "x": rng.standard_normal((1, 3)),
        "w1": rng.standard_normal((3, 5)),
        "b1": rng.standard_normal((1, 5)),
        "w2": rng.standard_normal((5, 1)),
    }
    err = finite_diff_check(g, bindings, out, ["w1", "b1", "w2", "x"], h=1e-5)
    assert err < 1e-4


@pytest.mark.parametrize("op", ["exp", "log", "atan", "relu", "tanh"])
def test_finite_diff_each_unary(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    b = GraphBuilder()
    x = b.input("x")
    node = getattr(b, op)(x)
    out = b.row_sum(node)
    g = b.build()
    base = rng.uniform(0.5, 2.0, size=(1, 4))  # positive, away from relu kink
    err = finite_diff_check(g, {"x": base}, out, ["x"], h=1e-6)
    assert err < 1e-4


def test_every_primitive_grad_matches_fd_at_random_points():
    rng = np.random.default_rng(77)

    def lift_positive(a):
        return np.abs(a) + 0.5

    cases = {
        "matmul": lambda b, x, y: b.matmul(x, y),
        "add": lambda b, x, y: b.add(x, y),
        "badd": lambda b, x, r: b.badd(x, r),
        "mul": lambda b, x, y: b.mul(x, y),
        "bmul": lambda b, x, r: b.bmul(x, r),
        "smul": lambda b, x, _: b.smul(x, -1.7),
        "tanh": lambda b, x, _: b.tanh(x),
        "relu": lambda b, x, _: b.relu(x),
        "exp": lambda b, x, _: b.exp(x),
        "log": lambda b, x, _: b.log(x),
        "atan": lambda b, x, _: b.atan(x),
        "row_sum": lambda b, x, _: b.row_sum(x),
        "concat": lambda b, x, y: b.concat([x, y]),
        "cols": lambda b, x, _: b.cols(x, [2, 0]),
    }
    for name, build_op in cases.items():
        worst = 0.0
        for _ in range(100):
            b = GraphBuilder()
            x = b.input("x")
            y = b.input("y")
            out = b.row_sum(build_op(b, x, y))
            if name in ("matmul", "row_sum", "concat", "cols"):
                out = b.row_sum(b.mul(out, out))  # keep the probe nonlinear
            g = b.build()
            xv = rng.standard_normal((1, 3))
            if name == "log":
                xv = lift_positive(xv)
            elif name == "relu":
                xv = np.where(np.abs(xv) < 1e-3, 0.5, xv)  # stay off the kink
            yv = rng.standard_normal((3, 2)) if name == "matmul" else (
                rng.standard_normal((1, 3)))
            worst = max(worst, finite_diff_check(g, {"x": xv, "y": yv}, out, ["x"], h=1e-6))
        assert worst < 1e-4, f"{name}: {worst}"


def test_evaluate_is_pure():
    b = GraphBuilder()
    x = b.input("x")
    out = b.exp(b.smul(b.tanh(x), 0.3))
    g = b.build()
    arr = np.random.default_rng(5).standard_normal((4, 4))
    r1 = evaluate(g, {"x": arr})[out]
    r2 = evaluate(g, {"x": arr})[out]
    np.testing.assert_array_equal(r1, r2)


def test_gradient_linearity_over_random_graphs():
    # grad of (f + g) must equal grad f + grad g
    rng = np.random.default_rng(42)
    for _ in range(20):
        b = GraphBuilder()
        x = b.input("x")
        f = b.row_sum(b.mul(b.tanh(x), x))
        gg = b.row_sum(b.exp(b.smul(x, 0.5)))
        both = b.add(f, gg)
        graph = b.build()
        arr = rng.standard_normal((1, 3))
        gf = gradients(graph, {"x": arr}, f, ["x"])["x"]
        g2 = gradients(graph, {"x": arr}, gg, ["x"])["x"]
        gb = gradients(graph, {"x": arr}, both, ["x"])["x"]
        np.testing.assert_allclose(gb, gf + g2, rtol=1e-12)


def test_concat_and_cols_adjoints():
    rng = np.random.default_rng(3)
    b = GraphBuilder()
    x = b.input("x")
    y = b.input("y")
    joined = b.concat([x, y])
    picked = b.cols(joined, [2, 0, 3])
    out = b.row_sum(b.mul(picked, picked))
    g = b.build()
    bindings = {"x": rng.standard_normal((1, 2)), "y": rng.standard_normal((1, 2))}
    err = finite_diff_check(g, bindings, out, ["x", "y"], h=1e-6)
    assert err < 1e-6


def test_unbound_leaf_raises():
    b = GraphBuilder()
    x = b.input("x")
    y = b.input("y")
    out = b.add(x, y)
    g = b.build()
    with pytest.raises(UnboundLeaf):
        evaluate(g, {"x": [[1.0]]}, [out])


def test_shape_mismatch_reports_node():
    b = GraphBuilder()
    x = b.input("x")
    y = b.input("y")
    out = b.matmul(x, y, name="bad_matmul")
    g = b.build()
    with pytest.raises(ShapeMismatch, match="bad_matmul"):
        evaluate(g, {"x": [[1.0, 2.0]], "y": [[1.0, 2.0]]}, [out])


def test_non_scalar_gradient_output_rejected():
    b = GraphBuilder()
    x = b.input("x")
    out = b.mul(x, x)
    g = b.build()
    with pytest.raises(GraphError, match="1, 1"):
        gradients(g, {"x": [[1.0, 2.0]]}, out, ["x"])


def test_gradient_wrt_unused_leaf_is_zero():
    b = GraphBuilder()
    x = b.input("x")
    z = b.input("z")
    out = b.row_sum(b.mul(x, x))
    g = b.build()
    grad = gradients(g, {"x": [[2.0]], "z": [[1.0, 1.0]]}, out, ["z"])
    np.testing.assert_array_equal(grad["z"], [[0.0, 0.0]])


def test_non_finite_binding_rejected():
    b = GraphBuilder()
    x = b.input("x")
    out = b.row_sum(x)
    g = b.build()
    with pytest.raises(GraphError, match="non-finite"):
        evaluate(g, {"x": [[np.nan]]}, [out])


def _two_layer(dense: bool, act: str):
    """x -> act(x @ w0 + b0) -> (. @ w1 + b1) -> scalar, either as fused
    dense nodes or as the matmul/badd/activation composite."""
    b = GraphBuilder()
    h = b.input("x")
    for li, a in enumerate((act, "identity")):
        w, bias = b.param(f"w{li}"), b.param(f"b{li}")
        if dense:
            h = b.dense(h, w, bias, a)
        else:
            h = b.badd(b.matmul(h, w), bias)
            if a != "identity":
                h = getattr(b, a)(h)
    loss = b.matmul(b.input("mean_row"), b.row_sum(b.mul(h, h)))
    return b.build(), loss


def _two_layer_bindings(rng, rows=7):
    return {
        "x": rng.standard_normal((rows, 3)),
        "w0": rng.standard_normal((3, 5)),
        "b0": rng.standard_normal((1, 5)),
        "w1": rng.standard_normal((5, 2)),
        "b1": rng.standard_normal((1, 2)),
        "mean_row": np.full((1, rows), 1.0 / rows),
    }


_WRT = ["x", "w0", "b0", "w1", "b1"]


@pytest.mark.parametrize("act", ["identity", "tanh", "relu"])
def test_dense_finite_diff(act):
    rng = np.random.default_rng(11)
    b = GraphBuilder()
    x, w, bias = b.input("x"), b.param("w"), b.param("b")
    h = b.dense(x, w, bias, act)
    out = b.row_sum(b.mul(h, h))
    g = b.build()
    bindings = {"x": rng.standard_normal((1, 3)), "w": rng.standard_normal((3, 4)),
                "b": rng.standard_normal((1, 4))}
    if act == "relu":  # keep every pre-activation off the kink
        pre = bindings["x"] @ bindings["w"] + bindings["b"]
        bindings["b"] = bindings["b"] + np.where(np.abs(pre) < 1e-2, 0.5, 0.0)
    err = finite_diff_check(g, bindings, out, ["x", "w", "b"], h=1e-6)
    assert err < 1e-5


@pytest.mark.parametrize("act", ["identity", "tanh", "relu"])
def test_dense_bitwise_equals_composite(act):
    rng = np.random.default_rng(12)
    bindings = _two_layer_bindings(rng)
    (g_dense, out_d), (g_comp, out_c) = _two_layer(True, act), _two_layer(False, act)
    val_d, grads_d = value_and_gradients(g_dense, bindings, out_d, _WRT)
    val_c, grads_c = value_and_gradients(g_comp, bindings, out_c, _WRT)
    assert val_d == val_c
    for name in _WRT:
        np.testing.assert_array_equal(grads_d[name], grads_c[name])


def test_dense_rejects_unknown_activation_and_bad_shapes():
    b = GraphBuilder()
    x, w, bias = b.input("x"), b.param("w"), b.param("b")
    with pytest.raises(GraphError, match="activation"):
        b.dense(x, w, bias, "sigmoid")
    out = b.dense(x, w, bias, name="layer")
    g = b.build()
    with pytest.raises(ShapeMismatch, match="layer"):
        evaluate(g, {"x": np.ones((2, 3)), "w": np.ones((3, 4)), "b": np.ones((1, 3))}, [out])


def test_each_output_gets_its_own_cached_plan():
    def build():
        b = GraphBuilder()
        x = b.input("x")
        f = b.row_sum(b.mul(b.tanh(x), x))
        h = b.row_sum(b.exp(b.smul(x, 0.5)))
        return b.build(), f, h

    arr = np.random.default_rng(13).standard_normal((1, 3))
    graph, f, h = build()
    first = [value_and_gradients(graph, {"x": arr}, out, ["x"]) for out in (f, h, f)]
    for out, (val, grads) in zip((f, h, f), first):
        fresh, _, _ = build()
        ref_val, ref_grads = value_and_gradients(fresh, {"x": arr}, out, ["x"])
        assert val == ref_val
        np.testing.assert_array_equal(grads["x"], ref_grads["x"])
    assert evaluate(graph, {"x": arr}, [h])[h][0, 0] == first[1][0]
    assert evaluate(graph, {"x": arr}, [f, h])[f][0, 0] == first[0][0]


def test_concurrent_value_and_gradients_on_one_graph():
    rng = np.random.default_rng(14)
    inputs = [_two_layer_bindings(rng, rows=64) for _ in range(4)]
    serial, out = _two_layer(True, "tanh")
    expected = [value_and_gradients(serial, bnd, out, _WRT) for bnd in inputs]
    graph, _ = _two_layer(True, "tanh")  # its plan is first built under contention
    jobs = inputs * 25
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda bnd: value_and_gradients(graph, bnd, out, _WRT), jobs))
    finally:
        sys.setswitchinterval(old)
    for i, (val, grads) in enumerate(results):
        ref_val, ref_grads = expected[i % len(inputs)]
        assert val == ref_val
        for name in _WRT:
            np.testing.assert_array_equal(grads[name], ref_grads[name])

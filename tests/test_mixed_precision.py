"""Mixed-precision training: float32 forward and reverse passes over float64
master weights.

Given float32 parameters, both value_and_gradients compute in float32 and
stay within float32 rounding of their float64 results; fit_minibatch, which
runs them so, follows a float64 reference loop closely over a short fit and
returns float64 arrays. The float64 paths themselves are checked bit for
bit and against finite differences in test_autodiff.py, test_neural.py and
test_flow.py.
"""

from dataclasses import replace

import numpy as np
import pytest

from ridkit import flow, neural
from ridkit.neural import FlatAdam, MlpSpec, fit_minibatch, init_mlp

EPS32 = float(np.finfo(np.float32).eps)


def _cast(model, dtype):
    return model.with_arrays([a.astype(dtype) for a in model.arrays()])


def _nan_grads(model):
    return model.with_arrays([np.full_like(a, np.nan) for a in model.arrays()])


def _case(kind, rng, n=64):
    """A model with random (not identity) parameters, its value_and_gradients
    and a float64 batch of n rows."""
    if kind == "mlp":
        model = init_mlp(MlpSpec(3, 2, (16, 16)), rng)
        batch = {"x": neural.with_bias_column(rng.standard_normal((n, 3))),
                 "y": rng.standard_normal((n, 2)), "mean_row": np.full((1, n), 1.0 / n)}
        vg = neural.value_and_gradients
    else:
        model = flow.build_flow(3, 2, n_blocks=3, hidden=(16,), seed=1)
        batch = {"x": rng.standard_normal((n, 3)), "y": rng.standard_normal((n, 2)),
                 "w_row": rng.uniform(0.5, 2.0, (1, n)) / n}
        vg = flow.value_and_gradients
    model = model.with_arrays([a + 0.3 * rng.standard_normal(a.shape) for a in model.arrays()])
    return model, vg, batch


def _tape_arrays(tape):
    """Every array a tape holds: the MLP's layer outputs, or everything each
    flow block record keeps (its subnet input, its stacked s and t subnet
    tape, raw scale, shifted difference and inverse scale)."""
    out = []
    for entry in tape:
        if isinstance(entry, list):
            h, subnet_tape, *rest = entry
            out += [h, *subnet_tape, *rest]
        else:
            out.append(entry)
    return out


@pytest.mark.parametrize("kind", ["mlp", "flow"])
def test_float32_parameters_keep_tape_adjoints_and_gradients_float32(kind, monkeypatch):
    # a float64 temporary anywhere in the pass would promote what follows
    # it; writes into the float32 tape and gradient arrays would hide that,
    # so the adjoints each MLP reverse pass takes and returns are checked too
    model, vg, batch = _case(kind, np.random.default_rng(0))
    adjoint_dtypes, backward = [], neural._mlp_backward

    def recording_backward(params, x, tape, g, grads):
        d = backward(params, x, tape, g, grads)
        # the input adjoint, as the flow forms it
        g_x = d @ params.layers[0][..., :-1, :].swapaxes(-1, -2)
        adjoint_dtypes.extend([x.dtype, g.dtype, d.dtype, g_x.dtype])
        return d

    monkeypatch.setattr(neural if kind == "mlp" else flow, "_mlp_backward", recording_backward)
    model32 = _cast(model, np.float32)
    grads, tape = _nan_grads(model32), []
    assert np.isfinite(vg(model32, batch, grads, tape))
    assert tape
    assert adjoint_dtypes and set(adjoint_dtypes) == {np.dtype(np.float32)}
    for a in _tape_arrays(tape):
        assert a.dtype == np.float32
    for g in grads.arrays():
        assert g.dtype == np.float32
        assert np.isfinite(g).all()


@pytest.mark.parametrize("kind", ["mlp", "flow"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_float32_pass_matches_float64_within_rounding(kind, seed):
    # relative to each array's largest gradient, float32 rounding measures
    # under 20 eps on these shapes; 256 eps leaves room without hiding a
    # float16-sized or structural error
    model, vg, batch = _case(kind, np.random.default_rng(seed))
    grads64, grads32 = _nan_grads(model), _nan_grads(_cast(model, np.float32))
    loss64 = vg(model, batch, grads64)
    loss32 = vg(_cast(model, np.float32), batch, grads32)
    assert loss32 == pytest.approx(loss64, rel=256 * EPS32)
    for g64, g32 in zip(grads64.arrays(), grads32.arrays(), strict=True):
        assert np.abs(g32 - g64).max() <= 256 * EPS32 * np.abs(g64).max()


def _float64_fit(vg, model, batch, n, epochs, batch_size, rng, learning_rate):
    """fit_minibatch's loop with every pass in float64: FlatAdam and the
    float64 value_and_gradients over views of its float64 buffers."""
    opt = FlatAdam(model.arrays(), learning_rate)
    trained = model.with_arrays(opt.views(opt.params))
    grads = model.with_arrays(opt.views(opt.grads))
    trace = []
    for _ in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            total += vg(trained, batch(idx), grads) * idx.size
            opt.step()
        trace.append(total / n)
    return trained, trace


def _fit_case(kind):
    """(value_and_gradients, initial model, batch(idx, rng)) for a small fit
    on 200 rows; the flow's batches draw their jitter from the loop's rng."""
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, (200, 2))
    y = np.column_stack([x[:, 0] * x[:, 1], np.sin(3.0 * x[:, 0])])
    y += 0.05 * rng.standard_normal((200, 2))
    if kind == "mlp":
        model = init_mlp(MlpSpec(2, 2, (32, 32)), np.random.default_rng(6))
        x1 = neural.with_bias_column(x)

        def batch(idx, rng):
            return {"x": x1[idx], "y": y[idx], "mean_row": np.full((1, idx.size), 1.0 / idx.size)}

        return neural.value_and_gradients, model, batch
    model = flow.build_flow(2, 2, n_blocks=4, hidden=(32, 32), seed=6)
    model = replace(model, x_shift=x.mean(0, keepdims=True), x_scale=x.std(0, keepdims=True),
                    y_shift=y.mean(0, keepdims=True), y_scale=y.std(0, keepdims=True))
    w = rng.uniform(0.2, 1.0, 200)

    def batch(idx, rng):
        xb = x[idx] + 1e-3 * rng.standard_normal((idx.size, 2))
        return {"x": xb, "y": y[idx], "w_row": (w[idx] / idx.size).reshape(1, -1)}

    return flow.value_and_gradients, model, batch


@pytest.mark.parametrize("kind", ["mlp", "flow"])
def test_fit_minibatch_follows_a_float64_reference_loop(kind):
    # 8 epochs of 4 batches; both loops see the same batches and jitter.
    # The traces measure within 0.4 eps32 of each other (relative) and the
    # parameters within 4e-7 (3 eps32); the tolerance, 64 eps32 for both,
    # leaves room, while a float32 step gone astray (a dropped gradient, a
    # float32 copy left stale by a step) moves both by far more.
    vg, model, batch = _fit_case(kind)
    args = (200, 8, 50)
    rng64, rng32 = np.random.default_rng(7), np.random.default_rng(7)
    ref, ref_trace = _float64_fit(vg, model, lambda idx: batch(idx, rng64), *args, rng64, 3e-3)
    got, trace = fit_minibatch(vg, model, lambda idx: batch(idx, rng32), *args, rng32, 3e-3)
    assert trace != ref_trace  # the fit did run in float32
    np.testing.assert_allclose(trace, ref_trace, rtol=64 * EPS32)
    assert ref_trace[-1] < ref_trace[0]
    for a, b in zip(got.arrays(), ref.arrays(), strict=True):
        assert a.dtype == np.float64
        np.testing.assert_allclose(a, b, rtol=0, atol=64 * EPS32)


def test_trained_models_are_float64():
    rng = np.random.default_rng(8)
    x, y = rng.standard_normal((40, 2)), rng.standard_normal((40, 1))
    params, _ = neural.train_regressor(MlpSpec(2, 1, (8,)), (x, y), epochs=2, batch_size=16,
                                       seed=0)
    model, _ = flow.train_flow_wnll(flow.build_flow(2, 1, n_blocks=2, hidden=(8,)), x, y, None,
                                    flow.WnllConfig(epochs=2, batch_size=16))
    for a in params.arrays() + model.arrays():
        assert a.dtype == np.float64
    assert neural.mlp_forward(params, neural.with_bias_column(x)).dtype == np.float64

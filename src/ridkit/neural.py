"""Multilayer perceptron regression: forward pass, MSE, Adam, the training loop.

fit_minibatch is the one minibatch Adam loop; train_regressor and the
flow's weighted-likelihood fit both run through it.

The regressors serve two roles: forward surrogates that estimate the mean
response of a noisy process (their held-out error is the per-sample
robustness signal), and the scale/shift subnets inside coupling blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import backend
from .autodiff import Graph, GraphBuilder, value_and_gradients

__all__ = [
    "MlpSpec",
    "MlpParams",
    "TrainingError",
    "init_mlp",
    "mlp_forward",
    "mse_loss",
    "FlatAdam",
    "fit_minibatch",
    "train_regressor",
    "mlp_to_jsonable",
    "mlp_from_jsonable",
]

_ACTIVATIONS = ("tanh", "relu")


class TrainingError(Exception):
    """Training produced a non-finite loss."""


@dataclass(frozen=True)
class MlpSpec:
    input_dim: int
    output_dim: int
    hidden: tuple[int, ...] = ()
    activation: str = "tanh"

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("all layer widths must be >= 1")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))

    @property
    def layer_dims(self) -> tuple[tuple[int, int], ...]:
        dims = (self.input_dim, *self.hidden, self.output_dim)
        return tuple(zip(dims[:-1], dims[1:]))


@dataclass(frozen=True)
class MlpParams:
    spec: MlpSpec
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        expect = self.spec.layer_dims
        if len(self.weights) != len(expect) or len(self.biases) != len(expect):
            raise ValueError("layer count does not match spec")
        for (din, dout), w, b in zip(expect, self.weights, self.biases):
            if w.shape != (din, dout) or b.shape != (1, dout):
                raise ValueError(
                    f"layer shapes {w.shape}/{b.shape} do not chain for ({din}, {dout})"
                )


def init_mlp(spec: MlpSpec, rng: np.random.Generator, zero_final: bool = False) -> MlpParams:
    """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases.

    zero_final additionally zeroes the last layer, which makes coupling
    blocks start as the identity map.
    """
    weights, biases = [], []
    layer_dims = spec.layer_dims
    for li, (din, dout) in enumerate(layer_dims):
        bound = np.sqrt(6.0 / (din + dout))
        w = rng.uniform(-bound, bound, size=(din, dout))
        if zero_final and li == len(layer_dims) - 1:
            w = np.zeros((din, dout))
        weights.append(w)
        biases.append(np.zeros((1, dout)))
    return MlpParams(spec, tuple(weights), tuple(biases))


def mlp_forward(params: MlpParams, x_batch: np.ndarray) -> np.ndarray:
    x = np.asarray(x_batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.spec.input_dim:
        raise ValueError(f"x_batch shape {x.shape} does not match input_dim {params.spec.input_dim}")
    relu = params.spec.activation == "relu"
    h = x
    last = len(params.weights) - 1
    # one fresh array per layer, updated in place: large batches then reuse
    # the allocator's blocks instead of faulting in new pages per temporary
    for li, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w
        h += b
        if li != last:
            if relu:
                np.maximum(h, 0.0, out=h)
            else:
                np.tanh(h, out=h)
    return h


def mse_loss(y_pred: np.ndarray, y_true: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-row sum of squared coordinate differences and their batch mean."""
    a = np.asarray(y_pred, dtype=np.float64)
    b = np.asarray(y_true, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    rows = backend.row_sumsq_diff(a, b)
    return rows, float(rows.mean())


# optimizer ---------------------------------------------------------------------

_BETA1 = 0.9
_BETA2 = 0.999
_EPSILON = 1e-8


def _adam_update(p, g, m, v, t, lr, wd, tmp, tmp2) -> None:
    """One Adam step with bias correction and decoupled weight decay, in place.

    Rewrites p, m and v; tmp and tmp2 are scratch arrays shaped like p.
    Computes m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g) and
    p = p*(1 - lr*wd) - lr*((m*c1) / (sqrt(v*c2) + eps)) with exactly these
    roundings, so any split of the parameters into arrays gives the same bits.
    """
    m *= _BETA1
    np.multiply(g, 1.0 - _BETA1, out=tmp)
    m += tmp
    v *= _BETA2
    np.multiply(g, g, out=tmp)
    tmp *= 1.0 - _BETA2
    v += tmp
    np.multiply(v, 1.0 / (1.0 - _BETA2 ** t), out=tmp2)
    np.sqrt(tmp2, out=tmp2)
    tmp2 += _EPSILON
    np.multiply(m, 1.0 / (1.0 - _BETA1 ** t), out=tmp)
    tmp /= tmp2
    tmp *= lr
    p *= 1.0 - lr * wd
    p -= tmp


class FlatAdam:
    """Adam over parameters held in one flat buffer and updated in place.

    Parameters, gradients and both moments each live in a single float64
    buffer; `views` cuts a buffer into arrays shaped like the ones given at
    construction, so callers bind per-layer views and read every update
    without copies.
    """

    def __init__(self, arrays: Sequence[np.ndarray], learning_rate: float = 1e-3,
                 weight_decay: float = 1e-5):
        if learning_rate < 0.0:
            raise ValueError("learning_rate must be >= 0")
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self._shapes = [np.shape(a) for a in arrays]
        self.params = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
        self._grads, self._m, self._v, self._tmp, self._tmp2 = (
            np.zeros_like(self.params) for _ in range(5)
        )
        self.step_count = 0

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        out, off = [], 0
        for shape in self._shapes:
            size = math.prod(shape)
            out.append(flat[off:off + size].reshape(shape))
            off += size
        return out

    def step(self, grads: Sequence[np.ndarray]) -> None:
        """Applies one update from per-array gradients in construction order.

        Raises TrainingError when the update leaves a non-finite parameter.
        """
        np.concatenate([np.ravel(g) for g in grads], out=self._grads)
        self.step_count += 1
        _adam_update(self.params, self._grads, self._m, self._v, self.step_count,
                     self.learning_rate, self.weight_decay, self._tmp, self._tmp2)
        if not np.isfinite(self.params).all():
            raise TrainingError(f"non-finite parameters after Adam step {self.step_count}")


# graph construction -------------------------------------------------------------


def append_mlp_graph(b: GraphBuilder, spec: MlpSpec, x: str, prefix: str) -> str:
    """Adds an MLP to a graph under construction; returns the output node.

    Parameters are registered as '{prefix}.w{i}' / '{prefix}.b{i}'.
    """
    h = x
    last = len(spec.layer_dims) - 1
    for li in range(len(spec.layer_dims)):
        w = b.param(f"{prefix}.w{li}")
        bias = b.param(f"{prefix}.b{li}")
        h = b.dense(h, w, bias, spec.activation if li != last else "identity")
    return h


def mlp_param_bindings(prefix: str, params: MlpParams) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for li, (w, bias) in enumerate(zip(params.weights, params.biases)):
        out[f"{prefix}.w{li}"] = w
        out[f"{prefix}.b{li}"] = bias
    return out


def mlp_from_bindings(prefix: str, spec: MlpSpec, bindings: Mapping[str, np.ndarray]) -> MlpParams:
    """Inverse of mlp_param_bindings: the MlpParams bound under `prefix`."""
    layers = range(len(spec.layer_dims))
    return MlpParams(spec, tuple(bindings[f"{prefix}.w{li}"] for li in layers),
                     tuple(bindings[f"{prefix}.b{li}"] for li in layers))


def _regression_loss_graph(spec: MlpSpec) -> tuple[Graph, str]:
    b = GraphBuilder()
    x = b.input("x")
    y = b.input("y")
    mean_row = b.input("mean_row")  # (1, batch) of 1/batch entries
    pred = append_mlp_graph(b, spec, x, "mlp")
    diff = b.sub(pred, y)
    rows = b.row_sum(b.mul(diff, diff))
    loss = b.matmul(mean_row, rows, name="loss")
    return b.build(), loss


# training -----------------------------------------------------------------------


def fit_minibatch(
    graph: Graph,
    loss_node: str,
    params: Mapping[str, np.ndarray],
    batch_leaves: Callable[[np.ndarray], dict[str, np.ndarray]],
    n: int,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
    learning_rate: float,
    weight_decay: float,
) -> tuple[dict[str, np.ndarray], list[float]]:
    """Minibatch Adam on a batch-mean scalar loss node of `graph`.

    `params` maps parameter leaves to their initial arrays, which are not
    modified. Each epoch draws one rng.permutation(n) and cuts it into
    batches; batch_leaves(idx) returns the bindings of every other leaf for
    the rows idx and may draw from rng itself. Returns the trained arrays
    under the same names and the per-epoch mean loss.
    """
    names = list(params)
    opt = FlatAdam([params[nm] for nm in names], learning_rate, weight_decay)
    trained = dict(zip(names, opt.views(opt.params)))
    bindings = dict(trained)
    trace: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            bindings.update(batch_leaves(idx))
            loss, grads = value_and_gradients(graph, bindings, loss_node, names)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            epoch_loss += loss * idx.size
            opt.step([grads[nm] for nm in names])
        trace.append(epoch_loss / n)
    return trained, trace


def train_regressor(
    spec: MlpSpec,
    train: tuple[np.ndarray, np.ndarray],
    epochs: int,
    batch_size: int,
    seed: int,
    learning_rate: float = 1e-3,
    weight_decay: float = 1e-5,
) -> tuple[MlpParams, list[float]]:
    """Minibatch Adam on batch-mean MSE; reproducible under the seed.

    Returns the final parameters and the per-epoch mean training MSE.
    """
    x_train, y_train = (np.asarray(a, dtype=np.float64) for a in train)
    n = x_train.shape[0]
    if n == 0:
        raise ValueError("training set is empty")
    if x_train.shape[1] != spec.input_dim or y_train.shape[1] != spec.output_dim:
        raise ValueError("training data does not match spec dims")
    rng = np.random.default_rng(seed)
    graph, loss_node = _regression_loss_graph(spec)

    def batch_leaves(idx: np.ndarray) -> dict[str, np.ndarray]:
        return {"x": x_train[idx], "y": y_train[idx],
                "mean_row": np.full((1, idx.size), 1.0 / idx.size)}

    trained, trace = fit_minibatch(
        graph, loss_node, mlp_param_bindings("mlp", init_mlp(spec, rng)), batch_leaves, n,
        epochs, batch_size, rng, learning_rate, weight_decay,
    )
    return mlp_from_bindings("mlp", spec, trained), trace


# serialization -------------------------------------------------------------------

MLP_FORMAT_VERSION = 1


def mlp_to_jsonable(params: MlpParams) -> dict:
    return {
        "format_version": MLP_FORMAT_VERSION,
        "kind": "mlp-regressor",
        "spec": {
            "input_dim": params.spec.input_dim,
            "output_dim": params.spec.output_dim,
            "hidden": list(params.spec.hidden),
            "activation": params.spec.activation,
        },
        "layers": [
            {"weight": w.ravel().tolist(), "bias": b.ravel().tolist()}
            for w, b in zip(params.weights, params.biases)
        ],
    }


def mlp_from_jsonable(doc: dict) -> MlpParams:
    if doc.get("format_version") != MLP_FORMAT_VERSION:
        raise ValueError(f"unsupported mlp format_version {doc.get('format_version')}")
    s = doc["spec"]
    spec = MlpSpec(s["input_dim"], s["output_dim"], tuple(s["hidden"]), s["activation"])
    weights, biases = [], []
    for (din, dout), layer in zip(spec.layer_dims, doc["layers"]):
        weights.append(np.asarray(layer["weight"], dtype=np.float64).reshape(din, dout))
        biases.append(np.asarray(layer["bias"], dtype=np.float64).reshape(1, dout))
    return MlpParams(spec, tuple(weights), tuple(biases))

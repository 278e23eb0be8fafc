"""Multilayer perceptron regression: forward and reverse passes, MSE, Adam,
the training loop.

fit_minibatch is the one minibatch Adam loop; train_regressor and the
flow's weighted-likelihood fit both run through it, each with its own
value_and_gradients.

The regressors serve two roles: forward surrogates that estimate the mean
response of a noisy process (their held-out error is the per-sample
robustness signal), and the scale/shift subnets inside coupling blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

__all__ = [
    "MlpSpec",
    "MlpParams",
    "TrainingError",
    "init_mlp",
    "mlp_forward",
    "value_and_gradients",
    "FlatAdam",
    "fit_minibatch",
    "train_regressor",
    "mlp_to_jsonable",
    "mlp_from_jsonable",
]

_ACTIVATIONS = ("tanh", "relu")


class TrainingError(Exception):
    """Training produced a non-finite loss or parameter, or met rows it
    cannot represent."""


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

    def arrays(self) -> list[np.ndarray]:
        """The parameter arrays in training order: [w0, b0, w1, b1, ...]."""
        return [a for layer in zip(self.weights, self.biases) for a in layer]

    def with_arrays(self, arrays: Sequence[np.ndarray]) -> MlpParams:
        """Inverse of arrays(): the same network over the given arrays."""
        return MlpParams(self.spec, tuple(arrays[0::2]), tuple(arrays[1::2]))


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


def mlp_forward(params: MlpParams, x_batch: np.ndarray, tape: list | None = None) -> np.ndarray:
    """Network output for a batch of rows, computed in the dtype of the
    parameters.

    With a list for `tape`, records every layer's output in it, the input of
    the reverse pass _mlp_backward. A layer output already in the list with
    the right shape is rewritten in place, so a training loop that passes
    the same list every step keeps its activations in the same buffers.
    """
    x = np.asarray(x_batch, dtype=params.weights[0].dtype)
    if x.ndim != 2 or x.shape[1] != params.spec.input_dim:
        raise ValueError(f"x_batch shape {x.shape} does not match input_dim {params.spec.input_dim}")
    relu = params.spec.activation == "relu"
    h = x
    last = len(params.weights) - 1
    # one array per layer, fresh or the tape's own, updated in place: large
    # batches then reuse memory instead of faulting in new pages per temporary
    for li, (w, b) in enumerate(zip(params.weights, params.biases)):
        if tape is not None and li < len(tape) and tape[li].shape == (h.shape[0], w.shape[1]):
            h = np.matmul(h, w, out=tape[li])
        else:
            h = h @ w
            if tape is not None:
                tape[li:li + 1] = [h]
        h += b
        if li != last:
            if relu:
                np.maximum(h, 0.0, out=h)
            else:
                np.tanh(h, out=h)
    return h


def _mlp_backward(params: MlpParams, x: np.ndarray, tape: Sequence[np.ndarray], g: np.ndarray,
                  grads: MlpParams) -> np.ndarray:
    """Reverse pass of mlp_forward(params, x, tape) for the output adjoint g.

    Writes each layer's weight and bias gradient into the matching array of
    `grads` and returns the adjoint of x.
    """
    relu = params.spec.activation == "relu"
    last = len(params.weights) - 1
    for li in range(last, -1, -1):
        y = tape[li]
        if li == last:
            d = g
        elif relu:
            d = g * (y > 0.0)
        else:
            d = y * y
            np.subtract(1.0, d, out=d)
            d *= g
        np.sum(d, axis=0, keepdims=True, out=grads.biases[li])
        np.matmul((tape[li - 1] if li else x).T, d, out=grads.weights[li])
        g = d @ params.weights[li].T
    return g


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
    """Mixed-precision Adam over parameters held in one flat buffer and
    updated in place.

    The master copy of the parameters (`params`), the gradients Adam reads
    (`grads`) and both moments each live in a single float64 buffer, and
    every update is float64 arithmetic. Beside them sit `params32`, a
    float32 copy of `params` that every step refreshes, and `grads32`, a
    float32 gradient buffer: a training step runs its forward and reverse
    passes over views of these two, then casts `grads32` up into `grads`
    before the step. `views` cuts any of the buffers into arrays shaped
    like the ones given at construction, so callers write gradients into
    views of a gradient buffer and read every update from views of a
    parameter buffer without copies.
    """

    def __init__(self, arrays: Sequence[np.ndarray], learning_rate: float = 1e-3,
                 weight_decay: float = 1e-5):
        if learning_rate < 0.0:
            raise ValueError("learning_rate must be >= 0")
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self._shapes = [np.shape(a) for a in arrays]
        self.params = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
        self.grads, self._m, self._v, self._tmp, self._tmp2 = (
            np.zeros_like(self.params) for _ in range(5)
        )
        with np.errstate(over="ignore"):
            self.params32 = self.params.astype(np.float32)
        if not np.isfinite(self.params32).all():
            raise ValueError("parameters must be finite and fit float32")
        self.grads32 = np.zeros_like(self.params32)
        self.step_count = 0

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        out, off = [], 0
        for shape in self._shapes:
            size = math.prod(shape)
            out.append(flat[off:off + size].reshape(shape))
            off += size
        return out

    def step(self) -> None:
        """Applies one update from the gradients held in `grads` and
        refreshes `params32`.

        Raises TrainingError naming the step when the update leaves a
        non-finite parameter or one that overflows float32.
        """
        self.step_count += 1
        _adam_update(self.params, self.grads, self._m, self._v, self.step_count,
                     self.learning_rate, self.weight_decay, self._tmp, self._tmp2)
        with np.errstate(over="ignore"):
            np.copyto(self.params32, self.params, casting="same_kind")
        # a non-finite float64 parameter stays non-finite in the copy
        if not np.isfinite(self.params32).all():
            what = ("non-finite parameters" if not np.isfinite(self.params).all()
                    else "parameters overflow float32")
            raise TrainingError(f"{what} after Adam step {self.step_count}")


# regression loss ----------------------------------------------------------------


def value_and_gradients(params: MlpParams, batch: Mapping[str, np.ndarray],
                        grads: MlpParams, tape: list | None = None) -> float:
    """Batch-mean squared error of the MLP and its gradient, computed in the
    dtype of the parameters.

    `batch` holds the rows "x" and "y" and "mean_row", a (1, batch) row of
    1/batch entries; they are cast to the parameter dtype, and only the
    final sum of the per-row errors into the loss runs in float64. Writes
    the gradient of every parameter array into the matching array of
    `grads` and returns the loss; a non-finite loss, on which training
    stops, returns before the reverse pass and leaves `grads` as they were.
    `tape` may carry the layer outputs of an earlier call for reuse (see
    mlp_forward).
    """
    dtype = params.weights[0].dtype
    x = np.asarray(batch["x"], dtype=dtype)
    mean_row = batch["mean_row"]
    if tape is None:
        tape = []
    diff = mlp_forward(params, x, tape) - np.asarray(batch["y"], dtype=dtype)
    loss = float((mean_row @ (diff * diff).sum(axis=1, keepdims=True))[0, 0])
    if not math.isfinite(loss):
        return loss
    # d(diff*diff) is g*diff + diff*g, one term per factor
    g = mean_row.astype(dtype, copy=False).T * diff
    _mlp_backward(params, x, tape, g + g, grads)
    return loss


# training -----------------------------------------------------------------------


Model = TypeVar("Model")  # MlpParams or flow.FlowModel: has arrays() and with_arrays()


def fit_minibatch(
    value_and_grads: Callable[[Model, dict[str, np.ndarray], Model, list], float],
    model: Model,
    batch: Callable[[np.ndarray], dict[str, np.ndarray]],
    n: int,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
    learning_rate: float,
    weight_decay: float,
) -> tuple[Model, list[float]]:
    """Minibatch Adam on a batch-mean scalar loss, in mixed precision.

    The arrays of `model` are not modified. Each step runs on a copy of the
    model over float32 views of the optimizer's parameters (FlatAdam's
    params32), and a second model of the same layout over views of its
    float32 gradient buffer holds the gradients; the gradients are cast up
    and Adam updates the float64 master copy, which is what comes back.
    Each epoch draws one rng.permutation(n) and cuts it into batches;
    batch(idx) returns the data for the rows idx and may draw from rng
    itself. value_and_grads(model, batch, grads, tape) returns the loss and
    writes every gradient array into `grads`; `tape` is one list passed to
    every step, in which the forward pass keeps its activations, so a step
    rewrites the previous step's buffers instead of allocating (and, for
    large batches, page-faulting in) fresh ones. Returns the trained model
    and the per-epoch mean loss.
    """
    opt = FlatAdam(model.arrays(), learning_rate, weight_decay)
    work = model.with_arrays(opt.views(opt.params32))
    grads = model.with_arrays(opt.views(opt.grads32))
    tape: list = []
    trace: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            loss = value_and_grads(work, batch(idx), grads, tape)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            epoch_loss += loss * idx.size
            np.copyto(opt.grads, opt.grads32)
            opt.step()
        trace.append(epoch_loss / n)
    return model.with_arrays(opt.views(opt.params)), trace


def train_regressor(
    spec: MlpSpec,
    train: tuple[np.ndarray, np.ndarray],
    epochs: int,
    batch_size: int,
    seed: int,
    learning_rate: float = 1e-3,
    weight_decay: float = 1e-5,
) -> tuple[MlpParams, list[float]]:
    """Minibatch Adam on batch-mean MSE, with float32 forward and reverse
    passes (see fit_minibatch); reproducible under the seed.

    Returns the final float64 parameters and the per-epoch mean training
    MSE. Raises TrainingError when a training row overflows float32.
    """
    x_train, y_train = (np.asarray(a, dtype=np.float64) for a in train)
    n = x_train.shape[0]
    if n == 0:
        raise ValueError("training set is empty")
    if x_train.shape[1] != spec.input_dim or y_train.shape[1] != spec.output_dim:
        raise ValueError("training data does not match spec dims")
    if not (np.isfinite(x_train).all() and np.isfinite(y_train).all()):
        raise ValueError("training data must be finite")
    # the steps compute in float32 (see fit_minibatch), so the rows are cast
    # once; rows beyond float32 fail as training does on rows whose squared
    # error overflows float64
    with np.errstate(over="ignore"):
        x32, y32 = x_train.astype(np.float32), y_train.astype(np.float32)
    if not (np.isfinite(x32).all() and np.isfinite(y32).all()):
        raise TrainingError("training rows overflow float32")
    rng = np.random.default_rng(seed)

    def batch(idx: np.ndarray) -> dict[str, np.ndarray]:
        return {"x": x32[idx], "y": y32[idx],
                "mean_row": np.full((1, idx.size), 1.0 / idx.size)}

    return fit_minibatch(value_and_gradients, init_mlp(spec, rng), batch, n,
                         epochs, batch_size, rng, learning_rate, weight_decay)


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
    """Inverse of mlp_to_jsonable. Raises ValueError for a layer count that
    does not match the spec or a non-finite weight or bias."""
    if doc.get("format_version") != MLP_FORMAT_VERSION:
        raise ValueError(f"unsupported mlp format_version {doc.get('format_version')}")
    s = doc["spec"]
    spec = MlpSpec(s["input_dim"], s["output_dim"], tuple(s["hidden"]), s["activation"])
    if len(doc["layers"]) != len(spec.layer_dims):
        raise ValueError(f"mlp has {len(doc['layers'])} layers for a spec of "
                         f"{len(spec.layer_dims)}")
    weights, biases = [], []
    for (din, dout), layer in zip(spec.layer_dims, doc["layers"]):
        weights.append(np.asarray(layer["weight"], dtype=np.float64).reshape(din, dout))
        biases.append(np.asarray(layer["bias"], dtype=np.float64).reshape(1, dout))
    params = MlpParams(spec, tuple(weights), tuple(biases))
    if not all(np.isfinite(a).all() for a in params.arrays()):
        raise ValueError("mlp weights and biases must be finite")
    return params

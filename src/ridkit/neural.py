"""Multilayer perceptron regression: forward and reverse passes, MSE, Adam,
the training loop.

fit_minibatch is the one minibatch Adam loop; train_regressor and the
flow's weighted-likelihood fit both run through it, each with its own
value_and_gradients and learning rate, and one fixed weight decay.

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
    "with_bias_column",
    "value_and_gradients",
    "FlatAdam",
    "fit_minibatch",
    "train_regressor",
]

class TrainingError(Exception):
    """Training produced a non-finite loss or parameter, or met rows it
    cannot represent."""


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths of an MLP whose hidden layers are tanh and whose output
    layer is linear."""

    input_dim: int
    output_dim: int
    hidden: tuple[int, ...] = ()

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("all layer widths must be >= 1")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))

    @property
    def layer_dims(self) -> tuple[tuple[int, int], ...]:
        dims = (self.input_dim, *self.hidden, self.output_dim)
        return tuple(zip(dims[:-1], dims[1:]))


@dataclass(frozen=True)
class MlpParams:
    """The parameters of an MLP, one (din + 1, dout) array per layer: the
    weight matrix with the bias appended as its last row, so that a layer
    is the one matmul [h, 1] @ [W; b]. Layers of shape (*stack, din + 1,
    dout) hold a stack of MLPs of one spec, run as one (see mlp_forward)."""

    spec: MlpSpec
    layers: tuple[np.ndarray, ...]

    def __post_init__(self):
        expect = self.spec.layer_dims
        if len(self.layers) != len(expect):
            raise ValueError("layer count does not match spec")
        stack = self.layers[0].shape[:-2]
        for (din, dout), a in zip(expect, self.layers):
            if a.shape != (*stack, din + 1, dout):
                raise ValueError(f"layer shape {a.shape} is not {(*stack, din + 1, dout)}")

    def arrays(self) -> list[np.ndarray]:
        """The parameter arrays in training order: one per layer."""
        return list(self.layers)

    def with_arrays(self, arrays: Sequence[np.ndarray]) -> MlpParams:
        """Inverse of arrays(): the same network over the given arrays."""
        return MlpParams(self.spec, tuple(arrays))


def init_mlp(spec: MlpSpec, rng: np.random.Generator, zero_final: bool = False) -> MlpParams:
    """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases.

    zero_final additionally zeroes the last layer, which makes coupling
    blocks start as the identity map.
    """
    layers = []
    layer_dims = spec.layer_dims
    for li, (din, dout) in enumerate(layer_dims):
        bound = np.sqrt(6.0 / (din + dout))
        w = rng.uniform(-bound, bound, size=(din, dout))
        layer = np.zeros((din + 1, dout))
        if not (zero_final and li == len(layer_dims) - 1):
            layer[:-1] = w
        layers.append(layer)
    return MlpParams(spec, tuple(layers))


def with_bias_column(x: np.ndarray, dtype=np.float64) -> np.ndarray:
    """[x, 1] in dtype: the rows of x followed by the constant column that
    the input of mlp_forward carries."""
    x = np.asarray(x)
    out = np.empty((x.shape[0], x.shape[1] + 1), dtype=dtype)
    out[:, :-1] = x
    out[:, -1] = 1.0
    return out


def mlp_forward(params: MlpParams, x_batch: np.ndarray, tape: list | None = None) -> np.ndarray:
    """Network output for a batch of rows, computed in the dtype of the
    parameters.

    Each row of x_batch is an input followed by the constant 1 (see
    with_bias_column), so every layer, bias included, is one matmul; the
    caller builds that column once for all the calls that share the rows.
    Each hidden layer writes its matmul into the first columns of an
    (n, dout + 1) array, takes tanh of the whole array and resets the last
    column to 1, which makes the array the next layer's input. A stack of
    MLPs runs on the x_batch its MLPs share, every output gaining the stack
    axes in front; each slice is the BLAS call of its MLP run alone.

    With a list for `tape`, records every layer's output in it, the input of
    the reverse pass _mlp_backward. A layer output already in the list with
    the right shape is rewritten in place, so a training loop that passes
    the same list every step keeps its layer outputs in the same buffers.
    """
    layers = params.layers
    x = np.asarray(x_batch, dtype=layers[0].dtype)
    if x.ndim != 2 or x.shape[1] != params.spec.input_dim + 1:
        raise ValueError(f"x_batch shape {x.shape} is not (rows, input_dim {params.spec.input_dim}"
                         " + the constant column)")
    h = x
    last = len(layers) - 1
    # one array per layer, fresh or the tape's own, updated in place: large
    # batches then reuse memory instead of faulting in new pages per temporary
    for li, a in enumerate(layers):
        shape = (*a.shape[:-2], x.shape[0], a.shape[-1] + (li != last))
        if tape is not None and li < len(tape) and tape[li].shape == shape:
            out = tape[li]
        else:
            out = np.empty(shape, dtype=a.dtype)
            if tape is not None:
                tape[li:li + 1] = [out]
        if li == last:
            np.matmul(h, a, out=out)
        else:
            np.matmul(h, a, out=out[..., :-1])
            np.tanh(out, out=out)
            out[..., -1] = 1.0
        h = out
    return h


def _mlp_backward(params: MlpParams, x: np.ndarray, tape: Sequence[np.ndarray], g: np.ndarray,
                  grads: MlpParams) -> np.ndarray:
    """Reverse pass of mlp_forward(params, x, tape) for the output adjoint g,
    which has the stack axes of that output.

    Writes each layer's gradient into the matching array of `grads` (the
    bias row comes out of the same matmul as the weights, through the
    input's constant column) and returns d, the adjoint of the first
    layer's matmul output. A caller that needs the adjoint of x forms it as
    d @ params.layers[0][..., :-1, :].swapaxes(-1, -2), one per MLP of a
    stack (the constant column has none); the surrogate loss does not, so
    the pass does not compute it. A hidden layer's adjoint keeps the
    constant column too, so the elementwise tanh step runs over whole
    contiguous arrays; 1 - 1*1 zeroes that column before the slice that
    drops it. The 2-D x a stack shares broadcasts in x.T @ d.
    """
    layers = params.layers
    last = len(layers) - 1
    for li in range(last, -1, -1):
        if li == last:
            d = g
        else:  # through tanh: 1 - tanh^2
            d = tape[li] * tape[li]
            np.subtract(1.0, d, out=d)
            d *= g
            d = d[..., :-1]
        np.matmul((tape[li - 1] if li else x).swapaxes(-1, -2), d, out=grads.layers[li])
        if li:
            g = d @ layers[li].swapaxes(-1, -2)
    return d


# optimizer ---------------------------------------------------------------------

_BETA1 = 0.9
_BETA2 = 0.999
_EPSILON = 1e-8
_WEIGHT_DECAY = 1e-5


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

    def __init__(self, arrays: Sequence[np.ndarray], learning_rate: float = 1e-3):
        if learning_rate < 0.0:
            raise ValueError("learning_rate must be >= 0")
        self.learning_rate = learning_rate
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
                     self.learning_rate, _WEIGHT_DECAY, self._tmp, self._tmp2)
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

    `batch` holds the rows "x", each ending in the constant column of
    mlp_forward's input, and "y" and "mean_row", a (1, batch) row of
    1/batch entries; they are cast to the parameter dtype, and only the
    final sum of the per-row errors into the loss runs in float64. Writes
    the gradient of every parameter array into the matching array of
    `grads` and returns the loss; a non-finite loss, on which training
    stops, returns before the reverse pass and leaves `grads` as they were.
    `tape` may carry the layer outputs of an earlier call for reuse (see
    mlp_forward).
    """
    dtype = params.layers[0].dtype
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

# the Adam step size of every train_regressor fit
_REGRESSOR_LEARNING_RATE = 1e-3

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
    every step, in which the forward pass keeps its layer outputs, so a step
    rewrites the previous step's buffers instead of allocating (and, for
    large batches, page-faulting in) fresh ones. Returns the trained model
    and the per-epoch mean loss.
    """
    opt = FlatAdam(model.arrays(), learning_rate)
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
) -> tuple[MlpParams, list[float]]:
    """Minibatch Adam on batch-mean MSE at learning rate
    _REGRESSOR_LEARNING_RATE, with float32 forward and reverse passes (see
    fit_minibatch); reproducible under the seed.

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
    # the steps compute in float32 (see fit_minibatch), so the rows are cast,
    # and given their constant column, once; rows beyond float32 fail as
    # training does on rows whose squared error overflows float64
    with np.errstate(over="ignore"):
        x32, y32 = with_bias_column(x_train, np.float32), y_train.astype(np.float32)
    if not (np.isfinite(x32).all() and np.isfinite(y32).all()):
        raise TrainingError("training rows overflow float32")
    rng = np.random.default_rng(seed)

    def batch(idx: np.ndarray) -> dict[str, np.ndarray]:
        return {"x": x32[idx], "y": y32[idx],
                "mean_row": np.full((1, idx.size), 1.0 / idx.size)}

    return fit_minibatch(value_and_gradients, init_mlp(spec, rng), batch, n,
                         epochs, batch_size, rng, _REGRESSOR_LEARNING_RATE)


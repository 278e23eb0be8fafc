"""Conditional coupling flow with exact log-density and weighted training.

A FlowModel maps latent z ~ N(0, I) to designs x through a stack of
conditional affine coupling blocks; each block rescales and shifts half of
the coordinates using tanh MLP subnets fed with the untouched half and the
condition y, so both directions and the log-determinant are available in
closed form. Fitting minimizes a per-sample-weighted negative
log-likelihood, which is how non-robust samples get suppressed.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import backend
from .fileio import json_numbers
from .neural import (
    MlpParams,
    MlpSpec,
    _mlp_backward,
    fit_minibatch,
    init_mlp,
    mlp_forward,
    with_bias_column,
)

__all__ = [
    "CouplingBlock",
    "FlowModel",
    "WnllConfig",
    "build_flow",
    "flow_forward",
    "flow_log_prob",
    "flow_sample",
    "value_and_gradients",
    "train_flow_wnll",
    "flow_to_jsonable",
    "flow_from_jsonable",
]

_LOG_2PI = math.log(2.0 * math.pi)
# flow_forward rows per tile: a stacked s and t layer output of this many
# rows, 2 x 1,024 x (64 + 1) values, is 520 KiB in float32 (sampling)
_TILE_ROWS = 1024


@dataclass(frozen=True)
class CouplingBlock:
    """One conditional affine coupling layer.

    `passive` coordinates pass through unchanged and, together with the
    condition, drive the scale subnet s and shift subnet t applied to the
    `active` coordinates. `subnets` holds both as one stack of MLPs, every
    layer a (2, din + 1, dout) array with s at index 0 and t at 1.
    """

    active: tuple[int, ...]
    passive: tuple[int, ...]
    subnets: MlpParams


def _check_split(active: tuple[int, ...], passive: tuple[int, ...], d_x: int) -> None:
    """Raises ValueError unless active is a non-empty set of coordinates
    and passive its complement in 0..d_x-1."""
    if not active:
        raise ValueError("a coupling block must transform at least one coordinate")
    if sorted(active + passive) != list(range(d_x)):
        raise ValueError(f"coupling-flow mask {list(active)} is not a set of coordinates "
                         f"with passive {list(passive)} as its complement in 0..{d_x - 1}")


@dataclass(frozen=True)
class FlowModel:
    """Coupling blocks over d_x coordinates conditioned on d_y. Each block
    splits 0..d_x-1 into a non-empty active set and its passive complement,
    and its stacked s and t subnets map [passive, y] to one value per
    active coordinate through block 0's hidden widths; construction checks
    all this. Every block saturates its raw scale to clamp*(2/pi)*atan(raw),
    so each effective log-scale stays strictly inside (-clamp, clamp)."""

    d_x: int
    d_y: int
    clamp: float
    blocks: tuple[CouplingBlock, ...]
    perms: tuple[tuple[int, ...], ...]  # applied to the latent before each block
    x_shift: np.ndarray  # (1, d_x) standardization, identity until trained
    x_scale: np.ndarray
    y_shift: np.ndarray  # (1, d_y)
    y_scale: np.ndarray

    def __post_init__(self):
        if not 0 < self.clamp < math.inf:
            raise ValueError("clamp must be finite and positive")
        if not self.blocks:
            raise ValueError("a flow needs at least one coupling block")
        if len(self.perms) != len(self.blocks):
            raise ValueError("need one permutation per block")
        for p in self.perms:
            if sorted(p) != list(range(self.d_x)):
                raise ValueError(f"{p} is not a permutation of 0..{self.d_x - 1}")
        hidden = list(self.blocks[0].subnets.spec.hidden)
        layout = "a stack {} of {} -> {} -> {} MLPs"
        for li, blk in enumerate(self.blocks):
            _check_split(blk.active, blk.passive, self.d_x)
            spec = blk.subnets.spec
            got = (blk.subnets.layers[0].shape[:-2], spec.input_dim, list(spec.hidden),
                   spec.output_dim)
            want = ((2,), len(blk.passive) + self.d_y, hidden, len(blk.active))
            if got != want:
                raise ValueError(f"block {li}: subnets are {layout.format(*got)}, "
                                 f"not {layout.format(*want)}")

    def arrays(self) -> list[np.ndarray]:
        """The subnet arrays in training order: each block's stacked layers,
        one (2, din + 1, dout) array per layer holding s and then t."""
        return [a for blk in self.blocks for a in blk.subnets.arrays()]

    def with_arrays(self, arrays: Sequence[np.ndarray]) -> FlowModel:
        """Inverse of arrays(): the same flow, standardization included,
        over the given subnet arrays."""
        n = len(self.blocks[0].subnets.layers)  # per block: all have block 0's widths
        return replace(self, blocks=tuple(
            replace(blk, subnets=blk.subnets.with_arrays(arrays[li * n:(li + 1) * n]))
            for li, blk in enumerate(self.blocks)))


def _checkerboard(d_x: int, parity: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    active = tuple(i for i in range(d_x) if i % 2 == parity % 2)
    passive = tuple(i for i in range(d_x) if i % 2 != parity % 2)
    if not active:  # d_x == 1 and odd parity
        active, passive = passive, active
    return active, passive


def build_flow(
    d_x: int,
    d_y: int,
    n_blocks: int,
    hidden: Sequence[int],
    clamp: float = 2.0,
    seed: int = 0,
) -> FlowModel:
    """Identity-initialized model: subnets end in a zero layer, so the map
    starts as x = z and the density starts at the standard normal."""
    if d_x < 1 or d_y < 1:
        raise ValueError("d_x and d_y must be >= 1")
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    rng = np.random.default_rng(seed)
    blocks, perms = [], []
    for li in range(n_blocks):
        active, passive = _checkerboard(d_x, li)
        sub_spec = MlpSpec(len(passive) + d_y, len(active), tuple(hidden))
        s, t = (init_mlp(sub_spec, rng, zero_final=True) for _ in "st")  # s drawn first
        blocks.append(CouplingBlock(active, passive, MlpParams(
            sub_spec, tuple(map(np.stack, zip(s.layers, t.layers))))))
        perm = tuple(int(i) for i in rng.permutation(d_x)) if li > 0 else tuple(range(d_x))
        perms.append(perm)
    ones = np.ones((1, d_x))
    return FlowModel(
        d_x=d_x,
        d_y=d_y,
        clamp=clamp,
        blocks=tuple(blocks),
        perms=tuple(perms),
        x_shift=np.zeros((1, d_x)),
        x_scale=ones,
        y_shift=np.zeros((1, d_y)),
        y_scale=np.ones((1, d_y)),
    )


# coupling blocks ------------------------------------------------------------------


def _subnet_input(block: CouplingBlock, u: np.ndarray, cond1: np.ndarray) -> np.ndarray:
    """[u_passive, cond, 1], the input both subnets share, from the condition
    rows cond1 that already end in the constant column."""
    return np.concatenate([u[:, list(block.passive)], cond1], axis=1) if block.passive else cond1


def _coupling_forward(
    block: CouplingBlock, clamp: float, u: np.ndarray, cond1: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Applies the block to rows in the subnet dtype, with cond1 the
    condition followed by the constant column (see with_bias_column);
    returns (v, per-row log-det column)."""
    s_raw, t = mlp_forward(block.subnets, _subnet_input(block, u, cond1))
    out, s_eff = backend.coupling_fwd(u[:, list(block.active)], s_raw, t, clamp)
    v = u.copy()
    v[:, list(block.active)] = out
    return v, s_eff.sum(axis=1, keepdims=True)


def _coupling_inverse_step(
    block: CouplingBlock, clamp: float, v: np.ndarray, cond1: np.ndarray,
    record: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of _coupling_forward: u = (v - t) * exp(-s) on the active
    half, with cond1 the condition followed by the constant column. Returns
    (u, per-row log-det column of the forward map).

    With a list for `record`, fills it with what _coupling_inverse_backward
    reads, reusing the subnet tape of an earlier fill (see mlp_forward).
    """
    h = _subnet_input(block, v, cond1)
    tape = None if record is None else record[1] if record else []
    s_raw, t = mlp_forward(block.subnets, h, tape)
    s_eff = backend.softclamp(s_raw, clamp)
    e = np.exp(-s_eff)
    active = list(block.active)
    diff = v[:, active] - t
    u = v.copy()
    u[:, active] = diff * e
    if record is not None:
        record[:] = (h, tape, s_raw, diff, e)
    return u, s_eff.sum(axis=1, keepdims=True)


def _coupling_inverse_backward(block: CouplingBlock, clamp: float, record, g_u: np.ndarray,
                               g_ld: np.ndarray, grads: CouplingBlock) -> np.ndarray:
    """Reverse pass of one _coupling_inverse_step for the adjoints of u and of
    the log-det column; writes the subnet gradients into `grads` from one
    reverse pass over the stacked adjoints of s_raw and t, and returns the
    adjoint of v."""
    h, tape, s_raw, diff, e = record
    active, passive = list(block.active), list(block.passive)
    g_ua = g_u[:, active]
    g_diff = g_ua * e
    # exp(-s_eff) feeds back its own value; the log-det sums s_eff per row
    g_s_eff = g_ld + (g_ua * diff * e) * -1.0
    g_s_raw = g_s_eff * (clamp * (2.0 / math.pi)) / (1.0 + s_raw * s_raw)
    d = _mlp_backward(block.subnets, h, tape, np.stack([g_s_raw, g_diff * -1.0]), grads.subnets)
    g_h = d @ block.subnets.layers[0][..., :-1, :].swapaxes(-1, -2)
    g_v = np.empty_like(g_u)
    g_v[:, active] = g_diff
    g_v[:, passive] = g_u[:, passive] + (g_h[1] + g_h[0])[:, :len(passive)]
    return g_v


def flow_forward(
    model: FlowModel, z: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pushes latents through the whole stack; returns (x, per-row log-det).

    The log-det covers the full z -> x map, including the fixed
    de-standardization scale. Rows run through all blocks in tiles of
    _TILE_ROWS, so each layer's outputs stay in cache however many rows
    come in. The blocks compute in the dtype of the subnet parameters; the
    standardization and both results stay float64.
    """
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if z.shape[0] != y.shape[0]:
        raise ValueError("z and y need equal row counts")
    dtype = model.blocks[0].subnets.layers[0].dtype
    n = z.shape[0]
    x = np.empty((n, model.d_x))
    logdet = np.empty((n, 1))
    for start in range(0, n, _TILE_ROWS):
        rows = slice(start, start + _TILE_ROWS)
        cond1 = with_bias_column((y[rows] - model.y_shift) / model.y_scale, dtype)
        u, ld = z[rows].astype(dtype, copy=False), 0.0
        for blk, perm in zip(model.blocks, model.perms):
            u = u[:, list(perm)]
            u, blk_ld = _coupling_forward(blk, model.clamp, u, cond1)
            ld = ld + blk_ld
        x[rows] = u * model.x_scale + model.x_shift
        logdet[rows] = ld
    return x, logdet + float(np.log(model.x_scale).sum())


def flow_sample(model: FlowModel, y: np.ndarray, n_per_row: int, seed: int) -> np.ndarray:
    """n_per_row designs per condition row; row i's samples occupy rows
    [i*n_per_row, (i+1)*n_per_row) of the result.

    The latents are drawn in float64 and the designs come back in float64,
    but the coupling blocks run on a float32 copy of the subnet arrays:
    float32 matmul and tanh cost a fraction of float64 ones, and the
    rounding they add sits far below the spread of re-simulation losses.
    """
    if n_per_row < 1:
        raise ValueError("n_per_row must be >= 1")
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    with np.errstate(over="ignore"):
        fast = model.with_arrays([a.astype(np.float32) for a in model.arrays()])
    if not all(np.isfinite(a).all() for a in fast.arrays()):
        raise ValueError("flow parameters overflow float32")
    rng = np.random.default_rng(seed)
    y_rep = np.repeat(y, n_per_row, axis=0)
    z = rng.standard_normal((y_rep.shape[0], model.d_x))
    x, _ = flow_forward(fast, z, y_rep)
    return x


# log-density ---------------------------------------------------------------------


def _standardized(a: np.ndarray, shift: np.ndarray, scale: np.ndarray, dtype) -> np.ndarray:
    """(a - shift) / scale, computed in float64 and cast to dtype."""
    return ((a + -shift) * (1.0 / scale)).astype(dtype, copy=False)


def _to_latent(model: FlowModel, x: np.ndarray, y: np.ndarray,
               tape: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Inverse pass x -> z. Returns z and the per-row log-det of the
    standardized forward map, summed over blocks n-1 ... 0.

    The standardization runs in float64; the blocks, and so z and the
    log-det, compute in the dtype of the subnet parameters. With a list for
    `tape`, its k-th entry becomes the record of the k-th block inverted
    (block n-1-k); entries from an earlier call are reused.
    """
    dtype = model.blocks[0].subnets.layers[0].dtype
    xs = _standardized(x, model.x_shift, model.x_scale, dtype)
    ys1 = with_bias_column(_standardized(y, model.y_shift, model.y_scale, dtype), dtype)
    cur, log_det = xs, None
    for k, li in enumerate(reversed(range(len(model.blocks)))):
        if tape is not None and k == len(tape):
            tape.append([])
        record = None if tape is None else tape[k]
        u, ld = _coupling_inverse_step(model.blocks[li], model.clamp, cur, ys1, record)
        cur = u[:, np.argsort(model.perms[li])]
        log_det = ld if log_det is None else log_det + ld
    return cur, log_det


def _log_q(model: FlowModel, z: np.ndarray, log_det: np.ndarray) -> np.ndarray:
    norm_const = -0.5 * model.d_x * _LOG_2PI - float(np.log(model.x_scale).sum())
    return ((z * z).sum(axis=1, keepdims=True) * -0.5 + norm_const) - log_det


def flow_log_prob(model: FlowModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact per-row log q(x | y), shape (n, 1)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.d_x:
        raise ValueError(f"x shape {x.shape} does not match d_x={model.d_x}")
    if y.ndim != 2 or y.shape[1] != model.d_y or y.shape[0] != x.shape[0]:
        raise ValueError(f"y shape {y.shape} does not match x rows / d_y={model.d_y}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite")
    return _log_q(model, *_to_latent(model, x, y))


def value_and_gradients(model: FlowModel, batch: Mapping[str, np.ndarray],
                        grads: FlowModel, tape: list | None = None) -> float:
    """Weighted batch NLL, w_row @ -log q(x | y), and its gradient, computed
    in the dtype of the subnet parameters.

    `batch` holds the rows "x" and "y" and "w_row", a (1, batch) row of
    per-sample weight / batch size; they are cast to the parameter dtype
    (x and y after standardization), and only the final weighted sum of
    the per-row NLLs into the loss runs in float64. Writes the gradient of
    every subnet array into the matching array of `grads` and returns the
    loss; a non-finite loss, on which training stops, returns before the
    reverse pass and leaves `grads` as they were. `tape` may carry the
    block records of an earlier call for reuse (see _to_latent).
    """
    w_row = batch["w_row"]
    if tape is None:
        tape = []
    z, log_det = _to_latent(model, batch["x"], batch["y"], tape)
    loss = float((w_row @ -_log_q(model, z, log_det))[0, 0])
    if not math.isfinite(loss):
        return loss
    # d(-log q) is w*z through z*z (one term per factor) and w through each log-det
    g_ld = w_row.astype(z.dtype, copy=False).T
    g = (g_ld * 0.5) * z
    g_cur = g + g
    for li, record in enumerate(reversed(tape)):
        g_u = g_cur[:, list(model.perms[li])]
        g_cur = _coupling_inverse_backward(model.blocks[li], model.clamp, record, g_u, g_ld,
                                           grads.blocks[li])
    return loss


# training -------------------------------------------------------------------------


@dataclass(frozen=True)
class WnllConfig:
    epochs: int = 40
    batch_size: int = 256
    seed: int = 0
    learning_rate: float = 1e-3
    sigma_aug: float = 1e-3  # additive x jitter during training

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.sigma_aug < 0:
            raise ValueError("sigma_aug must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


def _standardize_stats(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    shift = a.mean(axis=0, keepdims=True)
    scale = np.maximum(a.std(axis=0, keepdims=True), 1e-6)
    return shift, scale


def train_flow_wnll(
    model: FlowModel,
    x: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray | None,
    cfg: WnllConfig,
) -> tuple[FlowModel, list[float]]:
    """Weighted-likelihood fit; returns a new trained model and the per-epoch
    mean weighted NLL trace. The input model is not mutated.

    `weights` of None trains the plain (all weights 1) conditional flow.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty training set")
    if x.shape[1] != model.d_x or y.shape[1] != model.d_y or y.shape[0] != n:
        raise ValueError("data does not match the model dims")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite")
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if w.shape[0] != n:
            raise ValueError(f"{w.shape[0]} weights for {n} samples")
        if not np.isfinite(w).all() or np.any(w <= 0):
            raise ValueError("weights must be finite and positive")

    # the steps run on float32 casts of the standardized rows (see _to_latent)
    with np.errstate(over="ignore", invalid="ignore"):
        x_shift, x_scale = _standardize_stats(x)
        y_shift, y_scale = _standardize_stats(y)
        rows = (_standardized(x, x_shift, x_scale, np.float32),
                _standardized(y, y_shift, y_scale, np.float32))
    if not all(np.isfinite(a).all() for a in (x_scale, y_scale, *rows)):
        raise ValueError("x and y do not standardize to finite float32 values")
    work = replace(model, x_shift=x_shift, x_scale=x_scale, y_shift=y_shift, y_scale=y_scale)
    rng = np.random.default_rng(cfg.seed)

    def batch(idx: np.ndarray) -> dict[str, np.ndarray]:
        nb = idx.size
        xb = x[idx]
        if cfg.sigma_aug > 0:
            xb = xb + cfg.sigma_aug * rng.standard_normal(xb.shape)
        return {"x": xb, "y": y[idx], "w_row": (w[idx] / nb).reshape(1, nb)}

    return fit_minibatch(value_and_gradients, work, batch, n, cfg.epochs, cfg.batch_size,
                         rng, cfg.learning_rate)


# serialization ---------------------------------------------------------------------

FLOW_FORMAT_VERSION = 4


def _encoded(a: np.ndarray) -> str:
    """The base64 text of a's little-endian float64 bytes in row-major order."""
    return base64.b64encode(a.astype("<f8", copy=False).tobytes()).decode("ascii")


def flow_to_jsonable(model: FlowModel, dataset_sha256: str, weights_sha256: str | None) -> dict:
    """The model document, naming the dataset.jsonl the model was trained
    on and the weights.json it was weighted by (None when unweighted) by
    their sha256. It holds the hidden widths once and each subnet layer as
    one base64 string of its [W; b] array's float64 bytes (see _layer):
    bytes encode and decode exactly, and many times faster than float text."""
    return {
        "format_version": FLOW_FORMAT_VERSION,
        "kind": "coupling-flow",
        "dataset_sha256": dataset_sha256,
        "weights_sha256": weights_sha256,
        "d_x": model.d_x,
        "d_y": model.d_y,
        "clamp": model.clamp,
        "hidden": list(model.blocks[0].subnets.spec.hidden),
        "masks": [list(blk.active) for blk in model.blocks],
        "permutations": [list(p) for p in model.perms],
        "x_shift": model.x_shift.ravel().tolist(),
        "x_scale": model.x_scale.ravel().tolist(),
        "y_shift": model.y_shift.ravel().tolist(),
        "y_scale": model.y_scale.ravel().tolist(),
        "subnets": [{name: [_encoded(a[i]) for a in blk.subnets.layers]
                     for i, name in enumerate("st")} for blk in model.blocks],
    }


def _integer(value, what: str) -> int:
    """value, which must be a JSON integer (a bool is not one)."""
    if type(value) is not int:
        raise ValueError(f"coupling-flow {what} {value!r} is not an integer")
    return value


def _integers(values, what: str) -> tuple[int, ...]:
    """values, which must be a list of JSON integers."""
    if type(values) is not list:
        raise ValueError(f"coupling-flow {what} {values!r} is not a list")
    return tuple(_integer(v, f"{what} entry") for v in values)


def _shaped(a: np.ndarray, shape: tuple[int, int], what: str) -> np.ndarray:
    """a, a flat float64 array that must hold the finite entries of an array
    of the given shape, as that array."""
    if a.size != math.prod(shape):
        raise ValueError(f"coupling-flow {what} has {a.size} entries, not {math.prod(shape)}")
    if not np.isfinite(a).all():
        raise ValueError(f"coupling-flow {what} must be finite")
    return a.reshape(shape)


def _layer(text, shape: tuple[int, int], what: str) -> np.ndarray:
    """text, which must be the ASCII base64 of the little-endian float64
    bytes of a finite array of the given shape in row-major order, as that
    float64 array."""
    if type(text) is not str:
        raise ValueError(f"coupling-flow {what} is not a base64 string, "
                         f"but a {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"coupling-flow {what} is not valid base64: {exc}") from exc
    if len(raw) % 8:
        raise ValueError(f"coupling-flow {what} has {len(raw)} bytes, "
                         f"not 8 x {math.prod(shape)}")
    return _shaped(np.frombuffer(raw, "<f8").astype(np.float64, copy=False), shape, what)


def _is_sha256(value) -> bool:
    return type(value) is str and len(value) == 64 and set(value) <= set("0123456789abcdef")


def flow_from_jsonable(doc: dict) -> FlowModel:
    """Inverse of flow_to_jsonable; the input hashes are checked for form
    and not returned. Raises ValueError for a document that is not a
    coupling-flow model of this format version, names an input by anything
    but a lowercase hex sha256 (or, for the weights, null), misses or
    mistypes a field, holds a dimension, hidden width or index that is not
    a JSON integer, a hidden width below 1, a number that is not a finite
    JSON number, a layer that is not the base64 of exactly its entries'
    finite float64 bytes, a non-positive scale or clamp or a row or layer
    of the wrong length, gives masks, subnets, permutations or layers in
    counts that do not match, or a layout FlowModel rejects."""
    if not isinstance(doc, dict) or doc.get("kind") != "coupling-flow":
        raise ValueError("not a coupling-flow model document")
    if doc.get("format_version") != FLOW_FORMAT_VERSION:
        raise ValueError(f"unsupported flow format_version {doc.get('format_version')}")
    for key, nullable in (("dataset_sha256", False), ("weights_sha256", True)):
        if key not in doc:
            raise ValueError(f"coupling-flow model has no {key}")
        if not (_is_sha256(doc[key]) or nullable and doc[key] is None):
            raise ValueError(f"coupling-flow {key} {doc[key]!r} is not a sha256 hex digest"
                             + (" or null" if nullable else ""))
    try:
        d_x, d_y = _integer(doc["d_x"], "d_x"), _integer(doc["d_y"], "d_y")
        hidden = _integers(doc["hidden"], "hidden")
        if min(hidden, default=1) < 1:
            raise ValueError(f"coupling-flow hidden entry {min(hidden)} is below 1")
        if len(doc["masks"]) != len(doc["subnets"]):
            raise ValueError(f"coupling-flow has {len(doc['masks'])} masks for "
                             f"{len(doc['subnets'])} subnets")

        def subnet(li: int, name: str, spec: MlpSpec) -> list[np.ndarray]:
            layers = doc["subnets"][li][name]
            if len(layers) != len(spec.layer_dims):
                raise ValueError(f"coupling-flow block {li} {name} subnet has {len(layers)} "
                                 f"layers, not {len(spec.layer_dims)}")
            return [_layer(text, (din + 1, dout), f"block {li} {name} layer {i}")
                    for i, ((din, dout), text) in enumerate(zip(spec.layer_dims, layers))]

        blocks = []
        for li, mask in enumerate(doc["masks"]):
            active = _integers(mask, "mask")
            passive = tuple(i for i in range(d_x) if i not in active)
            _check_split(active, passive, d_x)  # the subnet widths follow from it
            spec = MlpSpec(len(passive) + d_y, len(active), hidden)
            stacked = map(np.stack, zip(*(subnet(li, name, spec) for name in "st")))
            blocks.append(CouplingBlock(active, passive, MlpParams(spec, tuple(stacked))))

        def row(key, d):
            a = _shaped(json_numbers(doc[key], f"coupling-flow {key}"), (1, d), key)
            if key.endswith("scale") and np.any(a <= 0):
                raise ValueError(f"coupling-flow {key} must be positive")
            return a

        return FlowModel(
            d_x=d_x,
            d_y=d_y,
            clamp=float(json_numbers([doc["clamp"]], "coupling-flow clamp")[0]),
            blocks=tuple(blocks),
            perms=tuple(_integers(p, "permutation") for p in doc["permutations"]),
            x_shift=row("x_shift", d_x),
            x_scale=row("x_scale", d_x),
            y_shift=row("y_shift", d_y),
            y_scale=row("y_scale", d_y),
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed coupling-flow model: missing or ill-typed {exc}") from exc

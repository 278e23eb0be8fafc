"""Conditional coupling flow with exact log-density and weighted training.

A FlowModel maps latent z ~ N(0, I) to designs x through a stack of
conditional affine coupling blocks; each block rescales and shifts half of
the coordinates using subnets fed with the untouched half and the
condition y, so both directions and the log-determinant are available in
closed form. Fitting minimizes a per-sample-weighted negative
log-likelihood, which is how non-robust samples get suppressed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import backend
from .neural import (
    MlpParams,
    MlpSpec,
    _mlp_backward,
    fit_minibatch,
    init_mlp,
    mlp_forward,
    mlp_from_jsonable,
    mlp_to_jsonable,
)

__all__ = [
    "CouplingBlock",
    "FlowModel",
    "WnllConfig",
    "build_flow",
    "coupling_forward",
    "coupling_inverse",
    "flow_forward",
    "flow_log_prob",
    "flow_sample",
    "value_and_gradients",
    "train_flow_wnll",
    "flow_to_jsonable",
    "flow_from_jsonable",
]

_LOG_2PI = math.log(2.0 * math.pi)
# flow_forward rows per tile: a 64-wide activation of this many rows is
# 256 KiB in float32 (sampling) and 512 KiB in float64, which stays in L2
_TILE_ROWS = 1024


@dataclass(frozen=True)
class CouplingBlock:
    """One conditional affine coupling layer.

    `passive` coordinates pass through unchanged and, together with the
    condition, drive the scale/shift subnets applied to the `active`
    coordinates. The raw scale is saturated to clamp*(2/pi)*atan(raw), so
    every effective log-scale stays strictly inside (-clamp, clamp).
    """

    active: tuple[int, ...]
    passive: tuple[int, ...]
    clamp: float
    s_params: MlpParams
    t_params: MlpParams

    def __post_init__(self):
        if not 0 < self.clamp < math.inf:
            raise ValueError("clamp must be finite and positive")
        if not self.active:
            raise ValueError("a coupling block must transform at least one coordinate")
        overlap = set(self.active) & set(self.passive)
        if overlap:
            raise ValueError(f"active/passive overlap: {sorted(overlap)}")


@dataclass(frozen=True)
class FlowModel:
    d_x: int
    d_y: int
    blocks: tuple[CouplingBlock, ...]
    perms: tuple[tuple[int, ...], ...]  # applied to the latent before each block
    x_shift: np.ndarray  # (1, d_x) standardization, identity until trained
    x_scale: np.ndarray
    y_shift: np.ndarray  # (1, d_y)
    y_scale: np.ndarray

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("a flow needs at least one coupling block")
        if len(self.perms) != len(self.blocks):
            raise ValueError("need one permutation per block")
        for p in self.perms:
            if sorted(p) != list(range(self.d_x)):
                raise ValueError(f"{p} is not a permutation of 0..{self.d_x - 1}")

    def arrays(self) -> list[np.ndarray]:
        """The subnet arrays in training order: each block's s arrays, then
        its t arrays (see MlpParams.arrays)."""
        return [a for blk in self.blocks
                for params in (blk.s_params, blk.t_params) for a in params.arrays()]

    def with_arrays(self, arrays: Sequence[np.ndarray]) -> FlowModel:
        """Inverse of arrays(): the same flow, standardization included,
        over the given subnet arrays."""
        rest = iter(arrays)

        def take(params: MlpParams) -> MlpParams:
            return params.with_arrays(list(itertools.islice(rest, 2 * len(params.weights))))

        return replace(self, blocks=tuple(
            replace(blk, s_params=take(blk.s_params), t_params=take(blk.t_params))
            for blk in self.blocks))


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
    activation: str = "tanh",
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
        sub_spec = MlpSpec(len(passive) + d_y, len(active), tuple(hidden), activation)
        blocks.append(
            CouplingBlock(
                active=active,
                passive=passive,
                clamp=clamp,
                s_params=init_mlp(sub_spec, rng, zero_final=True),
                t_params=init_mlp(sub_spec, rng, zero_final=True),
            )
        )
        perm = tuple(int(i) for i in rng.permutation(d_x)) if li > 0 else tuple(range(d_x))
        perms.append(perm)
    ones = np.ones((1, d_x))
    return FlowModel(
        d_x=d_x,
        d_y=d_y,
        blocks=tuple(blocks),
        perms=tuple(perms),
        x_shift=np.zeros((1, d_x)),
        x_scale=ones,
        y_shift=np.zeros((1, d_y)),
        y_scale=np.ones((1, d_y)),
    )


# numpy fast paths (sampling / single-block ops) -----------------------------------


def _subnet_outputs(block: CouplingBlock, u_passive: np.ndarray, cond: np.ndarray):
    h = np.concatenate([u_passive, cond], axis=1)
    return mlp_forward(block.s_params, h), mlp_forward(block.t_params, h)


def coupling_forward(
    block: CouplingBlock, u: np.ndarray, cond: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Applies the block in the dtype of its subnet parameters; returns
    (v, per-row log-det column)."""
    dtype = block.s_params.weights[0].dtype
    u = np.asarray(u, dtype=dtype)
    cond = np.asarray(cond, dtype=dtype)
    if u.shape[0] != cond.shape[0]:
        raise ValueError("u and cond need equal row counts")
    s_raw, t = _subnet_outputs(block, u[:, list(block.passive)], cond)
    out, s_eff = backend.coupling_fwd(u[:, list(block.active)], s_raw, t, block.clamp)
    v = u.copy()
    v[:, list(block.active)] = out
    return v, s_eff.sum(axis=1, keepdims=True)


def _coupling_inverse_step(
    block: CouplingBlock, v: np.ndarray, cond: np.ndarray, record: list | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of coupling_forward on float64 rows: u = (v - t) * exp(-s) on
    the active half. Returns (u, per-row log-det column of the forward map).

    With a list for `record`, fills it with what _coupling_inverse_backward
    reads, reusing the subnet tapes of an earlier fill (see mlp_forward).
    """
    active, passive = list(block.active), list(block.passive)
    v_p = v[:, passive]
    h = np.concatenate([v_p, cond], axis=1) if passive else cond
    s_tape = t_tape = None
    if record is not None:
        s_tape, t_tape = (record[1], record[2]) if record else ([], [])
    s_raw = mlp_forward(block.s_params, h, s_tape)
    t = mlp_forward(block.t_params, h, t_tape)
    s_eff = backend.softclamp(s_raw, block.clamp)
    e = np.exp(-s_eff)
    diff = v[:, active] - t
    u = v.copy()
    u[:, active] = diff * e
    if record is not None:
        record[:] = (h, s_tape, t_tape, s_raw, diff, e)
    return u, s_eff.sum(axis=1, keepdims=True)


def _coupling_inverse_backward(block: CouplingBlock, record, g_u: np.ndarray, g_ld: np.ndarray,
                               grads: CouplingBlock) -> np.ndarray:
    """Reverse pass of one _coupling_inverse_step for the adjoints of u and of
    the log-det column; writes the subnet gradients into the s_params and
    t_params arrays of `grads` and returns the adjoint of v."""
    h, s_tape, t_tape, s_raw, diff, e = record
    active, passive = list(block.active), list(block.passive)
    g_ua = g_u[:, active]
    g_diff = g_ua * e
    # exp(-s_eff) feeds back its own value; the log-det sums s_eff per row
    g_s_eff = g_ld + (g_ua * diff * e) * -1.0
    g_s_raw = g_s_eff * (block.clamp * (2.0 / math.pi)) / (1.0 + s_raw * s_raw)
    g_h = _mlp_backward(block.t_params, h, t_tape, g_diff * -1.0, grads.t_params)
    g_h = g_h + _mlp_backward(block.s_params, h, s_tape, g_s_raw, grads.s_params)
    g_v = np.empty_like(g_u)
    g_v[:, active] = g_diff
    g_v[:, passive] = g_u[:, passive] + g_h[:, :len(passive)]
    return g_v


def coupling_inverse(block: CouplingBlock, v: np.ndarray, cond: np.ndarray) -> np.ndarray:
    """Exact inverse of coupling_forward."""
    v = np.asarray(v, dtype=np.float64)
    cond = np.asarray(cond, dtype=np.float64)
    if v.shape[0] != cond.shape[0]:
        raise ValueError("v and cond need equal row counts")
    return _coupling_inverse_step(block, v, cond)[0]


def flow_forward(
    model: FlowModel, z: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pushes latents through the whole stack; returns (x, per-row log-det).

    The log-det covers the full z -> x map, including the fixed
    de-standardization scale. Rows run through all blocks in tiles of
    _TILE_ROWS, so each layer's activations stay in cache however many rows
    come in. The blocks compute in the dtype of the subnet parameters; the
    standardization and both results stay float64.
    """
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if z.shape[0] != y.shape[0]:
        raise ValueError("z and y need equal row counts")
    dtype = model.blocks[0].s_params.weights[0].dtype
    n = z.shape[0]
    x = np.empty((n, model.d_x))
    logdet = np.empty((n, 1))
    for start in range(0, n, _TILE_ROWS):
        rows = slice(start, start + _TILE_ROWS)
        cond = ((y[rows] - model.y_shift) / model.y_scale).astype(dtype, copy=False)
        u, ld = z[rows].astype(dtype, copy=False), 0.0
        for blk, perm in zip(model.blocks, model.perms):
            u = u[:, list(perm)]
            u, blk_ld = coupling_forward(blk, u, cond)
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
    dtype = model.blocks[0].s_params.weights[0].dtype
    xs = _standardized(x, model.x_shift, model.x_scale, dtype)
    ys = _standardized(y, model.y_shift, model.y_scale, dtype)
    cur, log_det = xs, None
    for k, li in enumerate(reversed(range(len(model.blocks)))):
        if tape is not None and k == len(tape):
            tape.append([])
        record = None if tape is None else tape[k]
        u, ld = _coupling_inverse_step(model.blocks[li], cur, ys, record)
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
        g_cur = _coupling_inverse_backward(model.blocks[li], record, g_u, g_ld, grads.blocks[li])
    return loss


# training -------------------------------------------------------------------------


@dataclass(frozen=True)
class WnllConfig:
    epochs: int = 40
    batch_size: int = 256
    seed: int = 0
    learning_rate: float = 1e-3
    weight_decay: float = 1e-5
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
                         rng, cfg.learning_rate, cfg.weight_decay)


# serialization ---------------------------------------------------------------------

FLOW_FORMAT_VERSION = 1


def flow_to_jsonable(model: FlowModel) -> dict:
    return {
        "format_version": FLOW_FORMAT_VERSION,
        "kind": "coupling-flow",
        "d_x": model.d_x,
        "d_y": model.d_y,
        "clamp": model.blocks[0].clamp,
        "masks": [list(blk.active) for blk in model.blocks],
        "permutations": [list(p) for p in model.perms],
        "x_shift": model.x_shift.ravel().tolist(),
        "x_scale": model.x_scale.ravel().tolist(),
        "y_shift": model.y_shift.ravel().tolist(),
        "y_scale": model.y_scale.ravel().tolist(),
        "subnets": [
            {"s": mlp_to_jsonable(blk.s_params), "t": mlp_to_jsonable(blk.t_params)}
            for blk in model.blocks
        ],
    }


def flow_from_jsonable(doc: dict) -> FlowModel:
    """Inverse of flow_to_jsonable. Raises ValueError for a document that is
    not a coupling-flow model, misses or mistypes one of its fields, holds
    a non-finite number or a non-positive scale or clamp, masks a
    coordinate twice or one outside 0..d_x-1, or gives masks, subnets,
    permutations or subnet layers in counts that do not match."""
    if not isinstance(doc, dict) or doc.get("kind") != "coupling-flow":
        raise ValueError("not a coupling-flow model document")
    if doc.get("format_version") != FLOW_FORMAT_VERSION:
        raise ValueError(f"unsupported flow format_version {doc.get('format_version')}")
    try:
        d_x, d_y = int(doc["d_x"]), int(doc["d_y"])
        clamp = float(doc["clamp"])
        if len(doc["masks"]) != len(doc["subnets"]):
            raise ValueError(f"coupling-flow has {len(doc['masks'])} masks for "
                             f"{len(doc['subnets'])} subnets")
        blocks = []
        for mask, nets in zip(doc["masks"], doc["subnets"]):
            active = tuple(int(i) for i in mask)
            if len(set(active)) != len(active) or not set(active) <= set(range(d_x)):
                raise ValueError(f"coupling-flow mask {list(active)} is not a set of coordinates")
            passive = tuple(i for i in range(d_x) if i not in active)
            blocks.append(
                CouplingBlock(
                    active=active,
                    passive=passive,
                    clamp=clamp,
                    s_params=mlp_from_jsonable(nets["s"]),
                    t_params=mlp_from_jsonable(nets["t"]),
                )
            )

        def row(key, d):
            a = np.asarray(doc[key], dtype=np.float64).reshape(1, d)
            if not np.isfinite(a).all():
                raise ValueError(f"coupling-flow {key} must be finite")
            if key.endswith("scale") and np.any(a <= 0):
                raise ValueError(f"coupling-flow {key} must be positive")
            return a

        return FlowModel(
            d_x=d_x,
            d_y=d_y,
            blocks=tuple(blocks),
            perms=tuple(tuple(int(i) for i in p) for p in doc["permutations"]),
            x_shift=row("x_shift", d_x),
            x_scale=row("x_scale", d_x),
            y_shift=row("y_shift", d_y),
            y_scale=row("y_scale", d_y),
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed coupling-flow model: missing or ill-typed {exc}") from exc

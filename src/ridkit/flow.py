"""Conditional coupling flow with exact log-density and weighted training.

A FlowModel maps latent z ~ N(0, I) to designs x through a stack of
conditional affine coupling blocks; each block rescales and shifts half of
the coordinates using subnets fed with the untouched half and the
condition y, so both directions and the log-determinant are available in
closed form. Fitting minimizes a per-sample-weighted negative
log-likelihood, which is how non-robust samples get suppressed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import backend
from .autodiff import Graph, GraphBuilder, evaluate
from .neural import (
    MlpParams,
    MlpSpec,
    append_mlp_graph,
    fit_minibatch,
    init_mlp,
    mlp_forward,
    mlp_from_bindings,
    mlp_from_jsonable,
    mlp_param_bindings,
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
    "train_flow_wnll",
    "flow_to_jsonable",
    "flow_from_jsonable",
]

_LOG_2PI = math.log(2.0 * math.pi)


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
        if self.clamp <= 0:
            raise ValueError("clamp must be positive")
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
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if len(self.perms) != len(self.blocks):
            raise ValueError("need one permutation per block")
        for p in self.perms:
            if sorted(p) != list(range(self.d_x)):
                raise ValueError(f"{p} is not a permutation of 0..{self.d_x - 1}")

    def param_bindings(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for li, blk in enumerate(self.blocks):
            out.update(mlp_param_bindings(f"b{li}.s", blk.s_params))
            out.update(mlp_param_bindings(f"b{li}.t", blk.t_params))
        return out

    def nll_graph(self) -> tuple[Graph, dict[str, str]]:
        if "nll" not in self._cache:
            self._cache["nll"] = _build_nll_graph(self)
        return self._cache["nll"]


def _checkerboard(d_x: int, parity: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    active = tuple(i for i in range(d_x) if i % 2 == parity % 2)
    passive = tuple(i for i in range(d_x) if i % 2 != parity % 2)
    if not active:  # d_x == 1 and odd parity
        active, passive = passive, active
    return active, passive


def build_flow(
    d_x: int,
    d_y: int,
    n_blocks: int = 8,
    hidden: Sequence[int] = (128, 128),
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
    """Applies the block; returns (v, per-row log-det column)."""
    u = np.asarray(u, dtype=np.float64)
    cond = np.asarray(cond, dtype=np.float64)
    if u.shape[0] != cond.shape[0]:
        raise ValueError("u and cond need equal row counts")
    s_raw, t = _subnet_outputs(block, u[:, list(block.passive)], cond)
    out, s_eff = backend.coupling_fwd(u[:, list(block.active)], s_raw, t, block.clamp)
    v = u.copy()
    v[:, list(block.active)] = out
    return v, s_eff.sum(axis=1, keepdims=True)


def coupling_inverse(block: CouplingBlock, v: np.ndarray, cond: np.ndarray) -> np.ndarray:
    """Exact inverse of coupling_forward."""
    v = np.asarray(v, dtype=np.float64)
    cond = np.asarray(cond, dtype=np.float64)
    if v.shape[0] != cond.shape[0]:
        raise ValueError("v and cond need equal row counts")
    s_raw, t = _subnet_outputs(block, v[:, list(block.passive)], cond)
    u_active, _ = backend.coupling_inv(v[:, list(block.active)], s_raw, t, block.clamp)
    u = v.copy()
    u[:, list(block.active)] = u_active
    return u


def flow_forward(
    model: FlowModel, z: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pushes latents through the whole stack; returns (x, per-row log-det).

    The log-det covers the full z -> x map, including the fixed
    de-standardization scale.
    """
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    cond = (y - model.y_shift) / model.y_scale
    u = z
    logdet = np.zeros((z.shape[0], 1))
    for blk, perm in zip(model.blocks, model.perms):
        u = u[:, list(perm)]
        u, ld = coupling_forward(blk, u, cond)
        logdet = logdet + ld
    x = u * model.x_scale + model.x_shift
    return x, logdet + float(np.log(model.x_scale).sum())


def flow_sample(model: FlowModel, y: np.ndarray, n_per_row: int, seed: int) -> np.ndarray:
    """n_per_row designs per condition row; row i's samples occupy rows
    [i*n_per_row, (i+1)*n_per_row) of the result."""
    if n_per_row < 1:
        raise ValueError("n_per_row must be >= 1")
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    rng = np.random.default_rng(seed)
    y_rep = np.repeat(y, n_per_row, axis=0)
    z = rng.standard_normal((y_rep.shape[0], model.d_x))
    x, _ = flow_forward(model, z, y_rep)
    return x


# log-density graph ----------------------------------------------------------------


def _build_nll_graph(model: FlowModel) -> tuple[Graph, dict[str, str]]:
    """Inverse pass x -> z as a differentiable graph, ending in the per-row
    conditional log-density and the weighted batch loss."""
    b = GraphBuilder()
    x = b.input("x")
    y = b.input("y")
    w_row = b.input("w_row")  # (1, batch): per-sample weight / batch size

    xs = b.bmul(b.badd(x, b.const(-model.x_shift)), b.const(1.0 / model.x_scale))
    ys = b.bmul(b.badd(y, b.const(-model.y_shift)), b.const(1.0 / model.y_scale))

    cur = xs
    logdets: list[str] = []
    for li in reversed(range(len(model.blocks))):
        blk = model.blocks[li]
        v_a = b.cols(cur, blk.active)
        v_p = b.cols(cur, blk.passive)
        h = b.concat([v_p, ys]) if blk.passive else ys
        s_raw = append_mlp_graph(b, blk.s_params.spec, h, f"b{li}.s")
        t = append_mlp_graph(b, blk.t_params.spec, h, f"b{li}.t")
        s_eff = b.smul(b.atan(s_raw), blk.clamp * (2.0 / math.pi))
        u_a = b.mul(b.sub(v_a, t), b.exp(b.smul(s_eff, -1.0)))
        logdets.append(b.row_sum(s_eff))
        # merge halves back into natural order, then undo this block's shuffle
        concat_order = np.array(blk.active + blk.passive)
        unshuffle = np.argsort(concat_order)
        inv_perm = np.argsort(np.array(model.perms[li]))
        cur = b.cols(b.concat([u_a, v_p]), unshuffle[inv_perm])
    z = cur
    half_sq = b.smul(b.row_sum(b.mul(z, z)), -0.5)
    norm_const = -0.5 * model.d_x * _LOG_2PI - float(np.log(model.x_scale).sum())
    log_pz = b.badd(half_sq, b.const([[norm_const]]))
    total_ld = logdets[0]
    for ld in logdets[1:]:
        total_ld = b.add(total_ld, ld)
    log_q = b.add(log_pz, b.smul(total_ld, -1.0), name="log_q")
    nll_rows = b.smul(log_q, -1.0, name="nll_rows")
    loss = b.matmul(w_row, nll_rows, name="loss")
    names = {"log_q": log_q, "nll_rows": nll_rows, "loss": loss, "z": z}
    return b.build(), names


def flow_log_prob(model: FlowModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact per-row log q(x | y), shape (n, 1)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.d_x:
        raise ValueError(f"x shape {x.shape} does not match d_x={model.d_x}")
    if y.ndim != 2 or y.shape[1] != model.d_y or y.shape[0] != x.shape[0]:
        raise ValueError(f"y shape {y.shape} does not match x rows / d_y={model.d_y}")
    graph, names = model.nll_graph()
    bindings = model.param_bindings()
    bindings["x"] = x
    bindings["y"] = y
    return evaluate(graph, bindings, [names["log_q"]])[names["log_q"]]


# training -------------------------------------------------------------------------


@dataclass(frozen=True)
class WnllConfig:
    epochs: int = 100
    batch_size: int = 256
    seed: int = 0
    learning_rate: float = 1e-3
    weight_decay: float = 1e-5
    sigma_aug: float = 1e-3  # additive x jitter during training

    def __post_init__(self):
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
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if w.shape[0] != n:
            raise ValueError(f"{w.shape[0]} weights for {n} samples")
        if not np.isfinite(w).all() or np.any(w <= 0):
            raise ValueError("weights must be finite and positive")

    x_shift, x_scale = _standardize_stats(x)
    y_shift, y_scale = _standardize_stats(y)
    work = replace(
        model,
        x_shift=x_shift,
        x_scale=x_scale,
        y_shift=y_shift,
        y_scale=y_scale,
        _cache={},
    )
    graph, names = work.nll_graph()
    rng = np.random.default_rng(cfg.seed)

    def batch_leaves(idx: np.ndarray) -> dict[str, np.ndarray]:
        nb = idx.size
        xb = x[idx]
        if cfg.sigma_aug > 0:
            xb = xb + cfg.sigma_aug * rng.standard_normal(xb.shape)
        return {"x": xb, "y": y[idx], "w_row": (w[idx] / nb).reshape(1, nb)}

    trained, trace = fit_minibatch(
        graph, names["loss"], work.param_bindings(), batch_leaves, n, cfg.epochs,
        cfg.batch_size, rng, cfg.learning_rate, cfg.weight_decay,
    )
    new_blocks = tuple(
        replace(
            blk,
            s_params=mlp_from_bindings(f"b{li}.s", blk.s_params.spec, trained),
            t_params=mlp_from_bindings(f"b{li}.t", blk.t_params.spec, trained),
        )
        for li, blk in enumerate(work.blocks)
    )
    return replace(work, blocks=new_blocks, _cache={}), trace


# serialization ---------------------------------------------------------------------

FLOW_FORMAT_VERSION = 1


def flow_to_jsonable(model: FlowModel) -> dict:
    return {
        "format_version": FLOW_FORMAT_VERSION,
        "kind": "coupling-flow",
        "d_x": model.d_x,
        "d_y": model.d_y,
        "clamp": model.blocks[0].clamp if model.blocks else 2.0,
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
    if doc.get("format_version") != FLOW_FORMAT_VERSION:
        raise ValueError(f"unsupported flow format_version {doc.get('format_version')}")
    d_x, d_y = int(doc["d_x"]), int(doc["d_y"])
    clamp = float(doc["clamp"])
    blocks = []
    for mask, nets in zip(doc["masks"], doc["subnets"]):
        active = tuple(int(i) for i in mask)
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
        return np.asarray(doc[key], dtype=np.float64).reshape(1, d)
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

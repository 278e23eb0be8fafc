"""Reverse-mode differentiation over a fixed set of dense-matrix primitives.

Every value is a 2-D float64 numpy array ("matrix"); a scalar is a 1x1
matrix and broadcasting happens only along the batch (row) axis. A Graph is
built once with GraphBuilder, is immutable afterwards, and can be evaluated
or differentiated repeatedly with different leaf bindings, including
concurrently: all per-call state is local.

Primitive ops: matmul, add, badd (broadcast row add), mul, bmul (broadcast
row mul), smul (scalar mul), tanh, relu, exp, log, atan, row_sum, concat
(columns), cols (column gather), and dense (one fused act(x @ w + b) layer,
bitwise equal to its matmul/badd/activation composite). Everything else is
composed from these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "GraphError",
    "ShapeMismatch",
    "UnboundLeaf",
    "Node",
    "Graph",
    "GraphBuilder",
    "evaluate",
    "gradients",
    "value_and_gradients",
    "finite_diff_check",
]


class GraphError(Exception):
    """Malformed graph, bindings, or differentiation request."""


class ShapeMismatch(GraphError):
    """Operand shapes do not satisfy an op's contract."""


class UnboundLeaf(GraphError):
    """A leaf required by the requested outputs has no binding."""


_LEAF_OPS = frozenset({"input", "param", "const"})
_BINARY = frozenset({"matmul", "add", "badd", "mul", "bmul"})
_DENSE_ACTS = ("identity", "tanh", "relu")


@dataclass(frozen=True)
class Node:
    name: str
    op: str
    args: tuple[str, ...] = ()
    scalar: float = 0.0
    idx: tuple[int, ...] | None = None
    value: np.ndarray | None = None
    act: str = "identity"


@dataclass(frozen=True)
class Graph:
    """Topologically ordered op nodes plus the leaf name sets.

    `_plans` caches the evaluation order for each requested output set;
    plans are immutable, so concurrent callers may share them.
    """

    nodes: tuple[Node, ...]
    pos: Mapping[str, int]
    inputs: frozenset[str]
    params: frozenset[str]
    _plans: dict = field(default_factory=dict, compare=False, repr=False)

    def node(self, name: str) -> Node:
        return self.nodes[self.pos[name]]


class GraphBuilder:
    """Accumulates nodes in construction order, which is topological by
    construction: an op may only reference names that already exist."""

    def __init__(self) -> None:
        self._nodes: dict[str, Node] = {}
        self._auto = 0

    def _register(self, node: Node) -> str:
        if node.name in self._nodes:
            raise GraphError(f"duplicate node name '{node.name}'")
        for a in node.args:
            if a not in self._nodes:
                raise GraphError(f"node '{node.name}' references unknown node '{a}'")
        self._nodes[node.name] = node
        return node.name

    def _name(self, op: str, name: str | None) -> str:
        if name is not None:
            return name
        self._auto += 1
        return f"{op}_{self._auto}"

    # leaves ---------------------------------------------------------------

    def input(self, name: str) -> str:
        return self._register(Node(name, "input"))

    def param(self, name: str) -> str:
        return self._register(Node(name, "param"))

    def const(self, value, name: str | None = None) -> str:
        arr = np.ascontiguousarray(value, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeMismatch(f"const '{name}': expected 2-D, got shape {arr.shape}")
        arr.setflags(write=False)
        return self._register(Node(self._name("const", name), "const", value=arr))

    # primitive ops ----------------------------------------------------------

    def matmul(self, a: str, b: str, name: str | None = None) -> str:
        return self._register(Node(self._name("matmul", name), "matmul", (a, b)))

    def add(self, a: str, b: str, name: str | None = None) -> str:
        return self._register(Node(self._name("add", name), "add", (a, b)))

    def badd(self, x: str, row: str, name: str | None = None) -> str:
        return self._register(Node(self._name("badd", name), "badd", (x, row)))

    def mul(self, a: str, b: str, name: str | None = None) -> str:
        return self._register(Node(self._name("mul", name), "mul", (a, b)))

    def bmul(self, x: str, row: str, name: str | None = None) -> str:
        return self._register(Node(self._name("bmul", name), "bmul", (x, row)))

    def smul(self, a: str, scalar: float, name: str | None = None) -> str:
        return self._register(
            Node(self._name("smul", name), "smul", (a,), scalar=float(scalar))
        )

    def tanh(self, a: str, name: str | None = None) -> str:
        return self._register(Node(self._name("tanh", name), "tanh", (a,)))

    def relu(self, a: str, name: str | None = None) -> str:
        return self._register(Node(self._name("relu", name), "relu", (a,)))

    def exp(self, a: str, name: str | None = None) -> str:
        return self._register(Node(self._name("exp", name), "exp", (a,)))

    def log(self, a: str, name: str | None = None) -> str:
        return self._register(Node(self._name("log", name), "log", (a,)))

    def atan(self, a: str, name: str | None = None) -> str:
        return self._register(Node(self._name("atan", name), "atan", (a,)))

    def row_sum(self, a: str, name: str | None = None) -> str:
        return self._register(Node(self._name("row_sum", name), "row_sum", (a,)))

    def concat(self, parts: Sequence[str], name: str | None = None) -> str:
        if len(parts) < 2:
            raise GraphError("concat needs at least two arguments")
        return self._register(Node(self._name("concat", name), "concat", tuple(parts)))

    def cols(self, a: str, idx: Sequence[int], name: str | None = None) -> str:
        return self._register(
            Node(self._name("cols", name), "cols", (a,), idx=tuple(int(i) for i in idx))
        )

    def dense(self, x: str, w: str, b: str, act: str = "identity",
              name: str | None = None) -> str:
        """act(x @ w + b) for a row of biases b and act in identity/tanh/relu."""
        if act not in _DENSE_ACTS:
            raise GraphError(f"dense: activation must be one of {_DENSE_ACTS}, got '{act}'")
        return self._register(Node(self._name("dense", name), "dense", (x, w, b), act=act))

    # composites -------------------------------------------------------------

    def sub(self, a: str, b: str) -> str:
        return self.add(a, self.smul(b, -1.0))

    def build(self) -> Graph:
        nodes = tuple(self._nodes.values())
        pos = {n.name: i for i, n in enumerate(nodes)}
        inputs = frozenset(n.name for n in nodes if n.op == "input")
        params = frozenset(n.name for n in nodes if n.op == "param")
        return Graph(nodes=nodes, pos=pos, inputs=inputs, params=params)


# evaluation ------------------------------------------------------------------


def _leaf_value(node: Node, bindings: Mapping[str, np.ndarray]) -> np.ndarray:
    if node.op == "const":
        assert node.value is not None
        return node.value
    try:
        raw = bindings[node.name]
    except KeyError:
        raise UnboundLeaf(f"leaf '{node.name}' has no binding") from None
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatch(f"leaf '{node.name}': expected 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise GraphError(f"leaf '{node.name}': non-finite entries in binding")
    return arr


def _dense(node: Node, x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ShapeMismatch(f"node '{node.name}': dense {x.shape} x {w.shape} + {b.shape}")
    h = x @ w
    h += b
    if node.act == "tanh":
        np.tanh(h, out=h)
    elif node.act == "relu":
        np.maximum(h, 0.0, out=h)
    return h


def _apply(node: Node, vals: Mapping[str, np.ndarray]) -> np.ndarray:
    op = node.op
    nm = node.name
    if op == "dense":
        x, w, b = node.args
        return _dense(node, vals[x], vals[w], vals[b])
    if op in _BINARY:
        a, b = vals[node.args[0]], vals[node.args[1]]
        if op == "matmul":
            if a.shape[1] != b.shape[0]:
                raise ShapeMismatch(f"node '{nm}': matmul {a.shape} x {b.shape}")
            return a @ b
        if op in ("add", "mul"):
            if a.shape != b.shape:
                raise ShapeMismatch(f"node '{nm}': {op} {a.shape} vs {b.shape}")
            return a + b if op == "add" else a * b
        # broadcast row ops: second operand is 1 x c
        if b.shape[0] != 1 or b.shape[1] != a.shape[1]:
            raise ShapeMismatch(f"node '{nm}': {op} {a.shape} with row {b.shape}")
        return a + b if op == "badd" else a * b
    x = vals[node.args[0]]
    if op == "tanh":
        return np.tanh(x)
    if op == "relu":
        return np.maximum(x, 0.0)
    if op == "exp":
        return np.exp(x)
    if op == "log":
        return np.log(x)
    if op == "atan":
        return np.arctan(x)
    if op == "row_sum":
        return x.sum(axis=1, keepdims=True)
    if op == "smul":
        return x * node.scalar
    if op == "cols":
        assert node.idx is not None
        if node.idx and max(node.idx) >= x.shape[1]:
            raise ShapeMismatch(f"node '{nm}': cols {node.idx} out of range for {x.shape}")
        return np.ascontiguousarray(x[:, list(node.idx)])
    if op == "concat":
        parts = [vals[a] for a in node.args]
        rows = parts[0].shape[0]
        if any(p.shape[0] != rows for p in parts):
            raise ShapeMismatch(f"node '{nm}': concat row counts differ")
        return np.concatenate(parts, axis=1)
    raise GraphError(f"node '{nm}': unknown op '{op}'")


def _needed(graph: Graph, outputs: Iterable[str]) -> set[str]:
    seen: set[str] = set()
    stack = list(outputs)
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        if name not in graph.pos:
            raise GraphError(f"unknown node '{name}'")
        seen.add(name)
        stack.extend(graph.node(name).args)
    return seen


class _Plan(NamedTuple):
    forward: tuple[Node, ...]  # needed nodes in topological order
    frees: tuple[tuple[str, ...], ...]  # per forward step: values no later step reads
    backward: tuple[Node, ...]  # needed op nodes in reverse order


def _plan(graph: Graph, outputs: tuple[str, ...]) -> _Plan:
    plan = graph._plans.get(outputs)
    if plan is None:
        needed = _needed(graph, outputs)
        forward = tuple(n for n in graph.nodes if n.name in needed)
        last_use: dict[str, int] = {}
        for i, node in enumerate(forward):
            for a in node.args:
                last_use[a] = i
        keep = set(outputs)
        frees = tuple(
            tuple(a for a in dict.fromkeys(node.args) if last_use[a] == i and a not in keep)
            for i, node in enumerate(forward)
        )
        backward = tuple(n for n in reversed(forward) if n.op not in _LEAF_OPS)
        plan = graph._plans[outputs] = _Plan(forward, frees, backward)
    return plan


def _forward(plan: _Plan, bindings: Mapping[str, np.ndarray], free: bool) -> dict[str, np.ndarray]:
    """Runs the plan's forward nodes; with `free`, drops each value once no
    later node reads it, otherwise keeps every activation for a backward pass."""
    vals: dict[str, np.ndarray] = {}
    for node, frees in zip(plan.forward, plan.frees):
        if node.op in _LEAF_OPS:
            vals[node.name] = _leaf_value(node, bindings)
        else:
            vals[node.name] = _apply(node, vals)
        if free:
            for a in frees:
                del vals[a]
    return vals


def evaluate(
    graph: Graph,
    bindings: Mapping[str, np.ndarray],
    outputs: Sequence[str] | None = None,
) -> dict[str, np.ndarray]:
    """Computes the requested output nodes (all nodes when outputs is None).

    Pure: identical bindings give bitwise-identical results. Intermediate
    values are dropped as soon as no remaining op consumes them, so large
    batches can be pushed through deep graphs without retaining the whole
    activation set.
    """
    if outputs is None:
        outputs = [n.name for n in graph.nodes]
    vals = _forward(_plan(graph, tuple(outputs)), bindings, free=True)
    return {name: vals[name] for name in outputs}


# differentiation --------------------------------------------------------------


def _acc(adj: dict[str, np.ndarray], name: str, g: np.ndarray) -> None:
    cur = adj.get(name)
    adj[name] = g if cur is None else cur + g


def _backward(node: Node, g: np.ndarray, vals: Mapping[str, np.ndarray],
              adj: dict[str, np.ndarray]) -> None:
    op = node.op
    if op == "dense":
        x, w, b = node.args
        y = vals[node.name]
        if node.act == "tanh":
            d = y * y
            np.subtract(1.0, d, out=d)
            d *= g
        elif node.act == "relu":
            d = g * (y > 0.0)
        else:
            d = g
        _acc(adj, b, d.sum(axis=0, keepdims=True))
        _acc(adj, x, d @ vals[w].T)
        _acc(adj, w, vals[x].T @ d)
    elif op == "matmul":
        a, b = node.args
        _acc(adj, a, g @ vals[b].T)
        _acc(adj, b, vals[a].T @ g)
    elif op == "add":
        _acc(adj, node.args[0], g)
        _acc(adj, node.args[1], g)
    elif op == "badd":
        _acc(adj, node.args[0], g)
        _acc(adj, node.args[1], g.sum(axis=0, keepdims=True))
    elif op == "mul":
        a, b = node.args
        _acc(adj, a, g * vals[b])
        _acc(adj, b, g * vals[a])
    elif op == "bmul":
        x, r = node.args
        _acc(adj, x, g * vals[r])
        _acc(adj, r, (g * vals[x]).sum(axis=0, keepdims=True))
    elif op == "smul":
        _acc(adj, node.args[0], g * node.scalar)
    elif op == "tanh":
        y = vals[node.name]
        _acc(adj, node.args[0], g * (1.0 - y * y))
    elif op == "relu":
        _acc(adj, node.args[0], g * (vals[node.args[0]] > 0.0))
    elif op == "exp":
        _acc(adj, node.args[0], g * vals[node.name])
    elif op == "log":
        _acc(adj, node.args[0], g / vals[node.args[0]])
    elif op == "atan":
        x = vals[node.args[0]]
        _acc(adj, node.args[0], g / (1.0 + x * x))
    elif op == "row_sum":
        x = vals[node.args[0]]
        _acc(adj, node.args[0], np.broadcast_to(g, x.shape))
    elif op == "cols":
        assert node.idx is not None
        x = vals[node.args[0]]
        gx = np.zeros_like(x)
        np.add.at(gx, (slice(None), list(node.idx)), g)
        _acc(adj, node.args[0], gx)
    elif op == "concat":
        off = 0
        for a in node.args:
            w = vals[a].shape[1]
            _acc(adj, a, np.ascontiguousarray(g[:, off:off + w]))
            off += w
    else:
        raise GraphError(f"node '{node.name}': no adjoint for op '{op}'")


def value_and_gradients(
    graph: Graph,
    bindings: Mapping[str, np.ndarray],
    output: str,
    wrt: Sequence[str],
) -> tuple[float, dict[str, np.ndarray]]:
    """Single-pass variant of gradients() that also returns the scalar value."""
    for name in wrt:
        if name not in graph.pos:
            raise GraphError(f"unknown leaf '{name}'")
        if graph.node(name).op not in ("input", "param"):
            raise GraphError(f"'{name}' is not a differentiable leaf")
    plan = _plan(graph, (output,))
    vals = _forward(plan, bindings, free=False)
    out = vals[output]
    if out.shape != (1, 1):
        raise GraphError(f"gradients: output '{output}' has shape {out.shape}, expected (1, 1)")
    adj: dict[str, np.ndarray] = {output: np.ones((1, 1))}
    for node in plan.backward:
        g = adj.pop(node.name, None)
        if g is None:
            continue
        _backward(node, g, vals, adj)
    result: dict[str, np.ndarray] = {}
    for name in wrt:
        if name in adj:
            result[name] = np.ascontiguousarray(adj[name])
        else:
            shape = vals[name].shape if name in vals else _leaf_value(graph.node(name), bindings).shape
            result[name] = np.zeros(shape)
    return float(out[0, 0]), result


def gradients(
    graph: Graph,
    bindings: Mapping[str, np.ndarray],
    output: str,
    wrt: Sequence[str],
) -> dict[str, np.ndarray]:
    """Gradient of a scalar (1x1) output node with respect to leaf nodes.

    Returns one matrix per requested leaf, shaped like the leaf's binding;
    leaves the output does not depend on get a zero matrix.
    """
    return value_and_gradients(graph, bindings, output, wrt)[1]


def finite_diff_check(
    graph: Graph,
    bindings: Mapping[str, np.ndarray],
    output: str,
    wrt: Sequence[str],
    h: float = 1e-5,
) -> float:
    """Max relative error between gradients() and central differences.

    Relative error uses denominator max(|analytic|, |numeric|, 1e-8) so that
    near-zero entries do not blow up the ratio.
    """
    if h <= 0:
        raise GraphError("finite_diff_check: h must be positive")
    grads = gradients(graph, bindings, output, wrt)
    work = dict(bindings)
    worst = 0.0
    for name in wrt:
        arr = np.array(bindings[name], dtype=np.float64, copy=True)
        work[name] = arr
        g = grads[name]
        for ij in np.ndindex(arr.shape):
            orig = arr[ij]
            arr[ij] = orig + h
            fp = evaluate(graph, work, [output])[output][0, 0]
            arr[ij] = orig - h
            fm = evaluate(graph, work, [output])[output][0, 0]
            arr[ij] = orig
            fd = (fp - fm) / (2.0 * h)
            rel = abs(g[ij] - fd) / max(abs(g[ij]), abs(fd), 1e-8)
            if rel > worst:
                worst = rel
        work[name] = bindings[name]
    return worst

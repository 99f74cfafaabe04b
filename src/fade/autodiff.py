"""Minimal dense-matrix reverse-mode automatic differentiation.

Values are 2-D float64 numpy arrays ("matrices"); every operation returns a
new :class:`Node` that pairs each of its inputs with that input's
vector-Jacobian product: a function from the output's gradient to the
input's share of it.  Ops only compute; :func:`backward` alone adds each
share into its input's ``grad``.  The engine is deliberately small: just
enough ops for a GCN encoder and linear heads, plus the two pieces the
training losses need, softmax cross-entropy and row normalization.  Each of
those is one node with a hand-written gradient rather than a composition of
elementwise exp/log ops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ShapeError",
    "TrainingError",
    "Node",
    "as_matrix",
    "param",
    "const",
    "matmul",
    "gcn_layer",
    "segment_pool",
    "add",
    "scale",
    "relu",
    "hadamard",
    "sum_all",
    "cross_entropy",
    "row_normalize",
    "backward",
    "AdamState",
    "adam_init",
    "adam_step",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class TrainingError(RuntimeError):
    """Non-finite quantity encountered during optimization."""


def as_matrix(data) -> np.ndarray:
    """Coerce vectors / nested lists to a 2-D float64 array.

    1-D input becomes a single row.  Existing conforming arrays are passed
    through without copying, so parameter updates stay visible to any Node
    wrapping them.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"matrices are 2-D, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


class Node:
    """One value in a computation graph plus space for its gradient.

    ``parents`` holds ``(input, vjp)`` pairs in the op's input order, where
    ``vjp(g)`` is the input's share of the gradient when this node's is
    ``g``; leaves have none.  Only parameters and the nodes they reach carry
    a gradient, so a parameter is exactly a leaf whose ``grad`` is set; for
    the rest (constants and ops on constants only) ``grad`` is None and their
    pairs are left out of ``parents``.
    """

    __slots__ = ("value", "grad", "parents")

    def __init__(self, value, parents=()):
        self.value = as_matrix(value)
        self.parents = tuple((p, vjp) for p, vjp in parents if p.grad is not None)
        self.grad = np.zeros_like(self.value) if self.parents else None


def param(value) -> Node:
    """Leaf node whose gradient the optimizer will consume."""
    node = Node(value)
    node.grad = np.zeros_like(node.value)
    return node


def const(value) -> Node:
    """Leaf node treated as data; gradients stop here."""
    return Node(value)


def _check_same_shape(op: str, a: Node, b: Node) -> None:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{op}: operand shapes differ, {a.value.shape} vs {b.value.shape}")


def matmul(a: Node, b: Node) -> Node:
    """Matrix product a @ b."""
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions differ, {a.value.shape} vs {b.value.shape}"
        )
    return Node(a.value @ b.value, ((a, lambda g: g @ b.value.T), (b, lambda g: a.value.T @ g)))


def _bucket_product(buckets, a: np.ndarray) -> np.ndarray:
    """Sparse product N @ a for N given as degree buckets.

    Each bucket ``(rows (R,), cols (R, k), weights (R, 1, k))`` holds the R
    rows of N with k entries each (see ``encoder._degree_buckets``); a row no
    bucket names is zero.
    """
    out = np.zeros_like(a)
    for rows, cols, weights in buckets:
        out[rows] = np.matmul(weights, a[cols])[:, 0, :]
    return out


def _positive_part(z: np.ndarray) -> np.ndarray:
    """``np.where(z > 0, z, 0.0)`` bit for bit, without its per-entry branch."""
    out = np.fmax(z, 0.0)  # NaN -> 0.0
    out += 0.0  # fmax may keep -0.0; -0.0 + 0.0 is +0.0
    return out


def gcn_layer(buckets, h: Node, w: Node) -> Node:
    """One graph-convolution layer relu((N @ h) @ w) as a single node.

    N is symmetric and given as degree buckets (see ``_bucket_product``), so
    the gradient reaching h is N @ (g @ w.T) for the masked output gradient
    g.
    """
    if h.value.shape[1] != w.value.shape[0]:
        raise ShapeError(
            f"gcn_layer: inner dimensions differ, {h.value.shape} vs {w.value.shape}"
        )
    p = _bucket_product(buckets, h.value)
    z = p @ w.value
    mask = z > 0  # gradient at exactly 0 is 0
    return Node(
        _positive_part(z),
        (
            (h, lambda g: _bucket_product(buckets, (g * mask) @ w.value.T)),
            (w, lambda g: p.T @ (g * mask)),
        ),
    )


def segment_pool(h: Node, sizes) -> Node:
    """Per-segment means of consecutive rows, shape (sum sizes, c) -> (B, c).

    Segment i is the next ``sizes[i]`` rows of h; every size must be at
    least 1.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    # reduceat would return the next row, not zeros, for an empty segment
    if np.any(sizes < 1):
        raise ShapeError(f"segment_pool: segment sizes must be >= 1, got {sizes.tolist()}")
    if sizes.sum() != h.value.shape[0]:
        raise ShapeError(
            f"segment_pool: sizes sum to {sizes.sum()}, input has {h.value.shape[0]} rows"
        )
    scale = 1.0 / sizes[:, None]
    starts = np.cumsum(sizes) - sizes
    pooled = np.add.reduceat(h.value, starts, axis=0) * scale
    return Node(pooled, ((h, lambda g: np.repeat(g * scale, sizes, axis=0)),))


def add(a: Node, b: Node) -> Node:
    _check_same_shape("add", a, b)
    return Node(a.value + b.value, ((a, lambda g: g), (b, lambda g: g)))


def scale(a: Node, c: float) -> Node:
    """Multiply every entry by the python scalar ``c``."""
    c = float(c)
    return Node(a.value * c, ((a, lambda g: g * c),))


def relu(a: Node) -> Node:
    mask = a.value > 0  # gradient at exactly 0 is 0
    return Node(_positive_part(a.value), ((a, lambda g: g * mask),))


def hadamard(a: Node, b: Node) -> Node:
    """Entrywise product."""
    _check_same_shape("hadamard", a, b)
    return Node(a.value * b.value, ((a, lambda g: g * b.value), (b, lambda g: g * a.value)))


def _check_nonempty(op: str, a: Node) -> None:
    if a.value.size == 0:
        raise ShapeError(f"{op}: empty input")


def sum_all(a: Node) -> Node:
    _check_nonempty("sum", a)
    return Node([[a.value.sum()]], ((a, lambda g: g[0, 0]),))


def cross_entropy(logits: Node, labels) -> Node:
    """Batch-mean softmax cross-entropy of (b, c) logits against b integer labels.

    Each row is shifted by its max before exponentiating, so it stays finite
    for any finite logits.  Labels must already lie in [0, c).
    """
    _check_nonempty("cross_entropy", logits)
    b = logits.value.shape[0]
    picked = (np.arange(b), np.asarray(labels, dtype=np.int64))
    shifted = logits.value - logits.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=1, keepdims=True)

    def vjp(g):
        d = e / s
        d[picked] -= 1.0
        return d * (g[0, 0] / b)

    return Node([[np.sum(np.log(s[:, 0]) - shifted[picked]) / b]], ((logits, vjp),))


def row_normalize(a: Node) -> Node:
    """Each row divided by its Euclidean norm.

    A row whose squared norm is at most 1e-24 has no usable direction: it
    becomes zero and passes no gradient back.
    """
    sq = (a.value * a.value).sum(axis=1, keepdims=True)
    alive = sq > 1e-24
    norm = np.sqrt(np.where(alive, sq, 1.0))
    u = np.where(alive, a.value / norm, 0.0)

    def vjp(g):
        ug = (u * g).sum(axis=1, keepdims=True)
        return np.where(alive, (g - u * ug) / norm, 0.0)

    return Node(u, ((a, vjp),))


def _toposort(root: Node) -> list[Node]:
    """Iterative post-order DFS; deterministic for a fixed graph."""
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Node) -> None:
    """Accumulate dloss/dnode into the ``grad`` of every node that carries one
    and is reachable from ``loss``; the only code that writes an op's share."""
    if loss.value.shape != (1, 1):
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.value.shape}")
    if loss.grad is None:
        return
    loss.grad += 1.0
    for node in reversed(_toposort(loss)):
        for parent, vjp in node.parents:
            parent.grad += vjp(node.grad)


@dataclass
class AdamState:
    """First/second moment accumulators for one parameter list."""

    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)


def adam_init(params: list[np.ndarray]) -> AdamState:
    return AdamState(
        step=0,
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
    )


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float = 1e-3,
) -> AdamState:
    """One Adam update with bias correction; params mutated in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError(
            f"adam_step: got {len(params)} params, {len(grads)} grads, "
            f"{len(state.m)} state slots"
        )
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeError(f"adam_step: param shape {p.shape} vs grad shape {g.shape}")
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state.step += 1
    t = state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient at optimizer step {t}")
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return state

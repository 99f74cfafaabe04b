"""Minimal dense-matrix reverse-mode automatic differentiation.

Values are 2-D float64 numpy arrays ("matrices"); every operation returns a
new :class:`Node` that remembers its inputs and the local chain rule.  The
engine is deliberately small: just enough ops for a GCN encoder, linear
heads, and the composite training losses built on top of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ShapeError",
    "DomainError",
    "TrainingError",
    "Node",
    "as_matrix",
    "param",
    "const",
    "matmul",
    "propagate",
    "add",
    "sub",
    "scale",
    "relu",
    "exp",
    "log",
    "hadamard",
    "sum_all",
    "mean_all",
    "rowsum",
    "reciprocal",
    "sqrt_pos",
    "backward",
    "AdamState",
    "adam_init",
    "adam_step",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """Operand values lie outside the operation's domain (e.g. log of <= 0)."""


class TrainingError(RuntimeError):
    """Non-finite quantity encountered during optimization."""


def as_matrix(data) -> np.ndarray:
    """Coerce scalars / vectors / nested lists to a 2-D float64 array.

    1-D input becomes a single row.  Existing conforming arrays are passed
    through without copying, so parameter updates stay visible to any Node
    wrapping them.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"matrices are 2-D, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


class Node:
    """One value in a computation graph plus space for its gradient.

    ``parents`` and ``_rule`` encode the local backward rule; leaves have
    neither.  ``is_param`` marks leaves whose gradients the optimizer reads.
    Only parameters and the nodes they reach carry a gradient; for the rest
    (constants and ops on constants only) ``grad`` is None, backward rules
    skip them, and they are left out of ``parents``.
    """

    __slots__ = ("value", "grad", "parents", "_rule", "is_param")

    def __init__(self, value, parents=(), rule=None, is_param=False):
        self.value = as_matrix(value)
        self.parents = tuple(p for p in parents if p.grad is not None)
        self.grad = np.zeros_like(self.value) if is_param or self.parents else None
        self._rule = rule
        self.is_param = is_param

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):  # pragma: no cover - debugging aid
        kind = "param" if self.is_param else ("leaf" if self._rule is None else "op")
        return f"Node({kind}, shape={self.value.shape})"


def param(value) -> Node:
    """Leaf node whose gradient the optimizer will consume."""
    return Node(value, is_param=True)


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
    out = Node(a.value @ b.value, (a, b))

    def rule(g):
        if a.grad is not None:
            a.grad += g @ b.value.T
        if b.grad is not None:
            b.grad += a.value.T @ g

    out._rule = rule
    return out


def _bucket_product(buckets, a: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a)
    for rows, cols, weights in buckets:
        out[rows] = np.matmul(weights, a[cols])[:, 0, :]
    return out


def propagate(buckets, a: Node) -> Node:
    """Sparse product N @ a for a symmetric N given as degree buckets.

    Each bucket ``(rows (R,), cols (R, k), weights (R, 1, k))`` holds the R
    rows of N with k entries each (see ``data.degree_buckets``); a row no
    bucket names is zero.  Since N is symmetric, the backward rule is the
    same product applied to the output gradient.
    """
    out = Node(_bucket_product(buckets, a.value), (a,))

    def rule(g):
        a.grad += _bucket_product(buckets, g)

    out._rule = rule
    return out


def add(a: Node, b: Node) -> Node:
    _check_same_shape("add", a, b)
    out = Node(a.value + b.value, (a, b))

    def rule(g):
        if a.grad is not None:
            a.grad += g
        if b.grad is not None:
            b.grad += g

    out._rule = rule
    return out


def sub(a: Node, b: Node) -> Node:
    _check_same_shape("sub", a, b)
    out = Node(a.value - b.value, (a, b))

    def rule(g):
        if a.grad is not None:
            a.grad += g
        if b.grad is not None:
            b.grad -= g

    out._rule = rule
    return out


def scale(a: Node, c: float) -> Node:
    """Multiply every entry by the python scalar ``c``."""
    c = float(c)
    out = Node(a.value * c, (a,))

    def rule(g):
        a.grad += g * c

    out._rule = rule
    return out


def relu(a: Node) -> Node:
    mask = a.value > 0  # gradient at exactly 0 is 0
    out = Node(np.where(mask, a.value, 0.0), (a,))

    def rule(g):
        a.grad += g * mask

    out._rule = rule
    return out


def exp(a: Node) -> Node:
    e = np.exp(a.value)
    out = Node(e, (a,))

    def rule(g):
        a.grad += g * e

    out._rule = rule
    return out


def log(a: Node) -> Node:
    if not np.all(a.value > 0):
        raise DomainError("log: input has non-positive entries")
    out = Node(np.log(a.value), (a,))

    def rule(g):
        a.grad += g / a.value

    out._rule = rule
    return out


def hadamard(a: Node, b: Node) -> Node:
    """Entrywise product."""
    _check_same_shape("hadamard", a, b)
    out = Node(a.value * b.value, (a, b))

    def rule(g):
        if a.grad is not None:
            a.grad += g * b.value
        if b.grad is not None:
            b.grad += g * a.value

    out._rule = rule
    return out


def _check_nonempty(op: str, a: Node) -> None:
    if a.value.size == 0:
        raise ShapeError(f"{op}: empty input")


def sum_all(a: Node) -> Node:
    _check_nonempty("sum", a)
    out = Node([[a.value.sum()]], (a,))

    def rule(g):
        a.grad += g[0, 0]

    out._rule = rule
    return out


def mean_all(a: Node) -> Node:
    _check_nonempty("mean", a)
    n = a.value.size
    out = Node([[a.value.sum() / n]], (a,))

    def rule(g):
        a.grad += g[0, 0] / n

    out._rule = rule
    return out


def rowsum(a: Node) -> Node:
    """Per-row sums, shape (r, c) -> (r, 1)."""
    _check_nonempty("rowsum", a)
    out = Node(a.value.sum(axis=1, keepdims=True), (a,))

    def rule(g):
        a.grad += g  # (r, 1) broadcasts across columns

    out._rule = rule
    return out


def reciprocal(a: Node) -> Node:
    """1/x composed from exp/log; requires strictly positive entries."""
    return exp(scale(log(a), -1.0))


def sqrt_pos(a: Node) -> Node:
    """Entrywise square root composed from exp/log; requires positive entries."""
    return exp(scale(log(a), 0.5))


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
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Node) -> dict[Node, np.ndarray]:
    """Accumulate dloss/dnode into every node reachable from ``loss``.

    Returns the gradients of parameter leaves, keyed by Node; empty when no
    parameter reaches ``loss``.
    """
    if loss.value.shape != (1, 1):
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.value.shape}")
    if loss.grad is None:
        return {}
    order = _toposort(loss)
    loss.grad += 1.0
    for node in reversed(order):
        if node._rule is not None:
            node._rule(node.grad)
    return {node: node.grad for node in order if node.is_param}


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
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
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

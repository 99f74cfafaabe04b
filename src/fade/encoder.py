"""Graph-convolutional encoder producing graph-level representations.

Each layer computes relu(N @ H @ W) with N the symmetric-normalized
adjacency (self-connections included); the final node representations are
pooled (mean or add) into a single row vector per graph.  The same
architecture backs both the target and the event-only predictor, with
independent weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Node, ShapeError, const, matmul, relu
from .data import PropagationGraph

__all__ = [
    "EncoderParams",
    "init_encoder",
    "encode_all",
    "encode_batch_node",
]

POOLINGS = ("mean", "add")


@dataclass
class EncoderParams:
    """Stacked layer weights plus the pooling choice."""

    layers: list[np.ndarray]
    pooling: str = "mean"

    @property
    def feature_dim(self) -> int:
        return self.layers[0].shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.layers[-1].shape[1]

    def validate(self) -> None:
        if not self.layers:
            raise ShapeError("encoder needs at least one layer")
        if self.pooling not in POOLINGS:
            raise ValueError(f"pooling must be one of {POOLINGS}, got {self.pooling!r}")
        for i in range(len(self.layers) - 1):
            if self.layers[i].shape[1] != self.layers[i + 1].shape[0]:
                raise ShapeError(
                    f"layer {i} output dim {self.layers[i].shape[1]} != "
                    f"layer {i + 1} input dim {self.layers[i + 1].shape[0]}"
                )


def init_encoder(
    feature_dim: int,
    hidden_dim: int,
    n_layers: int,
    rng: np.random.Generator,
    pooling: str = "mean",
) -> EncoderParams:
    """He-initialized weights, deterministic for a given generator state."""
    dims = [feature_dim] + [hidden_dim] * n_layers
    layers = [
        rng.normal(0.0, np.sqrt(2.0 / dims[i]), size=(dims[i], dims[i + 1]))
        for i in range(n_layers)
    ]
    params = EncoderParams(layers=layers, pooling=pooling)
    params.validate()
    return params


def _batch_parts(graphs: list[PropagationGraph]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Block-diagonal normalized adjacency and vertically stacked features."""
    sizes = [g.n for g in graphs]
    total = sum(sizes)
    blk = np.zeros((total, total))
    offset = 0
    for g in graphs:
        blk[offset : offset + g.n, offset : offset + g.n] = g.adjacency
        offset += g.n
    return blk, np.vstack([g.x for g in graphs]), sizes


def _pool_matrix(sizes: list[int], pooling: str) -> np.ndarray:
    pool = np.zeros((len(sizes), sum(sizes)))
    offset = 0
    for i, n in enumerate(sizes):
        pool[i, offset : offset + n] = 1.0 / n if pooling == "mean" else 1.0
        offset += n
    return pool


def encode_batch_node(
    layer_nodes: list[Node], graphs: list[PropagationGraph], pooling: str
) -> Node:
    """Differentiable batched forward pass; row i is graph i's representation."""
    if pooling not in POOLINGS:
        raise ValueError(f"pooling must be one of {POOLINGS}, got {pooling!r}")
    blk, x, sizes = _batch_parts(graphs)
    h = const(x)
    n_node = const(blk)
    for w in layer_nodes:
        h = relu(matmul(matmul(n_node, h), w))
    return matmul(const(_pool_matrix(sizes, pooling)), h)


def encode_all(
    params: EncoderParams, graphs: list[PropagationGraph], chunk: int = 64
) -> np.ndarray:
    """Value-only representations for many graphs, stacked as rows.

    Processed in chunks to keep the block-diagonal matrices small.
    """
    params.validate()
    nodes = [const(w) for w in params.layers]
    rows = []
    for start in range(0, len(graphs), chunk):
        part = graphs[start : start + chunk]
        rows.append(encode_batch_node(nodes, part, params.pooling).value)
    if not rows:
        return np.zeros((0, params.hidden_dim))
    return np.vstack(rows)

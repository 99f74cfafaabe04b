"""Graph-convolutional encoder producing graph-level representations.

Each layer computes relu(N @ H @ W) with N the symmetric-normalized
adjacency (self-connections included), as one autodiff node
(``autodiff.gcn_layer``); the final node representations are mean-pooled
into a single row vector per graph (``autodiff.segment_pool``).  N is never
formed densely: a batch stacks its graphs' sparse entries and multiplies by
them one degree bucket at a time, so time and memory grow with the edges,
not with the square of the nodes.  The same architecture backs both the
target and the event-only predictor, with independent weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Node, const, gcn_layer, segment_pool
from .data import PropagationGraph

__all__ = [
    "EncoderParams",
    "encode_all",
    "encode_batch_node",
]

POOLINGS = ("mean",)
_CHUNK = 64  # graphs per encode_all batch; one batch per split costs 5-7 MB more peak


@dataclass
class EncoderParams:
    """Stacked layer weights plus the pooling choice; ``predictors._new_model``,
    ``load_checkpoint``, ``gcn_layer`` and ``encode_batch_node`` check them."""

    layers: list[np.ndarray]
    pooling: str = "mean"

    @property
    def feature_dim(self) -> int:
        return self.layers[0].shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.layers[-1].shape[1]


def _degree_buckets(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray) -> list[tuple]:
    """Group row-major sparse entries into buckets for ``autodiff.gcn_layer``.

    ``rows`` must be sorted and cover every row from 0 to its maximum.  Rows
    with the same entry count k form one bucket ``(rows (R,), cols (R, k),
    weights (R, 1, k))``, so a bucket's product is one stacked matmul.
    """
    counts = np.bincount(rows)
    starts = np.cumsum(counts) - counts
    buckets = []
    for k in np.unique(counts):
        members = np.flatnonzero(counts == k)
        pos = starts[members][:, None] + np.arange(k)
        buckets.append((members, cols[pos], weights[pos][:, None, :]))
    return buckets


def _batch_parts(graphs: list[PropagationGraph]) -> tuple[list[tuple], np.ndarray, list[int]]:
    """Degree buckets of the block-diagonal normalized adjacency, the stacked
    node features X, and the graph sizes.

    Built from each graph's cached sparse entries, so the batch costs memory
    linear in its edges; no (sum N)^2 matrix is formed.
    """
    sizes = [g.n for g in graphs]
    entries = [g.entries for g in graphs]
    offsets = np.repeat(np.cumsum([0] + sizes[:-1]), [len(e[0]) for e in entries])
    rows, cols, weights = (np.concatenate(part) for part in zip(*entries))
    buckets = _degree_buckets(rows + offsets, cols + offsets, weights)
    return buckets, np.vstack([g.x for g in graphs]), sizes


def encode_batch_node(
    layer_nodes: list[Node], graphs: list[PropagationGraph], pooling: str
) -> Node:
    """Differentiable batched forward pass; row i is graph i's representation."""
    if pooling not in POOLINGS:
        raise ValueError(f"pooling must be one of {POOLINGS}, got {pooling!r}")
    buckets, x, sizes = _batch_parts(graphs)
    h = const(x)
    for w in layer_nodes:
        h = gcn_layer(buckets, h, w)
    return segment_pool(h, sizes)


def encode_all(params: EncoderParams, graphs: list[PropagationGraph]) -> np.ndarray:
    """Value-only representations for many graphs, stacked as rows.

    Processed in chunks of ``_CHUNK`` graphs to bound each batch's size.
    """
    nodes = [const(w) for w in params.layers]
    rows = []
    for start in range(0, len(graphs), _CHUNK):
        part = graphs[start : start + _CHUNK]
        rows.append(encode_batch_node(nodes, part, params.pooling).value)
    if not rows:
        return np.zeros((0, params.hidden_dim))
    return np.vstack(rows)

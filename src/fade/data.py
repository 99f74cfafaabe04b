"""Data model and on-disk format for news propagation graphs.

A dataset file is UTF-8 JSON Lines: the first line is a header
``{"classes": [...], "feature_dim": INT}``; each following line is one
instance ``{"id", "event", "label", "n", "edges", "x"}`` where edges are
parent->child reply pairs and ``x`` holds ``n`` rows of precomputed text
embedding features.
"""

from __future__ import annotations

import contextlib
import json
import os
import secrets
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .autodiff import const, propagate

__all__ = [
    "DatasetError",
    "DatasetParseError",
    "DatasetValidationError",
    "PropagationGraph",
    "NewsInstance",
    "Dataset",
    "normalized_adjacency",
    "adjacency_entries",
    "degree_buckets",
    "load_dataset",
    "save_dataset",
    "atomic_write",
]


class DatasetError(Exception):
    """Base class for dataset file problems."""


class DatasetParseError(DatasetError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DatasetValidationError(DatasetError):
    def __init__(self, instance_id: str, message: str):
        super().__init__(f"instance {instance_id!r}: {message}")
        self.instance_id = instance_id


@dataclass
class PropagationGraph:
    """One news cascade: node 0 is the source post, edges are replies."""

    n: int
    x: np.ndarray  # (n, feature_dim) float64
    edges: list[list[int]]

    @cached_property
    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``adjacency_entries(self)``, built on first use and kept.

        Graphs are not changed after construction, so the cache stays valid;
        loading does not build it.
        """
        return adjacency_entries(self)

    @cached_property
    def propagated_x(self) -> np.ndarray:
        """N @ x for this graph's normalized adjacency N, built on first use and kept.

        It is the encoder's first-layer input, which no parameter reaches.
        """
        return propagate(degree_buckets(*self.entries), const(self.x)).value

    def validate(self, instance_id: str = "?") -> None:
        if self.n < 1:
            raise DatasetValidationError(instance_id, "graph must have at least one node")
        if self.x.shape[0] != self.n:
            raise DatasetValidationError(
                instance_id, f"feature matrix has {self.x.shape[0]} rows for {self.n} nodes"
            )
        for p, c in self.edges:
            if not (0 <= p < self.n and 0 <= c < self.n):
                raise DatasetValidationError(instance_id, "edge endpoint out of range")
            if p == c:
                raise DatasetValidationError(instance_id, f"self-loop on node {p}")
        if not np.all(np.isfinite(self.x)):
            raise DatasetValidationError(instance_id, "non-finite feature value")
        # all nodes reachable from the source through reply edges
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for p, c in self.edges:
            adj[p].append(c)
            adj[c].append(p)
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        if len(seen) != self.n:
            raise DatasetValidationError(
                instance_id, f"{self.n - len(seen)} nodes unreachable from the source post"
            )


@dataclass
class NewsInstance:
    id: str
    graph: PropagationGraph
    label: int
    event: str


@dataclass
class Dataset:
    class_names: list[str]
    feature_dim: int
    instances: list[NewsInstance] = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def validate(self) -> None:
        seen_ids: set[str] = set()
        for inst in self.instances:
            if inst.id in seen_ids:
                raise DatasetValidationError(inst.id, "duplicate instance id")
            seen_ids.add(inst.id)
            if not inst.event:
                raise DatasetValidationError(inst.id, "empty event label")
            if not (0 <= inst.label < self.n_classes):
                raise DatasetValidationError(
                    inst.id,
                    f"label {inst.label} outside [0, {self.n_classes})",
                )
            if inst.graph.x.shape[1] != self.feature_dim:
                raise DatasetValidationError(
                    inst.id,
                    f"feature dim {inst.graph.x.shape[1]} != dataset dim {self.feature_dim}",
                )
            inst.graph.validate(inst.id)

    def events(self) -> list[str]:
        """Distinct event labels in first-appearance order."""
        out: list[str] = []
        seen: set[str] = set()
        for inst in self.instances:
            if inst.event not in seen:
                seen.add(inst.event)
                out.append(inst.event)
        return out

    def by_id(self) -> dict[str, NewsInstance]:
        return {inst.id: inst for inst in self.instances}


def normalized_adjacency(g: PropagationGraph) -> np.ndarray:
    """Symmetric-normalized adjacency with self-connections.

    Builds A from the reply edges counted in both directions, adds the
    identity, and returns D^(-1/2) (A + I) D^(-1/2) where D holds the row
    sums of A + I.
    """
    a = np.zeros((g.n, g.n))
    for p, c in g.edges:
        a[p, c] = 1.0
        a[c, p] = 1.0
    a_tilde = a + np.eye(g.n)
    d_inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    return a_tilde * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


def adjacency_entries(g: PropagationGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzeros of ``normalized_adjacency(g)`` as ``(rows, cols, weights)``.

    Built from the edge list in O(edges): each undirected pair once, plus
    every self-connection, in row-major order.  The weights are computed as
    the dense form computes them, so they equal its nonzeros bit for bit.
    The arrays are read-only.
    """
    e = np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)
    loops = np.arange(g.n, dtype=np.int64)
    keys = np.unique(
        np.concatenate([e[:, 0] * g.n + e[:, 1], e[:, 1] * g.n + e[:, 0], loops * (g.n + 1)])
    )
    rows, cols = np.divmod(keys, g.n)
    d_inv_sqrt = 1.0 / np.sqrt(np.bincount(rows, minlength=g.n))
    weights = (1.0 * d_inv_sqrt[rows]) * d_inv_sqrt[cols]
    for arr in (rows, cols, weights):
        arr.flags.writeable = False
    return rows, cols, weights


def degree_buckets(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray) -> list[tuple]:
    """Group row-major sparse entries into ``autodiff.propagate`` buckets.

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


def _require(record: dict, key: str, line_no: int):
    if key not in record:
        raise DatasetParseError(line_no, f"missing field {key!r}")
    return record[key]


def load_dataset(path) -> Dataset:
    """Read and validate a JSON-Lines dataset file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].strip():
        raise DatasetParseError(1, "missing header line")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise DatasetParseError(1, f"bad header JSON: {e}") from None
    if not isinstance(header, dict):
        raise DatasetParseError(1, "header must be a JSON object")
    classes = _require(header, "classes", 1)
    feature_dim = _require(header, "feature_dim", 1)
    if not isinstance(classes, list) or not classes:
        raise DatasetParseError(1, "classes must be a non-empty list")
    if not isinstance(feature_dim, int) or feature_dim < 1:
        raise DatasetParseError(1, "feature_dim must be a positive integer")

    ds = Dataset(class_names=[str(c) for c in classes], feature_dim=feature_dim)
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise DatasetParseError(line_no, f"bad JSON: {e}") from None
        if not isinstance(rec, dict):
            raise DatasetParseError(line_no, "instance line must be a JSON object")
        inst_id = str(_require(rec, "id", line_no))
        n = _require(rec, "n", line_no)
        if not isinstance(n, int):
            raise DatasetParseError(line_no, "n must be an integer")
        edges_raw = _require(rec, "edges", line_no)
        x_raw = _require(rec, "x", line_no)
        try:
            edges = [[int(p), int(c)] for p, c in edges_raw]
        except (TypeError, ValueError):
            raise DatasetParseError(line_no, "edges must be [parent, child] pairs") from None
        try:
            x = np.asarray(x_raw, dtype=np.float64)
        except ValueError:
            raise DatasetParseError(line_no, "x must be a rectangular array of reals") from None
        if x.ndim != 2:
            raise DatasetParseError(line_no, "x must be a 2-D array")
        label = _require(rec, "label", line_no)
        if not isinstance(label, int):
            raise DatasetParseError(line_no, "label must be an integer")
        ds.instances.append(
            NewsInstance(
                id=inst_id,
                graph=PropagationGraph(n=n, x=x, edges=edges),
                label=label,
                event=str(_require(rec, "event", line_no)),
            )
        )
    ds.validate()
    return ds


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """Write ``path`` whole or not at all.

    Yields a file opened on a new temporary name in the same directory.  When
    the block ends normally the file is flushed to disk and moved over
    ``path`` with ``os.replace``, so a reader sees the old file or the
    complete new one.  When the block raises, the temporary file is removed
    and ``path`` is left as it was.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        fh = open(tmp, "xb" if binary else "x", encoding=None if binary else "utf-8")
    except OSError as e:  # name the destination, not the temporary file
        raise type(e)(e.errno, e.strerror, path) from None
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_dataset(ds: Dataset, path) -> None:
    """Write the JSON-Lines format; inverse of load_dataset."""
    with atomic_write(path) as fh:
        fh.write(
            json.dumps({"classes": ds.class_names, "feature_dim": ds.feature_dim}) + "\n"
        )
        for inst in ds.instances:
            rec = {
                "id": inst.id,
                "event": inst.event,
                "label": inst.label,
                "n": inst.graph.n,
                "edges": [[p, c] for p, c in inst.graph.edges],
                "x": [[float(v) for v in row] for row in inst.graph.x],
            }
            fh.write(json.dumps(rec) + "\n")

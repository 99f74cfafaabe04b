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
import re
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

__all__ = [
    "DatasetError",
    "DatasetParseError",
    "DatasetValidationError",
    "PropagationGraph",
    "NewsInstance",
    "Dataset",
    "event_groups",
    "normalized_adjacency",
    "adjacency_entries",
    "load_dataset",
    "save_dataset",
    "atomic_write",
]


class DatasetError(Exception):
    """Base class for dataset file problems."""


class DatasetParseError(DatasetError):
    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}: line {line_no}: {message}")


class DatasetValidationError(DatasetError):
    def __init__(self, instance_id: str, message: str, path=None):
        where = "" if path is None else f"{path}: "
        super().__init__(f"{where}instance {instance_id!r}: {message}")
        self.instance_id = instance_id
        self.message = message


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
        return list(event_groups(inst.event for inst in self.instances))

    def by_id(self) -> dict[str, NewsInstance]:
        return {inst.id: inst for inst in self.instances}


def event_groups(events) -> dict[str, list[int]]:
    """Each distinct label's positions in ``events``, labels in first-appearance order."""
    groups: dict[str, list[int]] = {}
    for i, event in enumerate(events):
        groups.setdefault(event, []).append(i)
    return groups


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


# What the JSON value of each field must be.  Types are compared exactly: JSON
# true/false load as bool, a subclass of int, and must not pass as numbers.  The
# set(map(type, ...)) forms keep the per-value loop in C.
#
# Names (classes, ids, events) hold no C0/C1 control character, tab and newline
# included, since `predict` prints them tab-separated; no lone surrogate, which
# cannot be encoded; and neither U+FFFE nor U+FFFF.  XML forbids all of them.
_UNPRINTABLE = re.compile(r"[\x00-\x1f\x7f-\x9f\ud800-\udfff\ufffe\uffff]")


def _text(v) -> bool:
    return type(v) is str and not _UNPRINTABLE.search(v)


def _names(v) -> bool:
    return (type(v) is list and set(map(type, v)) == {str} and len(set(v)) == len(v) > 1
            and not _UNPRINTABLE.search("".join(v)))


def _int_pairs(v) -> bool:
    return (type(v) is list and set(map(type, v)) <= {list} and set(map(len, v)) <= {2}
            and set(map(type, chain.from_iterable(v))) <= {int})


def _real_rows(v) -> bool:
    return (type(v) is list and set(map(type, v)) <= {list}
            and set(map(type, chain.from_iterable(v))) <= {int, float})


def _require(record: dict, key: str, path, line_no: int, valid, what: str):
    """``record[key]``; ``valid`` is the exact type it must have, or a check of it."""
    if key not in record:
        raise DatasetParseError(path, line_no, f"missing field {key!r}")
    value = record[key]
    if not (type(value) is valid if isinstance(valid, type) else valid(value)):
        raise DatasetParseError(path, line_no, f"{key} must be {what}")
    return value


def _decoded(path, line_no: int, line: bytes) -> str:
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as e:
        raise DatasetParseError(path, line_no, f"not UTF-8: {e}") from None


def load_dataset(path) -> Dataset:
    """Read and validate a JSON-Lines dataset file.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` only, and each is decoded as it is
    parsed, so the file is never also held as text.
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    header_text = _decoded(path, 1, lines[0]) if lines else ""
    if not header_text.strip():
        raise DatasetParseError(path, 1, "missing header line")
    try:
        header = json.loads(header_text)
    except json.JSONDecodeError as e:
        raise DatasetParseError(path, 1, f"bad header JSON: {e}") from None
    if not isinstance(header, dict):
        raise DatasetParseError(path, 1, "header must be a JSON object")
    classes = _require(header, "classes", path, 1, _names,
                       "a list of two or more distinct printable strings")
    feature_dim = _require(header, "feature_dim", path, 1, int, "a positive integer")
    if feature_dim < 1:
        raise DatasetParseError(path, 1, "feature_dim must be a positive integer")

    ds = Dataset(class_names=classes, feature_dim=feature_dim)
    for line_no, line in enumerate(lines[1:], start=2):
        text = _decoded(path, line_no, line)
        if not text.strip():
            continue
        try:
            rec = json.loads(text)
        except json.JSONDecodeError as e:
            raise DatasetParseError(path, line_no, f"bad JSON: {e}") from None
        if not isinstance(rec, dict):
            raise DatasetParseError(path, line_no, "instance line must be a JSON object")
        inst_id = _require(rec, "id", path, line_no, _text, "a printable string")
        n = _require(rec, "n", path, line_no, int, "an integer")
        edges = _require(rec, "edges", path, line_no, _int_pairs, "[parent, child] integer pairs")
        x_raw = _require(rec, "x", path, line_no, _real_rows, "a rectangular array of reals")
        try:
            x = np.asarray(x_raw, dtype=np.float64)
        except (ValueError, OverflowError):  # ragged rows, or an integer beyond float range
            raise DatasetParseError(
                path, line_no, "x must be a rectangular array of reals"
            ) from None
        if x.ndim != 2:
            raise DatasetParseError(path, line_no, "x must be a 2-D array")
        ds.instances.append(
            NewsInstance(
                id=inst_id,
                graph=PropagationGraph(n=n, x=x, edges=edges),
                label=_require(rec, "label", path, line_no, int, "an integer"),
                event=_require(rec, "event", path, line_no, _text, "a printable string"),
            )
        )
    try:
        ds.validate()
    except DatasetValidationError as e:
        raise DatasetValidationError(e.instance_id, e.message, path) from None
    return ds


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """Write ``path`` whole or not at all.

    Yields a file opened on a new temporary name in the same directory.  When
    the block ends normally the file is flushed to disk and moved over
    ``path`` with ``os.replace``, so a reader sees the old file or the
    complete new one.  When the block raises, the temporary file is removed
    and ``path`` is left as it was.  An existing ``path`` that is not a regular
    file (a device, FIFO, socket or directory) raises OSError instead of
    being replaced; a link is followed for this check.
    """
    path = os.fspath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        raise OSError(f"{path}: exists and is not a regular file")
    # the temporary name holds no part of the target's, so any name legal there fits
    tmp = os.path.join(os.path.dirname(path), f".{os.getpid()}.{os.urandom(4).hex()}.tmp")
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

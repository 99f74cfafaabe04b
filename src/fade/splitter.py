"""Dataset partitioning by whole events, plus the instance-level control.

The main splitter never lets one event span two sides of a boundary:
events are shuffled by seed, assigned whole to validation until it holds
the requested fraction of instances, and the rest are dealt greedily to
train/test chasing the requested instance ratio.  Because events are
assigned whole, achieved fractions drift from the targets when events are
large; that drift is accepted rather than splitting an event.

The instance-level variant (same ratio targets, events ignored) exists to
reproduce how badly models overfit shared-event signal when evaluation
leaks events into training.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, atomic_write, event_groups

__all__ = [
    "SplitError",
    "SplitRatios",
    "SplitManifest",
    "event_separated_split",
    "event_mixed_split",
    "save_manifest",
    "load_manifest",
]


class SplitError(Exception):
    """Dataset cannot be partitioned as requested."""


@dataclass
class SplitRatios:
    """Validation instance fraction, then train:test parts for the rest."""

    val_fraction: float = 0.1
    train_parts: float = 3.0
    test_parts: float = 1.0

    def validate(self) -> None:
        if not 0.0 <= self.val_fraction < 1.0:
            raise SplitError(f"val_fraction must be in [0, 1), got {self.val_fraction}")
        if self.train_parts <= 0 or self.test_parts <= 0:
            raise SplitError("train_parts and test_parts must be positive")

    @property
    def train_share(self) -> float:
        return self.train_parts / (self.train_parts + self.test_parts)


@dataclass
class SplitManifest:
    train_ids: list[str]
    val_ids: list[str]
    test_ids: list[str]
    train_events: set[str] = field(default_factory=set)
    val_events: set[str] = field(default_factory=set)
    test_events: set[str] = field(default_factory=set)
    seed: int = 0

    def assert_valid(self, ds: Dataset, event_separated: bool = True) -> None:
        """Coverage and disjointness; event separation when promised."""
        all_ids = [i.id for i in ds.instances]
        combined = self.train_ids + self.val_ids + self.test_ids
        if len(combined) != len(set(combined)):
            raise SplitError("manifest assigns some instance twice")
        if set(combined) != set(all_ids):
            raise SplitError("manifest does not cover the dataset exactly")
        if event_separated:
            for a, b in (
                (self.train_events, self.test_events),
                (self.train_events, self.val_events),
                (self.val_events, self.test_events),
            ):
                overlap = a & b
                if overlap:
                    raise SplitError(f"events on two sides of a boundary: {sorted(overlap)}")


def _manifest(ds: Dataset, train_ids, val_ids, test_ids, seed: int) -> SplitManifest:
    """A manifest of these ids, with each side's event set from ``ds``.

    An id that ``ds`` does not hold raises KeyError.
    """
    sides = (train_ids, val_ids, test_ids)
    events_of = {inst.id: inst.event for inst in ds.instances}
    events = [{events_of[i] for i in ids} for ids in sides]
    return SplitManifest(*sides, *events, seed=seed)


def event_separated_split(ds: Dataset, ratios: SplitRatios, seed: int) -> SplitManifest:
    """Whole-event partition into train/val/test, deterministic per seed."""
    ratios.validate()
    groups = event_groups(inst.event for inst in ds.instances)
    names = sorted(groups)
    if len(names) < 3:
        raise SplitError(f"need at least 3 distinct events, got {len(names)}")
    total = len(ds.instances)
    rng = np.random.default_rng(seed)
    order = [names[k] for k in rng.permutation(len(names))]

    val_events: list[str] = []
    taken = 0
    while order and taken < ratios.val_fraction * total and len(order) > 2:
        ev = order.pop(0)
        val_events.append(ev)
        taken += len(groups[ev])

    remaining_total = total - taken
    train_events: list[str] = []
    test_events: list[str] = []
    train_n = 0
    for ev in order:
        size = len(groups[ev])
        if train_n + size / 2.0 <= ratios.train_share * remaining_total:
            train_events.append(ev)
            train_n += size
        else:
            test_events.append(ev)
    # never leave a side empty: steal the last event of the other side
    if not test_events and train_events:
        test_events.append(train_events.pop())
    if not train_events and test_events:
        train_events.append(test_events.pop())

    def ids_of(events: list[str]) -> list[str]:
        return [ds.instances[k].id for ev in events for k in groups[ev]]

    return _manifest(ds, ids_of(train_events), ids_of(val_events), ids_of(test_events), seed)


def event_mixed_split(ds: Dataset, ratios: SplitRatios, seed: int) -> SplitManifest:
    """Instance-level partition with the same ratio targets, events ignored."""
    ratios.validate()
    if len(ds.events()) < 3:
        raise SplitError(f"need at least 3 distinct events, got {len(ds.events())}")
    ids = [i.id for i in ds.instances]
    total = len(ids)
    rng = np.random.default_rng(seed)
    shuffled = [ids[k] for k in rng.permutation(total)]

    val_n = min(math.ceil(ratios.val_fraction * total), total - 2)
    remaining = total - val_n
    train_n = int(round(ratios.train_share * remaining))
    train_n = min(max(train_n, 1), remaining - 1)
    return _manifest(ds, shuffled[val_n : val_n + train_n], shuffled[:val_n],
                     shuffled[val_n + train_n :], seed)


def save_manifest(manifest: SplitManifest, path) -> None:
    payload = {
        "seed": manifest.seed,
        "train": manifest.train_ids,
        "val": manifest.val_ids,
        "test": manifest.test_ids,
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_manifest(path, ds: Dataset) -> SplitManifest:
    """Read a manifest of ``ds``'s ids, rebuilding each side's event set from ``ds``.

    The file must hold a JSON object with lists of string ids under
    ``train``, ``val`` and ``test`` and an integer ``seed``, and list each of
    ``ds``'s ids exactly once.  Event separation is not checked: a mixed
    manifest is a legal input.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as e:  # bad JSON, or bytes that are not UTF-8
            raise SplitError(f"manifest {path}: bad JSON: {e}") from None
    if not isinstance(payload, dict):
        raise SplitError(f"manifest {path}: expected a JSON object")
    for key in ("train", "val", "test", "seed"):
        if key not in payload:
            raise SplitError(f"manifest {path}: missing field {key!r}")
    for key in ("train", "val", "test"):
        ids = payload[key]
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise SplitError(f"manifest {path}: field {key!r} must be a list of string ids")
    if not isinstance(payload["seed"], int) or isinstance(payload["seed"], bool):
        raise SplitError(f"manifest {path}: field 'seed' must be an integer")
    try:
        manifest = _manifest(ds, payload["train"], payload["val"], payload["test"], payload["seed"])
        manifest.assert_valid(ds, event_separated=False)
    except KeyError as e:
        raise SplitError(f"manifest {path}: unknown instance id {e}") from None
    except SplitError as e:
        raise SplitError(f"manifest {path}: {e}") from None
    return manifest

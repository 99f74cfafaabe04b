"""Training of the target predictor and the event-only predictor.

The target predictor (encoder + affine classifier + projection head)
minimizes cross-entropy plus an alpha-weighted contrastive term between
projections of original and augmented representations.  The event-only
predictor (independent encoder + classifier) replaces each representation
with its event's mean before classification, so it can only learn
event-driven signal.  Both use Adam and keep the best-validation-accuracy
checkpoint, through one shared training loop.
"""

from __future__ import annotations

import copy
import io
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from .autodiff import Node, TrainingError
from .augmentation import AugmentationContext, augment, compute_radius
from .data import Dataset, NewsInstance, atomic_write, event_groups
from .encoder import POOLINGS, encode_all, encode_batch_node

__all__ = [
    "TargetPredictorParams",
    "EventOnlyPredictorParams",
    "Hyperparams",
    "ArchConfig",
    "ce_loss",
    "contrastive_loss",
    "event_mean_pool",
    "target_logits",
    "event_only_logits",
    "train_target",
    "train_event_only",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass
class _Predictor:
    """A model: its checkpoint's named tensors, in `_layout` order, and its pooling."""

    tensors: dict[str, np.ndarray]
    pooling: str = "mean"

    @property
    def layers(self) -> list[np.ndarray]:
        """The encoder's weights, in order."""
        return [t for name, t in self.tensors.items() if name.startswith("encoder.layer.")]

    def classify(self, reps: np.ndarray) -> np.ndarray:
        return reps @ self.tensors["classifier.weight"] + self.tensors["classifier.bias"]


class TargetPredictorParams(_Predictor):
    """Encoder, classifier and projection head."""

    kind: ClassVar[str] = "target"


class EventOnlyPredictorParams(_Predictor):
    """Encoder and classifier."""

    kind: ClassVar[str] = "event_only"


_KINDS = {cls.kind: cls for cls in (TargetPredictorParams, EventOnlyPredictorParams)}


@dataclass
class Hyperparams:
    """Contrastive weight, augmentation candidates per sample, and the training knobs."""

    alpha: float = 0.3
    epochs: int = 25
    batch_size: int = 64
    lr: float = 1e-3
    num_candidates: int = 10

    def validate(self) -> None:
        if not np.isfinite(self.alpha) or self.alpha < 0:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not np.isfinite(self.lr) or self.lr <= 0:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.num_candidates < 1:
            raise ValueError(f"num_candidates must be >= 1, got {self.num_candidates}")


@dataclass
class ArchConfig:
    hidden_dim: int = 64
    n_layers: int = 2
    pooling: str = "mean"
    proj_dim: int = 32

    def validate(self) -> None:
        if self.hidden_dim < 1 or self.n_layers < 1 or self.proj_dim < 1:
            raise ValueError("hidden_dim, n_layers, and proj_dim must all be >= 1")
        if self.pooling not in POOLINGS:
            raise ValueError(f"pooling must be one of {POOLINGS}, got {self.pooling!r}")


def _layout(kind: str, feature_dim: int, n_classes: int, arch: ArchConfig) -> list[tuple]:
    """Every tensor of a ``kind`` model as ``(name, shape, init scale)``.

    The one statement of a model, in checkpoint and draw order: the
    He-initialized encoder layers, the classifier, then (target only) the
    projection head.  A weight is drawn N(0, scale^2); a bias, scale 0, is zeros.
    """
    arch.validate()
    if feature_dim < 1 or n_classes < 1:
        raise ValueError(f"feature_dim and n_classes must be >= 1, got {feature_dim}, {n_classes}")
    h, p = arch.hidden_dim, arch.proj_dim
    dims = [feature_dim] + [h] * arch.n_layers
    layout = [(f"encoder.layer.{i}", (d_in, d_out), np.sqrt(2.0 / d_in))
              for i, (d_in, d_out) in enumerate(zip(dims, dims[1:]))]
    layout += [("classifier.weight", (h, n_classes), np.sqrt(1.0 / h)),
               ("classifier.bias", (1, n_classes), 0.0)]
    if kind == "target":
        layout += [("projection.w1", (h, p), np.sqrt(2.0 / h)), ("projection.b1", (1, p), 0.0),
                   ("projection.w2", (p, p), np.sqrt(2.0 / p)), ("projection.b2", (1, p), 0.0)]
    return layout


def _new_model(kind: str, feature_dim: int, n_classes: int, arch: ArchConfig, rng):
    """A fresh model of ``kind``, its weights drawn from ``rng`` in `_layout` order."""
    tensors = {name: rng.normal(0.0, scale, shape) if scale else np.zeros(shape)
               for name, shape, scale in _layout(kind, feature_dim, n_classes, arch)}
    return _KINDS[kind](tensors, arch.pooling)


# ---------------------------------------------------------------------------
# losses


def ce_loss(logits: Node, labels) -> Node:
    """Batch-mean cross-entropy of softmaxed logits against integer labels."""
    b, n_classes = logits.value.shape
    labels = [int(y) for y in labels]
    if len(labels) != b:
        raise ad.ShapeError(f"ce_loss: {b} logit rows but {len(labels)} labels")
    for y in labels:
        if not 0 <= y < n_classes:
            raise ValueError(f"label {y} outside [0, {n_classes})")
    return ad.cross_entropy(logits, labels)


def contrastive_loss(p_original: Node, p_augmented: Node) -> Node:
    """Negative cosine similarity between paired projection rows, batch mean.

    Rows where either side has (near-)zero norm contribute zero loss and
    zero gradient: ``row_normalize`` zeroes them, since cosine is undefined
    there.
    """
    b = p_original.value.shape[0]
    cos = ad.hadamard(ad.row_normalize(p_original), ad.row_normalize(p_augmented))
    return ad.scale(ad.sum_all(cos), -1.0 / b)


def event_mean_pool(reps: np.ndarray, events) -> np.ndarray:
    """Replace each row by the mean over all rows sharing its event label."""
    reps = np.asarray(reps, dtype=np.float64)
    events = list(events)
    if reps.shape[0] != len(events):
        raise ad.ShapeError(f"event_mean_pool: {reps.shape[0]} rows but {len(events)} events")
    out = np.empty_like(reps)
    for idx in event_groups(events).values():
        out[idx] = reps[idx].mean(axis=0)
    return out


# ---------------------------------------------------------------------------
# forward passes


def _affine_node(x: Node, w: Node, b: Node) -> Node:
    rows = x.value.shape[0]
    return ad.add(ad.matmul(x, w), ad.matmul(ad.const(np.ones((rows, 1))), b))


def _projection_node(x: Node, p: dict[str, Node]) -> Node:
    hidden = ad.relu(_affine_node(x, p["projection.w1"], p["projection.b1"]))
    return _affine_node(hidden, p["projection.w2"], p["projection.b2"])


def target_logits(params: TargetPredictorParams, instances: list[NewsInstance]) -> np.ndarray:
    return params.classify(encode_all(params.layers, [i.graph for i in instances], params.pooling))


def event_only_logits(
    params: EventOnlyPredictorParams, instances: list[NewsInstance]
) -> np.ndarray:
    """Event-only logits with event means taken over the given instances."""
    for inst in instances:
        if not inst.event:
            raise ValueError(f"instance {inst.id!r} has no event label")
    reps = encode_all(params.layers, [i.graph for i in instances], params.pooling)
    return params.classify(event_mean_pool(reps, [i.event for i in instances]))


def _event_batches(insts: list[NewsInstance], batch_size: int, rng) -> list[list[int]]:
    """Whole events packed greedily into batches, event order shuffled.

    Each event's rows are contiguous within its batch.
    """
    groups = list(event_groups(inst.event for inst in insts).values())
    batches: list[list[int]] = []
    current: list[int] = []
    for j in rng.permutation(len(groups)):
        members = groups[j]
        if current and len(current) + len(members) > batch_size:
            batches.append(current)
            current = []
        current.extend(members)
    if current:
        batches.append(current)
    return batches


# ---------------------------------------------------------------------------
# trainers


def _setup(kind: str, ds: Dataset, train_ids, val_ids, hyper: Hyperparams, seed: int,
           arch: ArchConfig):
    """Resolved splits, the seeded generator, and a fresh model of ``kind``."""
    hyper.validate()
    by_id = ds.by_id()
    train = [by_id[i] for i in train_ids]
    val = [by_id[i] for i in val_ids]
    if not train:
        raise ValueError("train split is empty")
    rng = np.random.default_rng(seed)
    return train, val, rng, _new_model(kind, ds.feature_dim, ds.n_classes, arch, rng)


# A diverging run overflows; the finite checks below turn that into one
# TrainingError instead of a RuntimeWarning per overflowing operation.
@np.errstate(all="ignore")
def _fit(params, hyper: Hyperparams, n_train: int, val, forward, epoch_batches, batch_loss):
    """Adam over every tensor of ``params``, keeping the best-validation copy.

    Each epoch, ``epoch_batches(epoch)`` gives the batches as index lists
    into the train split, and ``batch_loss(nodes, idx, epoch)`` builds one
    batch's (total loss node, cross-entropy, contrastive term) from the
    parameter nodes.  Validation accuracy scores ``forward(params, val)``;
    a non-finite loss or validation logit raises TrainingError.
    The nodes wrap the parameter arrays themselves, so Adam's in-place
    updates are what ``params`` holds.
    """
    nodes = {name: ad.param(tensor) for name, tensor in params.tensors.items()}
    ordered = sorted(nodes)
    arrays = [nodes[n].value for n in ordered]
    state = ad.adam_init(arrays)
    val_labels = [i.label for i in val]
    log: list[dict] = []
    best = None
    best_acc = -1.0

    for epoch in range(hyper.epochs):
        ce_sum = cl_sum = total_sum = 0.0
        for batch_no, idx in enumerate(epoch_batches(epoch)):
            loss, ce_value, cl_value = batch_loss(nodes, idx, epoch)
            if not np.isfinite(loss.value[0, 0]):
                raise TrainingError(f"non-finite loss at epoch {epoch} batch {batch_no}")
            for n in ordered:
                nodes[n].grad[...] = 0.0
            ad.backward(loss)
            ad.adam_step(arrays, [nodes[n].grad for n in ordered], state, lr=hyper.lr)
            ce_sum += ce_value * len(idx)
            cl_sum += cl_value * len(idx)
            total_sum += float(loss.value[0, 0]) * len(idx)

        val_acc = 0.0
        if val:
            val_logits = forward(params, val)
            if not np.all(np.isfinite(val_logits)):
                raise TrainingError(f"non-finite validation logits at epoch {epoch}")
            val_acc = float(np.mean(np.argmax(val_logits, axis=1) == val_labels))
        log.append({
            "epoch": epoch,
            "loss_ce": ce_sum / n_train,
            "loss_cl": cl_sum / n_train,
            "loss_total": total_sum / n_train,
            "val_acc": val_acc,
        })
        if val and val_acc > best_acc:
            best_acc = val_acc
            best = copy.deepcopy(params)

    return (best if best is not None else params), log


def train_target(
    ds: Dataset,
    train_ids,
    val_ids,
    hyper: Hyperparams,
    seed: int,
    arch: ArchConfig | None = None,
) -> tuple[TargetPredictorParams, list[dict]]:
    """Train the target predictor on an event-separated train split.

    Returns the best-validation-accuracy checkpoint and a per-epoch log of
    {epoch, loss_ce, loss_cl, loss_total, val_acc}.  With alpha == 0 the
    augmentation/contrastive branch is skipped entirely and this is plain
    cross-entropy training.  The augmentation radius is recomputed from the
    whole train split at the start of every epoch.
    """
    arch = arch or ArchConfig()
    train, val, rng, params = _setup("target", ds, train_ids, val_ids, hyper, seed, arch)
    graphs = [inst.graph for inst in train]
    ctx = AugmentationContext(radius=0.0, num_candidates=hyper.num_candidates, rng_seed=seed)

    def epoch_batches(epoch):
        if hyper.alpha > 0:
            radius = compute_radius(encode_all(params.layers, graphs, arch.pooling))
            if not np.isfinite(radius):
                raise TrainingError(f"non-finite augmentation radius at epoch {epoch}")
            ctx.radius = radius
        order = rng.permutation(len(train))
        return [order[s : s + hyper.batch_size] for s in range(0, len(train), hyper.batch_size)]

    def batch_loss(nodes, idx, epoch):
        enc_nodes = [nodes[f"encoder.layer.{i}"] for i in range(arch.n_layers)]
        r_original = encode_batch_node(enc_nodes, [graphs[i] for i in idx], arch.pooling)
        logits = _affine_node(r_original, nodes["classifier.weight"], nodes["classifier.bias"])
        loss_ce = ce_loss(logits, [train[i].label for i in idx])
        if hyper.alpha == 0:
            return loss_ce, float(loss_ce.value[0, 0]), 0.0
        augmented = np.vstack([augment(r, ctx, params.classify, train[i].label,
                                       sample_id=train[i].id, epoch=epoch)
                               for r, i in zip(r_original.value, idx)])
        r_augmented = ad.add(r_original, ad.const(augmented - r_original.value))
        loss_cl = contrastive_loss(_projection_node(r_original, nodes),
                                   _projection_node(r_augmented, nodes))
        loss = ad.add(loss_ce, ad.scale(loss_cl, hyper.alpha))
        return loss, float(loss_ce.value[0, 0]), float(loss_cl.value[0, 0])

    return _fit(params, hyper, len(train), val, target_logits, epoch_batches, batch_loss)


def train_event_only(
    ds: Dataset,
    train_ids,
    val_ids,
    hyper: Hyperparams,
    seed: int,
    arch: ArchConfig | None = None,
) -> tuple[EventOnlyPredictorParams, list[dict]]:
    """Train the event-only predictor: event-mean pooled representations.

    Batches keep whole events together so within-batch event means are
    meaningful.  Log rows match train_target's schema with loss_cl == 0.
    """
    arch = arch or ArchConfig()
    train, val, rng, params = _setup("event_only", ds, train_ids, val_ids, hyper, seed, arch)

    def batch_loss(nodes, idx, epoch):
        insts = [train[i] for i in idx]
        enc_nodes = [nodes[f"encoder.layer.{i}"] for i in range(arch.n_layers)]
        reps = encode_batch_node(enc_nodes, [i.graph for i in insts], arch.pooling)
        # A batch's events are contiguous segments; expand maps each instance
        # back to its event's row.
        sizes = [len(members) for members in event_groups(i.event for i in insts).values()]
        means = ad.segment_pool(reps, sizes)
        event_logits = _affine_node(means, nodes["classifier.weight"], nodes["classifier.bias"])
        expand = np.repeat(np.eye(len(sizes)), sizes, axis=0)
        loss = ce_loss(ad.matmul(ad.const(expand), event_logits), [i.label for i in insts])
        return loss, float(loss.value[0, 0]), 0.0

    return _fit(params, hyper, len(train), val, event_only_logits,
                lambda epoch: _event_batches(train, hyper.batch_size, rng), batch_loss)


# ---------------------------------------------------------------------------
# checkpoints


class CheckpointError(Exception):
    """Unreadable, corrupt, or wrong-version checkpoint file."""


def save_checkpoint(params, path) -> None:
    """Uncompressed ``.npz`` archive: 0-d strings ``kind`` and ``pooling``, then
    every named tensor as float64.  The zip container keeps a CRC-32 per member."""
    with atomic_write(path, binary=True) as fh:
        tensors = {n: np.asarray(t, dtype=np.float64) for n, t in params.tensors.items()}
        np.savez(fh, kind=params.kind, pooling=params.pooling, **tensors)


def load_checkpoint(path):
    """Read a checkpoint back into the parameter class its ``kind`` names.

    The file's tensors are checked against the `_layout` of the model its
    own shapes declare, and returned; no model is drawn.  Anything wrong with
    the file's contents raises CheckpointError naming the file; every member
    is read whole, so a flipped bit fails its CRC-32.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob.startswith(b"FADE"):
        raise CheckpointError(f"checkpoint {path}: format v1 is no longer read; retrain")
    try:
        with np.load(io.BytesIO(blob), allow_pickle=False) as npz:
            bad = npz.zip.testzip()
            if bad is not None:
                raise ValueError(f"bad CRC-32 for member {bad}")
            t = {name: npz[name] for name in npz.files}
    except Exception as e:  # the bytes are in memory, so any failure is a corrupt file
        raise CheckpointError(f"corrupt checkpoint {path}: {e}") from None
    kind, pooling = str(t.pop("kind", None)), str(t.pop("pooling", None))
    if kind not in _KINDS:
        raise CheckpointError(f"corrupt checkpoint {path}: unknown kind {kind!r}")
    for name, tensor in t.items():
        if not (isinstance(tensor, np.ndarray) and tensor.ndim == 2 and tensor.dtype == np.float64):
            raise CheckpointError(f"corrupt checkpoint {path}: {name} is not a 2-D float64 array")
        if not np.isfinite(tensor).all():
            raise CheckpointError(f"corrupt checkpoint {path}: {name} holds a non-finite value")
    # The file must hold exactly the tensors of a model of its own dimensions.
    # A dimension whose tensor is missing reads 1; the comparison reports the tensor.
    shape = {name: tensor.shape for name, tensor in t.items()}
    f, h = shape.get("encoder.layer.0", (1, 1))
    n_layers = max(1, sum(name.startswith("encoder.layer.") for name in t))
    c, p = shape.get("classifier.weight", (1, 1))[1], shape.get("projection.w1", (1, 1))[1]
    try:
        layout = _layout(kind, f, c, ArchConfig(h, n_layers, pooling, p))
    except ValueError as e:  # a bad pooling name or a zero dimension
        raise CheckpointError(f"corrupt checkpoint {path}: {e}") from None
    extra = sorted(set(t) - {name for name, _, _ in layout})
    if extra:
        raise CheckpointError(f"corrupt checkpoint {path}: unexpected tensors {extra}")
    for name, expected, _ in layout:
        if name not in t:
            raise CheckpointError(f"corrupt checkpoint {path}: missing tensor {name!r}")
        if shape[name] != expected:
            raise CheckpointError(f"corrupt checkpoint {path}: {name} has shape "
                                  f"{shape[name]}, expected {expected}")
    # An .npz member may be stored in Fortran order; the model holds C order.
    return _KINDS[kind]({name: np.ascontiguousarray(t[name]) for name, _, _ in layout}, pooling)

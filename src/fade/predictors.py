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
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node, TrainingError
from .augmentation import AugmentationContext, augment, compute_radius
from .data import Dataset, NewsInstance, atomic_write
from .encoder import EncoderParams, encode_all, encode_batch_node, init_encoder

__all__ = [
    "AffineParams",
    "ProjectionParams",
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
class AffineParams:
    """Single affine layer: x @ w + b."""

    w: np.ndarray
    b: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x @ self.w + self.b


@dataclass
class ProjectionParams:
    """Two-layer MLP with a relu between."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class TargetPredictorParams:
    encoder: EncoderParams
    classifier: AffineParams
    projection: ProjectionParams

    def named_tensors(self) -> dict[str, np.ndarray]:
        out = _base_tensors(self.encoder, self.classifier)
        out["projection.w1"] = self.projection.w1
        out["projection.b1"] = self.projection.b1
        out["projection.w2"] = self.projection.w2
        out["projection.b2"] = self.projection.b2
        return out


@dataclass
class EventOnlyPredictorParams:
    encoder: EncoderParams
    classifier: AffineParams

    def named_tensors(self) -> dict[str, np.ndarray]:
        return _base_tensors(self.encoder, self.classifier)


@dataclass
class Hyperparams:
    """Trade-off weight for the contrastive term plus the training knobs."""

    alpha: float = 0.3
    epochs: int = 25
    batch_size: int = 64
    lr: float = 1e-3

    def validate(self) -> None:
        if not np.isfinite(self.alpha) or self.alpha < 0:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not np.isfinite(self.lr) or self.lr <= 0:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")


@dataclass
class ArchConfig:
    hidden_dim: int = 64
    n_layers: int = 2
    pooling: str = "mean"
    proj_dim: int = 32


def _base_tensors(enc: EncoderParams, clf: AffineParams) -> dict[str, np.ndarray]:
    """Encoder and classifier tensors, in checkpoint order."""
    out = {"encoder.pooling_mode": np.array([[0.0 if enc.pooling == "mean" else 1.0]])}
    for i, layer in enumerate(enc.layers):
        out[f"encoder.layer.{i}"] = layer
    out["classifier.weight"] = clf.w
    out["classifier.bias"] = clf.b
    return out


# ---------------------------------------------------------------------------
# losses


def ce_loss(logits: Node, labels) -> Node:
    """Batch-mean cross-entropy of softmaxed logits against integer labels.

    Stabilized by subtracting the (detached) per-row max before exponentiating.
    """
    b, n_classes = logits.value.shape
    labels = [int(y) for y in labels]
    if len(labels) != b:
        raise ad.ShapeError(f"ce_loss: {b} logit rows but {len(labels)} labels")
    if b == 0:
        raise ad.ShapeError("ce_loss: empty batch")
    onehot = np.zeros((b, n_classes))
    for i, y in enumerate(labels):
        if not 0 <= y < n_classes:
            raise ValueError(f"label {y} outside [0, {n_classes})")
        onehot[i, y] = 1.0
    row_max = logits.value.max(axis=1, keepdims=True)
    shifted = ad.sub(logits, ad.const(np.repeat(row_max, n_classes, axis=1)))
    lse = ad.log(ad.rowsum(ad.exp(shifted)))
    picked = ad.rowsum(ad.hadamard(shifted, ad.const(onehot)))
    return ad.scale(ad.sum_all(ad.sub(lse, picked)), 1.0 / b)


def contrastive_loss(p_original: Node, p_augmented: Node) -> Node:
    """Negative cosine similarity between paired projection rows, batch mean.

    Rows where either side has (near-)zero norm are masked out: cosine is
    undefined there, so they contribute zero loss and zero gradient instead
    of a 1/norm blow-up.
    """
    if p_original.value.shape != p_augmented.value.shape:
        raise ad.ShapeError(
            f"contrastive_loss: shapes differ, {p_original.value.shape} vs "
            f"{p_augmented.value.shape}"
        )
    b = p_original.value.shape[0]
    tiny = ad.const(np.full((b, 1), 1e-300))  # keeps log defined at exactly zero
    dot = ad.rowsum(ad.hadamard(p_original, p_augmented))
    sq_o = ad.rowsum(ad.hadamard(p_original, p_original))
    sq_a = ad.rowsum(ad.hadamard(p_augmented, p_augmented))
    alive = ((sq_o.value > 1e-24) & (sq_a.value > 1e-24)).astype(np.float64)
    norm_o = ad.sqrt_pos(ad.add(sq_o, tiny))
    norm_a = ad.sqrt_pos(ad.add(sq_a, tiny))
    cos = ad.hadamard(dot, ad.reciprocal(ad.hadamard(norm_o, norm_a)))
    return ad.scale(ad.mean_all(ad.hadamard(cos, ad.const(alive))), -1.0)


def event_mean_pool(reps: np.ndarray, events) -> np.ndarray:
    """Replace each row by the mean over all rows sharing its event label."""
    reps = np.asarray(reps, dtype=np.float64)
    events = list(events)
    if reps.shape[0] != len(events):
        raise ad.ShapeError(f"event_mean_pool: {reps.shape[0]} rows but {len(events)} events")
    out = np.empty_like(reps)
    groups: dict[str, list[int]] = {}
    for i, e in enumerate(events):
        groups.setdefault(e, []).append(i)
    for idx in groups.values():
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
    reps = encode_all(params.encoder, [i.graph for i in instances])
    return params.classifier.apply(reps)


def event_only_logits(
    params: EventOnlyPredictorParams, instances: list[NewsInstance]
) -> np.ndarray:
    """Event-only logits with event means taken over the given instances."""
    for inst in instances:
        if not inst.event:
            raise ValueError(f"instance {inst.id!r} has no event label")
    reps = encode_all(params.encoder, [i.graph for i in instances])
    pooled = event_mean_pool(reps, [i.event for i in instances])
    return params.classifier.apply(pooled)


def _event_batches(insts: list[NewsInstance], batch_size: int, rng) -> list[list[int]]:
    """Whole events packed greedily into batches, event order shuffled."""
    groups: dict[str, list[int]] = {}
    for i, inst in enumerate(insts):
        groups.setdefault(inst.event, []).append(i)
    names = list(groups)
    order = rng.permutation(len(names))
    batches: list[list[int]] = []
    current: list[int] = []
    for j in order:
        members = groups[names[j]]
        if current and len(current) + len(members) > batch_size:
            batches.append(current)
            current = []
        current.extend(members)
    if current:
        batches.append(current)
    return batches


# ---------------------------------------------------------------------------
# trainers


def _setup(ds: Dataset, train_ids, val_ids, hyper: Hyperparams, seed: int, arch: ArchConfig):
    """Resolved splits, the seeded generator, and a fresh encoder and classifier."""
    hyper.validate()
    by_id = ds.by_id()
    train = [by_id[i] for i in train_ids]
    val = [by_id[i] for i in val_ids]
    if not train:
        raise ValueError("train split is empty")
    rng = np.random.default_rng(seed)
    encoder = init_encoder(ds.feature_dim, arch.hidden_dim, arch.n_layers, rng, arch.pooling)
    classifier = AffineParams(
        w=rng.normal(0.0, np.sqrt(1.0 / arch.hidden_dim), (arch.hidden_dim, ds.n_classes)),
        b=np.zeros((1, ds.n_classes)),
    )
    return train, val, rng, encoder, classifier


def _fit(params, hyper: Hyperparams, n_train: int, val, forward, epoch_batches, batch_loss):
    """Adam over every tensor of ``params``, keeping the best-validation copy.

    Each epoch, ``epoch_batches(epoch)`` gives the batches as index lists
    into the train split, and ``batch_loss(nodes, idx, epoch)`` builds one
    batch's (total loss node, cross-entropy, contrastive term) from the
    parameter nodes.  Validation accuracy scores ``forward(params, val)``.
    The nodes wrap the parameter arrays themselves, so Adam's in-place
    updates are what ``params`` holds.
    """
    nodes = {name: ad.param(tensor) for name, tensor in params.named_tensors().items()
             if name != "encoder.pooling_mode"}
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
            preds = np.argmax(forward(params, val), axis=1)
            val_acc = float(np.mean(preds == val_labels))
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
    num_candidates: int = 10,
) -> tuple[TargetPredictorParams, list[dict]]:
    """Train the target predictor on an event-separated train split.

    Returns the best-validation-accuracy checkpoint and a per-epoch log of
    {epoch, loss_ce, loss_cl, loss_total, val_acc}.  With alpha == 0 the
    augmentation/contrastive branch is skipped entirely and this is plain
    cross-entropy training.  The augmentation radius is recomputed from the
    whole train split at the start of every epoch.
    """
    arch = arch or ArchConfig()
    train, val, rng, encoder, classifier = _setup(ds, train_ids, val_ids, hyper, seed, arch)
    params = TargetPredictorParams(
        encoder=encoder,
        classifier=classifier,
        projection=ProjectionParams(
            w1=rng.normal(0.0, np.sqrt(2.0 / arch.hidden_dim), (arch.hidden_dim, arch.proj_dim)),
            b1=np.zeros((1, arch.proj_dim)),
            w2=rng.normal(0.0, np.sqrt(2.0 / arch.proj_dim), (arch.proj_dim, arch.proj_dim)),
            b2=np.zeros((1, arch.proj_dim)),
        ),
    )
    graphs = [inst.graph for inst in train]
    ctx = AugmentationContext(radius=0.0, num_candidates=num_candidates, rng_seed=seed)

    def epoch_batches(epoch):
        if hyper.alpha > 0:
            ctx.radius = compute_radius(encode_all(params.encoder, graphs))
        order = rng.permutation(len(train))
        return [order[s : s + hyper.batch_size] for s in range(0, len(train), hyper.batch_size)]

    def batch_loss(nodes, idx, epoch):
        enc_nodes = [nodes[f"encoder.layer.{i}"] for i in range(arch.n_layers)]
        r_original = encode_batch_node(enc_nodes, [graphs[i] for i in idx], arch.pooling)
        logits = _affine_node(r_original, nodes["classifier.weight"], nodes["classifier.bias"])
        loss_ce = ce_loss(logits, [train[i].label for i in idx])
        if hyper.alpha == 0:
            return loss_ce, float(loss_ce.value[0, 0]), 0.0
        offsets = np.zeros_like(r_original.value)
        for row, i in enumerate(idx):
            aug = augment(r_original.value[row], ctx, params.classifier.apply, train[i].label,
                          sample_id=train[i].id, epoch=epoch)
            offsets[row] = aug - r_original.value[row]
        r_augmented = ad.add(r_original, ad.const(offsets))
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
    train, val, rng, encoder, classifier = _setup(ds, train_ids, val_ids, hyper, seed, arch)
    params = EventOnlyPredictorParams(encoder=encoder, classifier=classifier)

    def batch_loss(nodes, idx, epoch):
        insts = [train[i] for i in idx]
        enc_nodes = [nodes[f"encoder.layer.{i}"] for i in range(arch.n_layers)]
        reps = encode_batch_node(enc_nodes, [i.graph for i in insts], arch.pooling)
        # expand maps each instance to its event's column; group averages
        # each event's rows.
        events = [i.event for i in insts]
        names = list(dict.fromkeys(events))
        expand = np.eye(len(names))[[names.index(e) for e in events]]
        group = expand.T / expand.sum(axis=0)[:, None]
        means = ad.matmul(ad.const(group), reps)
        event_logits = _affine_node(means, nodes["classifier.weight"], nodes["classifier.bias"])
        loss = ce_loss(ad.matmul(ad.const(expand), event_logits), [i.label for i in insts])
        return loss, float(loss.value[0, 0]), 0.0

    return _fit(params, hyper, len(train), val, event_only_logits,
                lambda epoch: _event_batches(train, hyper.batch_size, rng), batch_loss)


# ---------------------------------------------------------------------------
# checkpoints

MAGIC = b"FADE"
FORMAT_VERSION = 1


class CheckpointError(Exception):
    """Unreadable, corrupt, or wrong-version checkpoint file."""


def save_checkpoint(params, path) -> None:
    """Binary checkpoint: magic, version, then length-prefixed named tensors."""
    tensors = params.named_tensors()
    with atomic_write(path, binary=True) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        for name, tensor in tensors.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<Q", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<QQ", tensor.shape[0], tensor.shape[1]))
            fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint back into target or event-only parameter objects.

    Every length field is checked against the bytes left in the file before
    it is used, so a corrupt file raises CheckpointError naming the file.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if n > len(blob) - pos:
            raise CheckpointError(f"corrupt checkpoint {path}: truncated while reading {what}")
        pos += n
        return blob[pos - n : pos]

    if take(4, "magic") != MAGIC:
        raise CheckpointError(f"corrupt checkpoint {path}: bad magic bytes")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path}: format version {version} unsupported (expected {FORMAT_VERSION})"
        )
    tensors: dict[str, np.ndarray] = {}
    while pos < len(blob):
        (name_len,) = struct.unpack("<Q", take(8, "name length"))
        try:
            name = take(name_len, "tensor name").decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"corrupt checkpoint {path}: tensor name is not UTF-8") from None
        rows, cols = struct.unpack("<QQ", take(16, f"shape of {name}"))
        raw = take(rows * cols * 8, f"data of {name}")
        try:
            tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()
        except ValueError:
            raise CheckpointError(f"corrupt checkpoint {path}: bad shape of {name}") from None

    try:
        pooling_mode = tensors.pop("encoder.pooling_mode")
        pooling = "mean" if pooling_mode[0, 0] == 0.0 else "add"
        layer_names = sorted(
            (n for n in tensors if n.startswith("encoder.layer.")),
            key=lambda n: int(n.rsplit(".", 1)[1]),
        )
        encoder = EncoderParams(layers=[tensors[n] for n in layer_names], pooling=pooling)
        classifier = AffineParams(w=tensors["classifier.weight"], b=tensors["classifier.bias"])
        if "projection.w1" in tensors:
            return TargetPredictorParams(
                encoder=encoder,
                classifier=classifier,
                projection=ProjectionParams(
                    w1=tensors["projection.w1"],
                    b1=tensors["projection.b1"],
                    w2=tensors["projection.w2"],
                    b2=tensors["projection.b2"],
                ),
            )
        return EventOnlyPredictorParams(encoder=encoder, classifier=classifier)
    except KeyError as e:
        raise CheckpointError(f"corrupt checkpoint {path}: missing tensor {e}") from None
    except (IndexError, ValueError) as e:  # an empty pooling flag, a non-numeric layer index
        raise CheckpointError(f"corrupt checkpoint {path}: {e}") from None

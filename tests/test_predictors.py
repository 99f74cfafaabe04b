import numpy as np
import pytest

from fade import autodiff as ad
from fade.autodiff import TrainingError
from fade.data import Dataset, NewsInstance, PropagationGraph
from fade.predictors import (
    ArchConfig,
    CheckpointError,
    EventOnlyPredictorParams,
    Hyperparams,
    TargetPredictorParams,
    ce_loss,
    contrastive_loss,
    event_mean_pool,
    load_checkpoint,
    save_checkpoint,
    train_event_only,
    train_target,
)
from fade.encoder import encode_all


def make_dataset(n=24, n_events=4, n_classes=2, dim=6, seed=0, separation=2.0):
    """Linearly separable toy set: class c features centred at c*separation."""
    rng = np.random.default_rng(seed)
    insts = []
    for i in range(n):
        label = i % n_classes
        nodes = int(rng.integers(2, 5))
        x = rng.normal(size=(nodes, dim)) + label * separation
        edges = [[0, j] for j in range(1, nodes)]
        insts.append(
            NewsInstance(
                id=f"news-{i}",
                graph=PropagationGraph(n=nodes, x=x, edges=edges),
                label=label,
                event=f"event-{i % n_events}",
            )
        )
    ds = Dataset(
        class_names=[f"c{k}" for k in range(n_classes)],
        feature_dim=dim,
        instances=insts,
    )
    ds.validate()
    return ds


SMALL = ArchConfig(hidden_dim=8, n_layers=2, pooling="mean", proj_dim=4)


# ---------------------------------------------------------------------------
# cross-entropy


def test_ce_uniform_logits_is_log_nclasses():
    logits = ad.const(np.zeros((3, 2)))
    loss = ce_loss(logits, [0, 1, 0])
    assert abs(loss.value[0, 0] - np.log(2.0)) < 1e-12


def test_ce_saturated_is_near_zero():
    logits = ad.const(np.array([[50.0, 0.0], [0.0, 50.0]]))
    loss = ce_loss(logits, [0, 1])
    assert 0.0 <= loss.value[0, 0] < 1e-6


def test_ce_matches_independent_log_softmax():
    rng = np.random.default_rng(7)
    z = rng.normal(scale=5.0, size=(10, 4))
    labels = rng.integers(0, 4, size=10)
    loss = ce_loss(ad.const(z), labels)
    # independent evaluation via pairwise logaddexp reduction
    lse = np.logaddexp.reduce(z, axis=1)
    expected = np.mean(lse - z[np.arange(10), labels])
    assert abs(loss.value[0, 0] - expected) < 1e-9


def test_ce_is_shift_invariant():
    rng = np.random.default_rng(8)
    z = rng.normal(size=(5, 3))
    labels = [0, 2, 1, 1, 0]
    a = ce_loss(ad.const(z), labels).value[0, 0]
    b = ce_loss(ad.const(z + 1000.0), labels).value[0, 0]
    assert abs(a - b) < 1e-9


def test_ce_huge_logits_stay_finite():
    z = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
    loss = ce_loss(ad.const(z), [0, 1])
    assert np.isfinite(loss.value[0, 0])


def test_ce_gradient_matches_softmax_minus_onehot():
    rng = np.random.default_rng(9)
    z = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, size=6)
    node = ad.param(z.copy())
    ad.backward(ce_loss(node, labels))
    p = np.exp(z - np.logaddexp.reduce(z, axis=1, keepdims=True))
    onehot = np.eye(3)[labels]
    assert np.max(np.abs(node.grad - (p - onehot) / 6)) < 1e-9


def test_ce_label_count_mismatch():
    with pytest.raises(ad.ShapeError):
        ce_loss(ad.const(np.zeros((3, 2))), [0, 1])


def test_ce_label_out_of_range():
    with pytest.raises(ValueError):
        ce_loss(ad.const(np.zeros((2, 2))), [0, 2])


# ---------------------------------------------------------------------------
# contrastive


def test_contrastive_identical_rows_gives_minus_one():
    x = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]])
    loss = contrastive_loss(ad.const(x), ad.const(x.copy()))
    assert abs(loss.value[0, 0] - (-1.0)) < 1e-9


def test_contrastive_opposite_rows_gives_plus_one():
    x = np.array([[1.0, 2.0], [3.0, -1.0]])
    loss = contrastive_loss(ad.const(x), ad.const(-x))
    assert abs(loss.value[0, 0] - 1.0) < 1e-9


def test_contrastive_orthogonal_rows_gives_zero():
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    b = np.array([[0.0, 5.0], [3.0, 0.0]])
    loss = contrastive_loss(ad.const(a), ad.const(b))
    assert abs(loss.value[0, 0]) < 1e-9


def test_contrastive_scale_invariant():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
    l1 = contrastive_loss(ad.const(a), ad.const(b)).value[0, 0]
    l2 = contrastive_loss(ad.const(a * 100.0), ad.const(b * 0.01)).value[0, 0]
    assert abs(l1 - l2) < 1e-9


def test_contrastive_zero_row_is_finite_with_zero_gradient():
    a = ad.param(np.array([[0.0, 0.0]]))
    b = ad.const(np.array([[1.0, 1.0]]))
    loss = contrastive_loss(a, b)
    assert np.isfinite(loss.value[0, 0])
    assert abs(loss.value[0, 0]) < 1e-6
    ad.backward(loss)
    assert np.all(np.isfinite(a.grad))
    assert np.max(np.abs(a.grad)) < 1e-6


def test_contrastive_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(3, 4))

    def value(a):
        return contrastive_loss(ad.const(a), ad.const(b0)).value[0, 0]

    node = ad.param(a0.copy())
    ad.backward(contrastive_loss(node, ad.const(b0)))
    eps = 1e-6
    for i in range(3):
        for j in range(4):
            up, down = a0.copy(), a0.copy()
            up[i, j] += eps
            down[i, j] -= eps
            fd = (value(up) - value(down)) / (2 * eps)
            assert abs(node.grad[i, j] - fd) < 1e-6


def test_contrastive_shape_mismatch():
    with pytest.raises(ad.ShapeError):
        contrastive_loss(ad.const(np.zeros((2, 3))), ad.const(np.zeros((3, 3))))


# ---------------------------------------------------------------------------
# event-mean pooling


def test_event_mean_pool_hand_case():
    reps = np.array([[1.0, 0.0], [3.0, 2.0], [10.0, 10.0]])
    out = event_mean_pool(reps, ["a", "a", "b"])
    assert np.allclose(out[0], [2.0, 1.0])
    assert np.allclose(out[1], [2.0, 1.0])
    assert np.allclose(out[2], [10.0, 10.0])


def test_event_mean_pool_singletons_identity():
    reps = np.random.default_rng(0).normal(size=(5, 3))
    out = event_mean_pool(reps, list("abcde"))
    assert np.array_equal(out, reps)


def test_event_mean_pool_matches_brute_force():
    rng = np.random.default_rng(5)
    reps = rng.normal(size=(40, 7))
    events = [f"e{int(k)}" for k in rng.integers(0, 6, size=40)]
    out = event_mean_pool(reps, events)
    for i in range(40):
        members = [j for j in range(40) if events[j] == events[i]]
        assert np.max(np.abs(out[i] - reps[members].mean(axis=0))) < 1e-12


def test_event_mean_pool_idempotent():
    rng = np.random.default_rng(6)
    reps = rng.normal(size=(12, 4))
    events = [f"e{i % 3}" for i in range(12)]
    once = event_mean_pool(reps, events)
    assert np.max(np.abs(event_mean_pool(once, events) - once)) < 1e-12


def test_event_mean_pool_length_mismatch():
    with pytest.raises(ad.ShapeError):
        event_mean_pool(np.zeros((3, 2)), ["a", "b"])


# ---------------------------------------------------------------------------
# target trainer


def split_ids(ds, n_train_events):
    events = ds.events()
    train_ev = set(events[:n_train_events])
    train = [i.id for i in ds.instances if i.event in train_ev]
    val = [i.id for i in ds.instances if i.event not in train_ev]
    return train, val


def test_train_target_loss_decreases():
    ds = make_dataset(seed=1)
    train, val = split_ids(ds, 3)
    params, log = train_target(
        ds, train, val, Hyperparams(alpha=0.3, epochs=8, batch_size=8), seed=2, arch=SMALL
    )
    assert log[-1]["loss_total"] < log[0]["loss_total"]


def test_train_target_log_schema():
    ds = make_dataset(seed=1)
    train, val = split_ids(ds, 3)
    _, log = train_target(
        ds, train, val, Hyperparams(alpha=0.3, epochs=2, batch_size=8), seed=2, arch=SMALL
    )
    assert len(log) == 2
    for row in log:
        assert set(row) == {"epoch", "loss_ce", "loss_cl", "loss_total", "val_acc"}
    assert [row["epoch"] for row in log] == [0, 1]


def test_train_target_same_seed_identical():
    ds = make_dataset(seed=4)
    train, val = split_ids(ds, 3)
    hp = Hyperparams(alpha=0.3, epochs=3, batch_size=8)
    p1, log1 = train_target(ds, train, val, hp, seed=9, arch=SMALL)
    p2, log2 = train_target(ds, train, val, hp, seed=9, arch=SMALL)
    assert log1 == log2
    for a, b in zip(p1.named_tensors().values(), p2.named_tensors().values()):
        assert np.array_equal(a, b)


def test_train_target_different_seeds_differ():
    ds = make_dataset(seed=4)
    train, val = split_ids(ds, 3)
    hp = Hyperparams(alpha=0.3, epochs=2, batch_size=8)
    p1, _ = train_target(ds, train, val, hp, seed=1, arch=SMALL)
    p2, _ = train_target(ds, train, val, hp, seed=2, arch=SMALL)
    assert not np.array_equal(p1.classifier.w, p2.classifier.w)


def test_train_target_alpha_zero_is_plain_ce():
    ds = make_dataset(seed=5)
    train, val = split_ids(ds, 3)
    _, log = train_target(
        ds, train, val, Hyperparams(alpha=0.0, epochs=3, batch_size=8), seed=2, arch=SMALL
    )
    for row in log:
        assert row["loss_cl"] == 0.0
        assert row["loss_total"] == row["loss_ce"]


def test_train_target_total_is_ce_plus_alpha_cl():
    ds = make_dataset(seed=5)
    train, val = split_ids(ds, 3)
    alpha = 0.7
    _, log = train_target(
        ds, train, val, Hyperparams(alpha=alpha, epochs=2, batch_size=8), seed=2, arch=SMALL
    )
    for row in log:
        assert abs(row["loss_total"] - (row["loss_ce"] + alpha * row["loss_cl"])) < 1e-9


def skewed_event_dataset(seed, n_events=6, per_event=8, dim=6):
    """Each event has its own feature centre and a 3:1 label skew toward event % 2."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=2.0, size=(n_events, dim))
    insts = []
    for e in range(n_events):
        for k in range(per_event):
            label = e % 2 if k < per_event * 3 // 4 else 1 - e % 2
            nodes = int(rng.integers(2, 5))
            insts.append(
                NewsInstance(
                    id=f"n{e}-{k}",
                    graph=PropagationGraph(
                        n=nodes,
                        x=rng.normal(size=(nodes, dim)) + centers[e] + label,
                        edges=[[0, j] for j in range(1, nodes)],
                    ),
                    label=label,
                    event=f"event-{e}",
                )
            )
    ds = Dataset(class_names=["c0", "c1"], feature_dim=dim, instances=insts)
    ds.validate()
    return ds


def check_returns_best_validation_params(trainer, forward):
    # On this data and seed both trainers peak on validation before the last
    # epoch, so returning the last weights instead of the best copy shows.
    ds = skewed_event_dataset(seed=0)
    train, val = split_ids(ds, 4)
    hp = Hyperparams(alpha=0.3, epochs=6, batch_size=8, lr=3e-2)
    params, log = trainer(ds, train, val, hp, seed=3, arch=SMALL)
    accs = [row["val_acc"] for row in log]
    assert max(accs) > accs[-1]
    val_insts = [ds.by_id()[i] for i in val]
    reps = encode_all(params.encoder, [i.graph for i in val_insts])
    preds = np.argmax(forward(params, reps, [i.event for i in val_insts]), axis=1)
    acc = float(np.mean(preds == [i.label for i in val_insts]))
    assert abs(acc - max(accs)) < 1e-12


def test_train_target_returns_best_validation_params():
    check_returns_best_validation_params(
        train_target, lambda params, reps, events: params.classifier.apply(reps)
    )


def test_train_event_only_returns_best_validation_params():
    check_returns_best_validation_params(
        train_event_only,
        lambda params, reps, events: params.classifier.apply(event_mean_pool(reps, events)),
    )


def test_train_target_learns_separable_data():
    ds = make_dataset(n=32, seed=7, separation=3.0)
    train, val = split_ids(ds, 3)
    params, log = train_target(
        ds, train, val, Hyperparams(alpha=0.3, epochs=15, batch_size=8), seed=0, arch=SMALL
    )
    assert max(row["val_acc"] for row in log) >= 0.9


def test_train_target_empty_train_rejected():
    ds = make_dataset(seed=1)
    with pytest.raises(ValueError):
        train_target(ds, [], [ds.instances[0].id], Hyperparams(epochs=1), seed=0, arch=SMALL)


def test_train_target_rejects_negative_alpha():
    ds = make_dataset(seed=1)
    train, val = split_ids(ds, 3)
    with pytest.raises(ValueError):
        train_target(ds, train, val, Hyperparams(alpha=-0.1, epochs=1), seed=0, arch=SMALL)


def test_train_target_nonfinite_features_raise_training_error():
    ds = make_dataset(seed=1)
    ds.instances[0].graph.x[0, 0] = np.nan  # deliberately skip re-validation
    train, val = split_ids(ds, 4)
    hp = Hyperparams(alpha=0.0, epochs=1, batch_size=32)
    with pytest.raises(TrainingError, match="non-finite"):
        train_target(ds, train, val, hp, seed=0, arch=SMALL)


# ---------------------------------------------------------------------------
# full-objective gradient check


def test_target_objective_gradient_matches_finite_differences():
    """Perturb every weight of a tiny model; augmentation offsets held fixed."""
    ds = make_dataset(n=6, n_events=2, dim=3, seed=12)
    insts = ds.instances
    graphs = [i.graph for i in insts]
    labels = [i.label for i in insts]
    rng = np.random.default_rng(13)
    shapes = {
        "enc0": (3, 4),
        "enc1": (4, 4),
        "cw": (4, 2),
        "cb": (1, 2),
        "pw1": (4, 3),
        "pb1": (1, 3),
        "pw2": (3, 3),
        "pb2": (1, 3),
    }
    base = {k: rng.normal(size=s) for k, s in shapes.items()}
    offsets = rng.normal(scale=0.1, size=(6, 4))
    alpha = 0.3

    def objective(tensors, want_grads=False):
        from fade.encoder import encode_batch_node
        from fade.predictors import _affine_node

        nodes = {k: ad.param(tensors[k].copy()) for k in shapes}
        rep = encode_batch_node([nodes["enc0"], nodes["enc1"]], graphs, "mean")
        logits = _affine_node(rep, nodes["cw"], nodes["cb"])
        rep_aug = ad.add(rep, ad.const(offsets))

        def project(x):
            hidden = ad.relu(_affine_node(x, nodes["pw1"], nodes["pb1"]))
            return _affine_node(hidden, nodes["pw2"], nodes["pb2"])

        loss = ad.add(ce_loss(logits, labels), ad.scale(contrastive_loss(project(rep), project(rep_aug)), alpha))
        if not want_grads:
            return float(loss.value[0, 0])
        ad.backward(loss)
        return {k: nodes[k].grad.copy() for k in shapes}

    grads = objective(base, want_grads=True)
    eps = 1e-6
    rng2 = np.random.default_rng(14)
    for k, shape in shapes.items():
        # spot-check three entries per tensor
        for _ in range(3):
            i = int(rng2.integers(0, shape[0]))
            j = int(rng2.integers(0, shape[1]))
            up = {n: t.copy() for n, t in base.items()}
            down = {n: t.copy() for n, t in base.items()}
            up[k][i, j] += eps
            down[k][i, j] -= eps
            fd = (objective(up) - objective(down)) / (2 * eps)
            scale = max(abs(fd), abs(grads[k][i, j]), 1e-8)
            assert abs(grads[k][i, j] - fd) / scale < 1e-4, (k, i, j)


# ---------------------------------------------------------------------------
# event-only trainer


def test_train_event_only_loss_decreases():
    ds = make_dataset(seed=20)
    train, val = split_ids(ds, 3)
    _, log = train_event_only(
        ds, train, val, Hyperparams(epochs=8, batch_size=12), seed=1, arch=SMALL
    )
    assert log[-1]["loss_total"] < log[0]["loss_total"]
    assert all(row["loss_cl"] == 0.0 for row in log)


def test_train_event_only_same_seed_identical():
    ds = make_dataset(seed=21)
    train, val = split_ids(ds, 3)
    hp = Hyperparams(epochs=3, batch_size=12)
    p1, log1 = train_event_only(ds, train, val, hp, seed=5, arch=SMALL)
    p2, log2 = train_event_only(ds, train, val, hp, seed=5, arch=SMALL)
    assert log1 == log2
    for a, b in zip(p1.named_tensors().values(), p2.named_tensors().values()):
        assert np.array_equal(a, b)


def test_train_event_only_learns_event_aligned_labels():
    # one label per event: the event mean is fully informative
    rng = np.random.default_rng(22)
    centers = rng.normal(scale=3.0, size=(4, 5))
    insts = []
    for i in range(24):
        ev = i % 4
        label = ev % 2
        x = rng.normal(size=(3, 5)) + centers[ev]
        insts.append(
            NewsInstance(
                id=f"n{i}",
                graph=PropagationGraph(n=3, x=x, edges=[[0, 1], [0, 2]]),
                label=label,
                event=f"ev{ev}",
            )
        )
    ds = Dataset(class_names=["r", "f"], feature_dim=5, instances=insts)
    ds.validate()
    ids = [i.id for i in insts]
    _, log = train_event_only(
        ds, ids, ids, Hyperparams(epochs=40, batch_size=24, lr=1e-2), seed=0, arch=SMALL
    )
    assert max(row["val_acc"] for row in log) == 1.0


# ---------------------------------------------------------------------------
# checkpoints


def trained_pair(tmp_path):
    ds = make_dataset(seed=30)
    train, val = split_ids(ds, 3)
    hp = Hyperparams(alpha=0.3, epochs=1, batch_size=8)
    target, _ = train_target(ds, train, val, hp, seed=0, arch=SMALL)
    event, _ = train_event_only(ds, train, val, hp, seed=0, arch=SMALL)
    return target, event


def test_checkpoint_roundtrip_target_bitwise(tmp_path):
    target, _ = trained_pair(tmp_path)
    path = tmp_path / "target.ckpt"
    save_checkpoint(target, path)
    loaded = load_checkpoint(path)
    assert isinstance(loaded, TargetPredictorParams)
    assert loaded.encoder.pooling == target.encoder.pooling
    saved, back = target.named_tensors(), loaded.named_tensors()
    assert set(saved) == set(back)
    for name in saved:
        assert np.array_equal(saved[name], back[name]), name


def test_checkpoint_roundtrip_event_only(tmp_path):
    _, event = trained_pair(tmp_path)
    path = tmp_path / "event.ckpt"
    save_checkpoint(event, path)
    loaded = load_checkpoint(path)
    assert isinstance(loaded, EventOnlyPredictorParams)
    for a, b in zip(event.named_tensors().values(), loaded.named_tensors().values()):
        assert np.array_equal(a, b)


def test_checkpoint_preserves_add_pooling(tmp_path):
    ds = make_dataset(seed=31)
    train, val = split_ids(ds, 3)
    arch = ArchConfig(hidden_dim=8, n_layers=2, pooling="add", proj_dim=4)
    params, _ = train_target(ds, train, val, Hyperparams(epochs=1), seed=0, arch=arch)
    path = tmp_path / "add.ckpt"
    save_checkpoint(params, path)
    assert load_checkpoint(path).encoder.pooling == "add"


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nope.ckpt")


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_wrong_version(tmp_path):
    target, _ = trained_pair(tmp_path)
    path = tmp_path / "v9.ckpt"
    save_checkpoint(target, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def flip(blob: bytes, offset: int, bits: int) -> bytes:
    out = bytearray(blob)
    out[offset] |= bits
    return bytes(out)


# Byte offsets in a checkpoint: magic 0-3, version 4-7, then the first
# tensor's name length 8-15, its 20-byte name 16-35 and its row count 36-43.
def test_checkpoint_truncated(tmp_path):
    target, _ = trained_pair(tmp_path)
    path = tmp_path / "trunc.ckpt"
    save_checkpoint(target, path)
    blob = path.read_bytes()
    # A cut file, then length fields that claim more bytes than the file has:
    # a high bit in the name length (once a MemoryError) or in the row count
    # (once an OverflowError).
    for bad in (blob[: len(blob) - 7], flip(blob, 15, 0x80), flip(blob, 43, 0x80)):
        path.write_bytes(bad)
        with pytest.raises(CheckpointError, match="trunc.ckpt: truncated"):
            load_checkpoint(path)


def test_checkpoint_name_not_utf8(tmp_path):
    target, _ = trained_pair(tmp_path)
    path = tmp_path / "name.ckpt"
    save_checkpoint(target, path)
    path.write_bytes(flip(path.read_bytes(), 16, 0xFF))  # once a UnicodeDecodeError
    with pytest.raises(CheckpointError, match="name.ckpt: tensor name"):
        load_checkpoint(path)


def test_checkpoint_missing_tensor(tmp_path):
    path = tmp_path / "empty.ckpt"
    import struct

    with open(path, "wb") as fh:
        fh.write(b"FADE")
        fh.write(struct.pack("<I", 1))
    with pytest.raises(CheckpointError, match="missing"):
        load_checkpoint(path)

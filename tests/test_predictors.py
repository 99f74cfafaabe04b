from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fade import autodiff as ad
from fade.autodiff import TrainingError
from fade.data import Dataset, NewsInstance, PropagationGraph, event_groups
from fade.predictors import (
    _event_batches,
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


_ONE_NODE = PropagationGraph(n=1, x=np.zeros((1, 1)), edges=[])


@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(st.integers(0, 9), min_size=1, max_size=40),
    batch_size=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_event_batches_hold_whole_contiguous_events(events, batch_size, seed):
    # train_event_only pools each batch by segments, which needs this.
    insts = [NewsInstance(f"n{i}", _ONE_NODE, 0, f"e{e}") for i, e in enumerate(events)]
    batches = _event_batches(insts, batch_size, np.random.default_rng(seed))
    assert sorted(i for batch in batches for i in batch) == list(range(len(insts)))
    owner = {}
    for b, batch in enumerate(batches):
        labels = [insts[i].event for i in batch]
        for event, positions in event_groups(labels).items():
            assert owner.setdefault(event, b) == b, f"{event} spans two batches"
            assert positions == list(range(positions[0], positions[-1] + 1))
        if len(batch) > batch_size:  # only a single event larger than a batch
            assert len(event_groups(labels)) == 1


@settings(max_examples=40, deadline=None)
@given(event_sizes=st.lists(st.integers(1, 6), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_segment_pool_over_event_segments_equals_event_mean_pool(event_sizes, seed):
    # A batch as _event_batches makes it: each event's rows contiguous.
    events = [f"e{k}" for k, size in enumerate(event_sizes) for _ in range(size)]
    reps = np.random.default_rng(seed).normal(size=(len(events), 5))
    sizes = [len(positions) for positions in event_groups(events).values()]
    means = ad.segment_pool(ad.const(reps), sizes).value
    pooled = event_mean_pool(reps, events)
    assert np.max(np.abs(np.repeat(means, sizes, axis=0) - pooled)) < 1e-12


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


def test_train_target_checkpoint_matches_per_candidate_augmentation(tmp_path, monkeypatch):
    """Training with the stacked augment writes the same bytes as the reference loop."""
    import fade.predictors
    from fade.augmentation import derive_rng, sample_unit_vector, select_augmentation

    ds = make_dataset(seed=4)
    train, val = split_ids(ds, 3)
    hp = Hyperparams(alpha=0.3, epochs=3, batch_size=8)
    params, log = train_target(ds, train, val, hp, seed=9, arch=SMALL)
    save_checkpoint(params, tmp_path / "stacked.ckpt")

    fallbacks = []

    def per_candidate(rep, ctx, classify_fn, label, sample_id="", epoch=0):
        vector = np.asarray(rep, dtype=np.float64).reshape(1, -1)
        rng = derive_rng(ctx.rng_seed, sample_id, epoch)
        directions = [sample_unit_vector(vector.shape[1], rng) for _ in range(ctx.num_candidates)]
        out, fallback, _ = select_augmentation(vector, ctx.radius, directions, classify_fn, label)
        fallbacks.append(fallback)
        return out

    monkeypatch.setattr(fade.predictors, "augment", per_candidate)
    ref_params, ref_log = train_target(ds, train, val, hp, seed=9, arch=SMALL)
    save_checkpoint(ref_params, tmp_path / "reference.ckpt")
    assert fallbacks.count(False) > 0  # some samples really were moved
    assert ref_log == log
    assert (tmp_path / "stacked.ckpt").read_bytes() == (tmp_path / "reference.ckpt").read_bytes()


def test_checkpoints_match_three_node_encoder_layers(tmp_path, monkeypatch, three_node_layer):
    """The fused GCN layer trains both predictors to the same bytes as the unfused chain."""
    import fade.encoder

    ds = make_dataset(seed=4)
    train, val = split_ids(ds, 3)
    hp = Hyperparams(alpha=0.3, epochs=3, batch_size=8)

    def train_both(tag):
        logs = []
        for name, trainer in (("target", train_target), ("event_only", train_event_only)):
            params, log = trainer(ds, train, val, hp, seed=9, arch=SMALL)
            save_checkpoint(params, tmp_path / f"{tag}-{name}.ckpt")
            logs.append(log)
        return logs

    fused_logs = train_both("fused")
    monkeypatch.setattr(fade.encoder, "gcn_layer", three_node_layer)
    chain_logs = train_both("chain")
    assert chain_logs == fused_logs
    for name in ("target", "event_only"):
        fused = (tmp_path / f"fused-{name}.ckpt").read_bytes()
        assert fused == (tmp_path / f"chain-{name}.ckpt").read_bytes()


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


@pytest.mark.parametrize("arch, hyper, message", [
    ({"hidden_dim": 0}, {}, "hidden_dim, n_layers, and proj_dim"),
    ({"proj_dim": 0}, {}, "hidden_dim, n_layers, and proj_dim"),
    ({"pooling": "max"}, {}, "pooling"),
    ({}, {"num_candidates": 0}, "num_candidates"),
    ({}, {"epochs": 0}, "epochs and batch_size"),
    ({}, {"batch_size": 0}, "epochs and batch_size"),
])
def test_train_target_rejects_bad_arch_and_hyperparams(arch, hyper, message):
    ds = make_dataset(seed=1)
    train, val = split_ids(ds, 3)
    with pytest.raises(ValueError, match=message):
        train_target(ds, train, val, Hyperparams(**{"epochs": 1, **hyper}), seed=0,
                     arch=ArchConfig(**arch))


def test_train_target_takes_num_candidates_from_hyperparams(monkeypatch):
    import fade.predictors

    seen = set()

    def record(rep, ctx, classify_fn, label, sample_id="", epoch=0):
        seen.add(ctx.num_candidates)
        return rep

    monkeypatch.setattr(fade.predictors, "augment", record)
    ds = make_dataset(seed=1)
    train, val = split_ids(ds, 3)
    train_target(ds, train, val, Hyperparams(epochs=1, num_candidates=3), seed=0, arch=SMALL)
    assert seen == {3}


def test_train_target_nonfinite_features_raise_training_error():
    ds = make_dataset(seed=1)
    ds.instances[0].graph.x[0, 0] = np.nan  # deliberately skip re-validation
    train, val = split_ids(ds, 4)
    hp = Hyperparams(alpha=0.0, epochs=1, batch_size=32)
    with pytest.raises(TrainingError, match="non-finite"):
        train_target(ds, train, val, hp, seed=0, arch=SMALL)


@pytest.mark.parametrize("trainer", [train_target, train_event_only])
def test_diverged_run_raises_on_non_finite_validation_logits(trainer):
    ds = make_dataset(seed=1)
    train, val = split_ids(ds, 3)
    hp = Hyperparams(epochs=3, batch_size=64, lr=1e300)  # one batch per epoch
    with np.errstate(all="ignore"), pytest.raises(TrainingError, match="logits at epoch 0$"):
        trainer(ds, train, val, hp, seed=0, arch=SMALL)


@pytest.mark.parametrize("trainer", [train_target, train_event_only])
def test_diverged_run_raises_on_non_finite_loss(trainer):
    ds = make_dataset(seed=1)
    train, val = split_ids(ds, 3)
    hp = Hyperparams(epochs=2, batch_size=8, lr=1e300)  # batch 0's step diverges
    with np.errstate(all="ignore"), pytest.raises(
        TrainingError, match="^non-finite loss at epoch 0 batch 1$"
    ):
        trainer(ds, train, val, hp, seed=0, arch=SMALL)


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


def trained_pair(tmp_path, n_layers=SMALL.n_layers):
    ds = make_dataset(seed=30)
    train, val = split_ids(ds, 3)
    hp = Hyperparams(alpha=0.3, epochs=1, batch_size=8)
    arch = replace(SMALL, n_layers=n_layers)
    target, _ = train_target(ds, train, val, hp, seed=0, arch=arch)
    event, _ = train_event_only(ds, train, val, hp, seed=0, arch=arch)
    return target, event


@pytest.mark.parametrize("n_layers", [1, 2, 3])
@pytest.mark.parametrize("kind", ["target", "event_only"])
def test_checkpoint_roundtrip_bitwise(tmp_path, kind, n_layers):
    params = trained_pair(tmp_path, n_layers)[kind == "event_only"]
    path = tmp_path / f"{kind}.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert type(loaded) is type(params)
    assert loaded.encoder.pooling == params.encoder.pooling
    assert tensor_bytes(loaded) == tensor_bytes(params)


def test_checkpoint_with_add_pooling_is_rejected(tmp_path):
    # `add` pooling was removed; a checkpoint that stored it must not load as `mean`.
    target, _ = trained_pair(tmp_path)
    path = tmp_path / "add.ckpt"
    with path.open("wb") as fh:
        np.savez(fh, kind="target", pooling="add", **target.named_tensors())
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == (
        f"corrupt checkpoint {path}: pooling must be one of ('mean',), got 'add'"
    )


@pytest.mark.parametrize("fault, message", [
    ("kind", "unknown kind 'bogus'"),
    ("1-D bias", "classifier.bias is not a 2-D float64 array"),
    ("extra tensor", "unexpected tensors ['extra.w']"),
    ("no layers", "missing tensor 'encoder.layer.0'"),
    ("broken chain", "encoder.layer.1 has shape (7, 8), expected (8, 8)"),
    ("gapped layers", "unexpected tensors ['encoder.layer.2']"),
    ("no features", "feature_dim and n_classes must be >= 1, got 0, 2"),
])
def test_checkpoint_with_a_bad_member_is_rejected_naming_the_file(tmp_path, fault, message):
    target, _ = trained_pair(tmp_path)
    members = {"kind": "target", "pooling": "mean", **target.named_tensors()}
    if fault == "kind":
        members["kind"] = "bogus"
    elif fault == "1-D bias":
        members["classifier.bias"] = members["classifier.bias"][0]
    elif fault == "extra tensor":
        members["extra.w"] = np.zeros((2, 2))
    elif fault == "broken chain":
        members["encoder.layer.1"] = np.zeros((7, 8))
    elif fault == "gapped layers":
        members["encoder.layer.2"] = members.pop("encoder.layer.1")
    elif fault == "no features":
        members["encoder.layer.0"] = np.zeros((0, 8))
    else:
        members = {k: v for k, v in members.items() if not k.startswith("encoder.layer.")}
    path = tmp_path / "bad.ckpt"
    with path.open("wb") as fh:
        np.savez(fh, **members)
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == f"corrupt checkpoint {path}: {message}"


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nope.ckpt")


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_wrong_version(tmp_path):
    path = tmp_path / "v1.ckpt"
    path.write_bytes(b"FADE" + (1).to_bytes(4, "little") + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="v1.ckpt: format v1 is no longer read; retrain"):
        load_checkpoint(path)


def flip(blob: bytes, offset: int, bits: int) -> bytes:
    out = bytearray(blob)
    out[offset] ^= bits
    return bytes(out)


def tensor_bytes(params) -> dict:
    return {name: (t.shape, t.tobytes()) for name, t in params.named_tensors().items()}


def test_checkpoint_truncated(tmp_path):
    target, _ = trained_pair(tmp_path)
    path = tmp_path / "trunc.ckpt"
    save_checkpoint(target, path)
    blob = path.read_bytes()
    # Once a cut right after classifier.bias loaded as EventOnlyPredictorParams.
    for end in range(len(blob)):
        path.write_bytes(blob[:end])
        with pytest.raises(CheckpointError, match="trunc.ckpt"):
            load_checkpoint(path)


def test_checkpoint_bit_flips_fail_or_change_nothing(tmp_path):
    target, _ = trained_pair(tmp_path)
    path = tmp_path / "flip.ckpt"
    save_checkpoint(target, path)
    blob = path.read_bytes()
    expected = tensor_bytes(target)
    for offset in range(len(blob)):
        path.write_bytes(flip(blob, offset, 0x01))
        try:
            params = load_checkpoint(path)
        except CheckpointError as e:
            assert "flip.ckpt" in str(e)
            continue
        assert isinstance(params, TargetPredictorParams), offset
        assert params.encoder.pooling == target.encoder.pooling, offset
        assert tensor_bytes(params) == expected, offset


def test_checkpoint_shrunk_shape_fails_crc(tmp_path):
    # numpy reads a member only as far as its .npy header's shape says, and
    # zipfile checks the CRC-32 when a read reaches the member's end.  Turning
    # the '3' of (64, 32) into '2' leaves a third of a 16 kB tensor unread.
    ds = make_dataset(seed=30)
    train, val = split_ids(ds, 3)
    arch = ArchConfig(hidden_dim=64, n_layers=1, proj_dim=32)
    target, _ = train_target(ds, train, val, Hyperparams(epochs=1), seed=0, arch=arch)
    path = tmp_path / "shape.ckpt"
    save_checkpoint(target, path)
    blob = path.read_bytes()
    path.write_bytes(flip(blob, blob.index(b"'shape': (64, 32)") + len("'shape': (64, "), 0x01))
    with pytest.raises(CheckpointError, match="shape.ckpt: bad CRC-32 for member projection.w1"):
        load_checkpoint(path)


def test_checkpoint_missing_tensor(tmp_path):
    target, _ = trained_pair(tmp_path)
    tensors = target.named_tensors()
    del tensors["classifier.bias"]
    path = tmp_path / "partial.ckpt"
    with path.open("wb") as fh:
        np.savez(fh, kind="target", pooling="mean", **tensors)
    with pytest.raises(CheckpointError, match="partial.ckpt: missing tensor 'classifier.bias'"):
        load_checkpoint(path)


@pytest.mark.parametrize("kind, name, shape", [
    ("target", "classifier.bias", (1, 3)),
    ("target", "classifier.bias", (2, 2)),
    ("target", "classifier.weight", (7, 2)),
    ("target", "projection.w1", (7, 4)),
    ("target", "projection.b1", (1, 3)),
    ("target", "projection.w2", (4, 5)),
    ("target", "projection.b2", (4, 1)),
    ("event_only", "classifier.weight", (9, 2)),
    ("event_only", "classifier.bias", (1, 1)),
])
def test_checkpoint_head_that_does_not_chain_onto_the_encoder(tmp_path, kind, name, shape):
    target, event = trained_pair(tmp_path)
    tensors = (target if kind == "target" else event).named_tensors()
    tensors[name] = np.zeros(shape)
    path = tmp_path / "heads.ckpt"
    with path.open("wb") as fh:
        np.savez(fh, kind=kind, pooling="mean", **tensors)
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert str(exc.value).startswith(f"corrupt checkpoint {path}: {name} has shape {shape}, ")

import numpy as np
import pytest

from fade.data import Dataset, NewsInstance, PropagationGraph, load_dataset, save_dataset
from fade.synthgen import SynthConfig, bias_report, generate, preset


def test_full_bias_means_single_label_events():
    ds = generate(SynthConfig(n_events=12, instances_per_event=8, bias_strength=1.0, seed=3))
    labels_by_event = {}
    for inst in ds.instances:
        labels_by_event.setdefault(inst.event, set()).add(inst.label)
    assert all(len(labels) == 1 for labels in labels_by_event.values())
    report = bias_report(ds)
    assert report["mean_purity"] == 1.0
    assert report["single_label_fraction"] == 1.0


def test_zero_bias_labels_vary_within_events():
    ds = generate(
        SynthConfig(n_events=10, instances_per_event=20, bias_strength=0.0, seed=1)
    )
    labels_by_event = {}
    for inst in ds.instances:
        labels_by_event.setdefault(inst.event, set()).add(inst.label)
    assert sum(len(v) > 1 for v in labels_by_event.values()) >= 8


def test_zero_bias_binary_purity_band():
    ds = generate(
        SynthConfig(
            n_events=40, instances_per_event=20, n_classes=2, bias_strength=0.0, seed=5
        )
    )
    mean_purity = bias_report(ds)["mean_purity"]
    assert 0.5 <= mean_purity <= 0.75


def test_linear_probe_reads_class_signal_across_events():
    """No bias, no noise: held-out-event accuracy of a least-squares probe."""
    cfg = SynthConfig(
        n_events=20,
        instances_per_event=10,
        n_classes=4,
        feature_dim=32,
        bias_strength=0.0,
        noise_sigma=0.0,
        class_signal_strength=2.0,
        seed=2,
    )
    ds = generate(cfg)
    events = ds.events()
    train_ev, test_ev = set(events[:16]), set(events[16:])
    train = [i for i in ds.instances if i.event in train_ev]
    test = [i for i in ds.instances if i.event in test_ev]

    def feats(insts):
        return np.stack([i.graph.x.mean(axis=0) for i in insts])

    x_tr = np.hstack([feats(train), np.ones((len(train), 1))])
    y_tr = np.eye(4)[[i.label for i in train]]
    w, *_ = np.linalg.lstsq(x_tr, y_tr, rcond=None)
    x_te = np.hstack([feats(test), np.ones((len(test), 1))])
    preds = np.argmax(x_te @ w, axis=1)
    acc = np.mean(preds == [i.label for i in test])
    assert acc > 0.95


def test_same_seed_identical_bytes(tmp_path):
    cfg = SynthConfig(n_events=6, instances_per_event=5, seed=11, size_sigma=0.5)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(generate(cfg), p1)
    save_dataset(generate(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_different_seeds_differ(tmp_path):
    base = SynthConfig(n_events=6, instances_per_event=5)
    a = generate(SynthConfig(**{**base.__dict__, "seed": 0}))
    b = generate(SynthConfig(**{**base.__dict__, "seed": 1}))
    assert not np.array_equal(a.instances[0].graph.x, b.instances[0].graph.x)


def test_roundtrips_through_dataset_io(tmp_path):
    cfg = SynthConfig(n_events=5, instances_per_event=4, seed=7, size_sigma=0.3)
    ds = generate(cfg)
    path = tmp_path / "synth.jsonl"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.class_names == ds.class_names
    assert len(back.instances) == len(ds.instances)
    for a, b in zip(ds.instances, back.instances):
        assert a.id == b.id and a.label == b.label and a.event == b.event
        assert np.array_equal(a.graph.x, b.graph.x)
        assert a.graph.edges == b.graph.edges


def test_purity_monotone_in_bias_strength():
    rhos = [0.0, 0.25, 0.5, 0.75, 1.0]
    means = []
    for rho in rhos:
        acc = []
        for seed in range(5):
            ds = generate(
                SynthConfig(
                    n_events=20, instances_per_event=10, bias_strength=rho, seed=seed
                )
            )
            acc.append(bias_report(ds)["mean_purity"])
        means.append(np.mean(acc))
    assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))
    assert means[-1] > means[0]


def test_exact_sizes_without_spread():
    ds = generate(SynthConfig(n_events=7, instances_per_event=9, size_sigma=0.0, seed=0))
    sizes = bias_report(ds)["event_sizes"]
    assert sizes["min"] == sizes["max"] == 9


def test_lognormal_sizes_vary():
    ds = generate(SynthConfig(n_events=30, instances_per_event=10, size_sigma=0.8, seed=4))
    sizes = bias_report(ds)["event_sizes"]
    assert sizes["min"] >= 1
    assert sizes["min"] < sizes["max"]


def test_reply_trees_are_stars_chains_and_random_trees():
    ds = generate(SynthConfig(n_events=10, instances_per_event=10, seed=0))
    stars = chains = others = 0
    for inst in ds.instances:
        if all(e[0] == 0 for e in inst.graph.edges):
            stars += 1
        elif inst.graph.edges == [[j - 1, j] for j in range(1, inst.graph.n)]:
            chains += 1
        else:
            others += 1
    assert stars > 0 and chains > 0 and others > 0


def test_generated_dataset_passes_validation():
    ds = generate(preset("t15-like", seed=1))
    ds.validate()  # would raise on any structural problem
    assert ds.n_classes == 4
    assert ds.feature_dim == 32
    assert len(ds.events()) == 60


def test_preset_overrides():
    cfg = preset("t15-like", bias_strength=0.3, seed=9)
    assert cfg.bias_strength == 0.3
    assert cfg.seed == 9
    assert cfg.n_events == 60


def test_unknown_preset():
    with pytest.raises(ValueError, match="unknown preset"):
        preset("t16-like")


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_events", 0),
        ("instances_per_event", 0),
        ("n_classes", 1),
        ("feature_dim", 0),
        ("bias_strength", 1.5),
        ("bias_strength", -0.1),
        ("noise_sigma", -1.0),
        ("size_sigma", -0.5),
        ("signature_strength", -1.0),
        ("class_signal_strength", -1.0),
        ("bias_reliability", 1.5),
        ("signature_diversity", -0.1),
        ("reply_content_fraction", 1.5),
    ],
)
def test_config_validation(field, value):
    cfg = SynthConfig(**{field: value})
    with pytest.raises(ValueError):
        cfg.validate()


def test_bias_report_hand_case():
    g = PropagationGraph(n=1, x=np.zeros((1, 2)), edges=[])
    insts = [
        NewsInstance(id="a", graph=g, label=0, event="e1"),
        NewsInstance(id="b", graph=g, label=0, event="e1"),
        NewsInstance(id="c", graph=g, label=1, event="e1"),
        NewsInstance(id="d", graph=g, label=1, event="e2"),
        NewsInstance(id="e", graph=g, label=1, event="e2"),
    ]
    ds = Dataset(class_names=["x", "y"], feature_dim=2, instances=insts)
    report = bias_report(ds)
    assert report["per_event_purity"]["e1"] == pytest.approx(2.0 / 3.0)
    assert report["per_event_purity"]["e2"] == 1.0
    assert report["mean_purity"] == pytest.approx((2.0 / 3.0 + 1.0) / 2.0)
    assert report["single_label_fraction"] == pytest.approx(2.0 / 5.0)
    assert report["event_sizes"] == {"min": 2, "max": 3, "mean": 2.5, "median": 2.5}

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fade.autodiff import ShapeError
from fade.data import Dataset, NewsInstance, PropagationGraph
from fade.encoder import encode_all
from fade.inference import (
    DEFAULT_BETA_GRID,
    DebiasConfig,
    debias,
    evaluate,
    event_only_logits,
    predict,
    report_to_text,
    sweep_beta,
    target_logits,
)
from fade.predictors import ArchConfig, Hyperparams, train_event_only, train_target

SMALL = ArchConfig(hidden_dim=8, n_layers=2, pooling="mean", proj_dim=4)


def make_dataset(n=24, n_events=4, n_classes=2, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=2.0, size=(n_classes, dim))
    insts = []
    for i in range(n):
        label = i % n_classes
        nodes = int(rng.integers(2, 5))
        x = rng.normal(size=(nodes, dim)) + centers[label]
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
        class_names=[f"c{k}" for k in range(n_classes)], feature_dim=dim, instances=insts
    )
    ds.validate()
    return ds


@pytest.fixture(scope="module")
def trained():
    ds = make_dataset(seed=3)
    events = ds.events()
    train = [i.id for i in ds.instances if i.event in events[:3]]
    val = [i.id for i in ds.instances if i.event not in events[:3]]
    hp = Hyperparams(alpha=0.3, epochs=4, batch_size=8)
    target, _ = train_target(ds, train, val, hp, seed=0, arch=SMALL)
    event_only, _ = train_event_only(ds, train, val, hp, seed=0, arch=SMALL)
    test_insts = [ds.by_id()[i] for i in val]
    return ds, target, event_only, test_insts


# ---------------------------------------------------------------------------
# debias


def test_debias_beta_zero_is_identity():
    o_t = np.array([[0.3, -1.2, 4.0]])
    o_e = np.array([[9.9, 9.9, 9.9]])
    out = debias(o_t, o_e, DebiasConfig(beta=0.0))
    assert np.array_equal(out, o_t)


def test_debias_hand_arithmetic():
    out = debias(np.array([[0.8, 0.2]]), np.array([[0.6, 0.4]]), DebiasConfig(beta=0.5))
    assert np.allclose(out, [[0.5, 0.0]])


def test_debias_flips_argmax():
    o_t = np.array([[1.0, 1.0]])
    o_e = np.array([[2.0, 0.0]])
    out = debias(o_t, o_e, DebiasConfig(beta=1.0))
    assert int(np.argmax(out)) == 1


def test_debias_shape_mismatch():
    with pytest.raises(ShapeError):
        debias(np.zeros((1, 3)), np.zeros((1, 2)), DebiasConfig(beta=0.5))


def test_debias_rejects_negative_beta():
    with pytest.raises(ValueError):
        debias(np.zeros((1, 2)), np.zeros((1, 2)), DebiasConfig(beta=-0.1))


def test_debias_is_linear_in_joint_scaling():
    rng = np.random.default_rng(0)
    cfg = DebiasConfig(beta=0.4)
    for _ in range(20):
        o_t = rng.normal(size=(5, 3))
        o_e = rng.normal(size=(5, 3))
        a = float(rng.uniform(0.1, 10.0))
        left = debias(a * o_t, a * o_e, cfg)
        right = a * debias(o_t, o_e, cfg)
        assert np.max(np.abs(left - right)) < 1e-12
        assert np.array_equal(np.argmax(left, axis=1), np.argmax(right, axis=1))


# ---------------------------------------------------------------------------
# predict


def test_predict_beta_zero_matches_target_only(trained):
    _, target, event_only, test_insts = trained
    preds = predict(target, event_only, test_insts, DebiasConfig(beta=0.0))
    expected = np.argmax(target_logits(target, test_insts), axis=1)
    assert np.array_equal(preds, expected)


def test_predict_singleton_event_pools_itself(trained):
    ds, target, event_only, test_insts = trained
    one = test_insts[0]
    o_e = event_only_logits(event_only, [one])
    rep = encode_all(event_only.layers, [one.graph], event_only.pooling)
    assert np.max(np.abs(o_e - event_only.classify(rep))) < 1e-12


def test_event_pooling_is_shared_within_event(trained):
    _, _, event_only, test_insts = trained
    o_e = event_only_logits(event_only, test_insts)
    by_event = {}
    for row, inst in zip(o_e, test_insts):
        by_event.setdefault(inst.event, []).append(row)
    for rows in by_event.values():
        for row in rows[1:]:
            assert np.max(np.abs(row - rows[0])) < 1e-12


def test_predict_order_matches_input_order(trained):
    _, target, event_only, test_insts = trained
    cfg = DebiasConfig(beta=0.5)
    forward = predict(target, event_only, test_insts, cfg)
    backward = predict(target, event_only, test_insts[::-1], cfg)
    assert np.array_equal(forward, backward[::-1])


@settings(max_examples=25, deadline=None, database=None)
@given(data=st.data(), beta=st.sampled_from(DEFAULT_BETA_GRID))
def test_predict_does_not_depend_on_instance_order(trained, data, beta):
    # event-only pooling is transductive: it depends on which instances are
    # given, but not on their order
    ds, target, event_only, _ = trained
    insts = ds.instances
    cfg = DebiasConfig(beta=beta)
    expected = dict(zip([i.id for i in insts], predict(target, event_only, insts, cfg)))
    order = data.draw(st.permutations(range(len(insts))))
    shuffled = [insts[k] for k in order]
    got = predict(target, event_only, shuffled, cfg)
    assert dict(zip([i.id for i in shuffled], got)) == expected


def test_predict_empty_rejected(trained):
    _, target, event_only, _ = trained
    with pytest.raises(ValueError):
        predict(target, event_only, [], DebiasConfig())


def test_predict_missing_event_label_rejected(trained):
    ds, target, event_only, test_insts = trained
    bad = NewsInstance(
        id="stray", graph=test_insts[0].graph, label=0, event=""
    )
    with pytest.raises(ValueError, match="event"):
        predict(target, event_only, [bad], DebiasConfig())


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_all_correct():
    report = evaluate([0, 1, 0, 1], [0, 1, 0, 1], ["a", "b"])
    assert report["accuracy"] == 1.0
    assert report["per_class_f1"] == [["a", 1.0], ["b", 1.0]]
    assert report["confusion"] == [[2, 0], [0, 2]]


def test_evaluate_all_predict_class_zero():
    report = evaluate([0, 0, 0, 0], [0, 0, 1, 1], ["a", "b"])
    assert report["accuracy"] == 0.5
    assert abs(report["per_class_f1"][0][1] - 2.0 / 3.0) < 1e-12
    assert report["per_class_f1"][1][1] == 0.0


def test_evaluate_absent_class_gets_zero_f1():
    report = evaluate([0, 1], [0, 1], ["a", "b", "c"])
    assert report["per_class_f1"][2] == ["c", 0.0]


def test_evaluate_matches_independent_tally():
    rng = np.random.default_rng(17)
    labels = rng.integers(0, 4, size=200)
    preds = rng.integers(0, 4, size=200)
    report = evaluate(preds, labels, ["w", "x", "y", "z"])
    assert report["accuracy"] == float(np.mean(preds == labels))
    for t in range(4):
        for p in range(4):
            assert report["confusion"][t][p] == int(np.sum((labels == t) & (preds == p)))
    for c in range(4):
        tp = int(np.sum((preds == c) & (labels == c)))
        fp = int(np.sum((preds == c) & (labels != c)))
        fn = int(np.sum((preds != c) & (labels == c)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        assert abs(report["per_class_f1"][c][1] - f1) < 1e-12


def test_evaluate_consistency_invariants():
    rng = np.random.default_rng(18)
    labels = rng.integers(0, 3, size=60)
    preds = rng.integers(0, 3, size=60)
    report = evaluate(preds, labels, ["a", "b", "c"])
    assert report["n_test"] == 60
    for c in range(3):
        assert sum(report["confusion"][c]) == int(np.sum(labels == c))
    assert abs(report["accuracy"] - np.trace(report["confusion"]) / 60) < 1e-12


def test_evaluate_counts_events():
    report = evaluate([0, 0, 1], [0, 0, 1], ["a", "b"], events=["e1", "e1", "e2"])
    assert report["n_events"] == 2


def test_evaluate_empty_rejected():
    with pytest.raises(ValueError):
        evaluate([], [], ["a", "b"])


def test_evaluate_length_mismatch():
    with pytest.raises(ShapeError):
        evaluate([0, 1], [0], ["a", "b"])


@pytest.mark.parametrize("predictions, labels, message", [
    ([0, 2], [0, 1], "prediction 2 outside"),
    ([0, 1], [3, 1], "label 3 outside"),
    ([0, -1], [0, 1], "prediction -1 outside"),
    ([0, 1], [-2, 1], "label -2 outside"),
])
def test_evaluate_rejects_a_class_index_outside_the_names(predictions, labels, message):
    with pytest.raises(ValueError, match=f"evaluate: {message} \\[0, 2\\)"):
        evaluate(predictions, labels, ["a", "b"])


# ---------------------------------------------------------------------------
# beta sweep


def test_sweep_beta_ties_break_low(trained):
    # a constant-zero event model makes every beta on the grid equivalent, and
    # the sweep walks the grid in order, so it must ascend
    assert list(DEFAULT_BETA_GRID) == sorted(set(DEFAULT_BETA_GRID))
    ds, target, event_only, test_insts = trained
    zeroed = copy.deepcopy(event_only)
    for w in zeroed.tensors.values():
        w[...] = 0.0
    assert sweep_beta(target, zeroed, test_insts) == 0.0


def test_sweep_beta_picks_strictly_better_element(trained):
    _, target, event_only, test_insts = trained
    labels = np.array([i.label for i in test_insts])
    o_t = target_logits(target, test_insts)
    o_e = event_only_logits(event_only, test_insts)
    accs = {
        beta: float(np.mean(np.argmax(o_t - beta * o_e, axis=1) == labels))
        for beta in DEFAULT_BETA_GRID
    }
    best = sweep_beta(target, event_only, test_insts)
    assert accs[best] == max(accs.values())
    for beta in sorted(accs):
        if accs[beta] == accs[best]:
            assert best == beta
            break


def test_sweep_beta_deterministic(trained):
    _, target, event_only, test_insts = trained
    a = sweep_beta(target, event_only, test_insts)
    b = sweep_beta(target, event_only, test_insts)
    assert a == b


def test_sweep_beta_rejects_a_negative_grid_value_as_debias_does(trained, monkeypatch):
    _, target, event_only, test_insts = trained
    monkeypatch.setattr("fade.inference.DEFAULT_BETA_GRID", (-0.1, 0.5))
    with pytest.raises(ValueError, match="beta must be finite and >= 0"):
        sweep_beta(target, event_only, test_insts)


def test_sweep_beta_empty_validation_set(trained):
    _, target, event_only, _ = trained
    with pytest.raises(ValueError, match="empty validation set"):
        sweep_beta(target, event_only, [])


# ---------------------------------------------------------------------------
# report rendering


def sample_report():
    return evaluate([0, 0, 1, 1, 1, 0], [0, 1, 1, 1, 0, 0], ["real", "fake"],
                    events=["e1", "e1", "e2", "e2", "e3", "e3"])


def test_report_json_roundtrip_and_determinism():
    report = sample_report()
    assert json.dumps(report) == json.dumps(sample_report())
    assert json.loads(json.dumps(report)) == report
    assert list(report) == ["accuracy", "per_class_f1", "confusion", "n_test", "n_events"]
    assert report["n_test"] == 6
    assert report["confusion"] == [[2, 1], [1, 2]]


def test_report_text_contains_aligned_fields():
    text = report_to_text(sample_report())
    lines = text.splitlines()
    assert lines[0].split() == ["class", "f1"]
    assert any(line.startswith("real") for line in lines)
    assert any(line.startswith("accuracy") for line in lines)
    assert "confusion" in text

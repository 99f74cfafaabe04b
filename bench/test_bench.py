"""Tests of the benchmark itself.  Run from the repository root:

  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cascades  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from fade.data import load_dataset, save_dataset  # noqa: E402
from fade.synthgen import generate, preset  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_declares_every_workload_and_metric_once():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# ---------------------------------------------------------------------------
# span arithmetic


def _span(sid, name, start, end, parent=None, thread=1, attrs=None):
    return spans.Span(sid, name, start, end, parent, thread, "test", attrs)


def test_union_length_merges_overlaps_and_ignores_empty_intervals():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == pytest.approx(4.0)
    assert spans.union_length([(0, 10), (2, 3)]) == pytest.approx(10.0)


def test_self_time_on_a_hand_built_tree():
    tree = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "predictors.train_target", 1.0, 9.0, parent=0),
        _span(2, "augmentation.augment", 2.0, 5.0, parent=1),
        _span(3, "augmentation.derive_rng", 2.5, 3.0, parent=2),
        _span(4, "encoder.encode_all", 4.0, 7.0, parent=1),  # overlaps span 2
        _span(5, "data.normalized_adjacency", 6.0, 6.5, parent=4, thread=2),
    ]
    self_t = spans.self_times(tree)
    assert self_t[0] == pytest.approx(10.0 - 8.0)
    assert self_t[1] == pytest.approx(8.0 - 5.0)  # children cover [2, 7]
    assert self_t[2] == pytest.approx(3.0 - 0.5)
    assert self_t[3] == pytest.approx(0.5)
    assert self_t[4] == pytest.approx(3.0 - 0.5)
    assert self_t[5] == pytest.approx(0.5)
    assert spans.uncovered_time(tree) == pytest.approx(2.0)

    breakdown = spans.trainer_breakdown(tree)["predictors.train_target"]
    assert breakdown["s"] == pytest.approx(8.0)
    # Self times under a trainer add up to its duration, except where
    # sibling spans overlap: [4, 5] is in both span 2 and span 4.
    assert sum(breakdown["layer_self_s"].values()) == pytest.approx(8.0 + 1.0)
    assert breakdown["layer_self_s"]["augmentation"] == pytest.approx(3.0)

    metrics = spans.layer_metrics(tree, traced_wall_s=12.0, untraced_wall_s=10.0, workers=2)
    assert metrics["predictors.self_s"] == pytest.approx(3.0)
    assert metrics["augmentation.augment_s"] == pytest.approx(3.0)
    assert metrics["augmentation.rng_streams"] == 1
    assert metrics["data.adjacency_calls"] == 1
    assert metrics["trace.overhead_ratio"] == pytest.approx(1.2)
    assert metrics["trace.uncovered_s"] == pytest.approx(2.0)


def test_recorder_nests_spans_per_thread_and_install_restores_originals():
    import fade.augmentation
    import fade.predictors

    original = fade.augmentation.augment
    rec = spans.SpanRecorder("t")
    with spans.install(rec, {"fade.augmentation": ("augment", "no_such_function")}) as missing:
        # The importer's binding is wrapped too, not only the defining module's.
        assert fade.predictors.augment is fade.augmentation.augment is not original
        assert missing == ["augmentation.no_such_function"]
        ctx = fade.augmentation.AugmentationContext(radius=0.0)
        rec.call("outer", fade.predictors.augment, (np.zeros(3), ctx, None, 0), {})
    assert fade.augmentation.augment is original and fade.predictors.augment is original
    inner, outer = rec.spans
    assert (inner.name, outer.name) == ("augmentation.augment", "outer")
    assert inner.parent == outer.id and outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_selection_wrapper_counts_kept_candidates_and_fallbacks():
    import fade.augmentation as aug

    rec = spans.SpanRecorder("t")
    directions = [np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]]), np.array([[-0.5, 1.0]])]

    def classify(row):  # class 0 wins when the first coordinate is positive
        return np.array([[row[0, 0], 0.0]])

    with spans.install(rec, {"fade.augmentation": ("select_augmentation",)}):
        aug.select_augmentation(np.zeros((1, 2)), 1.0, directions, classify, 0)
        aug.select_augmentation(np.zeros((1, 2)), 1.0, directions[1:2], classify, 0)
    metrics = spans.layer_metrics(rec.spans, 1.0, 1.0, 1)
    assert metrics["augmentation.candidates_scored"] == 4
    assert metrics["augmentation.candidate_keep_ratio"] == pytest.approx(1 / 4)
    assert metrics["augmentation.fallback_rate"] == pytest.approx(1 / 2)


def test_spans_round_trip_through_a_file(tmp_path):
    rec = spans.SpanRecorder("run-7")
    rec.call("encoder.encode_all", lambda: None, (), {}, {"nodes": 5})
    rec.write(tmp_path / "spans.json", ["x.y"])
    back, missing = spans.read_spans(tmp_path / "spans.json")
    assert missing == ["x.y"]
    assert back[0].name == "encoder.encode_all" and back[0].attrs == {"nodes": 5}
    assert back[0].run_id == "run-7" and back[0].duration == rec.spans[0].duration


# ---------------------------------------------------------------------------
# cascade generator


def test_cascade_generator_is_deterministic_and_writes_a_loadable_dataset(tmp_path):
    a = cascades.make_dataset(3, n_events=4)
    b = cascades.make_dataset(3, n_events=4)
    c = cascades.make_dataset(4, n_events=4)
    base = generate(preset(cascades.BASE_PRESET, seed=cascades.BASE_SEED, n_events=4))
    for x, y, z, orig in zip(a.instances, b.instances, c.instances, base.instances):
        assert x.graph.edges == y.graph.edges and np.array_equal(x.graph.x, y.graph.x)
        assert cascades.MIN_NODES <= x.graph.n <= cascades.MAX_NODES
        assert (x.id, x.label, x.event) == (orig.id, orig.label, orig.event)
        assert np.array_equal(x.graph.x[: orig.graph.n], orig.graph.x)
        assert x.graph.edges[: len(orig.graph.edges)] == orig.graph.edges
    assert any(x.graph.edges != z.graph.edges for x, z in zip(a.instances, c.instances))
    # More events extend the dataset without changing the first ones, which
    # is what lets the held-out evaluation set contain the training data.
    longer = cascades.make_dataset(3, n_events=6)
    assert len(longer.instances) > len(a.instances)
    for x, y in zip(a.instances, longer.instances):
        assert x.id == y.id and x.graph.edges == y.graph.edges
        assert np.array_equal(x.graph.x, y.graph.x)

    save_dataset(a, tmp_path / "data.jsonl")
    loaded = load_dataset(tmp_path / "data.jsonl")
    assert cascades.size_summary(loaded) == cascades.size_summary(a)
    summary = cascades.size_summary(a)
    assert summary["instances"] == len(a.instances)
    assert summary["nodes_per_cascade_max"] <= cascades.MAX_NODES


# ---------------------------------------------------------------------------
# smoke runs of the whole harness on tiny inputs


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    path = tmp_path / "work"
    path.mkdir()
    return path


def test_tiny_train_runs_end_to_end_and_traced(work):
    started = time.perf_counter()
    save_dataset(cascades.make_dataset(0, n_events=4), work / "data.jsonl")
    save_dataset(cascades.make_dataset(0, n_events=6), work / "eval.jsonl")
    plan = run.plan_train(work, 0, "data.jsonl", "eval.jsonl", ("epochs=2", "batch_size=16"))
    assert plan.instance_epochs == 2 * plan.inputs["train_instances"] * 2
    eval_split = json.loads((work / "eval_split.json").read_text(encoding="utf-8"))
    split = json.loads((work / "split.json").read_text(encoding="utf-8"))
    assert eval_split["train"] == split["train"] and eval_split["val"] == split["val"]
    extra = set(eval_split["test"]) - set(split["test"])
    assert extra and all(not i.startswith(("ev000", "ev001", "ev002", "ev003")) for i in extra)

    tally = run.Tally()
    values = run.measure_end_to_end(plan, 0.0, time.perf_counter() + 60, tally)
    assert tally.failed == 0, tally.problems
    assert values["_repetitions"] == run.MIN_REPETITIONS
    assert 0 < values["setup_s"] < values["wall_s"]
    assert 0.0 <= values["acc_debiased"] <= 1.0
    line = json.loads(run.result_line(values, False, tally))
    assert line["correct"]
    assert list(line["metrics"]) == [m["name"] for m in _spec()["end_to_end"]]

    traced = run.measure_traced(plan, work / "spans.json", tally)
    assert tally.failed == 0, tally.problems
    assert traced["_missing_hooks"] == []
    assert traced["predictors.train_target_s"] > 0 and traced["autodiff.backward_calls"] > 0
    assert traced["augmentation.augment_calls"] == 2 * plan.inputs["train_instances"]
    line = json.loads(run.result_line(traced, True, tally))
    assert list(line["metrics"]) == [m["name"] for m in _spec()["per_layer"]]
    assert time.perf_counter() - started < 60


def test_tiny_ablate_checks_seed_order_and_repeats_identically(work):
    plan = run.plan_ablate(work, "n_events = 4\ninstances_per_event = 5\nepochs = 1\n", 2)
    tally = run.Tally()
    first = run.measure_end_to_end(plan, 0.0, time.perf_counter() + 60, tally)
    second = run.measure_end_to_end(plan, 0.0, time.perf_counter() + 60, tally)
    assert tally.failed == 0, tally.problems
    assert first["acc_debiased"] == second["acc_debiased"]
    assert len(list((run.OUT_DIR / "digests").iterdir())) == 1

    payload = json.loads((work / "out0" / "ablation.json").read_text(encoding="utf-8"))
    payload["seeds"].reverse()
    (work / "out0" / "ablation.json").write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(run.CheckFailed, match="in order"):
        run.check_ablate(plan, work / "out0")


def test_missing_sources_exit_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "train-t15", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""

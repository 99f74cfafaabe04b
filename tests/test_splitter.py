import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fade.data import Dataset, NewsInstance, PropagationGraph
from fade.splitter import (
    SplitError,
    SplitManifest,
    SplitRatios,
    event_mixed_split,
    event_separated_split,
    load_manifest,
    save_manifest,
)

_SHARED_GRAPH = PropagationGraph(n=1, x=np.zeros((1, 2)), edges=[])


def dataset_from_sizes(sizes):
    insts = []
    for e, size in enumerate(sizes):
        for k in range(size):
            insts.append(
                NewsInstance(
                    id=f"e{e}-i{k}",
                    graph=_SHARED_GRAPH,
                    label=k % 2,
                    event=f"event-{e}",
                )
            )
    return Dataset(class_names=["real", "fake"], feature_dim=2, instances=insts)


def fractions(manifest, ds):
    total = len(ds.instances)
    rest = len(manifest.train_ids) + len(manifest.test_ids)
    return (
        len(manifest.val_ids) / total,
        len(manifest.train_ids) / rest if rest else 0.0,
    )


def test_four_equal_events_split_1_2_1():
    ds = dataset_from_sizes([10, 10, 10, 10])
    manifest = event_separated_split(ds, SplitRatios(), seed=0)
    assert len(manifest.val_events) == 1
    assert len(manifest.train_events) == 2
    assert len(manifest.test_events) == 1
    assert len(manifest.val_ids) == 10
    assert len(manifest.train_ids) == 20
    assert len(manifest.test_ids) == 10
    manifest.assert_valid(ds)


def test_event_separated_deterministic():
    ds = dataset_from_sizes([5, 9, 3, 12, 7])
    a = event_separated_split(ds, SplitRatios(), seed=42)
    b = event_separated_split(ds, SplitRatios(), seed=42)
    assert a == b


def test_event_separated_seeds_differ():
    ds = dataset_from_sizes([5, 9, 3, 12, 7, 8, 4])
    outs = {tuple(event_separated_split(ds, SplitRatios(), seed=s).val_ids) for s in range(8)}
    assert len(outs) > 1


def test_fewer_than_three_events_rejected():
    ds = dataset_from_sizes([10, 10])
    with pytest.raises(SplitError):
        event_separated_split(ds, SplitRatios(), seed=0)
    with pytest.raises(SplitError):
        event_mixed_split(ds, SplitRatios(), seed=0)


def test_bad_ratios_rejected():
    ds = dataset_from_sizes([4, 4, 4])
    with pytest.raises(SplitError):
        event_separated_split(ds, SplitRatios(val_fraction=1.5), seed=0)
    with pytest.raises(SplitError):
        event_separated_split(ds, SplitRatios(train_parts=0), seed=0)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=15), min_size=3, max_size=10),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_event_separated_invariants_hold(sizes, seed):
    ds = dataset_from_sizes(sizes)
    manifest = event_separated_split(ds, SplitRatios(), seed=seed)
    manifest.assert_valid(ds, event_separated=True)
    assert manifest.train_ids and manifest.test_ids
    # no event straddles any boundary
    side_of = {}
    for name, ids in (("train", manifest.train_ids), ("val", manifest.val_ids),
                      ("test", manifest.test_ids)):
        for i in ids:
            ev = i.split("-i")[0]
            assert side_of.setdefault(ev, name) == name


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=15), min_size=3, max_size=10),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_event_mixed_invariants_hold(sizes, seed):
    ds = dataset_from_sizes(sizes)
    manifest = event_mixed_split(ds, SplitRatios(), seed=seed)
    manifest.assert_valid(ds, event_separated=False)
    assert manifest.train_ids and manifest.test_ids
    assert manifest == event_mixed_split(ds, SplitRatios(), seed=seed)


def test_mixed_split_can_straddle_events():
    ds = dataset_from_sizes([20, 20, 20])
    straddled = False
    for seed in range(5):
        manifest = event_mixed_split(ds, SplitRatios(), seed=seed)
        if manifest.train_events & manifest.test_events:
            straddled = True
    assert straddled


def test_mixed_and_separated_differ_on_straddling_seed():
    ds = dataset_from_sizes([8, 8, 8, 8])
    for seed in range(5):
        mixed = event_mixed_split(ds, SplitRatios(), seed=seed)
        if mixed.train_events & mixed.test_events:
            separated = event_separated_split(ds, SplitRatios(), seed=seed)
            assert set(mixed.train_ids) != set(separated.train_ids)
            return
    pytest.fail("no straddling seed found in range")


def test_skewed_sizes_hit_ratio_targets_within_tolerance():
    # 298 events, log-normal size skew; whole-event assignment must still
    # land within 10 percentage points of the requested fractions
    rng = np.random.default_rng(7)
    sizes = np.maximum(1, rng.lognormal(mean=2.5, sigma=1.0, size=298).astype(int))
    ds = dataset_from_sizes(sizes.tolist())
    for seed in range(20):
        manifest = event_separated_split(ds, SplitRatios(), seed=seed)
        manifest.assert_valid(ds)
        val_frac, train_frac = fractions(manifest, ds)
        assert abs(val_frac - 0.10) <= 0.10, (seed, val_frac)
        assert abs(train_frac - 0.75) <= 0.10, (seed, train_frac)


def test_separated_split_moves_an_event_back_when_train_gets_none():
    # A train share of 0.01 leaves no event small enough for train, so every
    # event falls to test and the last one is moved back.
    ds = dataset_from_sizes([10] * 20)
    manifest = event_separated_split(ds, SplitRatios(0.1, 0.01, 1.0), seed=0)
    assert len(manifest.train_events) == 1
    sides = (manifest.train_ids, manifest.val_ids, manifest.test_ids)
    assert [len(ids) for ids in sides] == [10, 20, 170]
    manifest.assert_valid(ds)


def test_mixed_split_ratio_is_exact_for_round_counts():
    ds = dataset_from_sizes([10, 10, 10, 10])
    manifest = event_mixed_split(ds, SplitRatios(), seed=3)
    assert len(manifest.val_ids) == 4
    assert len(manifest.train_ids) == 27
    assert len(manifest.test_ids) == 9


def test_manifest_roundtrip(tmp_path):
    ds = dataset_from_sizes([6, 5, 9, 4])
    manifest = event_separated_split(ds, SplitRatios(), seed=11)
    path = tmp_path / "split.json"
    save_manifest(manifest, path)
    payload = json.loads(path.read_text())
    assert set(payload) == {"seed", "train", "val", "test"}
    loaded = load_manifest(path, ds)
    assert loaded == manifest


def test_manifest_load_rebuilds_events_so_a_straddling_event_is_caught(tmp_path):
    ds = dataset_from_sizes([6, 5, 9])
    manifest = event_separated_split(ds, SplitRatios(), seed=0)
    # Move one test instance to train: its event is then on both sides.
    moved = manifest.test_ids.pop()
    manifest.train_ids.append(moved)
    path = tmp_path / "split.json"
    save_manifest(manifest, path)
    loaded = load_manifest(path, ds)
    loaded.assert_valid(ds, event_separated=False)
    event = next(i.event for i in ds.instances if i.id == moved)
    with pytest.raises(SplitError, match=re.escape(f"boundary: ['{event}']")):
        loaded.assert_valid(ds, event_separated=True)


def test_manifest_load_rejects_an_id_the_dataset_lacks(tmp_path):
    ds = dataset_from_sizes([6, 5, 9])
    path = tmp_path / "split.json"
    manifest = event_separated_split(ds, SplitRatios(), seed=0)
    manifest.test_ids.append("nowhere")
    save_manifest(manifest, path)
    with pytest.raises(SplitError, match=re.escape(f"manifest {path}: unknown instance id 'nowhere'")):
        load_manifest(path, ds)


@pytest.mark.parametrize("fault, message", [
    ("omits", "manifest does not cover the dataset exactly"),
    ("twice", "manifest assigns some instance twice"),
])
def test_manifest_load_checks_coverage_naming_the_file(tmp_path, fault, message):
    ds = dataset_from_sizes([6, 5, 9])
    manifest = event_separated_split(ds, SplitRatios(), seed=0)
    if fault == "omits":
        manifest.test_ids.pop()
    else:
        manifest.test_ids.append(manifest.train_ids[0])
    path = tmp_path / "split.json"
    save_manifest(manifest, path)
    with pytest.raises(SplitError) as exc:
        load_manifest(path, ds)
    assert str(exc.value) == f"manifest {path}: {message}"


@pytest.mark.parametrize("val_fraction", [0, 0.05, 0.1, 0.15, 0.3, 0.7, 0.99])
def test_mixed_validation_count_is_the_ceiling_the_old_loop_reached(val_fraction):
    for total in range(3, 201):
        val_n = 0  # the loop event_mixed_split used to run
        while val_n < val_fraction * total and val_n < total - 2:
            val_n += 1
        ds = dataset_from_sizes([total - 2, 1, 1])
        manifest = event_mixed_split(ds, SplitRatios(val_fraction=val_fraction), seed=0)
        assert len(manifest.val_ids) == val_n, total


def test_manifest_missing_field(tmp_path):
    ds = dataset_from_sizes([3, 3, 3])
    path = tmp_path / "bad.json"
    path.write_text('{"seed": 0, "train": [], "val": []}')
    with pytest.raises(SplitError, match="missing"):
        load_manifest(path, ds)


def test_manifest_unknown_id(tmp_path):
    ds = dataset_from_sizes([3, 3, 3])
    path = tmp_path / "bad.json"
    path.write_text('{"seed": 0, "train": ["ghost"], "val": [], "test": []}')
    with pytest.raises(SplitError, match="unknown"):
        load_manifest(path, ds)


def test_assert_valid_catches_double_assignment():
    ds = dataset_from_sizes([3, 3, 3])
    manifest = event_separated_split(ds, SplitRatios(), seed=0)
    broken = SplitManifest(
        train_ids=manifest.train_ids + [manifest.test_ids[0]],
        val_ids=manifest.val_ids,
        test_ids=manifest.test_ids,
        seed=0,
    )
    with pytest.raises(SplitError, match="twice"):
        broken.assert_valid(ds, event_separated=False)


def test_assert_valid_catches_straddling_event():
    ds = dataset_from_sizes([4, 4, 4])
    manifest = SplitManifest(
        train_ids=[i.id for i in ds.instances[:6]],
        val_ids=[],
        test_ids=[i.id for i in ds.instances[6:]],
        train_events={"event-0", "event-1"},
        val_events=set(),
        test_events={"event-1", "event-2"},
        seed=0,
    )
    with pytest.raises(SplitError, match="boundary"):
        manifest.assert_valid(ds)

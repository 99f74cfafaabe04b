import json

import numpy as np
import pytest

from fade.data import (
    Dataset,
    DatasetParseError,
    DatasetValidationError,
    NewsInstance,
    PropagationGraph,
    adjacency_entries,
    atomic_write,
    load_dataset,
    normalized_adjacency,
    save_dataset,
)


def messy_graph(rng, n):
    """A tree over n nodes plus duplicate, reversed and cycle-closing edges."""
    edges = [[int(rng.integers(0, i)), i] for i in range(1, n)]
    if n > 1:
        edges.append(list(edges[0]))  # duplicate
        edges.append(edges[-1][::-1])  # reversed
    if n > 2:
        a, b = (int(v) for v in rng.choice(n, 2, replace=False))
        edges.append([a, b])  # closes a cycle unless it repeats an edge
    return PropagationGraph(n=n, x=rng.normal(size=(n, 2)), edges=edges)


def make_instance(iid="a", n=3, dim=4, label=0, event="e1", edges=None):
    rng = np.random.default_rng(abs(hash(iid)) % 2**32)
    if edges is None:
        edges = [(0, i) for i in range(1, n)]
    return NewsInstance(
        id=iid,
        graph=PropagationGraph(n=n, x=rng.normal(size=(n, dim)), edges=edges),
        label=label,
        event=event,
    )


class TestNormalizedAdjacency:
    def test_single_node(self):
        g = PropagationGraph(n=1, x=np.zeros((1, 2)), edges=[])
        assert np.array_equal(normalized_adjacency(g), [[1.0]])

    def test_two_nodes_one_edge(self):
        g = PropagationGraph(n=2, x=np.zeros((2, 2)), edges=[(0, 1)])
        assert np.allclose(normalized_adjacency(g), 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_star_matches_brute_force(self):
        g = PropagationGraph(n=4, x=np.zeros((4, 2)), edges=[(0, 1), (0, 2), (0, 3)])
        a = np.zeros((4, 4))
        for p, c in g.edges:
            a[p, c] = a[c, p] = 1.0
        a_tilde = a + np.eye(4)
        d = np.diag(a_tilde.sum(axis=1))
        expected = np.linalg.inv(np.sqrt(d)) @ a_tilde @ np.linalg.inv(np.sqrt(d))
        assert np.max(np.abs(normalized_adjacency(g) - expected)) < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_symmetric_with_spectrum_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        g = PropagationGraph(n=n, x=np.zeros((n, 1)), edges=edges)
        nrm = normalized_adjacency(g)
        assert np.max(np.abs(nrm - nrm.T)) == 0.0
        eigs = np.linalg.eigvalsh(nrm)
        assert np.all(eigs >= -1.0 - 1e-12)
        assert np.all(eigs <= 1.0 + 1e-12)

    def test_isolated_node_row_is_unit_self_loop(self):
        # disconnected graphs are rejected by validate(), but the normalizer
        # itself must still treat an isolated node as a unit self-loop
        g = PropagationGraph(n=3, x=np.zeros((3, 1)), edges=[(0, 1)])
        nrm = normalized_adjacency(g)
        assert np.array_equal(nrm[2], [0.0, 0.0, 1.0])


class TestAdjacencyEntries:
    @pytest.mark.parametrize("seed", range(6))
    def test_equal_the_dense_nonzeros_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        for n in [1, 2, 3] + [int(v) for v in rng.integers(4, 40, size=20)]:
            g = messy_graph(rng, n)
            dense = normalized_adjacency(g)
            rows, cols, weights = adjacency_entries(g)
            r, c = np.nonzero(dense)  # row-major
            assert np.array_equal(rows, r) and np.array_equal(cols, c)
            assert weights.tobytes() == dense[r, c].tobytes()

    def test_cached_per_graph_and_read_only(self):
        g = messy_graph(np.random.default_rng(0), 5)
        assert g.entries is g.entries
        with pytest.raises(ValueError):
            g.entries[2][0] = 0.0

    def test_propagated_x_is_the_dense_product(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 7, 30):
            g = messy_graph(rng, n)
            assert np.allclose(g.propagated_x, normalized_adjacency(g) @ g.x, atol=1e-14)


class TestValidation:
    def test_valid_roundtrip_header_and_two_lines(self, tmp_path):
        ds = Dataset(class_names=["N", "F"], feature_dim=4)
        ds.instances = [make_instance("a"), make_instance("b", event="e2", label=1)]
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.class_names == ["N", "F"]
        assert len(loaded.instances) == 2

    def test_edge_endpoint_out_of_range(self):
        inst = make_instance("bad", n=3, edges=[(0, 7)])
        ds = Dataset(class_names=["N", "F"], feature_dim=4, instances=[inst])
        with pytest.raises(DatasetValidationError, match="edge endpoint out of range"):
            ds.validate()

    def test_self_loop_rejected(self):
        inst = make_instance("bad", n=3, edges=[(0, 1), (1, 1), (0, 2)])
        ds = Dataset(class_names=["N", "F"], feature_dim=4, instances=[inst])
        with pytest.raises(DatasetValidationError, match="self-loop"):
            ds.validate()

    def test_unreachable_node_rejected(self):
        inst = make_instance("bad", n=3, edges=[(0, 1)])
        ds = Dataset(class_names=["N", "F"], feature_dim=4, instances=[inst])
        with pytest.raises(DatasetValidationError, match="unreachable"):
            ds.validate()

    def test_duplicate_ids_rejected(self):
        ds = Dataset(
            class_names=["N", "F"],
            feature_dim=4,
            instances=[make_instance("a"), make_instance("a")],
        )
        with pytest.raises(DatasetValidationError, match="duplicate"):
            ds.validate()

    def test_label_out_of_range_names_instance(self):
        ds = Dataset(class_names=["N", "F"], feature_dim=4, instances=[make_instance("z", label=5)])
        with pytest.raises(DatasetValidationError, match="'z'"):
            ds.validate()

    def test_empty_event_rejected(self):
        ds = Dataset(class_names=["N", "F"], feature_dim=4, instances=[make_instance("a", event="")])
        with pytest.raises(DatasetValidationError, match="event"):
            ds.validate()


class TestIO:
    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"classes": ["N", "F"], "feature_dim": 2}\n{not json\n')
        with pytest.raises(DatasetParseError, match="line 2"):
            load_dataset(path)

    def test_missing_header_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"classes": ["N", "F"]}\n')
        with pytest.raises(DatasetParseError, match="feature_dim"):
            load_dataset(path)

    def test_validation_error_on_load_names_instance(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = {"id": "q", "event": "e", "label": 0, "n": 3,
               "edges": [[0, 7]], "x": [[0.0, 0.0]] * 3}
        path.write_text('{"classes": ["N", "F"], "feature_dim": 2}\n' + json.dumps(rec) + "\n")
        with pytest.raises(DatasetValidationError, match="edge endpoint out of range"):
            load_dataset(path)

    def test_empty_dataset_is_header_only(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        save_dataset(Dataset(class_names=["N", "F"], feature_dim=3), path)
        assert path.read_text().count("\n") == 1
        assert load_dataset(path).instances == []

    def test_one_instance_is_two_lines(self, tmp_path):
        path = tmp_path / "one.jsonl"
        save_dataset(
            Dataset(class_names=["N", "F"], feature_dim=4, instances=[make_instance("a")]),
            path,
        )
        assert path.read_text().count("\n") == 2

    def test_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(42)
        ds = Dataset(class_names=["N", "F", "T", "U"], feature_dim=5)
        for i in range(10):
            n = int(rng.integers(1, 8))
            edges = [[int(rng.integers(0, j)), j] for j in range(1, n)]
            ds.instances.append(
                NewsInstance(
                    id=f"i{i}",
                    graph=PropagationGraph(n=n, x=rng.normal(size=(n, 5)), edges=edges),
                    label=int(rng.integers(0, 4)),
                    event=f"e{i % 3}",
                )
            )
        path = tmp_path / "rt.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.class_names == ds.class_names
        assert loaded.feature_dim == ds.feature_dim
        for a, b in zip(loaded.instances, ds.instances):
            assert a.id == b.id and a.event == b.event and a.label == b.label
            assert a.graph.n == b.graph.n and a.graph.edges == b.graph.edges
            assert np.array_equal(a.graph.x, b.graph.x)

    def test_events_helper_preserves_order(self):
        ds = Dataset(
            class_names=["N", "F"],
            feature_dim=4,
            instances=[make_instance("a", event="x"), make_instance("b", event="y"),
                       make_instance("c", event="x")],
        )
        assert ds.events() == ["x", "y"]


class _FailingParams:
    """Checkpoint input whose second tensor cannot be encoded as float64."""

    def named_tensors(self):
        return {"a": np.ones((2, 2)), "b": np.array([["not a number"]], dtype=object)}


def _dataset_failing_at_second_instance():
    bad = make_instance("b", dim=4)
    bad.graph.x = np.array([[0.5] * 3 + [object()]] * 3, dtype=object)
    return Dataset(class_names=["T", "F"], feature_dim=4, instances=[make_instance("a"), bad])


def _write_dataset(path, fail):
    ds = _dataset_failing_at_second_instance() if fail else Dataset(
        class_names=["N", "F"], feature_dim=4, instances=[make_instance("a")]
    )
    save_dataset(ds, path)


def _write_checkpoint(path, fail):
    from fade.encoder import init_encoder
    from fade.predictors import AffineParams, EventOnlyPredictorParams, save_checkpoint

    rng = np.random.default_rng(0)
    params = EventOnlyPredictorParams(
        encoder=init_encoder(3, 4, 1, rng),
        classifier=AffineParams(w=rng.normal(size=(4, 2)), b=np.zeros((1, 2))),
    )
    save_checkpoint(_FailingParams() if fail else params, path)


def _write_manifest(path, fail):
    from fade.splitter import SplitManifest, save_manifest

    test_ids = ["c", object()] if fail else ["c"]
    save_manifest(SplitManifest(train_ids=["a"], val_ids=["b"], test_ids=test_ids), path)


def _write_cli_json(path, fail):
    from fade.cli import _write_json

    _write_json(path, {"generated_at": "t", "value": object() if fail else 1.0})


class TestAtomicWrite:
    @pytest.mark.parametrize(
        "writer", [_write_dataset, _write_checkpoint, _write_manifest, _write_cli_json]
    )
    def test_failed_write_leaves_old_file_and_no_temp_file(self, tmp_path, writer):
        path = tmp_path / "artifact"
        writer(path, fail=False)
        before = path.read_bytes()
        with pytest.raises((TypeError, ValueError)):
            writer(path, fail=True)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_partial_block_is_discarded_and_success_replaces(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_write(path, binary=True) as fh:
                fh.write(b"half")
                raise RuntimeError("stop")
        assert path.read_bytes() == b"old"
        with atomic_write(path) as fh:
            fh.write("new\n")
        assert path.read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f.bin"]

    def test_missing_directory_error_names_the_destination(self, tmp_path):
        path = tmp_path / "no_such_dir" / "f.json"
        with pytest.raises(FileNotFoundError) as info:
            with atomic_write(path) as fh:
                fh.write("{}")
        assert info.value.filename == str(path)

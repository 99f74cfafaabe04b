import json
import math
import os
import stat
import tracemalloc
import zlib

import numpy as np
import pytest

from fade.cli import main
from fade.data import (
    Dataset,
    DatasetError,
    DatasetParseError,
    DatasetValidationError,
    NewsInstance,
    PropagationGraph,
    adjacency_entries,
    atomic_write,
    event_groups,
    load_dataset,
    normalized_adjacency,
    save_dataset,
)
from fade.predictors import EventOnlyPredictorParams
from fade.splitter import SplitError, SplitManifest, load_manifest, save_manifest
from fade.synthgen import generate, preset


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
    rng = np.random.default_rng(zlib.crc32(iid.encode()))
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


class TestValidation:
    def test_valid_roundtrip_header_and_two_lines(self, tmp_path):
        ds = Dataset(class_names=["N", "F"], feature_dim=4)
        ds.instances = [make_instance("a"), make_instance("b", event="e2", label=1)]
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.class_names == ["N", "F"]
        assert len(loaded.instances) == 2

    def test_blank_line_between_instances_is_skipped(self, tmp_path):
        ds = Dataset(class_names=["N", "F"], feature_dim=4)
        ds.instances = [make_instance("a"), make_instance("b", event="e2", label=1)]
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        header, first, second = path.read_text().splitlines()
        path.write_text("\n".join([header, first, "", second]) + "\n")
        assert [inst.id for inst in load_dataset(path).instances] == ["a", "b"]

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

    @pytest.mark.parametrize("x", ['{"a": 1}', '[[1, 2], [3]]', '"abc"', '[["0.5", 0.5]]',
                                   '[[true, 0.5]]',
                                   pytest.param("[[1" + "0" * 400 + ", 0.5]]", id="1e400-int")])
    def test_non_numeric_x_is_a_parse_error_naming_file_and_line(self, tmp_path, x):
        path = tmp_path / "bad.jsonl"
        rec = '{"id": "q", "event": "e", "label": 0, "n": 1, "edges": [], "x": ' + x + "}"
        path.write_text('{"classes": ["N", "F"], "feature_dim": 2}\n' + rec + "\n")
        with pytest.raises(DatasetParseError, match="bad.jsonl: line 2: x must be a rectangular"):
            load_dataset(path)

    @pytest.mark.parametrize("field, value", [
        ("edges", [[0, 1.9]]),
        ("edges", [[0, "1"]]),
        ("edges", [[False, True]]),
        ("edges", ["01"]),
        ("label", True),
        ("label", 1.0),
        ("n", True),
        ("event", ["a"]),
        ("id", 7),
        ("feature_dim", True),
        ("feature_dim", 0),
        ("classes", ["a"]),
        ("classes", ["a", "a"]),
        ("classes", ["a", 1]),
        ("classes", ["a\u0001", "b"]),
        ("classes", ["\ud800", "b"]),
        ("classes", ["a", "b\tc"]),
        ("classes", ["a", "\u0085"]),
        ("id", "q\n"),
        ("id", "q\u007f"),
        ("id", "\udfff"),
        ("event", "e\t"),
        ("event", "\u0000"),
        ("event", "e\ufffe"),
        ("event", "e\uffff"),
    ], ids=str)
    def test_wrongly_typed_field_is_a_parse_error_naming_file_line_and_field(
        self, tmp_path, field, value
    ):
        # A well-formed header and two-node instance, with one field replaced.
        header = {"classes": ["N", "F"], "feature_dim": 2}
        rec = {"id": "q", "event": "e", "label": 0, "n": 2, "edges": [[0, 1]],
               "x": [[0.5, 0.5], [0.5, 0.5]]}
        line = 1 if field in header else 2
        (header if line == 1 else rec)[field] = value
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(header) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(DatasetParseError, match=f"bad.jsonl: line {line}: {field} must be"):
            load_dataset(path)

    @pytest.mark.parametrize("header, rec, message", [
        (["N", "F"], {}, "line 1: header must be a JSON object"),
        (None, [1], "line 2: instance line must be a JSON object"),
        (None, {"x": []}, "line 2: x must be a 2-D array"),
        (None, {"x": [[math.nan, 0.5], [0.5, 0.5]]}, "instance 'q': non-finite feature value"),
        (None, {"n": 0}, "instance 'q': graph must have at least one node"),
    ], ids=["header-list", "instance-list", "x-empty", "x-nan", "n-zero"])
    def test_rejected_file_exits_3_naming_it(self, tmp_path, capsys, header, rec, message):
        # A well-formed header and two-node instance, with one part replaced.
        if header is None:
            header = {"classes": ["N", "F"], "feature_dim": 2}
        if isinstance(rec, dict):
            rec = {"id": "q", "event": "e", "label": 0, "n": 2, "edges": [[0, 1]],
                   "x": [[0.5, 0.5], [0.5, 0.5]], **rec}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(header) + "\n" + json.dumps(rec) + "\n")
        assert main(["split", "--data", str(path), "--out", str(tmp_path / "m.json")]) == 3
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("eol, iid, message", [
        ("\n", "q\u2028r", None),
        ("\n", "\u2029", None),
        ("\n", "q\u0085", "line 2: id must be a printable string"),
        ("\r\n", "q", None),
        ("\r", "q", None),
    ], ids=["U+2028", "U+2029", "U+0085", "CRLF", "CR"])
    def test_lines_end_at_cr_and_lf_only(self, tmp_path, eol, iid, message):
        # Names written raw, as json.dumps(..., ensure_ascii=False) writes them.
        rec = {"id": iid, "event": "e", "label": 0, "n": 1, "edges": [], "x": [[0.5, 0.5]]}
        lines = ['{"classes": ["N", "F"], "feature_dim": 2}', json.dumps(rec, ensure_ascii=False)]
        path = tmp_path / "eol.jsonl"
        path.write_bytes((eol.join(lines) + eol).encode())
        if message is None:  # the line loads, and a bad line after it keeps its number
            assert [i.id for i in load_dataset(path).instances] == [iid]
            path.write_bytes((eol.join([*lines, "{not json"]) + eol).encode())
            message = "line 3: bad JSON"
        with pytest.raises(DatasetParseError, match=f"eol.jsonl: {message}"):
            load_dataset(path)

    def test_load_holds_the_file_once(self, tmp_path):
        # The bytes and their lines, not also the decoded text and its lines:
        # about 1.4x the file size above what the dataset keeps, 2.4x before.
        path = tmp_path / "t15.jsonl"
        save_dataset(generate(preset("t15-like", n_events=5)), path)  # about 350 kB
        tracemalloc.start()
        try:
            ds = load_dataset(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ds.instances) > 0
        assert peak - retained < 1.7 * path.stat().st_size

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

    def test_event_groups_lists_positions_in_first_appearance_order(self):
        groups = event_groups(["b", "a", "b", "c", "a", "b"])
        assert list(groups) == ["b", "a", "c"]
        assert groups == {"b": [0, 2, 5], "a": [1, 4], "c": [3]}
        assert event_groups(iter([])) == {}

    def test_names_may_hold_any_other_character(self, tmp_path):
        names = ["plain", "caf\u00e9 \u00a0space", "\u200d\U0001f600", "\ufffd"]
        ds = Dataset(class_names=names, feature_dim=4, instances=[
            make_instance(name, event=name, label=k) for k, name in enumerate(names)
        ])
        path = tmp_path / "names.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.class_names == names
        assert [(i.id, i.event) for i in loaded.instances] == [(n, n) for n in names]

    def test_events_helper_preserves_order(self):
        ds = Dataset(
            class_names=["N", "F"],
            feature_dim=4,
            instances=[make_instance("a", event="x"), make_instance("b", event="y"),
                       make_instance("c", event="x")],
        )
        assert ds.events() == ["x", "y"]

    @pytest.mark.parametrize("kind", ["dataset", "manifest"])
    def test_truncated_or_flipped_file_raises_typed_error_or_loads(self, tmp_path, kind):
        rng = np.random.default_rng(0)
        ds = Dataset(class_names=["real", "fake"], feature_dim=3, instances=[
            NewsInstance(f"n{i}", PropagationGraph(3, rng.normal(size=(3, 3)), [[0, 1], [0, 2]]),
                         i % 2, f"e{i % 4}")
            for i in range(8)
        ])
        path = tmp_path / kind
        if kind == "dataset":
            save_dataset(ds, path)  # 2.2 kB
            load, error = load_dataset, DatasetError
        else:
            save_manifest(SplitManifest(["n0", "n1", "n4", "n5"], ["n2", "n6"], ["n3", "n7"]), path)
            load, error = lambda p: load_manifest(p, ds), SplitError
        blob = path.read_bytes()
        cases = [(blob[:end], False) for end in range(len(blob))]
        for offset in range(len(blob)):
            for bit in (0x01, 0x80):  # 0x80 makes the byte invalid UTF-8
                flipped = bytearray(blob)
                flipped[offset] ^= bit
                cases.append((bytes(flipped), bit == 0x80))
        for case, not_utf8 in cases:
            path.write_bytes(case)
            try:
                load(path)
            except error as e:
                assert not not_utf8 or str(path) in str(e), str(e)
            else:
                assert not not_utf8


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
    from fade.predictors import save_checkpoint

    rng = np.random.default_rng(0)
    tensors = {"encoder.layer.0": rng.normal(size=(3, 4)),
               "classifier.weight": rng.normal(size=(4, 2)), "classifier.bias": np.zeros((1, 2))}
    if fail:  # a last tensor that cannot be encoded as float64
        tensors["b"] = np.array([["not a number"]], dtype=object)
    save_checkpoint(EventOnlyPredictorParams(tensors), path)


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

    def test_a_name_at_the_length_limit_is_written(self, tmp_path):
        # the temporary file's name must fit wherever the target's does
        path = tmp_path / ("a" * 245 + ".json")
        with atomic_write(path) as fh:
            fh.write("{}")
        assert path.read_text() == "{}"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_a_fifo_is_refused_not_replaced(self, tmp_path, capsys):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        with pytest.raises(OSError, match="fifo: exists and is not a regular file"):
            with atomic_write(fifo) as fh:
                fh.write("{}")
        data = tmp_path / "d.jsonl"
        assert main(["gen-synth", "--set", "n_events=3", "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["split", "--data", str(data), "--out", str(fifo)]) == 3
        assert capsys.readouterr().err == f"error: {fifo}: exists and is not a regular file\n"
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", "fifo"]

    def test_missing_directory_error_names_the_destination(self, tmp_path):
        path = tmp_path / "no_such_dir" / "f.json"
        with pytest.raises(FileNotFoundError) as info:
            with atomic_write(path) as fh:
                fh.write("{}")
        assert info.value.filename == str(path)

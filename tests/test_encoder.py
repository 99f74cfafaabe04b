import tracemalloc

import numpy as np
import pytest

import fade.encoder
from fade.autodiff import ShapeError, backward, param, sum_all
from fade.data import PropagationGraph
from fade.encoder import encode_all, encode_batch_node


def random_tree(rng, n, dim):
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    return PropagationGraph(n=n, x=rng.normal(size=(n, dim)), edges=edges)


def random_encoder(feature_dim, hidden_dim, n_layers, rng):
    dims = [feature_dim] + [hidden_dim] * n_layers
    return [rng.normal(0.0, np.sqrt(2.0 / a), (a, b)) for a, b in zip(dims, dims[1:])]


def brute_force_encode(layers, g):
    # independent dense evaluation of the layer rule and mean pooling
    a = np.zeros((g.n, g.n))
    for p, c in g.edges:
        a[p, c] = a[c, p] = 1.0
    a_tilde = a + np.eye(g.n)
    d = a_tilde.sum(axis=1)
    n = a_tilde / np.sqrt(np.outer(d, d))
    h = g.x
    for w in layers:
        h = np.maximum(n @ h @ w, 0.0)
    return h.mean(axis=0, keepdims=True)


class TestEncode:
    def test_single_node_identity_weights(self):
        x = np.array([[0.5, -2.0, 3.0]])
        g = PropagationGraph(n=1, x=x, edges=[])
        rep = encode_all([np.eye(3)], [g], "mean")
        assert np.allclose(rep, np.maximum(x, 0.0), atol=1e-15)

    def test_zero_features_give_zero_representation(self):
        rng = np.random.default_rng(0)
        g = PropagationGraph(n=4, x=np.zeros((4, 5)), edges=[(0, 1), (0, 2), (2, 3)])
        layers = random_encoder(5, 8, 2, rng)
        assert np.array_equal(encode_all(layers, [g], "mean"), np.zeros((1, 8)))

    def test_path_graph_matches_brute_force(self):
        rng = np.random.default_rng(1)
        g = PropagationGraph(n=3, x=rng.normal(size=(3, 4)), edges=[(0, 1), (1, 2)])
        layers = random_encoder(4, 6, 2, rng)
        expected = brute_force_encode(layers, g)
        assert np.max(np.abs(encode_all(layers, [g], "mean") - expected)) < 1e-10

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        g = random_tree(rng, 6, 4)
        layers = random_encoder(4, 8, 2, rng)
        base = encode_all(layers, [g], "mean")

        perm = rng.permutation(6)
        inv = np.argsort(perm)
        # node i moves to position perm[i]; features and edges follow
        x2 = g.x[inv]
        edges2 = [(int(perm[p]), int(perm[c])) for p, c in g.edges]
        g2 = PropagationGraph(n=6, x=x2, edges=edges2)
        assert np.max(np.abs(encode_all(layers, [g2], "mean") - base)) < 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        g = random_tree(rng, 5, 4)
        layers = random_encoder(4, 8, 2, rng)
        assert np.array_equal(encode_all(layers, [g], "mean"), encode_all(layers, [g], "mean"))

    def test_dimension_mismatch_raises(self):
        g = PropagationGraph(n=2, x=np.zeros((2, 3)), edges=[(0, 1)])
        with pytest.raises(ShapeError):
            encode_all([np.zeros((4, 8))], [g], "mean")

    def test_bad_layer_chain_rejected(self):
        g = PropagationGraph(n=2, x=np.zeros((2, 3)), edges=[(0, 1)])
        with pytest.raises(ShapeError, match=r"\(2, 8\) vs \(7, 8\)"):
            encode_all([np.zeros((3, 8)), np.zeros((7, 8))], [g], "mean")

    def test_add_pooling_is_rejected(self):
        g = PropagationGraph(n=2, x=np.zeros((2, 3)), edges=[(0, 1)])
        layers = [np.zeros((3, 8))]
        with pytest.raises(ValueError, match="pooling must be one of"):
            encode_all(layers, [g], "add")
        with pytest.raises(ValueError, match="pooling must be one of"):
            encode_batch_node([param(layers[0])], [g], "add")


class TestBatched:
    def test_batched_matches_per_instance(self, monkeypatch):
        rng = np.random.default_rng(4)
        graphs = [random_tree(rng, int(rng.integers(1, 7)), 4) for _ in range(9)]
        layers = random_encoder(4, 8, 2, rng)
        whole = encode_all(layers, graphs, "mean")
        monkeypatch.setattr(fade.encoder, "_CHUNK", 4)
        batched = encode_all(layers, graphs, "mean")
        assert np.array_equal(batched, whole)
        singles = np.vstack([encode_all(layers, [g], "mean") for g in graphs])
        many = np.array([g.n > 1 for g in graphs])
        assert np.array_equal(batched[many], singles[many])
        # A lone 1-node graph is a one-row batch, whose products numpy hands
        # to BLAS gemv rather than gemm, so its row may differ in the last bit.
        assert not many.all()
        assert np.allclose(batched[~many], singles[~many], rtol=0, atol=1e-14)

    def test_empty_batch(self):
        layers = random_encoder(4, 8, 2, np.random.default_rng(0))
        assert encode_all(layers, [], "mean").shape == (0, 8)

    def test_adjacency_built_once_per_graph(self, monkeypatch):
        import fade.data

        rng = np.random.default_rng(6)
        graphs = [random_tree(rng, int(rng.integers(1, 7)), 4) for _ in range(5)]
        layers = random_encoder(4, 8, 2, rng)
        calls = []
        original = fade.data.adjacency_entries

        def counting(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(fade.data, "adjacency_entries", counting)
        # the encoder never forms the dense adjacency
        monkeypatch.setattr(fade.data, "normalized_adjacency", None)
        monkeypatch.setattr(fade.encoder, "_CHUNK", 2)
        first = encode_all(layers, graphs, "mean")
        second = encode_all(layers, graphs, "mean")
        assert len(calls) == len(graphs)
        assert np.array_equal(first, second)
        for g in graphs:
            for cached, fresh in zip(g.entries, original(g)):
                assert np.array_equal(cached, fresh)

    def test_gradients_flow_to_all_layers(self):
        rng = np.random.default_rng(5)
        graphs = [random_tree(rng, 4, 3) for _ in range(2)]
        weights = [param(rng.normal(size=(3, 5))), param(rng.normal(size=(5, 5)))]
        out = encode_batch_node(weights, graphs, "mean")
        backward(sum_all(out))
        assert np.any(weights[0].grad != 0)
        assert np.any(weights[1].grad != 0)


class TestScaling:
    def test_memory_stays_far_below_one_dense_batch_matrix(self):
        rng = np.random.default_rng(8)
        trees = [random_tree(rng, int(rng.integers(300, 501)), 4) for _ in range(64)]
        stars = []
        for _ in range(64):
            n = int(rng.integers(300, 501))
            edges = [(0, i) for i in range(1, n)]
            stars.append(PropagationGraph(n=n, x=rng.normal(size=(n, 4)), edges=edges))
        for graphs in (trees, stars):
            total = sum(g.n for g in graphs)
            weights = [param(rng.normal(size=(4, 8))), param(rng.normal(size=(8, 8)))]
            tracemalloc.start()
            try:
                backward(sum_all(encode_batch_node(weights, graphs, "mean")))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < total * total * 8 / 10
            # no (B, sum N) pooling matrix either: that alone would be 1x
            assert peak < 2.5 * len(graphs) * total * 8
            assert np.all(np.isfinite(weights[0].grad)) and np.any(weights[0].grad != 0)

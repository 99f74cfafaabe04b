import tracemalloc

import numpy as np
import pytest

from fade.autodiff import ShapeError, backward, param, sum_all
from fade.data import PropagationGraph
from fade.encoder import (
    EncoderParams,
    encode_all,
    encode_batch_node,
    init_encoder,
)


def random_tree(rng, n, dim):
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    return PropagationGraph(n=n, x=rng.normal(size=(n, dim)), edges=edges)


def brute_force_encode(layers, g, pooling):
    # independent dense evaluation of the layer rule and pooling
    a = np.zeros((g.n, g.n))
    for p, c in g.edges:
        a[p, c] = a[c, p] = 1.0
    a_tilde = a + np.eye(g.n)
    d = a_tilde.sum(axis=1)
    n = a_tilde / np.sqrt(np.outer(d, d))
    h = g.x
    for w in layers:
        h = np.maximum(n @ h @ w, 0.0)
    return h.mean(axis=0, keepdims=True) if pooling == "mean" else h.sum(axis=0, keepdims=True)


class TestEncode:
    def test_single_node_identity_weights(self):
        x = np.array([[0.5, -2.0, 3.0]])
        g = PropagationGraph(n=1, x=x, edges=[])
        params = EncoderParams(layers=[np.eye(3)], pooling="mean")
        rep = encode_all(params, [g])
        assert np.allclose(rep, np.maximum(x, 0.0), atol=1e-15)

    def test_zero_features_give_zero_representation(self):
        rng = np.random.default_rng(0)
        g = PropagationGraph(n=4, x=np.zeros((4, 5)), edges=[(0, 1), (0, 2), (2, 3)])
        params = init_encoder(5, 8, 2, rng)
        assert np.array_equal(encode_all(params, [g]), np.zeros((1, 8)))

    @pytest.mark.parametrize("pooling", ["mean", "add"])
    def test_path_graph_matches_brute_force(self, pooling):
        rng = np.random.default_rng(1)
        g = PropagationGraph(n=3, x=rng.normal(size=(3, 4)), edges=[(0, 1), (1, 2)])
        params = init_encoder(4, 6, 2, rng, pooling=pooling)
        expected = brute_force_encode(params.layers, g, pooling)
        assert np.max(np.abs(encode_all(params, [g]) - expected)) < 1e-10

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        g = random_tree(rng, 6, 4)
        params = init_encoder(4, 8, 2, rng)
        base = encode_all(params, [g])

        perm = rng.permutation(6)
        inv = np.argsort(perm)
        # node i moves to position perm[i]; features and edges follow
        x2 = g.x[inv]
        edges2 = [(int(perm[p]), int(perm[c])) for p, c in g.edges]
        g2 = PropagationGraph(n=6, x=x2, edges=edges2)
        assert np.max(np.abs(encode_all(params, [g2]) - base)) < 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        g = random_tree(rng, 5, 4)
        params = init_encoder(4, 8, 2, rng)
        assert np.array_equal(encode_all(params, [g]), encode_all(params, [g]))

    def test_dimension_mismatch_raises(self):
        g = PropagationGraph(n=2, x=np.zeros((2, 3)), edges=[(0, 1)])
        params = EncoderParams(layers=[np.zeros((4, 8))])
        with pytest.raises(ShapeError):
            encode_all(params, [g])

    def test_bad_layer_chain_rejected(self):
        params = EncoderParams(layers=[np.zeros((3, 8)), np.zeros((7, 8))])
        with pytest.raises(ShapeError, match="layer 0"):
            params.validate()


class TestBatched:
    def test_batched_matches_per_instance(self):
        rng = np.random.default_rng(4)
        graphs = [random_tree(rng, int(rng.integers(1, 7)), 4) for _ in range(9)]
        params = init_encoder(4, 8, 2, rng)
        batched = encode_all(params, graphs, chunk=4)
        singles = np.vstack([encode_all(params, [g]) for g in graphs])
        assert np.max(np.abs(batched - singles)) < 1e-10

    def test_empty_batch(self):
        params = init_encoder(4, 8, 2, np.random.default_rng(0))
        assert encode_all(params, []).shape == (0, 8)

    def test_adjacency_built_once_per_graph(self, monkeypatch):
        import fade.data

        rng = np.random.default_rng(6)
        graphs = [random_tree(rng, int(rng.integers(1, 7)), 4) for _ in range(5)]
        params = init_encoder(4, 8, 2, rng)
        calls = []
        original = fade.data.adjacency_entries

        def counting(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(fade.data, "adjacency_entries", counting)
        # the encoder never forms the dense adjacency
        monkeypatch.setattr(fade.data, "normalized_adjacency", None)
        first = encode_all(params, graphs, chunk=2)
        second = encode_all(params, graphs, chunk=2)
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
            assert np.all(np.isfinite(weights[0].grad)) and np.any(weights[0].grad != 0)

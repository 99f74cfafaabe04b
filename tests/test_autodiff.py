import numpy as np
import pytest

from fade import autodiff as ad
from fade.data import PropagationGraph, normalized_adjacency
from fade.encoder import _batch_parts


def numeric_grad(f, x, eps=1e-5):
    """Central finite differences of scalar f w.r.t. array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = f()
        x[idx] = orig - eps
        lo = f()
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-12)


def test_as_matrix_rejects_more_than_two_dimensions():
    with pytest.raises(ad.ShapeError, match="matrices are 2-D"):
        ad.as_matrix(np.zeros((2, 2, 2)))


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(ad.const([[1.0, 0.0], [0.0, 1.0]]), ad.const([[3.0], [4.0]]))
        assert np.array_equal(out.value, [[3.0], [4.0]])

    def test_hand_arithmetic(self):
        out = ad.matmul(ad.const([[1.0, 2.0]]), ad.const([[3.0], [4.0]]))
        assert out.value[0, 0] == 11.0

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(ad.const(np.zeros((2, 3))), ad.const(np.zeros((2, 2))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a_val = rng.uniform(-1, 1, (3, 4))
        b_val = rng.uniform(-1, 1, (4, 2))
        a, b = ad.param(a_val), ad.param(b_val)
        loss = ad.sum_all(ad.matmul(a, b))
        ad.backward(loss)

        fd_a = numeric_grad(lambda: (a_val @ b_val).sum(), a_val)
        fd_b = numeric_grad(lambda: (a_val @ b_val).sum(), b_val)
        assert rel_err(a.grad, fd_a) < 1e-4
        assert rel_err(b.grad, fd_b) < 1e-4


def messy_graphs(rng, sizes):
    """Trees plus duplicate, reversed and cycle-closing edges; n=1 allowed."""
    graphs = []
    for n in sizes:
        edges = [[int(rng.integers(0, i)), i] for i in range(1, n)]
        if n > 1:
            edges += [list(edges[0]), edges[-1][::-1]]
        if n > 2:
            edges.append([int(v) for v in rng.choice(n, 2, replace=False)])
        graphs.append(PropagationGraph(n=n, x=rng.normal(size=(n, 2)), edges=edges))
    return graphs


def block_diagonal(graphs):
    total = sum(g.n for g in graphs)
    blk = np.zeros((total, total))
    offset = 0
    for g in graphs:
        blk[offset : offset + g.n, offset : offset + g.n] = normalized_adjacency(g)
        offset += g.n
    return blk


def split_relu(out, c):
    """N @ a from gcn_layer(N, a, [I, -I]), whose output is [relu(Na), relu(-Na)]."""
    return out[:, :c] - out[:, c:]


class TestPropagate:
    """Propagation by N inside ``ad.gcn_layer``."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_block_diagonal_product(self, seed):
        rng = np.random.default_rng(seed)
        graphs = messy_graphs(rng, [1, 2, 3, 1] + [int(v) for v in rng.integers(4, 25, size=8)])
        buckets = _batch_parts(graphs)[0]
        a = rng.normal(size=(sum(g.n for g in graphs), 5))
        out = ad.gcn_layer(buckets, ad.const(a), ad.const(np.hstack([np.eye(5), -np.eye(5)])))
        expected = block_diagonal(graphs) @ a
        assert np.allclose(split_relu(out.value, 5), expected, rtol=1e-12, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        graphs = messy_graphs(rng, [1, 3, 6, 9])
        buckets = _batch_parts(graphs)[0]
        total = sum(g.n for g in graphs)
        a_val = rng.uniform(-1, 1, (total, 3))
        w_val = rng.uniform(-1, 1, (3, 4))
        c_val = rng.uniform(-1, 1, (total, 4))
        a, w = ad.param(a_val), ad.param(w_val)
        product = ad.hadamard(ad.gcn_layer(buckets, a, w), ad.const(c_val))
        ad.backward(ad.sum_all(ad.hadamard(product, product)))
        blk = block_diagonal(graphs)

        def f():
            return ((np.maximum(blk @ a_val @ w_val, 0.0) * c_val) ** 2).sum()

        assert rel_err(a.grad, numeric_grad(f, a_val)) < 1e-6
        assert rel_err(w.grad, numeric_grad(f, w_val)) < 1e-6

    def test_rows_outside_every_bucket_are_zero(self):
        buckets = [(np.array([1]), np.array([[0, 1]]), np.array([[[2.0, 3.0]]]))]
        out = ad.gcn_layer(buckets, ad.const([[1.0, 1.0], [10.0, 20.0]]), ad.const(np.eye(2)))
        assert np.array_equal(out.value, [[0.0, 0.0], [32.0, 62.0]])


class TestGcnLayer:
    @pytest.mark.parametrize("seed", range(3))
    def test_bitwise_equal_to_three_node_chain(self, seed, three_node_layer):
        rng = np.random.default_rng(seed)
        graphs = messy_graphs(rng, [1, 2, 3, 1] + [int(v) for v in rng.integers(4, 25, size=8)])
        buckets, x, _ = _batch_parts(graphs)
        w_vals = [rng.normal(size=(2, 6)), rng.normal(size=(6, 6)), rng.normal(size=(6, 6))]
        c_val = rng.normal(size=(x.shape[0], 6))
        results = []
        for layer in (ad.gcn_layer, three_node_layer):
            ws = [ad.param(v.copy()) for v in w_vals]
            h = layer(buckets, ad.const(x), ws[0])
            hidden = layer(buckets, h, ws[1])
            out = layer(buckets, hidden, ws[2])
            ad.backward(ad.sum_all(ad.hadamard(out, ad.const(c_val))))
            results.append((out.value, hidden.grad, [w.grad for w in ws]))
        (out, h_grad, w_grads), (ref_out, ref_h_grad, ref_w_grads) = results
        assert np.array_equal(out, ref_out)
        assert np.array_equal(h_grad, ref_h_grad)
        for g, ref in zip(w_grads, ref_w_grads):
            assert np.array_equal(g, ref)
            assert np.any(g != 0)

    def test_constant_input_gets_no_gradient(self):
        identity = [(np.arange(2), np.arange(2)[:, None], np.ones((2, 1, 1)))]
        h = ad.const(np.ones((2, 2)))
        w = ad.param(np.eye(2))
        ad.backward(ad.sum_all(ad.gcn_layer(identity, h, w)))
        assert h.grad is None
        assert np.array_equal(w.grad, [[2.0, 2.0], [2.0, 2.0]])

    def test_inner_dimension_mismatch_raises(self):
        with pytest.raises(ad.ShapeError, match=r"\(3, 2\).*\(3, 4\)"):
            ad.gcn_layer([], ad.const(np.zeros((3, 2))), ad.const(np.zeros((3, 4))))


def pool_matrix(sizes):
    """The dense (B, sum sizes) mean-pooling matrix that ``ad.segment_pool`` replaces."""
    pool = np.zeros((len(sizes), sum(sizes)))
    offset = 0
    for i, n in enumerate(sizes):
        pool[i, offset : offset + n] = 1.0 / n
        offset += n
    return pool


class TestSegmentPool:
    @pytest.mark.parametrize("sizes", [[1, 4, 2, 7], [3, 1, 1, 5, 1], [1], [6]])
    def test_matches_dense_pool_matrix(self, sizes):
        h = np.random.default_rng(len(sizes)).normal(size=(sum(sizes), 3))
        out = ad.segment_pool(ad.const(h), sizes)
        assert np.allclose(out.value, pool_matrix(sizes) @ h, rtol=1e-12, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        sizes = [1, 3, 2, 1]
        h_val = rng.uniform(-1, 1, (sum(sizes), 3))
        c_val = rng.uniform(-1, 1, (len(sizes), 3))
        h = ad.param(h_val)
        product = ad.hadamard(ad.segment_pool(h, sizes), ad.const(c_val))
        ad.backward(ad.sum_all(ad.hadamard(product, product)))
        pool = pool_matrix(sizes)
        fd = numeric_grad(lambda: (((pool @ h_val) * c_val) ** 2).sum(), h_val)
        assert rel_err(h.grad, fd) < 1e-6

    @pytest.mark.parametrize("sizes", [[0, 2], [2, 0, 1], [3, -1]])
    def test_size_below_one_rejected(self, sizes):
        h = ad.const(np.ones((max(sum(sizes), 1), 2)))
        with pytest.raises(ad.ShapeError, match=">= 1"):
            ad.segment_pool(h, sizes)

    def test_sizes_must_cover_every_row(self):
        with pytest.raises(ad.ShapeError, match="sum to 3"):
            ad.segment_pool(ad.const(np.ones((4, 2))), [1, 2])


class TestElementwise:
    def test_relu_values(self):
        out = ad.relu(ad.const([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.value, [[0.0, 0.0, 2.0]])

    def test_relu_matches_where_bit_for_bit(self):
        x = np.array([[-0.0, 0.0, np.nan, -np.inf, np.inf, -2.0, 3.0, 5e-324, -5e-324]])
        out = ad.relu(ad.const(x)).value
        assert out.tobytes() == np.where(x > 0, x, 0.0).tobytes()

    def test_scale_zero(self):
        out = ad.scale(ad.const([1.0, 2.0]), 0.0)
        assert np.array_equal(out.value, [[0.0, 0.0]])

    def test_relu_gradient_zero_at_zero(self):
        x = ad.param([[-1.0, 0.0, 2.0]])
        ad.backward(ad.sum_all(ad.relu(x)))
        assert np.array_equal(x.grad, [[0.0, 0.0, 1.0]])

    def test_add_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.add(ad.const(np.zeros((1, 2))), ad.const(np.zeros((2, 1))))

    @pytest.mark.parametrize("op", ["relu"])
    def test_unary_gradients_match_finite_differences(self, op):
        rng = np.random.default_rng(3)
        # keep relu inputs away from the kink, where FD is ill-defined
        x_val = rng.uniform(-1, 1, (2, 3))
        x_val[np.abs(x_val) < 0.05] = 0.1
        x = ad.param(x_val)
        loss = ad.sum_all(getattr(ad, op)(x))
        ad.backward(loss)
        ref = {"relu": lambda v: np.maximum(v, 0.0)}[op]
        fd = numeric_grad(lambda: ref(x_val).sum(), x_val)
        assert rel_err(x.grad, fd) < 1e-4

    @pytest.mark.parametrize("op", ["add", "hadamard"])
    def test_binary_gradients_match_finite_differences(self, op):
        rng = np.random.default_rng(4)
        a_val = rng.uniform(-1, 1, (3, 2))
        b_val = rng.uniform(-1, 1, (3, 2))
        a, b = ad.param(a_val), ad.param(b_val)
        loss = ad.sum_all(getattr(ad, op)(a, b))
        ad.backward(loss)
        ref = {
            "add": lambda: (a_val + b_val).sum(),
            "hadamard": lambda: (a_val * b_val).sum(),
        }[op]
        assert rel_err(a.grad, numeric_grad(ref, a_val)) < 1e-4
        assert rel_err(b.grad, numeric_grad(ref, b_val)) < 1e-4


class TestReduce:
    def test_sum_gradient_all_ones(self):
        x = ad.param(np.arange(6.0).reshape(2, 3))
        ad.backward(ad.sum_all(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_empty_input_rejected(self):
        with pytest.raises(ad.ShapeError, match="empty"):
            ad.sum_all(ad.const(np.zeros((0, 3))))


class TestBackward:
    def test_sum_of_weights(self):
        w = ad.param(np.ones((2, 2)))
        ad.backward(ad.sum_all(w))
        assert np.array_equal(w.grad, np.ones((2, 2)))

    def test_constant_loss_zero_param_gradients(self):
        w = ad.param(np.ones((2, 2)))
        loss = ad.add(ad.scale(ad.sum_all(w), 0.0), ad.const([[7.0]]))
        ad.backward(loss)
        assert np.array_equal(w.grad, np.zeros((2, 2)))

    def test_constants_get_no_gradient(self):
        rng = np.random.default_rng(6)
        n_val = rng.uniform(-1, 1, (4, 4))
        w_val = rng.uniform(-1, 1, (4, 3))
        n, w = ad.const(n_val), ad.param(w_val)
        product = ad.matmul(n, w)
        ad.backward(ad.sum_all(ad.hadamard(product, product)))
        assert n.grad is None and [p for p, _ in product.parents] == [w]
        fd = numeric_grad(lambda: ((n_val @ w_val) ** 2).sum(), w_val)
        assert rel_err(w.grad, fd) < 1e-4

    def test_loss_without_parameters_returns_no_gradients(self):
        a, b = ad.const(np.ones((2, 2))), ad.const(np.ones((2, 1)))
        product = ad.matmul(a, b)
        loss = ad.sum_all(product)
        assert ad.backward(loss) is None
        assert [n.grad for n in (a, b, product, loss)] == [None] * 4

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ad.ShapeError, match="scalar"):
            ad.backward(ad.param(np.ones((2, 2))))

    def test_shared_subexpression_accumulates(self):
        # loss = sum(x) + sum(x) -> grad 2
        x = ad.param([[1.0, 2.0]])
        s = ad.sum_all(x)
        ad.backward(ad.add(s, s))
        assert np.array_equal(x.grad, [[2.0, 2.0]])

    def test_repeat_backward_bitwise_identical(self):
        rng = np.random.default_rng(7)
        a = ad.param(rng.uniform(-1, 1, (3, 3)))
        b = ad.param(rng.uniform(-1, 1, (3, 3)))

        def grads():
            # the trainers' pattern: zero the parameter gradients, rebuild the graph
            a.grad[...] = 0.0
            b.grad[...] = 0.0
            product = ad.matmul(a, b)
            ad.backward(ad.sum_all(ad.hadamard(product, product)))
            return a.grad.copy(), b.grad.copy()

        first_a, first_b = grads()
        second_a, second_b = grads()
        assert np.array_equal(second_a, first_a)
        assert np.array_equal(second_b, first_b)


class TestCrossEntropy:
    def test_value_and_gradient_match_finite_differences(self):
        rng = np.random.default_rng(8)
        z_val = rng.uniform(-5, 5, (4, 6))
        labels = [0, 5, 2, 2]
        z = ad.param(z_val)
        out = ad.cross_entropy(z, labels)
        ad.backward(out)

        def f():
            return np.mean(np.logaddexp.reduce(z_val, axis=1) - z_val[np.arange(4), labels])

        assert abs(out.value[0, 0] - f()) < 1e-12
        assert rel_err(z.grad, numeric_grad(f, z_val)) < 1e-6

    def test_huge_logits_stay_finite(self):
        z = ad.param([[1000.0, -1000.0], [-1000.0, 1000.0], [1000.0, 1000.0]])
        out = ad.cross_entropy(z, [1, 1, 0])
        ad.backward(out)
        assert abs(out.value[0, 0] - (2000.0 + np.log(2.0)) / 3) < 1e-9
        assert np.array_equal(z.grad, [[1 / 3, -1 / 3], [0.0, 0.0], [-1 / 6, 1 / 6]])


def unit_row_loss(a, b):
    """Sum of rowwise cosines: the contrastive loss up to its -1/b factor."""
    return ad.sum_all(ad.hadamard(ad.row_normalize(a), ad.row_normalize(b)))


class TestRowNormalize:
    def test_rows_have_unit_norm(self):
        x = np.random.default_rng(9).normal(size=(5, 3)) * [[1e-6], [1.0], [3.0], [1e3], [1e8]]
        out = ad.row_normalize(ad.const(x)).value
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, rtol=1e-14, atol=0.0)
        assert np.allclose(out * np.linalg.norm(x, axis=1, keepdims=True), x, rtol=1e-14)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        a_val = rng.uniform(-1, 1, (4, 3))
        b_val = rng.uniform(-1, 1, (4, 3))
        a, b = ad.param(a_val), ad.param(b_val)
        ad.backward(unit_row_loss(a, b))

        def f():
            cos = np.sum(a_val * b_val, axis=1)
            return (cos / np.linalg.norm(a_val, axis=1) / np.linalg.norm(b_val, axis=1)).sum()

        assert rel_err(a.grad, numeric_grad(f, a_val)) < 1e-6
        assert rel_err(b.grad, numeric_grad(f, b_val)) < 1e-6

    @pytest.mark.parametrize("length, alive", [(0.999e-12, False), (1.001e-12, True)])
    def test_rows_at_most_1e_minus_24_squared_norm_are_dead(self, length, alive):
        x = ad.param([[length, 0.0], [3.0, 4.0]])
        out = ad.row_normalize(x)
        ad.backward(ad.sum_all(ad.hadamard(out, ad.const([[0.0, 1.0], [0.0, 1.0]]))))
        assert np.array_equal(out.value[0], [1.0, 0.0] if alive else [0.0, 0.0])
        assert np.any(x.grad[0] != 0) == alive
        assert np.allclose(x.grad[1], [-0.096, 0.072])  # (g - u (u.g)) / 5, u = (0.6, 0.8)

    def test_a_dead_side_stops_the_gradient_of_both_sides(self):
        a = ad.param([[0.0, 0.0], [1.0, 2.0]])
        b = ad.param([[1.0, 1.0], [2.0, -1.0]])
        ad.backward(unit_row_loss(a, b))
        assert np.array_equal(a.grad[0], [0.0, 0.0])
        assert np.array_equal(b.grad[0], [0.0, 0.0])
        assert np.all(a.grad[1] != 0) and np.all(b.grad[1] != 0)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = np.array([[1.0, -2.0]])
        state = ad.adam_init([p])
        ad.adam_step([p], [np.zeros_like(p)], state, lr=0.1)
        assert np.max(np.abs(p - [[1.0, -2.0]])) < 1e-12

    def test_descent_direction_on_quadratic(self):
        # f(w) = w^2 from w=1, lr=0.1: one step must shrink |w|
        w = np.array([[1.0]])
        state = ad.adam_init([w])
        ad.adam_step([w], [2.0 * w.copy()], state, lr=0.1)
        assert abs(w[0, 0]) < 1.0

    def test_200_steps_reach_near_zero_on_2d_quadratic(self):
        w = np.array([[1.0, -0.7]])
        state = ad.adam_init([w])
        for _ in range(200):
            ad.adam_step([w], [2.0 * w.copy()], state, lr=0.1)
        assert np.linalg.norm(w) < 1e-2

    def test_non_finite_gradient_raises_with_step_index(self):
        p = np.array([[1.0]])
        state = ad.adam_init([p])
        ad.adam_step([p], [np.array([[0.5]])], state, lr=0.1)
        with pytest.raises(ad.TrainingError, match="step 2"):
            ad.adam_step([p], [np.array([[np.nan]])], state, lr=0.1)

    def test_shape_mismatch_rejected(self):
        p = np.array([[1.0]])
        state = ad.adam_init([p])
        with pytest.raises(ad.ShapeError):
            ad.adam_step([p], [np.ones((2, 2))], state, lr=0.1)

    def test_missing_state_slot_rejected(self):
        p, q = np.array([[1.0]]), np.array([[2.0]])
        state = ad.adam_init([p])
        with pytest.raises(ad.ShapeError, match="2 params, 2 grads, 1 state slots"):
            ad.adam_step([p, q], [np.zeros((1, 1)), np.zeros((1, 1))], state, lr=0.1)

    def test_deterministic(self):
        def run():
            w = np.array([[0.3, 0.9]])
            state = ad.adam_init([w])
            rng = np.random.default_rng(11)
            for _ in range(50):
                ad.adam_step([w], [rng.normal(size=(1, 2))], state, lr=0.01)
            return w

        assert np.array_equal(run(), run())

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


class TestPropagate:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_block_diagonal_product(self, seed):
        rng = np.random.default_rng(seed)
        graphs = messy_graphs(rng, [1, 2, 3, 1] + [int(v) for v in rng.integers(4, 25, size=8)])
        buckets = _batch_parts(graphs)[0]
        a = rng.normal(size=(sum(g.n for g in graphs), 5))
        out = ad.propagate(buckets, ad.const(a))
        assert np.allclose(out.value, block_diagonal(graphs) @ a, rtol=1e-12, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        graphs = messy_graphs(rng, [1, 3, 6, 9])
        buckets = _batch_parts(graphs)[0]
        total = sum(g.n for g in graphs)
        a_val = rng.uniform(-1, 1, (total, 3))
        c_val = rng.uniform(-1, 1, (total, 3))
        a = ad.param(a_val)
        product = ad.hadamard(ad.propagate(buckets, a), ad.const(c_val))
        grads = ad.backward(ad.sum_all(ad.exp(product)))
        blk = block_diagonal(graphs)
        fd = numeric_grad(lambda: np.exp((blk @ a_val) * c_val).sum(), a_val)
        assert rel_err(grads[a], fd) < 1e-6

    def test_rows_outside_every_bucket_are_zero(self):
        buckets = [(np.array([1]), np.array([[0, 1]]), np.array([[[2.0, 3.0]]]))]
        out = ad.propagate(buckets, ad.const([[1.0, 1.0], [10.0, 20.0]]))
        assert np.array_equal(out.value, [[0.0, 0.0], [32.0, 62.0]])


class TestElementwise:
    def test_relu_values(self):
        out = ad.relu(ad.const([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.value, [[0.0, 0.0, 2.0]])

    def test_scale_zero(self):
        out = ad.scale(ad.const([1.0, 2.0]), 0.0)
        assert np.array_equal(out.value, [[0.0, 0.0]])

    def test_relu_gradient_zero_at_zero(self):
        x = ad.param([[-1.0, 0.0, 2.0]])
        ad.backward(ad.sum_all(ad.relu(x)))
        assert np.array_equal(x.grad, [[0.0, 0.0, 1.0]])

    def test_log_domain_error(self):
        with pytest.raises(ad.DomainError):
            ad.log(ad.const([[1.0, 0.0]]))

    def test_add_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.add(ad.const(np.zeros((1, 2))), ad.const(np.zeros((2, 1))))

    @pytest.mark.parametrize("op", ["exp", "relu"])
    def test_unary_gradients_match_finite_differences(self, op):
        rng = np.random.default_rng(3)
        # keep relu inputs away from the kink, where FD is ill-defined
        x_val = rng.uniform(-1, 1, (2, 3))
        x_val[np.abs(x_val) < 0.05] = 0.1
        x = ad.param(x_val)
        loss = ad.sum_all(getattr(ad, op)(x))
        ad.backward(loss)
        ref = {"exp": np.exp, "relu": lambda v: np.maximum(v, 0.0)}[op]
        fd = numeric_grad(lambda: ref(x_val).sum(), x_val)
        assert rel_err(x.grad, fd) < 1e-4

    @pytest.mark.parametrize("op", ["add", "sub", "hadamard"])
    def test_binary_gradients_match_finite_differences(self, op):
        rng = np.random.default_rng(4)
        a_val = rng.uniform(-1, 1, (3, 2))
        b_val = rng.uniform(-1, 1, (3, 2))
        a, b = ad.param(a_val), ad.param(b_val)
        loss = ad.sum_all(getattr(ad, op)(a, b))
        ad.backward(loss)
        ref = {
            "add": lambda: (a_val + b_val).sum(),
            "sub": lambda: (a_val - b_val).sum(),
            "hadamard": lambda: (a_val * b_val).sum(),
        }[op]
        assert rel_err(a.grad, numeric_grad(ref, a_val)) < 1e-4
        assert rel_err(b.grad, numeric_grad(ref, b_val)) < 1e-4

    def test_log_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x_val = rng.uniform(0.2, 1.0, (2, 2))
        x = ad.param(x_val)
        ad.backward(ad.sum_all(ad.log(x)))
        fd = numeric_grad(lambda: np.log(x_val).sum(), x_val)
        assert rel_err(x.grad, fd) < 1e-4


class TestReduce:
    def test_mean(self):
        assert ad.mean_all(ad.const([2.0, 4.0, 6.0])).value[0, 0] == 4.0

    def test_sum_gradient_all_ones(self):
        x = ad.param(np.arange(6.0).reshape(2, 3))
        ad.backward(ad.sum_all(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_rowsum_values_and_gradient(self):
        x = ad.param([[1.0, 2.0], [3.0, 4.0]])
        out = ad.rowsum(x)
        assert np.array_equal(out.value, [[3.0], [7.0]])
        ad.backward(ad.sum_all(out))
        assert np.array_equal(x.grad, np.ones((2, 2)))

    def test_empty_input_rejected(self):
        with pytest.raises(ad.ShapeError, match="empty"):
            ad.sum_all(ad.const(np.zeros((0, 3))))


class TestBackward:
    def test_sum_of_weights(self):
        w = ad.param(np.ones((2, 2)))
        grads = ad.backward(ad.sum_all(w))
        assert np.array_equal(grads[w], np.ones((2, 2)))

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
        grads = ad.backward(ad.sum_all(ad.exp(product)))
        assert n.grad is None and product.parents == (w,)
        fd = numeric_grad(lambda: np.exp(n_val @ w_val).sum(), w_val)
        assert rel_err(grads[w], fd) < 1e-4

    def test_loss_without_parameters_returns_no_gradients(self):
        loss = ad.sum_all(ad.matmul(ad.const(np.ones((2, 2))), ad.const(np.ones((2, 1)))))
        assert loss.grad is None
        assert ad.backward(loss) == {}

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
            ad.backward(ad.sum_all(ad.exp(ad.matmul(a, b))))
            return a.grad.copy(), b.grad.copy()

        first_a, first_b = grads()
        second_a, second_b = grads()
        assert np.array_equal(second_a, first_a)
        assert np.array_equal(second_b, first_b)


class TestComposites:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        z_val = rng.uniform(-5, 5, (4, 6))
        z = ad.const(z_val)
        shift = ad.const(np.repeat(z_val.max(axis=1, keepdims=True), 6, axis=1))
        e = ad.exp(ad.sub(z, shift))
        s = ad.rowsum(e)
        probs = ad.hadamard(e, ad.matmul(ad.reciprocal(s), ad.const(np.ones((1, 6)))))
        assert np.all(np.abs(probs.value.sum(axis=1) - 1.0) < 1e-9)

    def test_reciprocal_and_sqrt(self):
        x = ad.param([[4.0]])
        r = ad.reciprocal(x)
        assert abs(r.value[0, 0] - 0.25) < 1e-12
        ad.backward(r)
        assert abs(x.grad[0, 0] - (-1.0 / 16.0)) < 1e-10
        assert abs(ad.sqrt_pos(ad.const([[9.0]])).value[0, 0] - 3.0) < 1e-12


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

    def test_deterministic(self):
        def run():
            w = np.array([[0.3, 0.9]])
            state = ad.adam_init([w])
            rng = np.random.default_rng(11)
            for _ in range(50):
                ad.adam_step([w], [rng.normal(size=(1, 2))], state, lr=0.01)
            return w

        assert np.array_equal(run(), run())

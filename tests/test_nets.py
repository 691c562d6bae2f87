"""MLP forward/backward and Adam, pinned by finite differences."""

import numpy as np
import pytest

from qaoabench.errors import DomainError
from qaoabench.nets import Adam, Mlp, init_mlp


def make_net(head, sizes=(5, 8, 7, 3), scale=0.1, seed=0):
    return init_mlp(list(sizes), head=head, scale=scale,
                    rng=np.random.default_rng(seed))


def numeric_grads(net, x, dout, eps=1e-6):
    """Central finite differences of sum(dout * net(x)) per parameter."""
    grads = []
    for p in net.parameters():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            hi = float(np.sum(dout * net(x)))
            p[idx] = orig - eps
            lo = float(np.sum(dout * net(x)))
            p[idx] = orig
            g[idx] = (hi - lo) / (2 * eps)
            it.iternext()
        grads.append(g)
    return grads


def test_forward_shapes_and_batching():
    net = make_net("linear")
    single = net(np.zeros(5))
    batch = net(np.zeros((4, 5)))
    assert single.shape == (3,)
    assert batch.shape == (4, 3)
    np.testing.assert_array_equal(batch[0], single)
    assert net.sizes == [5, 8, 7, 3]


def test_a_stack_of_one_row_inputs_keeps_each_rows_bits():
    # a stack runs each layer as one matmul over its one-row items; a
    # plain (E, D) batch may sum in another order
    rng = np.random.default_rng(5)
    for trial in range(200):
        d, width, out = (int(k) for k in rng.integers(1, 40, 3))
        net = make_net("scaled_tanh", (d, width, width, out), scale=0.5,
                       seed=trial)
        x = rng.normal(size=(int(rng.integers(1, 30)), 1, d))
        stacked, cache = net.forward(x)
        assert stacked.shape == (len(x), 1, out)
        assert [a.shape for a in cache] == [(len(x), 1, k)
                                            for k in net.sizes]
        np.testing.assert_array_equal(
            stacked, np.array([net(row) for row in x]))


def test_zero_weights_give_zero_output():
    net = make_net("scaled_tanh")
    for w in net.weights:
        w[:] = 0.0
    np.testing.assert_array_equal(net(np.ones(5)), np.zeros(3))


def test_scaled_tanh_bound():
    net = make_net("scaled_tanh", scale=0.1, seed=3)
    rng = np.random.default_rng(4)
    out = net(rng.normal(0, 10, (200, 5)))
    assert np.all(np.abs(out) <= 0.1)


def test_input_dimension_check():
    net = make_net("linear")
    with pytest.raises(DomainError):
        net(np.zeros(6))


def test_head_validation():
    with pytest.raises(DomainError):
        Mlp(weights=[np.zeros((2, 2))], biases=[np.zeros(2)], head="softmax")
    with pytest.raises(DomainError):
        Mlp(weights=[np.zeros((2, 2))], biases=[], head="linear")


@pytest.mark.parametrize("head", ["linear", "scaled_tanh"])
def test_backward_matches_finite_differences(head):
    net = make_net(head, sizes=(4, 6, 5, 2), seed=7)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 4))
    dout = rng.normal(size=(3, 2))
    out, cache = net.forward(x)
    analytic = net.backward(cache, dout)
    numeric = numeric_grads(net, x, dout)
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(n), 1e-8)
        assert np.max(np.abs(a - n) / denom) < 1e-4


@pytest.mark.parametrize("head", ["linear", "scaled_tanh"])
def test_buffers_change_no_bit(head):
    net = make_net(head, sizes=(5, 8, 7, 3))   # unequal hidden widths
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 5))
    dout = rng.normal(size=(6, 3))
    want_out, want_cache = net.forward(x)
    want_grads = net.backward(want_cache, dout)
    buffers = net.buffers(6)
    # one activation per hidden layer and one flat scratch of the widest
    assert [a.shape for a in buffers.acts] == [(6, 8), (6, 7)]
    assert buffers.scratch.shape == (6 * 8,)
    for _ in range(2):   # a second pass reuses the same memory
        out, cache = net.forward(x, buffers)
        for a, b in zip(cache, want_cache):
            np.testing.assert_array_equal(a, b)
        assert cache[1] is buffers.acts[0] and cache[2] is buffers.acts[1]
        grads = net.backward(cache, dout, buffers)
        np.testing.assert_array_equal(out, want_out)
        for a, b in zip(grads, want_grads):
            np.testing.assert_array_equal(a, b)
    # the output is fresh, so a later forward leaves it as it was
    kept = out.copy()
    net.forward(-x, buffers)
    np.testing.assert_array_equal(out, kept)


def test_copy_is_deep():
    net = make_net("linear")
    clone = net.copy()
    clone.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != clone.weights[0][0, 0]


def test_glorot_init_ranges():
    net = make_net("linear", sizes=(10, 20, 5), seed=11)
    limit0 = np.sqrt(6.0 / 30)
    assert np.all(np.abs(net.weights[0]) <= limit0)
    assert np.all(net.biases[0] == 0.0)
    again = make_net("linear", sizes=(10, 20, 5), seed=11)
    np.testing.assert_array_equal(net.weights[0], again.weights[0])


def test_adam_zero_grads_no_update():
    net = make_net("linear")
    before = [p.copy() for p in net.parameters()]
    opt = Adam(net.parameters(), lr=0.1)
    opt.step([np.zeros_like(p) for p in net.parameters()])
    for b, p in zip(before, net.parameters()):
        np.testing.assert_array_equal(b, p)


def test_adam_descends_quadratic():
    x = np.array([5.0, -3.0])
    opt = Adam([x], lr=0.1)
    for _ in range(400):
        opt.step([2 * x])  # gradient of ||x||^2
    assert np.linalg.norm(x) < 1e-2


def test_adam_rejects_mismatched_grads():
    net = make_net("linear")
    opt = Adam(net.parameters(), lr=0.1)
    with pytest.raises(DomainError):
        opt.step([np.zeros(1)])

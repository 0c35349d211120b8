import gc
import weakref

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gcflow import autodiff as ad, flows, graphs
from gcflow.errors import DomainError, ShapeError
from oracles import concat_cols, couple_unfused, full_pattern, scatter_matrix


def test_matmul_identity():
    m = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(ad.Tensor(np.eye(2)), m)
    assert_allclose(out.data, m.data)


def test_matmul_hand_case():
    a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = ad.Tensor([[1.0], [1.0]])
    assert_allclose(ad.matmul(a, b).data, [[3.0], [7.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))


def test_backward_square():
    x = ad.Tensor(3.0, requires_grad=True)
    y = x * x
    y.backward()
    assert_allclose(x.grad, 6.0)


def test_backward_twice_accumulates_on_leaves():
    # A second backward pass adds another copy of the leaf gradient and
    # nothing more: intermediate nodes are reset each pass.
    x = ad.Tensor(3.0, requires_grad=True)
    y = (x * x) * 2.0
    y.backward()
    assert_allclose(x.grad, 12.0)
    y.backward()
    assert_allclose(x.grad, 24.0)


# every op that records a node, applied to a positive, nonsingular 3 x 3 tensor
RECORDING_OPS = {
    "add": lambda x: x + x,
    "sub": lambda x: x - 1.0,
    "mul": lambda x: x * x,
    "div": lambda x: ad.div(1.0, x),
    "matmul": lambda x: x @ x,
    "mlp": lambda x: flows.Mlp([3, 4, 4, 3], np.random.default_rng(0), dropout=0.3)(x, np.random.default_rng(1)),
    "sparse_matmul": lambda x: ad.sparse_matmul(full_pattern(3), ad.reshape(x, (9,)), x),
    "exp": ad.exp,
    "tanh": ad.tanh,
    "tanh_overwrite": lambda x: ad.tanh(x @ x + ad.tsum(x, 0), overwrite=True),
    "relu": ad.relu,
    "couple": lambda x: ad.couple(x, ad.slice_cols(x, 0, 2), ad.slice_cols(x, 1, 3), slice(1, 3)),
    "logsumexp_rows": ad.logsumexp_rows,
    "sum": lambda x: ad.tsum(x, 0),
    "reshape": lambda x: ad.reshape(x, (9,)),
    "slice_cols": lambda x: ad.slice_cols(x, 0, 2),
    "gather_rows": lambda x: ad.gather_rows(x, [0, 0, 2]),
    "take_per_row": lambda x: ad.take_per_row(x, [0, 1, 2]),
    "logabsdet_tensor": lambda x: graphs.logabsdet_tensor(full_pattern(3), ad.reshape(x, (9,))),
}


@pytest.mark.parametrize("op", sorted(RECORDING_OPS))
def test_a_dropped_tape_is_freed_without_the_cyclic_collector(op):
    x = ad.Tensor(np.arange(9.0).reshape(3, 3) / 10.0 + 2.0 * np.eye(3), requires_grad=True)
    out = RECORDING_OPS[op](x)
    loss = ad.tsum(out * out)
    loss.backward()
    grad = x.grad.copy()
    nodes = [weakref.ref(node) for node in loss._topo() if node._parents]
    assert any(node() is out for node in nodes)
    gc.disable()
    try:
        del loss, out
        assert [ref() for ref in nodes] == [None] * len(nodes)
    finally:
        gc.enable()
    assert np.array_equal(x.grad, grad)


@pytest.mark.parametrize("op", sorted(RECORDING_OPS))
def test_no_gradient_buffer_shares_memory(op):
    # a buffer adopted from a vector-Jacobian function must be its own: an
    # in-place update (a later accumulate, clipping) reaches no other array
    # interior buffers are dropped as the pass goes, so each is recorded
    # right after its node's own backward step has read it
    x = ad.Tensor(np.arange(9.0).reshape(3, 3) / 10.0 + 2.0 * np.eye(3), requires_grad=True)
    out = RECORDING_OPS[op](x)
    loss = ad.tsum(out * out)
    tensors = loss._topo()
    grads = []

    def recorded(node, step):
        def run():
            step()
            grads.append(node._grad)
        return run

    for t in tensors:
        if t._backward is not None:
            t._backward = recorded(t, t._backward)
    loss.backward()
    grads += [t._grad for t in tensors if not t._parents and t._grad is not None]
    assert len(grads) >= 3
    for i, grad in enumerate(grads):
        assert not any(np.shares_memory(grad, other) for other in grads[i + 1:])
        assert not any(np.shares_memory(grad, t.data) for t in tensors)


@pytest.mark.parametrize("op", sorted(RECORDING_OPS))
def test_backward_keeps_no_interior_buffer(op):
    x = ad.Tensor(np.arange(9.0).reshape(3, 3) / 10.0 + 2.0 * np.eye(3), requires_grad=True)
    out = RECORDING_OPS[op](x)
    loss = ad.tsum(out * out)
    loss.backward()
    first = x.grad.copy()
    assert [t for t in loss._topo() if t._parents and t._grad is not None] == []
    loss.backward()
    assert_allclose(x.grad, 2.0 * first, rtol=1e-14)


def test_a_parent_that_needs_no_grad_never_has_its_vjp_called():
    x = ad.Tensor(np.ones(2), requires_grad=True)
    c = ad.Tensor(np.full(2, 3.0))

    def refuse(g):
        raise AssertionError("vector-Jacobian function of a constant called")

    out = ad.make_node(x.data * c.data, (x, c), (lambda g: g * c.data, refuse))
    ad.tsum(out).backward()
    assert_allclose(x.grad, [3.0, 3.0])
    assert c._grad is None


def test_backward_requires_scalar():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        (x * 2.0).backward()


def test_relu_values():
    x = ad.Tensor([-1.0, 0.0, 2.0])
    assert_allclose(ad.relu(x).data, [0.0, 0.0, 2.0])


def test_exp_overflow():
    with pytest.raises(DomainError):
        ad.exp(ad.Tensor([1000.0]))


def test_couple_refuses_a_scale_or_shift_that_does_not_fit_the_columns():
    x = ad.Tensor(np.zeros((4, 5)), requires_grad=True)
    fits, wide, short = np.zeros((4, 2)), np.zeros((4, 3)), np.zeros((3, 2))
    for s, t in [(wide, fits), (fits, wide), (short, fits), (fits, short), (fits, fits.T)]:
        with pytest.raises(ShapeError):
            ad.couple(x, s, t, slice(3, 5))
    with pytest.raises(ShapeError):
        ad.couple(np.zeros(5), np.zeros(2), np.zeros(2), slice(3, 5))


def test_couple_exp_overflow():
    x = ad.Tensor(np.zeros((2, 4)), requires_grad=True)
    s = np.zeros((2, 2))
    s[1, 0] = 1000.0
    with pytest.raises(DomainError, match="exp overflow"):
        ad.couple(x, s, np.zeros((2, 2)), slice(0, 2))


def test_logsumexp_matches_numpy():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 6)) * 10
    got = ad.logsumexp_rows(ad.Tensor(x)).data
    want = np.log(np.exp(x - x.max(axis=1, keepdims=True)).sum(axis=1)) + x.max(axis=1)
    assert_allclose(got, want, atol=1e-12)


def test_sum_axis_gradients():
    x = ad.Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
    ad.tsum(ad.tsum(x, axis=0) * ad.Tensor([1.0, 2.0, 3.0])).backward()
    assert_allclose(x.grad, np.tile([1.0, 2.0, 3.0], (2, 1)))
    x.zero_grad()
    ad.tsum(ad.tsum(x, axis=1) * ad.Tensor([1.0, 2.0])).backward()
    assert_allclose(x.grad, np.array([[1.0] * 3, [2.0] * 3]))


def test_slice_then_concat_roundtrip():
    # the column concatenation is the oracle's; slice_cols is under test
    x = ad.Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
    left = ad.slice_cols(x, 0, 2)
    right = ad.slice_cols(x, 2, 4)
    back = concat_cols([left, right])
    assert_allclose(back.data, x.data)
    ad.tsum(back * back).backward()
    assert_allclose(x.grad, 2.0 * x.data)


def test_sparse_matmul_sparse_and_dense_agree():
    rng = np.random.default_rng(2)
    a = rng.random((4, 4)) * (rng.random((4, 4)) < 0.5)
    pattern = scipy.sparse.csr_matrix(a)
    x = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    matrix = ad.Tensor(a, requires_grad=True)
    dense = ad.matmul(matrix, x)
    x2 = ad.Tensor(x.data.copy(), requires_grad=True)
    values = ad.Tensor(pattern.data.copy(), requires_grad=True)
    sparse = ad.sparse_matmul(pattern, values, x2)
    assert_allclose(dense.data, sparse.data, atol=1e-14)
    ad.tsum(dense * dense).backward()
    ad.tsum(sparse * sparse).backward()
    assert_allclose(x.grad, x2.grad, atol=1e-14)
    rows, cols = pattern.nonzero()
    assert_allclose(matrix.grad[rows, cols], values.grad, atol=1e-14)


def test_gather_rows_repeated_index_accumulates():
    x = ad.Tensor(np.arange(6, dtype=float).reshape(3, 2), requires_grad=True)
    g = ad.gather_rows(x, [0, 0, 2])
    ad.tsum(g).backward()
    assert_allclose(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_take_per_row():
    x = ad.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    v = ad.take_per_row(x, [1, 0])
    assert_allclose(v.data, [2.0, 3.0])
    ad.tsum(v).backward()
    assert_allclose(x.grad, [[0.0, 1.0], [1.0, 0.0]])


def test_scatter_matrix_duplicate_entries_add():
    # the dense oracle, and the sparse op over a pattern that stores (0, 1) twice
    v = ad.Tensor([1.0, 2.0, 5.0], requires_grad=True)
    m = scatter_matrix(v, [0, 0, 1], [1, 1, 0], (2, 2))
    assert_allclose(m.data, [[0.0, 3.0], [5.0, 0.0]])
    ad.tsum(m * ad.Tensor([[0.0, 10.0], [100.0, 0.0]])).backward()
    assert_allclose(v.grad, [10.0, 10.0, 100.0])

    pattern = scipy.sparse.csr_matrix((np.ones(3), [1, 1, 0], [0, 2, 3]), shape=(2, 2))
    v.zero_grad()
    out = ad.sparse_matmul(pattern, v, np.eye(2))
    assert_allclose(out.data, [[0.0, 3.0], [5.0, 0.0]])
    ad.tsum(out * ad.Tensor([[0.0, 10.0], [100.0, 0.0]])).backward()
    assert_allclose(v.grad, [10.0, 10.0, 100.0])


def test_dropout_is_the_identity_without_an_rng_or_at_rate_zero():
    a = ad.Tensor(np.ones((3, 4)), requires_grad=True)
    for out in (ad.dropout(a, 0.5), ad.dropout(a, 0.0, np.random.default_rng(0))):
        assert out is a and out._parents == ()


def test_dropout_masks_and_rescales_from_the_rng():
    rate = 0.3
    a = ad.Tensor(np.random.default_rng(1).normal(size=(5, 4)), requires_grad=True)
    out = ad.dropout(a, rate, np.random.default_rng(2))
    assert out._parents[0] is a
    # the mask is scaled before it multiplies, as the node computes it
    want = a.data * ((np.random.default_rng(2).random(a.shape) >= rate) / (1.0 - rate))
    assert np.array_equal(out.data, want)
    weights = ad.Tensor(np.random.default_rng(3).normal(size=(5, 4)))
    assert ad.grad_check(lambda: ad.tsum(ad.dropout(a, rate, np.random.default_rng(2)) * weights),
                         [a]) < 1e-6


def test_broadcast_add_unbroadcasts_gradient():
    x = ad.Tensor(np.ones((3, 4)), requires_grad=True)
    b = ad.Tensor(np.ones((1, 4)), requires_grad=True)
    ad.tsum(x + b).backward()
    assert_allclose(x.grad, np.ones((3, 4)))
    assert_allclose(b.grad, np.full((1, 4), 3.0))


def test_tanh_overwrite_equals_tanh_bit_for_bit_and_writes_into_its_input():
    rng = np.random.default_rng(11)
    x = ad.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    weights = ad.Tensor(rng.normal(size=(5, 3)))
    runs = []
    for overwrite in (False, True):
        ad.zero_grads([x, w, b])
        pre = ad.matmul(x, w) + b
        out = ad.tanh(pre, overwrite=overwrite)
        ad.tsum(out * weights).backward()
        assert np.shares_memory(out.data, pre.data) == overwrite
        runs.append([out.data, x.grad.copy(), w.grad.copy(), b.grad.copy()])
    assert all(np.array_equal(u, v) for u, v in zip(*runs))


@pytest.mark.parametrize("name", ["exp", "tanh", "relu"])
def test_unary_gradients_match_finite_differences(name):
    rng = np.random.default_rng(hash(name) % (2**32))
    fn = getattr(ad, name)
    for trial in range(10):
        raw = rng.normal(size=(3,))
        if name == "relu":
            # keep points away from the kink
            raw = raw + np.sign(raw) * 0.1
        x = ad.Tensor(raw, requires_grad=True)
        err = ad.grad_check(lambda: ad.tsum(fn(x) * ad.Tensor([1.0, -2.0, 0.5])), [x])
        assert err < 1e-6


def test_grad_check_composite_graph():
    rng = np.random.default_rng(7)
    w = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    x = ad.Tensor(rng.normal(size=(5, 4)))

    def f():
        h = ad.tanh(ad.matmul(x, w) + b)
        return ad.tsum(ad.logsumexp_rows(h * h) * ad.tsum(h, 1)) + ad.tsum(ad.exp(h)) * (1.0 / h.data.size)

    assert ad.grad_check(f, [w, b]) < 1e-6


def test_grad_check_logsumexp_and_div():
    rng = np.random.default_rng(8)
    x = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    d = ad.Tensor(np.abs(rng.normal(size=(4, 1))) + 1.0, requires_grad=True)

    def f():
        return ad.tsum(ad.logsumexp_rows(x / d))

    assert ad.grad_check(f, [x, d]) < 1e-6


def test_forward_is_deterministic():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 6))

    def run():
        t = ad.Tensor(x, requires_grad=True)
        out = ad.tsum(ad.logsumexp_rows(ad.tanh(ad.matmul(t, t))))
        out.backward()
        return out.item(), t.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    assert np.array_equal(g1, g2)


def test_untouched_grad_reads_zeros_and_assignment_sticks():
    t = ad.Tensor(np.ones((2, 3)), requires_grad=True)
    assert np.array_equal(t.grad, np.zeros((2, 3)))
    t.grad[0, 0] = 4.0  # the zeros read above are the tensor's buffer
    assert t.grad[0, 0] == 4.0
    t.grad = np.full((2, 3), 2.0)
    assert np.array_equal(t.grad, np.full((2, 3), 2.0))
    t.zero_grad()
    assert np.array_equal(t.grad, np.zeros((2, 3)))


def test_first_gradient_is_copied_not_shared():
    # both leaves receive the same upstream gradient; scaling one in place
    # (as gradient clipping does) must leave the other alone
    p = ad.Tensor(np.ones(3), requires_grad=True)
    q = ad.Tensor(np.ones(3), requires_grad=True)
    ad.tsum(p + q).backward()
    p.grad *= 0.5
    assert np.array_equal(q.grad, np.ones(3))
    assert np.array_equal(p.grad, np.full(3, 0.5))


def test_no_grad_records_no_tape():
    x = ad.Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
    with ad.no_grad():
        y = ad.tsum(ad.tanh(ad.matmul(x, x)))
    assert not y.requires_grad and y._parents == () and y._backward is None
    assert y.item() == ad.tsum(ad.tanh(ad.matmul(x, x))).item()
    taped = ad.tsum(x * x)
    assert taped.requires_grad
    taped.backward()
    assert_allclose(x.grad, 2.0 * x.data)


def test_no_grad_restores_previous_state_after_exception():
    x = ad.Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(DomainError):
        with ad.no_grad():
            ad.exp(x * 1000.0)
    assert (x * 2.0).requires_grad
    with ad.no_grad():
        with pytest.raises(ShapeError):
            with ad.no_grad():
                ad.matmul(x, x)
        assert not (x * 2.0).requires_grad  # the outer block is still in force
    assert (x * 2.0).requires_grad


# -- property tests: every op against central differences ---------------

SEEDS = st.integers(0, 2**32 - 1)
FD_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def broadcast_shapes(draw):
    """Two shapes that broadcast together: full, row, column, vector or scalar."""
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kinds = {"full": (r, c), "row": (1, c), "col": (r, 1), "vector": (c,), "scalar": ()}
    pick = st.sampled_from(sorted(kinds))
    return kinds[draw(pick)], kinds[draw(pick)]


def weighted_sum(out, rng):
    """A scalar that weights every output entry differently."""
    return ad.tsum(ad.reshape(out * ad.Tensor(rng.normal(size=out.shape)), (out.data.size,)))


def away_from(values, points, margin=1e-2):
    """Push entries at least ``margin`` away from each kink in ``points``."""
    for p in points:
        near = np.abs(values - p) < margin
        values[near] = p + np.where(values[near] >= p, margin, -margin)
    return values


@FD_SETTINGS
@given(shapes=broadcast_shapes(), op=st.sampled_from(["add", "sub", "mul", "div"]), seed=SEEDS)
def test_binary_ops_over_random_broadcasts(shapes, op, seed):
    rng = np.random.default_rng(seed)
    a = ad.Tensor(rng.normal(size=shapes[0]), requires_grad=True)
    b = ad.Tensor(rng.normal(size=shapes[1]), requires_grad=True)
    if op == "div":
        b.data[...] = np.sign(b.data) * (np.abs(b.data) + 0.5)
    fn = getattr(ad, op)
    want = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide}[op](a.data, b.data)
    assert np.array_equal(fn(a, b).data, want)
    assert ad.grad_check(lambda: weighted_sum(fn(a, b), np.random.default_rng(seed)), [a, b]) < 1e-6


@FD_SETTINGS
@given(
    op=st.sampled_from(["exp", "tanh", "relu"]),
    shape=st.sampled_from([(), (3,), (2, 3), (4, 1), (2, 2, 2)]),
    seed=SEEDS,
)
def test_unary_ops_over_random_shapes(op, shape, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(scale=1.5, size=shape)
    if op == "relu":
        raw = away_from(np.asarray(raw), (0.0,))
    x = ad.Tensor(raw, requires_grad=True)
    fn = getattr(ad, op)
    assert ad.grad_check(lambda: weighted_sum(fn(x), np.random.default_rng(seed)), [x]) < 1e-6


@FD_SETTINGS
@given(m=st.integers(1, 4), k=st.integers(1, 4), n=st.integers(1, 4), seed=SEEDS)
def test_matmul_over_random_shapes(m, k, n, seed):
    rng = np.random.default_rng(seed)
    a = ad.Tensor(rng.normal(size=(m, k)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(k, n)), requires_grad=True)
    assert ad.grad_check(lambda: weighted_sum(ad.matmul(a, b), np.random.default_rng(seed)), [a, b]) < 1e-6


@FD_SETTINGS
@given(
    m=st.integers(1, 5), k=st.integers(1, 5), n=st.integers(1, 3),
    density=st.floats(0.0, 1.0), seed=SEEDS,
)
def test_sparse_matmul_over_random_shapes(m, k, n, density, seed):
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(m, k)) * (rng.random((m, k)) < density)
    pattern = scipy.sparse.csr_matrix(dense)
    values = ad.Tensor(pattern.data.copy(), requires_grad=True)
    x = ad.Tensor(rng.normal(size=(k, n)), requires_grad=True)
    assert_allclose(ad.sparse_matmul(pattern, values, x).data, dense @ x.data, rtol=0.0, atol=1e-12)

    def f():
        return weighted_sum(ad.sparse_matmul(pattern, values, x), np.random.default_rng(seed))

    assert ad.grad_check(f, [values, x]) < 1e-6


@FD_SETTINGS
@given(r=st.integers(1, 4), c=st.integers(1, 5), seed=SEEDS)
def test_softmax_family_over_random_shapes(r, c, seed):
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.normal(scale=2.0, size=(r, c)), requires_grad=True)
    assert ad.grad_check(lambda: weighted_sum(ad.logsumexp_rows(x), np.random.default_rng(seed)), [x]) < 1e-6


@FD_SETTINGS
@given(shape=st.lists(st.integers(1, 3), min_size=1, max_size=3), data=st.data(), seed=SEEDS)
def test_reductions_and_reshape_over_random_shapes(shape, data, seed):
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.normal(size=shape), requires_grad=True)
    axis = data.draw(st.sampled_from([None] + list(range(len(shape)))))
    flat = (x.data.size,)
    cases = [
        lambda: weighted_sum(ad.tsum(x, axis), np.random.default_rng(seed)),
        lambda: ad.tsum(x * x) * (1.0 / x.data.size),
        lambda: weighted_sum(ad.reshape(x, flat[::-1] + (1,)), np.random.default_rng(seed)),
    ]
    for f in cases:
        assert ad.grad_check(f, [x]) < 1e-6


@FD_SETTINGS
@given(rows=st.integers(1, 3), widths=st.lists(st.integers(0, 3), min_size=1, max_size=3),
       data=st.data(), seed=SEEDS)
def test_slice_and_concat_cols_over_random_widths(rows, widths, data, seed):
    rng = np.random.default_rng(seed)
    parts = [ad.Tensor(rng.normal(size=(rows, w)), requires_grad=True) for w in widths]
    total = sum(widths)
    j0 = data.draw(st.integers(0, total))
    j1 = data.draw(st.integers(j0, total))

    # the column concatenation is the oracle's; slice_cols is under test
    joined = concat_cols(parts)
    assert np.array_equal(ad.slice_cols(joined, j0, j1).data, joined.data[:, j0:j1])

    def f():
        joined = concat_cols(parts)
        return weighted_sum(concat_cols([joined, ad.slice_cols(joined, j0, j1)]), np.random.default_rng(seed))

    assert ad.grad_check(f, parts) < 1e-6


@FD_SETTINGS
@given(rows=st.integers(1, 3), width=st.integers(1, 5), data=st.data(), seed=SEEDS)
def test_couple_equals_the_unfused_ops_over_random_column_slices(rows, width, data, seed):
    rng = np.random.default_rng(seed)
    j0 = data.draw(st.integers(0, width))
    cols = slice(j0, data.draw(st.integers(j0, width)))
    x = ad.Tensor(rng.normal(size=(rows, width)), requires_grad=True)
    s, t = (ad.Tensor(rng.normal(size=(rows, cols.stop - j0)), requires_grad=True) for _ in range(2))
    runs = []
    for op in (ad.couple, couple_unfused):
        ad.zero_grads([x, s, t])
        out = op(x, s, t, cols)
        weighted_sum(out, np.random.default_rng(seed)).backward()
        runs.append([out.data, x.grad, s.grad, t.grad])
    assert all(np.array_equal(a, b) for a, b in zip(*runs))
    assert ad.grad_check(lambda: weighted_sum(ad.couple(x, s, t, cols), np.random.default_rng(seed)), [x, s, t]) < 1e-6


@FD_SETTINGS
@given(n=st.integers(1, 4), width=st.sampled_from([None, 1, 3]), data=st.data(), seed=SEEDS)
def test_gather_rows_with_repeated_indices(n, width, data, seed):
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.normal(size=(n,) if width is None else (n, width)), requires_grad=True)
    idx = data.draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=7))
    assert np.array_equal(ad.gather_rows(x, idx).data, x.data[np.asarray(idx, dtype=np.intp)])
    # repeated rows add up in index order, as np.add.at adds them
    g = rng.normal(size=(len(idx),) + x.shape[1:])
    ad.tsum(ad.gather_rows(x, idx) * ad.Tensor(g)).backward()
    want = np.zeros(x.shape)
    np.add.at(want, np.asarray(idx, dtype=np.intp), g)
    assert np.array_equal(x.grad, want)
    assert ad.grad_check(lambda: weighted_sum(ad.gather_rows(x, idx), np.random.default_rng(seed)), [x]) < 1e-6


@FD_SETTINGS
@given(r=st.integers(1, 4), c=st.integers(1, 4), data=st.data(), seed=SEEDS)
def test_take_per_row_and_scatter_matrix_with_duplicates(r, c, data, seed):
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.normal(size=(r, c)), requires_grad=True)
    cols = data.draw(st.lists(st.integers(0, c - 1), min_size=r, max_size=r))
    assert ad.grad_check(lambda: weighted_sum(ad.take_per_row(x, cols), np.random.default_rng(seed)), [x]) < 1e-6

    count = data.draw(st.integers(1, 8))
    at_rows = data.draw(st.lists(st.integers(0, r - 1), min_size=count, max_size=count))
    at_cols = data.draw(st.lists(st.integers(0, c - 1), min_size=count, max_size=count))
    v = ad.Tensor(rng.normal(size=count), requires_grad=True)
    want = np.zeros((r, c))
    np.add.at(want, (np.asarray(at_rows), np.asarray(at_cols)), v.data)
    assert np.array_equal(scatter_matrix(v, at_rows, at_cols, (r, c)).data, want)

    def f():
        return weighted_sum(scatter_matrix(v, at_rows, at_cols, (r, c)), np.random.default_rng(seed))

    assert ad.grad_check(f, [v]) < 1e-6

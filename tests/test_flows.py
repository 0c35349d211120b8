import functools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from gcflow import flows, graphs, mixture
from gcflow import autodiff as ad
from gcflow.errors import DomainError, ScaleError, ShapeError, SingularMatrixError
from gcflow.training import FLOW_KINDS, TrainConfig, assemble_model
from gcflow.verify import random_edges
from oracles import couple_unfused, identity_adjacency, mlp_unfused


def zero_all(params):
    for p in params:
        p.data[...] = 0.0


def make_identity_layer(dim, parity=0, hidden=8, net_layers=2, seed=0):
    layer = flows.CouplingLayer(dim, hidden, net_layers, parity, np.random.default_rng(seed))
    zero_all(layer.params())
    return layer


def make_constant_scale_layer(dim, log_factor, parity=0):
    # zero nets, then push the scale net's output through saturated tanh:
    # tanh(20) rounds to exactly 1.0 in float64, so s == s_scale everywhere
    layer = make_identity_layer(dim, parity)
    layer.s_net.biases[-1].data[...] = 20.0
    layer.s_scale.data[...] = log_factor
    return layer


def random_adjacency(n, seed):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
    g = graphs.make_graph(n, edges)
    adj = graphs.normalize_row(g)
    try:
        adj.log_abs_det
    except SingularMatrixError:
        return graphs.normalize_row(g, damping=1e-2)
    return adj


class MixStub:
    """A mixing object with only ``mix`` and ``params``: input-dependent
    mixing by A = exp(w + mean(x)/10) * I, whose log|det| is n times that
    log-scale."""

    def __init__(self, n):
        self.n = n
        self.w = ad.Tensor(0.2, requires_grad=True)

    def mix(self, x, stage):
        log_scale = self.w + ad.tsum(x) * (0.1 / x.data.size)
        return x * ad.exp(log_scale), lambda: log_scale * self.n

    def params(self):
        return [self.w]


def test_tanh_saturation_is_exact():
    assert np.tanh(20.0) == 1.0


class MaskSlices:
    """Stands in for the rng of an unfused run on one row block: each draw
    hands over that block's rows of the next mask the whole run drew."""

    def __init__(self, masks, rows):
        self.slices = [mask[rows] for mask in masks]

    def random(self, shape):
        return self.slices.pop(0)


def run_mlp(net, mlp, x, weights, rng=None):
    """``net``'s output on ``x`` and every gradient of ``sum(out * weights)``,
    parameters first, then the input's when it needs one."""
    leaves = mlp.params() + [x] * x.requires_grad
    ad.zero_grads(leaves)
    out = net(x, rng=rng)
    ad.tsum(out * weights).backward()
    return [out.data] + [p.grad.copy() for p in leaves]


# one, two and three layers: no hidden layer, one, and a hidden-to-hidden product
MLP_WIDTHS = ([6, 4], [6, 9, 4], [6, 9, 9, 4])


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_mlp_affine_layers_equal_the_unfused_ops_bit_for_bit(dropout):
    # up to one row block the node sums every gradient as a node per op does
    for widths in MLP_WIDTHS:
        rng = np.random.default_rng(5)
        mlp = flows.Mlp(widths, rng, dropout=dropout)
        for needs_grad in (True, False):
            x = ad.Tensor(rng.normal(size=(13, 6)), requires_grad=needs_grad)
            weights = ad.Tensor(rng.normal(size=(13, 4)))
            runs = [run_mlp(net, mlp, x, weights, np.random.default_rng(1))
                    for net in (mlp, lambda t, **kw: mlp_unfused(mlp, t, **kw))]
            assert all(np.array_equal(a, b) for a, b in zip(*runs))


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_an_mlp_over_several_row_blocks_equals_the_unfused_ops_block_by_block(dropout):
    # the unfused ops on each 512-row slice, their parameter gradients summed
    # in row order, are the node's arithmetic over three blocks
    n, block = 2 * ad.ROW_BLOCK + 3, ad.ROW_BLOCK
    for widths in MLP_WIDTHS:
        rng = np.random.default_rng(8)
        mlp = flows.Mlp(widths, rng, dropout=dropout)
        x = ad.Tensor(rng.normal(size=(n, 6)), requires_grad=True)
        weights = rng.normal(size=(n, 4))
        got = run_mlp(mlp, mlp, x, ad.Tensor(weights), np.random.default_rng(1))
        draws = np.random.default_rng(1)
        masks = [draws.random((n, w)) for w in widths[1:-1]] if dropout else []
        parts = [run_mlp(lambda t, **kw: mlp_unfused(mlp, t, **kw), mlp,
                         ad.Tensor(x.data[r:r + block], requires_grad=True), ad.Tensor(weights[r:r + block]),
                         MaskSlices(masks, slice(r, r + block)) if dropout else None)
                 for r in range(0, n, block)]
        outs, *shares, grads_x = zip(*parts)
        want = [np.concatenate(outs), *(functools.reduce(np.add, share) for share in shares), np.concatenate(grads_x)]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_an_mlp_records_one_node_and_a_second_backward_doubles_its_gradients():
    rng = np.random.default_rng(9)
    mlp = flows.Mlp([3, 7, 7, 2], rng, dropout=0.2)
    x = ad.Tensor(rng.normal(size=(ad.ROW_BLOCK + 5, 3)), requires_grad=True)
    out = mlp(x, rng=np.random.default_rng(2))
    assert out._op == "mlp" and out._parents == (x, *mlp.weights, *mlp.biases)
    loss = ad.tsum(out * out)
    loss.backward()
    first = [p.grad.copy() for p in mlp.params() + [x]]
    loss.backward()
    assert all(np.array_equal(p.grad, 2.0 * g) for p, g in zip(mlp.params() + [x], first))
    with ad.no_grad():
        quiet = mlp(x, rng=np.random.default_rng(2))
    assert quiet._parents == () and quiet._backward is None and not quiet.requires_grad
    assert quiet.data.tobytes() == out.data.tobytes()


def test_an_mlp_refuses_an_input_of_the_wrong_width():
    with pytest.raises(ShapeError, match="input width 3"):
        flows.Mlp([3, 4], np.random.default_rng(0))(np.ones((2, 4)))


@pytest.mark.parametrize("dropout", [1.0, -0.1, float("nan")])
def test_mlp_refuses_a_dropout_outside_the_unit_interval(dropout):
    with pytest.raises(DomainError, match="dropout"):
        flows.Mlp([2, 3], np.random.default_rng(0), dropout=dropout)


@pytest.mark.parametrize("dim", [2, 5, 8])
@pytest.mark.parametrize("parity", [0, 1])
def test_coupling_update_equals_the_unfused_ops_bit_for_bit(dim, parity):
    rng = np.random.default_rng(10 * dim + parity)
    cols = flows.CouplingLayer(dim, 4, 2, parity, rng).changed
    x = ad.Tensor(rng.normal(size=(9, dim)), requires_grad=True)
    s, t = (ad.Tensor(rng.normal(size=(9, cols.stop - cols.start)), requires_grad=True) for _ in range(2))
    weights = ad.Tensor(rng.normal(size=(9, dim)))
    runs = []
    for op in (ad.couple, couple_unfused):
        ad.zero_grads([x, s, t])
        out = op(x, s, t, cols)
        ad.tsum(out * weights).backward()
        runs.append([out.data, x.grad, s.grad, t.grad])
    assert all(np.array_equal(a, b) for a, b in zip(*runs))


@pytest.mark.parametrize("parity", [0, 1])
def test_a_coupling_update_records_one_couple_node(parity):
    layer = flows.CouplingLayer(5, 4, 2, parity, np.random.default_rng(0))
    y, logdet = layer.forward(ad.Tensor(np.ones((3, 5)), requires_grad=True))
    ops = {id(node): node._op for out in (y, logdet) for node in out._topo() if node._parents}
    # the kept half, the two nets, the bounded scale, the update and the log-det row sum
    assert Counter(ops.values()) == Counter(slice_cols=1, mlp=2, tanh=1, mul=1, couple=1, sum=1)


def test_a_coupling_tape_keeps_no_hidden_layer_array():
    # each net keeps its input, its output and, under dropout, a bool mask per
    # hidden layer; backward recomputes the hidden layers, so the tape holds
    # less than one n x hidden float64 array where it held four
    n, hidden, net_layers = 1024, 64, 3
    rng = np.random.default_rng(6)
    for dropout, noise in ((0.0, None), (0.3, rng)):
        layer = flows.CouplingLayer(4, hidden, net_layers, 0, rng, dropout=dropout)
        x = ad.Tensor(rng.normal(size=(n, 4)), requires_grad=True)
        tracemalloc.start()
        try:
            y, logdet = layer.forward(x, noise)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < n * hidden * 8
        assert y.requires_grad and logdet.requires_grad


def test_identity_layer_is_identity():
    layer = make_identity_layer(4)
    x = ad.Tensor(np.random.default_rng(0).normal(size=(5, 4)))
    y, logdet = layer.forward(x)
    assert np.array_equal(y.data, x.data)
    assert np.array_equal(logdet.data, np.zeros(5))


def test_constant_scale_layer():
    layer = make_constant_scale_layer(2, np.log(2.0))
    x = ad.Tensor([[1.0, 3.0], [2.0, -1.0]])
    y, logdet = layer.forward(x)
    assert_allclose(y.data, [[1.0, 6.0], [2.0, -2.0]], atol=1e-14)
    assert_allclose(logdet.data, [np.log(2.0)] * 2, atol=1e-15)


def test_parity_one_passes_last_half():
    layer = make_identity_layer(3, parity=1)
    layer.t_net.biases[-1].data[...] = 5.0
    x = ad.Tensor(np.zeros((2, 3)))
    y, _ = layer.forward(x)
    # d = 1: the last column passes through, the first two receive the shift
    assert_allclose(y.data, [[5.0, 5.0, 0.0], [5.0, 5.0, 0.0]], atol=1e-14)


def test_coupling_rejects_small_dim():
    with pytest.raises(ShapeError):
        flows.CouplingLayer(1, 4, 2, 0, np.random.default_rng(0))


def test_coupling_rejects_wrong_width():
    layer = make_identity_layer(4)
    with pytest.raises(ShapeError):
        layer.forward(ad.Tensor(np.zeros((2, 3))))


def test_coupling_logdet_matches_bruteforce_jacobian():
    rng = np.random.default_rng(1)
    for dim, parity in [(2, 0), (4, 1), (5, 0)]:
        layer = flows.CouplingLayer(dim, 6, 2, parity, rng)
        layer.s_scale.data[...] = 0.7
        x = rng.normal(size=(1, dim))
        _, logdet = layer.forward(ad.Tensor(x))
        brute = flows.jacobian_bruteforce(lambda a: layer.forward(ad.Tensor(a))[0], x)
        assert_allclose(logdet.data[0], brute, atol=1e-6)


def test_coupling_inverse_roundtrip():
    rng = np.random.default_rng(2)
    layer = flows.CouplingLayer(5, 8, 3, 1, rng)
    layer.s_scale.data[...] = 0.5
    x = ad.Tensor(rng.normal(size=(7, 5)))
    y, _ = layer.forward(x)
    back = layer.inverse(y)
    assert np.abs(back.data - x.data).max() < 1e-10
    forward_again, _ = layer.forward(back)
    assert np.abs(forward_again.data - y.data).max() < 1e-10


def test_stack_inverse_roundtrip():
    rng = np.random.default_rng(3)
    stack = flows.FlowStack([flows.CouplingLayer(4, 8, 2, k % 2, rng) for k in range(3)])
    for layer in stack.layers:
        layer.s_scale.data[...] = 0.4
    x = ad.Tensor(rng.normal(size=(6, 4)))
    y, _ = stack.forward(x)
    assert np.abs(stack.inverse(y).data - x.data).max() < 1e-10


def test_empty_model_is_identity():
    model = flows.GcFlowModel([], adjacency=None)
    x = np.random.default_rng(4).normal(size=(3, 2))
    result = model.forward(x)
    assert np.array_equal(result.z.data, x)
    assert np.array_equal(result.flow_logdet.data, np.zeros(3))
    assert result.graph_logdet.item() == 0.0


def test_identity_adjacency_equals_no_adjacency():
    n, dim = 5, 4
    model_plain = flows.build_gcflow(2, dim, hidden=6, net_layers=2, seed=5)
    model_eye = flows.GcFlowModel(model_plain.flows, adjacency=identity_adjacency(n))
    x = np.random.default_rng(6).normal(size=(n, dim))
    r1 = model_plain.forward(x)
    r2 = model_eye.forward(x)
    assert_allclose(r1.z.data, r2.z.data, atol=0)
    assert_allclose(r1.flow_logdet.data, r2.flow_logdet.data, atol=0)
    assert r2.graph_logdet.item() == 0.0


def test_model_logdet_matches_bruteforce():
    n, dim = 4, 2
    adj = random_adjacency(n, seed=7)
    model = flows.build_gcflow(2, dim, hidden=6, net_layers=2, adjacency=adj, seed=8)
    for flow in model.flows:
        for layer in flow.layers:
            layer.s_scale.data[...] = 0.6
    x = np.random.default_rng(9).normal(size=(n, dim))
    result = model.forward(x)
    formula = result.graph_logdet.item() + result.flow_logdet.data.sum()
    brute = flows.jacobian_bruteforce(lambda a: model.forward(a).z, x)
    assert_allclose(formula, brute, atol=1e-6)


@pytest.mark.parametrize("kind", FLOW_KINDS)
def test_every_flow_kinds_logdet_against_the_bruteforce_jacobian(kind):
    # acceptance check 1's graphs (edge probability 0.6), condition rule and
    # tolerance, on two stages of D=2 over six nodes: a graph on which a stage
    # matrix has condition number above 30 is redrawn. No stage matrix reads
    # the features, so every flow kind is an exact change of variables
    gaps = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        while True:
            g = random_edges(rng, 6)
            model = assemble_model(TrainConfig(model=kind, seed=seed), g, 2, 2, damping_used=1e-3).model.flow
            if model.adjacency is None or all(
                    np.linalg.cond(model.adjacency.mix(np.eye(6), s)[0].data) <= 30.0 for s in range(2)):
                break
        for flow in model.flows:
            for layer in flow.layers:
                layer.s_scale.data[...] = 0.6
        assert model.num_flows == 2
        x = rng.normal(size=(6, 2))
        result = model.forward(x)
        formula = result.graph_logdet.item() + result.flow_logdet.data.sum()
        gaps.append(abs(formula - flows.jacobian_bruteforce(lambda a: model.forward(a).z, x)))
    assert max(gaps) < 1e-5


def test_two_stage_logdet_composes():
    n, dim = 5, 4
    adj = random_adjacency(n, seed=10)
    full = flows.build_gcflow(2, dim, hidden=6, net_layers=2, adjacency=adj, seed=11)
    first = flows.GcFlowModel(full.flows[:1], adjacency=adj)
    second = flows.GcFlowModel(full.flows[1:], adjacency=adj)
    x = np.random.default_rng(12).normal(size=(n, dim))
    r_full = full.forward(x)
    r1 = first.forward(x)
    r2 = second.forward(r1.z.data)
    assert_allclose(
        r_full.flow_logdet.data, r1.flow_logdet.data + r2.flow_logdet.data, atol=1e-12
    )
    assert_allclose(
        r_full.graph_logdet.item(), r1.graph_logdet.item() + r2.graph_logdet.item(), atol=1e-12
    )
    assert_allclose(r_full.z.data, r2.z.data, atol=1e-12)


def test_plain_flow_acts_rowwise():
    model = flows.build_gcflow(2, 3, hidden=5, net_layers=2, seed=13)
    rng = np.random.default_rng(14)
    x = rng.normal(size=(6, 3))
    perm = rng.permutation(6)
    z = model.forward(x).z.data
    z_perm = model.forward(x[perm]).z.data
    assert np.array_equal(z_perm, z[perm])


def test_model_inverse_roundtrip():
    n, dim = 5, 4
    adj = random_adjacency(n, seed=15)
    model = flows.build_gcflow(3, dim, hidden=6, net_layers=2, adjacency=adj, seed=16)
    x = np.random.default_rng(17).normal(size=(n, dim))
    result = model.forward(x)
    back = model.inverse(result.z)
    assert np.abs(back.data - x).max() < 1e-8


def test_mix_only_source_drives_forward_logdet_and_gradients():
    n, dim = 4, 3
    stub = MixStub(n)
    model = flows.build_gcflow(2, dim, hidden=5, net_layers=2, adjacency=stub, seed=18)
    for flow in model.flows:
        for layer in flow.layers:
            layer.s_scale.data[...] = 0.3
    x = np.random.default_rng(19).normal(size=(n, dim))
    result = model.forward(x)

    h, want_logdet = x, 0.0
    for flow in model.flows:
        log_scale = stub.w.item() + h.mean() / 10.0
        want_logdet += dim * n * log_scale
        h = flow.forward(ad.Tensor(np.exp(log_scale) * h))[0].data
    assert_allclose(result.z.data, h, atol=1e-12)
    assert_allclose(result.graph_logdet.item(), want_logdet, atol=1e-12)
    assert len(result.stage_logdets) == model.num_flows
    assert any(p is stub.w for p in model.params())

    head = mixture.MixtureHead(2, dim, mean_scalars=[0.0, 1.0])
    cfg = mixture.LossConfig(labeled=np.array([0, 1]), unlabeled=np.array([2, 3]))
    labels = np.array([0, 1, 0, 1])
    params = model.params() + head.params()

    def loss():
        return mixture.semi_supervised_loss(head, model.forward(x), labels, cfg)

    assert ad.grad_check(loss, params) < 1e-5


def test_inverse_solves_with_the_factors_of_the_c_order_matrix():
    # one in-place LU of a fresh Fortran-order densification gives the bytes
    # of factoring a C-order copy, as ``lu_factor`` does for a C-order input
    adj = random_adjacency(9, seed=24)
    model = flows.build_gcflow(2, 3, hidden=4, net_layers=2, adjacency=adj, seed=25)
    z = model.forward(np.random.default_rng(26).normal(size=(9, 3))).z.data
    factors = scipy.linalg.lu_factor(adj.sparse.toarray())
    want = ad.Tensor(z)
    for flow in reversed(model.flows):
        want = ad.Tensor(scipy.linalg.lu_solve(factors, flow.inverse(want).data))
    assert model.inverse(z).data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("kind", ["gcflow", "gcflow-p"])
def test_inverse_factors_one_matrix_per_stage(kind, monkeypatch):
    g = random_edges(np.random.default_rng(27), 7)
    model = assemble_model(TrainConfig(model=kind, num_flows=3, seed=0), g, 2, 2, damping_used=1e-2).model.flow
    x = np.random.default_rng(28).normal(size=(7, 2))
    z = model.forward(x).z
    calls, lu = [], flows._lu_checked
    monkeypatch.setattr(flows, "_lu_checked", lambda matrix: calls.append(np.shape(matrix)) or lu(matrix))
    assert np.abs(model.inverse(z).data - x).max() < 1e-8
    assert calls == [(7, 7)] * 3


@pytest.mark.parametrize("kind", ["gcflow", "gcflow-p"])
def test_inverse_records_no_tape(kind, monkeypatch):
    g = random_edges(np.random.default_rng(27), 7)
    model = assemble_model(TrainConfig(model=kind, num_flows=3, seed=0), g, 2, 2, damping_used=1e-2).model.flow
    x = np.random.default_rng(28).normal(size=(7, 2))
    z = model.forward(x).z
    recorded, make_node = [], ad.make_node

    def counted(*args, **kwargs):
        out = make_node(*args, **kwargs)
        recorded.extend([out] if out._parents else [])
        return out

    monkeypatch.setattr(ad, "make_node", counted)
    assert np.abs(model.inverse(z).data - x).max() < 1e-8
    assert recorded == []
    model.forward(x)
    assert recorded


def test_inverse_with_singular_supplied_adjacency():
    # the triangle row-normalizes to the all-1/3 matrix, of rank one
    triangle = graphs.make_graph(3, [(0, 1), (1, 2), (0, 2)])
    adj = graphs.normalize_row(triangle)
    model = flows.build_gcflow(1, 2, hidden=4, net_layers=2, adjacency=adj, seed=20)
    with pytest.raises(SingularMatrixError):
        model.inverse(np.zeros((3, 2)))


def test_model_rejects_mismatched_rows():
    adj = random_adjacency(4, seed=21)
    model = flows.build_gcflow(1, 2, hidden=4, net_layers=2, adjacency=adj, seed=22)
    with pytest.raises(ShapeError):
        model.forward(np.zeros((5, 2)))


def test_jacobian_bruteforce_trivials():
    assert_allclose(flows.jacobian_bruteforce(lambda a: a, np.ones((3, 2))), 0.0, atol=1e-9)
    rng = np.random.default_rng(23)
    a = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
    want = graphs.log_abs_det(a)
    got1 = flows.jacobian_bruteforce(lambda x: a @ x, rng.normal(size=(4, 1)))
    assert_allclose(got1, want, atol=1e-7)
    got3 = flows.jacobian_bruteforce(lambda x: a @ x, rng.normal(size=(4, 3)))
    assert_allclose(got3, 3.0 * want, atol=1e-6)


def test_jacobian_bruteforce_size_cap():
    with pytest.raises(ScaleError):
        flows.jacobian_bruteforce(lambda a: a, np.zeros((9, 8)))


def test_build_gcflow_is_deterministic():
    m1 = flows.build_gcflow(2, 4, hidden=6, net_layers=2, seed=42)
    m2 = flows.build_gcflow(2, 4, hidden=6, net_layers=2, seed=42)
    for p1, p2 in zip(m1.params(), m2.params()):
        assert np.array_equal(p1.data, p2.data)
    assert len(m1.params()) == len(m2.params())

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gcflow import adjparam, flows, graphs, mixture
from gcflow import autodiff as ad
from gcflow.errors import ScaleError, ShapeError, SingularMatrixError
from oracles import identity_adjacency, inverse_replayed, mlp_unfused, stage_matrices


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
    try:
        return graphs.normalize_row(g)
    except SingularMatrixError:
        return graphs.normalize_row(g, damping=1e-2)


class MixStub:
    """A mixing object with only ``mix`` and ``params``: input-dependent
    mixing by A = exp(w) * (1 + mean(x)/10) * I, whose log|det| is n times
    the log of that scale."""

    def __init__(self, n):
        self.n = n
        self.w = ad.Tensor(0.2, requires_grad=True)

    def mix(self, x, rng=None, logdet=True):
        scale = ad.exp(self.w) * (ad.Tensor(1.0) + ad.tsum(x) * (0.1 / x.data.size))
        return x * scale, (ad.log(scale) * self.n if logdet else None)

    def params(self):
        return [self.w]


def test_tanh_saturation_is_exact():
    assert np.tanh(20.0) == 1.0


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_mlp_affine_layers_equal_the_unfused_ops_bit_for_bit(dropout):
    rng = np.random.default_rng(5)
    mlp = flows.Mlp([6, 9, 9, 4], rng, dropout=dropout)
    x = ad.Tensor(rng.normal(size=(13, 6)), requires_grad=True)
    weights = ad.Tensor(rng.normal(size=(13, 4)))
    runs = []
    for net in (mlp, lambda t, **kw: mlp_unfused(mlp, t, **kw)):
        ad.zero_grads(mlp.params() + [x])
        out = net(x, rng=np.random.default_rng(1))
        ad.tsum(out * weights).backward()
        runs.append([out.data] + [p.grad.copy() for p in mlp.params() + [x]])
    assert all(np.array_equal(a, b) for a, b in zip(*runs))


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
        scale = np.exp(stub.w.item()) * (1.0 + h.mean() / 10.0)
        want_logdet += dim * n * np.log(scale)
        h = flow.forward(ad.Tensor(scale * h))[0].data
    assert_allclose(result.z.data, h, atol=1e-12)
    assert_allclose(result.graph_logdet.item(), want_logdet, atol=1e-12)
    assert model.forward(x, logdet=False).graph_logdet is None
    assert any(p is stub.w for p in model.params())

    head = mixture.MixtureHead(2, dim, mean_scalars=[0.0, 1.0])
    cfg = mixture.LossConfig(labeled=np.array([0, 1]), unlabeled=np.array([2, 3]))
    labels = np.array([0, 1, 0, 1])
    params = model.params() + head.params()

    def loss():
        return mixture.semi_supervised_loss(head, model.forward(x), labels, cfg)

    assert ad.grad_check(loss, params) < 1e-5


def test_input_dependent_source_roundtrip():
    # a forward handed an rng draws gate noise: the reference inverse replays
    # the forward with a generator seeded alike to rebuild each stage matrix
    n, dim = 4, 3
    g = graphs.make_graph(n, [(0, 1), (1, 2), (2, 3), (0, 3)])
    source = adjparam.ConcreteAdjacency(g, dim, embed_dim=3, damping=1.0, seed=18)
    model = flows.build_gcflow(2, dim, hidden=5, net_layers=2, adjacency=source, seed=18)
    x = np.random.default_rng(19).normal(size=(n, dim))
    result = model.forward(x, rng=np.random.default_rng(24))
    assert len(stage_matrices(model, x, rng=np.random.default_rng(24))) == 2
    for adjacency in (source, MixStub(n)):
        with pytest.raises(ShapeError):
            flows.GcFlowModel(model.flows, adjacency=adjacency).inverse(result.z)
    back = inverse_replayed(model, x, result.z, rng=np.random.default_rng(24))
    assert np.abs(back.data - x).max() < 1e-8


def test_inverse_with_singular_supplied_adjacency():
    # the triangle row-normalizes to the all-1/3 matrix, of rank one
    triangle = graphs.make_graph(3, [(0, 1), (1, 2), (0, 2)])
    adj = graphs.normalize_row(triangle, check=False)
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

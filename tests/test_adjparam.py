import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gcflow import adjparam, autodiff as ad, flows, graphs, mixture
from gcflow.errors import DomainError

PATH4 = graphs.make_graph(4, [(0, 1), (1, 2), (2, 3)])


class FixedNoise:
    """Stands in for a Generator: returns a constant uniform draw."""

    def __init__(self, value):
        self.value = value

    def uniform(self, size):
        return np.full(size, self.value)


def test_directed_edges_cover_both_orientations():
    assert adjparam.directed_edges is graphs.directed_edges
    src, dst = adjparam.directed_edges(PATH4)
    got = set(zip(src.tolist(), dst.tolist()))
    assert got == {(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)}


def test_attention_singleton_neighbor_gets_weight_one():
    g = graphs.make_graph(2, [(0, 1)])
    source = adjparam.AttentionAdjacency(g, dim=3, embed_dim=4, damping=0.0, seed=0)
    x = np.random.default_rng(1).normal(size=(2, 3))
    a = source.realize(x, 0)
    assert a.data[0, 1] == 1.0
    assert a.data[1, 0] == 1.0
    assert a.data[0, 0] == 0.0


def test_attention_equal_scores_give_uniform_neighborhoods():
    source = adjparam.AttentionAdjacency(PATH4, dim=2, embed_dim=4, damping=0.0, seed=2)
    for p in source.scorer.params():
        p.data[...] = 0.0
    a = source.realize(np.random.default_rng(3).normal(size=(4, 2)), 0)
    want = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [0.5, 0.0, 0.5, 0.0],
            [0.0, 0.5, 0.0, 0.5],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    assert_allclose(a.data, want, atol=1e-15)


def test_attention_rows_stochastic_and_supported_on_edges():
    rng = np.random.default_rng(4)
    g = graphs.make_graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    source = adjparam.AttentionAdjacency(g, dim=3, embed_dim=5, damping=0.0, seed=5)
    a = source.realize(rng.normal(size=(6, 3)), 0)
    assert_allclose(a.data.sum(axis=1), np.ones(6), atol=1e-12)
    allowed = np.zeros((6, 6), dtype=bool)
    src, dst = adjparam.directed_edges(g)
    allowed[src, dst] = True
    assert np.all(a.data[~allowed] == 0.0)


def test_attention_isolated_node_survives_via_damping():
    g = graphs.make_graph(3, [(0, 1)])
    source = adjparam.AttentionAdjacency(g, dim=2, embed_dim=3, damping=1e-3, seed=6)
    a = source.realize(np.random.default_rng(7).normal(size=(3, 2)), 0)
    logdet = graphs.logabsdet_tensor(a)
    assert_allclose(a.data[2], [0.0, 0.0, 1e-3], atol=1e-15)
    assert np.isfinite(logdet.item())


def test_attention_very_negative_scores_keep_rows_stochastic():
    # every score near -5000: exp underflows unless the shift is the row's own max
    source = adjparam.AttentionAdjacency(PATH4, dim=2, embed_dim=3, damping=1e-3, seed=3)
    source.scorer.biases[0].data[...] = -5000.0
    a = source.realize(np.random.default_rng(4).normal(size=(4, 2)), 0)
    assert np.all(np.isfinite(a.data))
    assert_allclose(a.data.sum(axis=1), np.full(4, 1.0 + 1e-3), rtol=0.0, atol=1e-12)
    assert np.isfinite(graphs.logabsdet_tensor(a).item())


def test_attention_logdet_gradient_matches_finite_differences():
    g = graphs.make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    source = adjparam.AttentionAdjacency(g, dim=3, embed_dim=4, seed=8)
    x = np.random.default_rng(9).normal(size=(5, 3))

    def f():
        return graphs.logabsdet_tensor(source.realize(x, 0))

    assert ad.grad_check(f, source.embed_src.params()) < 1e-5
    assert ad.grad_check(f, source.params()) < 1e-5


def test_concrete_parameter_validation():
    with pytest.raises(DomainError):
        adjparam.ConcreteAdjacency(PATH4, dim=2, temperature=0.0)
    with pytest.raises(DomainError):
        adjparam.ConcreteAdjacency(PATH4, dim=2, stretch_lo=0.1)
    with pytest.raises(DomainError):
        adjparam.ConcreteAdjacency(PATH4, dim=2, stretch_hi=0.9)


def test_concrete_stretch_arithmetic_removes_edge():
    # a gate of 0.05 stretched by [-0.1, 1.1] lands at -0.04 and clamps to 0
    assert 0.05 * (1.1 - (-0.1)) + (-0.1) == pytest.approx(-0.04)
    source = adjparam.ConcreteAdjacency(PATH4, dim=2, embed_dim=3, damping=1e-3, seed=10)
    for p in source.params():
        p.data[...] = 0.0  # logits collapse to 0, gates driven by noise alone
    # choose the uniform draw whose logistic noise yields a soft gate of 0.05
    eps = 1.0 / (1.0 + np.exp(-source.temperature * np.log(0.05 / 0.95)))
    x = np.random.default_rng(11).normal(size=(4, 2))
    a = source.realize(x, 0, training=True, rng=FixedNoise(eps))
    src, dst = adjparam.directed_edges(PATH4)
    assert np.all(a.data[src, dst] == 0.0)  # every edge gated away; diag damping remains


def test_concrete_low_temperature_saturates_to_one():
    source = adjparam.ConcreteAdjacency(PATH4, dim=2, embed_dim=3, temperature=1e-4, damping=0.0, seed=12)
    for p in source.params():
        p.data[...] = 0.0
    a = source.realize(np.zeros((4, 2)), 0, training=True, rng=FixedNoise(0.9))
    src, dst = adjparam.directed_edges(PATH4)
    assert np.all(a.data[src, dst] == 1.0)


def test_concrete_entries_in_unit_interval():
    g = graphs.make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    source = adjparam.ConcreteAdjacency(g, dim=3, embed_dim=4, seed=13)
    x = np.random.default_rng(14).normal(size=(5, 3)) * 2.0
    for training in (False, True):
        a = source.realize(x, 0, training=training, rng=np.random.default_rng(0))
        off_diag = a.data - np.diag(np.diag(a.data))
        assert off_diag.min() >= 0.0 and off_diag.max() <= 1.0
        assert_allclose(np.diag(a.data), np.full(5, source.damping), atol=1e-15)


def test_concrete_omega_antisymmetric():
    g = graphs.make_graph(4, [(0, 1), (1, 2), (0, 3), (2, 3)])
    source = adjparam.ConcreteAdjacency(g, dim=3, embed_dim=5, seed=15)
    x = np.random.default_rng(16).normal(size=(4, 3))
    logits = source.edge_logits(x).data
    src, dst = adjparam.directed_edges(g)
    index = {(i, k): t for t, (i, k) in enumerate(zip(src, dst))}
    for (i, k), t in index.items():
        assert abs(logits[t] + logits[index[(k, i)]]) < 1e-15


@pytest.mark.parametrize("temperature", [adjparam.DEFAULT_TEMPERATURE, 0.01])
def test_concrete_eval_gates_orient_an_edge_but_never_remove_it(temperature):
    # antisymmetric scores and the default stretch, symmetric about 1/2: an
    # edge's two directed gates sum to 1, and a closed gate means the other is open
    g = graphs.make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
    source = adjparam.ConcreteAdjacency(g, dim=3, embed_dim=4, temperature=temperature, seed=20)
    rng = np.random.default_rng(21)
    for p in source.params():
        p.data += rng.normal(size=p.data.shape)
    a = source.realize(rng.normal(size=(6, 3)) * 3.0, 0).data
    src, dst = adjparam.directed_edges(g)
    assert_allclose(a[src, dst] + a[dst, src], 1.0, rtol=0.0, atol=1e-15)
    closed = a[src, dst] == 0.0
    assert np.all(a[dst, src][closed] == 1.0)
    if temperature < 0.1:  # cold gates saturate
        assert closed.any()


def test_concrete_training_noise_is_seed_deterministic():
    make = lambda: adjparam.ConcreteAdjacency(PATH4, dim=2, embed_dim=3, seed=17)
    x = np.random.default_rng(18).normal(size=(4, 2))
    a1 = make().realize(x, 0, training=True, rng=np.random.default_rng(19)).data
    a2 = make().realize(x, 0, training=True, rng=np.random.default_rng(19)).data
    assert np.array_equal(a1, a2)


def test_concrete_training_realize_needs_rng():
    source = adjparam.ConcreteAdjacency(PATH4, dim=2, embed_dim=3, seed=17)
    x = np.random.default_rng(18).normal(size=(4, 2))
    with pytest.raises(DomainError, match="rng"):
        source.realize(x, 0, training=True)


def test_logabsdet_tensor_identity_and_diagonal():
    eye = ad.Tensor(np.eye(3), requires_grad=True)
    out = graphs.logabsdet_tensor(eye)
    assert out.item() == 0.0
    out.backward()
    assert_allclose(eye.grad, np.eye(3), atol=1e-12)

    diag = ad.Tensor(np.diag([2.0, 3.0]), requires_grad=True)
    out = graphs.logabsdet_tensor(diag)
    assert_allclose(out.item(), np.log(6.0), atol=1e-12)
    out.backward()
    assert_allclose(diag.grad, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)


def test_logabsdet_tensor_gradient_matches_finite_differences():
    rng = np.random.default_rng(19)
    m = ad.Tensor(rng.normal(size=(4, 4)) + 2.0 * np.eye(4), requires_grad=True)
    assert ad.grad_check(lambda: graphs.logabsdet_tensor(m), [m]) < 1e-5


@settings(derandomize=True, deadline=None, max_examples=40)
@given(n=st.integers(1, 8), negative=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_logabsdet_tensor_matches_slogdet_and_inverse(n, negative, seed):
    # nonsymmetric, well conditioned (entries of the random part are small
    # against the diagonal), and with a flipped row when the sign should be negative
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) / np.sqrt(n) + 3.0 * np.eye(n)
    if negative:
        m[0] *= -1.0
    sign, want = np.linalg.slogdet(m)
    assert sign == (-1.0 if negative else 1.0)
    a = ad.Tensor(m, requires_grad=True)
    out = graphs.logabsdet_tensor(a)
    assert abs(out.item() - want) <= 1e-12 * max(1.0, abs(want))
    out.backward()
    inv_t = np.linalg.inv(m).T
    assert np.abs(a.grad - inv_t).max() <= 1e-12 * np.abs(inv_t).max()


def test_logabsdet_tensor_forward_alone_builds_no_inverse(monkeypatch):
    calls = []
    real = graphs.scipy.linalg.lu_solve
    monkeypatch.setattr(graphs.scipy.linalg, "lu_solve", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    a = ad.Tensor(np.diag([2.0, 3.0]), requires_grad=True)
    out = graphs.logabsdet_tensor(a)
    assert calls == []
    out.backward()
    assert calls == [1]


def variant_model(source, dim, seed):
    model = flows.build_gcflow(2, dim, hidden=4, net_layers=2, adjacency=source, seed=seed)
    for flow in model.flows:
        for layer in flow.layers:
            layer.s_scale.data[...] = 0.3
    return model


def test_constant_source_reduces_to_fixed_adjacency():
    g = graphs.make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
    source = adjparam.AttentionAdjacency(g, dim=3, embed_dim=4, seed=20)
    x = np.random.default_rng(21).normal(size=(5, 3))
    head = mixture.MixtureHead(2, 3, mean_scalars=[0.0, 1.0])

    model = variant_model(source, dim=3, seed=22)
    result = model.forward(x)

    # same flows driven by the frozen realized matrix: attention embeddings
    # read the stage input, and with two stages those inputs differ, so pin
    # a single-stage model where both routes see the same matrix
    single = flows.GcFlowModel(model.flows[:1], adjacency=source)
    r_var = single.forward(x)
    fixed = graphs.NormalizedAdjacency(r_var.adjacencies[0], scheme="external")
    r_fixed = flows.GcFlowModel(model.flows[:1], adjacency=fixed).forward(x)
    assert_allclose(r_var.z.data, r_fixed.z.data, atol=1e-12)
    assert_allclose(
        mixture.log_densities(head, r_var)[1].data,
        mixture.log_densities(head, r_fixed)[1].data,
        atol=1e-10,
    )
    assert len(result.adjacencies) == 2


def test_variant_loss_gradient_matches_finite_differences():
    g = graphs.make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)])
    x = np.random.default_rng(23).normal(size=(5, 3))
    labels = np.array([0, 1, 0, 1, 0])
    cfg = mixture.LossConfig(labeled=np.array([0, 1, 2]), unlabeled=np.array([3, 4]))
    for source_cls in (adjparam.AttentionAdjacency, adjparam.ConcreteAdjacency):
        source = source_cls(g, dim=3, embed_dim=3, seed=24)
        model = variant_model(source, dim=3, seed=25)
        head = mixture.MixtureHead(2, 3, mean_scalars=[0.0, 1.5])
        params = model.params() + head.params()
        assert any(p is q for p in params for q in source.params())

        def f():
            return mixture.semi_supervised_loss(model, head, x, labels, cfg)

        assert ad.grad_check(f, params) < 1e-5


def test_marginalization_identity_with_variant_adjacency():
    g = graphs.make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
    source = adjparam.ConcreteAdjacency(g, dim=3, embed_dim=4, seed=26)
    model = variant_model(source, dim=3, seed=27)
    head = mixture.MixtureHead(3, 3)
    x = np.random.default_rng(28).normal(size=(6, 3))
    result = model.forward(x, training=True, rng=np.random.default_rng(29))
    joint, marginal = (t.data for t in mixture.log_densities(head, result))
    lse = np.log(np.exp(joint - joint.max(axis=1, keepdims=True)).sum(axis=1)) + joint.max(axis=1)
    assert np.abs(lse - marginal).max() < 1e-12


def test_variant_inverse_roundtrip_with_recorded_matrices():
    g = graphs.make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    source = adjparam.AttentionAdjacency(g, dim=2, embed_dim=3, seed=30)
    model = variant_model(source, dim=2, seed=31)
    x = np.random.default_rng(32).normal(size=(4, 2))
    result = model.forward(x)
    back = model.inverse(result.z, adjacencies=result.adjacencies)
    assert np.abs(back.data - x).max() < 1e-8

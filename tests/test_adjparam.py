import numpy as np
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gcflow import adjparam, autodiff as ad, flows, graphs, mixture
from oracles import (DenseMixing, attention_dense, forward_dense, full_pattern, logabsdet_dense, scatter_matrix,
                     with_random_logits)

PATH4 = graphs.make_graph(4, [(0, 1), (1, 2), (2, 3)])


def test_directed_edges_cover_both_orientations():
    assert adjparam.directed_edges is graphs.directed_edges
    src, dst = adjparam.directed_edges(PATH4)
    got = set(zip(src.tolist(), dst.tolist()))
    assert got == {(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)}


def test_attention_singleton_neighbor_gets_weight_one():
    g = graphs.make_graph(2, [(0, 1)])
    source = with_random_logits(adjparam.AttentionAdjacency(g, 1, damping=0.0), seed=1)
    values = source.realize(0)
    # the entries are (0, 1) and (1, 0); nothing is stored on the diagonal
    assert list(zip(source.src.tolist(), source.dst.tolist())) == [(0, 1), (1, 0)]
    assert values.data.tolist() == [1.0, 1.0]


def test_attention_equal_scores_give_uniform_neighborhoods():
    source = adjparam.AttentionAdjacency(PATH4, 2, damping=0.0)
    assert all(np.array_equal(logits.data, np.zeros(6)) for logits in source.logits)
    source.logits[1].data[...] = 0.7
    values = source.realize(1)
    want = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [0.5, 0.0, 0.5, 0.0],
            [0.0, 0.5, 0.0, 0.5],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    assert_allclose(values.data, want[source.src, source.dst], atol=1e-15)


def test_attention_rows_stochastic_and_supported_on_edges():
    g = graphs.make_graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    source = with_random_logits(adjparam.AttentionAdjacency(g, 1, damping=0.0), seed=4)
    values = source.realize(0)
    assert_allclose(np.bincount(source.src, weights=values.data), np.ones(6), atol=1e-12)
    src, dst = adjparam.directed_edges(g)
    rows, cols = source.pattern.nonzero()
    assert values.shape == src.shape
    assert np.array_equal(rows, src) and np.array_equal(cols, dst)


def test_each_stage_mixes_every_feature_matrix_by_its_own_fixed_matrix():
    g = graphs.make_graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    source = with_random_logits(adjparam.AttentionAdjacency(g, 2), seed=5)
    rng = np.random.default_rng(6)
    features = [rng.normal(size=(6, 3)), 10.0 * rng.normal(size=(6, 3))]
    for stage in range(2):
        values = source.realize(stage)
        assert_allclose(np.bincount(source.src, weights=values.data), np.ones(6), atol=1e-12)
        assert source.realize(stage).data.tobytes() == values.data.tobytes()
        matrix = attention_dense(source, stage).data
        for x in features:
            mixed, logdet = source.mix(x, stage)
            assert_allclose(mixed.data, matrix @ x, rtol=1e-12, atol=1e-14)
            assert_allclose(logdet().item(), np.linalg.slogdet(matrix)[1], rtol=1e-12)
    assert not np.allclose(source.realize(0).data, source.realize(1).data)


def test_attention_isolated_node_survives_via_damping():
    g = graphs.make_graph(3, [(0, 1)])
    source = with_random_logits(adjparam.AttentionAdjacency(g, 1, damping=1e-3), seed=6)
    x = np.random.default_rng(7).normal(size=(3, 2))
    values = source.realize(0)
    assert 2 not in source.src  # no entry in node 2's row: damping alone mixes it
    mixed = ad.sparse_matmul(source.pattern, values, x) + ad.Tensor(x) * source.damping
    assert_allclose(mixed.data[2], 1e-3 * x[2], atol=1e-15)
    logdet = graphs.logabsdet_tensor(source.pattern, values, source.damping)
    assert np.isfinite(logdet.item())
    assert_allclose(logdet.item(), logabsdet_dense(attention_dense(source, 0)).item(), rtol=1e-12)


def test_attention_very_negative_scores_keep_rows_stochastic():
    # every logit near -5000: exp underflows unless the shift is the row's own max
    source = with_random_logits(adjparam.AttentionAdjacency(PATH4, 1, damping=1e-3), seed=3)
    source.logits[0].data -= 5000.0
    values = source.realize(0)
    assert np.all(np.isfinite(values.data))
    assert_allclose(np.bincount(source.src, weights=values.data), np.ones(4), rtol=0.0, atol=1e-12)
    assert np.isfinite(graphs.logabsdet_tensor(source.pattern, values, source.damping).item())


def test_attention_logdet_gradient_matches_finite_differences():
    g = graphs.make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    source = with_random_logits(adjparam.AttentionAdjacency(g, 1), seed=8)

    def f():
        return graphs.logabsdet_tensor(source.pattern, source.realize(0), source.damping)

    assert ad.grad_check(f, source.params()) < 1e-5


def test_logabsdet_tensor_identity_and_diagonal():
    eye = ad.Tensor(np.eye(3).ravel(), requires_grad=True)
    out = graphs.logabsdet_tensor(full_pattern(3), eye)
    assert out.item() == 0.0
    out.backward()
    assert_allclose(eye.grad.reshape(3, 3), np.eye(3), atol=1e-12)

    diag = ad.Tensor(np.diag([2.0, 3.0]).ravel(), requires_grad=True)
    out = graphs.logabsdet_tensor(full_pattern(2), diag)
    assert_allclose(out.item(), np.log(6.0), atol=1e-12)
    out.backward()
    assert_allclose(diag.grad.reshape(2, 2), np.diag([0.5, 1.0 / 3.0]), atol=1e-12)

    # the same diagonal as damping on an empty pattern, and as values on a diagonal one
    empty = scipy.sparse.csr_matrix((3, 3))
    assert_allclose(graphs.logabsdet_tensor(empty, np.zeros(0), 2.0).item(), 3 * np.log(2.0), atol=1e-12)
    values = ad.Tensor([1.0, 2.0], requires_grad=True)
    out = graphs.logabsdet_tensor(scipy.sparse.identity(2, format="csr"), values, 1.0)
    assert_allclose(out.item(), np.log(6.0), atol=1e-12)
    out.backward()
    assert_allclose(values.grad, [0.5, 1.0 / 3.0], atol=1e-12)


def test_logabsdet_tensor_gradient_matches_finite_differences():
    rng = np.random.default_rng(19)
    m = ad.Tensor((rng.normal(size=(4, 4)) + 2.0 * np.eye(4)).ravel(), requires_grad=True)
    assert ad.grad_check(lambda: graphs.logabsdet_tensor(full_pattern(4), m), [m]) < 1e-5


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
    a = ad.Tensor(m.ravel(), requires_grad=True)
    out = graphs.logabsdet_tensor(full_pattern(n), a)
    assert abs(out.item() - want) <= 1e-12 * max(1.0, abs(want))
    out.backward()
    inv_t = np.linalg.inv(m).T
    assert np.abs(a.grad.reshape(n, n) - inv_t).max() <= 1e-12 * np.abs(inv_t).max()


def test_logabsdet_tensor_forward_alone_builds_no_inverse(monkeypatch):
    calls = []
    real = graphs.scipy.linalg.lapack.dgetri
    monkeypatch.setattr(graphs.scipy.linalg.lapack, "dgetri", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    a = ad.Tensor([2.0, 3.0], requires_grad=True)
    out = graphs.logabsdet_tensor(scipy.sparse.identity(2, format="csr"), a)
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
    # with the same logits at both stages the learned source is one fixed
    # matrix, and the whole model, likelihood included, is the dense-mixing one
    g = graphs.make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
    source = with_random_logits(adjparam.AttentionAdjacency(g, 2), seed=20)
    source.logits[1].data[...] = source.logits[0].data
    x = np.random.default_rng(21).normal(size=(5, 3))
    head = mixture.MixtureHead(2, 3, mean_scalars=[0.0, 1.0])

    model = variant_model(source, dim=3, seed=22)
    r_var = model.forward(x)
    fixed = DenseMixing(attention_dense(source, 0).data)
    r_fixed = flows.GcFlowModel(model.flows, adjacency=fixed).forward(x)
    assert_allclose(r_var.z.data, r_fixed.z.data, atol=1e-12)
    assert_allclose(
        mixture.log_densities(head, r_var)[1].data,
        mixture.log_densities(head, r_fixed)[1].data,
        atol=1e-10,
    )


def test_variant_loss_gradient_matches_finite_differences():
    g = graphs.make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)])
    x = np.random.default_rng(23).normal(size=(5, 3))
    labels = np.array([0, 1, 0, 1, 0])
    cfg = mixture.LossConfig(labeled=np.array([0, 1, 2]), unlabeled=np.array([3, 4]))
    source = with_random_logits(adjparam.AttentionAdjacency(g, 2), seed=24)
    model = variant_model(source, dim=3, seed=25)
    head = mixture.MixtureHead(2, 3, mean_scalars=[0.0, 1.5])
    params = model.params() + head.params()
    assert any(p is q for p in params for q in source.params())

    def f():
        return mixture.semi_supervised_loss(head, model.forward(x), labels, cfg)

    assert ad.grad_check(f, params) < 1e-5


def test_marginalization_identity_with_variant_adjacency():
    g = graphs.make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
    source = with_random_logits(adjparam.AttentionAdjacency(g, 2), seed=26)
    model = variant_model(source, dim=3, seed=27)
    head = mixture.MixtureHead(3, 3)
    x = np.random.default_rng(28).normal(size=(6, 3))
    result = model.forward(x)
    joint, marginal = (t.data for t in mixture.log_densities(head, result))
    lse = np.log(np.exp(joint - joint.max(axis=1, keepdims=True)).sum(axis=1)) + joint.max(axis=1)
    assert np.abs(lse - marginal).max() < 1e-12


def test_variant_inverse_roundtrip_with_recorded_matrices():
    # the inverse solves each stage with the matrix realized from its logits,
    # recorded here densely and solved by np.linalg.solve
    g = graphs.make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    source = with_random_logits(adjparam.AttentionAdjacency(g, 2), seed=30)
    model = variant_model(source, dim=2, seed=31)
    x = np.random.default_rng(32).normal(size=(4, 2))
    z = model.forward(x).z
    back = model.inverse(z)
    assert np.abs(back.data - x).max() < 1e-8
    want = z.data
    for stage in reversed(range(2)):
        want = np.linalg.solve(attention_dense(source, stage).data, model.flows[stage].inverse(ad.Tensor(want)).data)
    assert_allclose(back.data, want, rtol=0.0, atol=1e-12)


def relative_gap(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.abs(got - want).max(initial=0.0) / max(np.abs(want).max(initial=0.0), 1e-300)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n=st.integers(1, 9), isolated=st.integers(0, 2), density=st.floats(0.0, 1.0),
       damping=st.floats(1.5, 4.0), width=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_sparse_mixing_and_logdet_match_the_dense_oracle(n, isolated, density, damping, width, seed):
    # off-diagonal values in (-1, 1) / degree against a damping above 1.5 keep
    # the matrix diagonally dominant, so the oracle's inverse is well conditioned
    rng = np.random.default_rng(seed)
    g = graphs.make_graph(n + isolated, [(i, j) for i in range(n) for j in range(i + 1, n)
                                         if rng.random() < density])
    src, dst = graphs.directed_edges(g)
    pattern = scipy.sparse.csr_matrix((np.ones(src.size), (src, dst)), shape=(g.n, g.n))
    assert np.array_equal(pattern.indices, dst)
    degree = np.maximum(np.bincount(src, minlength=g.n), 1)[src]
    raw = rng.uniform(-1.0, 1.0, size=src.size) / degree
    x_raw = rng.normal(size=(g.n, width))
    weight = rng.normal(size=(g.n, width))

    values, x = ad.Tensor(raw.copy(), requires_grad=True), ad.Tensor(x_raw.copy(), requires_grad=True)
    mixed = ad.sparse_matmul(pattern, values, x)
    logdet = graphs.logabsdet_tensor(pattern, values, damping)
    (ad.tsum(mixed * ad.Tensor(weight)) + logdet).backward()

    dense_values = ad.Tensor(raw.copy(), requires_grad=True)
    dense_x = ad.Tensor(x_raw.copy(), requires_grad=True)
    matrix = scatter_matrix(dense_values, src, dst, (g.n, g.n))
    want_mixed = ad.matmul(matrix, dense_x)
    want_logdet = logabsdet_dense(matrix + ad.Tensor(damping * np.eye(g.n)))
    (ad.tsum(want_mixed * ad.Tensor(weight)) + want_logdet).backward()

    assert relative_gap(mixed.data, want_mixed.data) <= 1e-12
    assert relative_gap(logdet.data, want_logdet.data) <= 1e-12
    assert relative_gap(values.grad, dense_values.grad) <= 1e-12
    assert relative_gap(x.grad, dense_x.grad) <= 1e-12


def test_model_forward_matches_the_dense_route():
    g = graphs.make_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])  # nodes 5, 6 isolated
    source = adjparam.AttentionAdjacency(g, 2)
    model = variant_model(source, dim=3, seed=41)
    rng = np.random.default_rng(42)
    for p in model.params():
        p.data += 0.3 * rng.normal(size=p.data.shape)
    x = rng.normal(size=(7, 3))
    weight = ad.Tensor(rng.normal(size=(7, 3)))

    def scalar(z, flow_logdet, graph_logdet):
        return ad.tsum(z * weight) + ad.tsum(flow_logdet) + graph_logdet

    params = model.params()
    ad.zero_grads(params)
    result = model.forward(x)
    got = scalar(result.z, result.flow_logdet, result.graph_logdet)
    got.backward()
    got_grads = [p.grad.copy() for p in params]
    ad.zero_grads(params)
    want = scalar(*forward_dense(model, x, attention_dense))
    want.backward()
    assert relative_gap(got.data, want.data) <= 1e-12
    for p, g_got in zip(params, got_grads):
        assert relative_gap(g_got, p.grad) <= 1e-12

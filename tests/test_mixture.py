import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import trapezoid

from gcflow import autodiff as ad
from gcflow import flows, graphs, mixture
from gcflow.errors import ConfigError, DomainError, SingularMatrixError
from oracles import DenseMixing, component_logpdf, dense_gaussian_logpdf, mixture_logpdf

LOG_2PI = np.log(2.0 * np.pi)


def standard_head(num_components=1, dim=2):
    return mixture.MixtureHead(num_components, dim, mean_scalars=[0.0] * num_components)


def component_row(head, z):
    """Per-component log-densities of one latent vector, from the component matrix."""
    return mixture.component_logpdf_matrix(head, np.reshape(z, (1, -1))).data[0]


def mixture_row(head, z):
    """Mixture log-density of one latent vector: the marginal of a flow with no layers."""
    result = flows.GcFlowModel([], adjacency=None).forward(np.reshape(z, (1, -1)))
    return mixture.log_densities(head, result)[1].data[0]


def ring_graph(n, extra=(), damping=0.0):
    edges = [(i, (i + 1) % n) for i in range(n)] + list(extra)
    g = graphs.make_graph(n, edges)
    adj = graphs.normalize_row(g, damping=damping)
    try:
        adj.log_abs_det
    except SingularMatrixError:
        return graphs.normalize_row(g, damping=1e-2)
    return adj


def test_component_logpdf_standard_normal_at_mode():
    head = standard_head()
    assert_allclose(component_row(head, np.zeros(2))[0], -LOG_2PI, atol=1e-12)


def test_component_logpdf_sigma_doubling():
    dim = 3
    head = mixture.MixtureHead(1, dim, mean_scalars=[1.0], log_stds=[0.0])
    wide = mixture.MixtureHead(1, dim, mean_scalars=[1.0], log_stds=[np.log(2.0)])
    z = np.ones(dim)
    drop = component_row(head, z)[0] - component_row(wide, z)[0]
    assert_allclose(drop, dim * np.log(2.0), atol=1e-12)


def test_component_logpdf_matches_dense_covariance_oracle():
    rng = np.random.default_rng(0)
    head = mixture.MixtureHead(3, 4, mean_scalars=[-1.0, 0.5, 2.0], log_stds=[0.1, -0.2, 0.4])
    for k in range(3):
        z = rng.normal(size=4)
        sigma = np.exp(head.log_stds.data[k])
        want = dense_gaussian_logpdf(z, head.means.data[k] * np.ones(4), sigma**2 * np.eye(4))
        assert_allclose(component_row(head, z)[k], want, atol=1e-10)


def test_mixture_logpdf_single_component():
    head = standard_head()
    z = np.array([0.3, -0.7])
    assert_allclose(mixture_row(head, z), component_row(head, z)[0], atol=1e-12)


def test_mixture_logpdf_identical_components():
    head = mixture.MixtureHead(2, 2, mean_scalars=[1.0, 1.0], log_stds=[0.2, 0.2])
    z = np.array([0.5, 2.0])
    assert_allclose(mixture_row(head, z), component_row(head, z)[0], atol=1e-12)


def test_mixture_logpdf_matches_direct_summation():
    rng = np.random.default_rng(1)
    head = mixture.MixtureHead(3, 2, mean_scalars=[-2.0, 0.0, 3.0], log_stds=[0.0, 0.3, -0.3])
    for _ in range(5):
        z = rng.normal(size=2)
        direct = sum(np.exp(component_row(head, z)) / 3.0)
        assert_allclose(np.exp(mixture_row(head, z)), direct, rtol=1e-12)


def test_component_matrix_agrees_with_scalar_op():
    rng = np.random.default_rng(2)
    head = mixture.MixtureHead(3, 4, mean_scalars=[0.0, 1.0, -1.0], log_stds=[0.0, 0.2, -0.1])
    z = rng.normal(size=(5, 4))
    matrix = mixture.component_logpdf_matrix(head, ad.Tensor(z)).data
    for i in range(5):
        for k in range(3):
            assert_allclose(matrix[i, k], component_logpdf(head, z[i], k), atol=1e-12)


@settings(derandomize=True, deadline=None)
@given(
    n=st.integers(1, 6),
    dim=st.integers(1, 5),
    means=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4),
    log_stds=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_component_matrix_matches_scalar_reference_on_random_heads(n, dim, means, log_stds, seed):
    k = len(means)
    head = mixture.MixtureHead(k, dim, mean_scalars=means, log_stds=log_stds[:k])
    assert head.params() == [head.means, head.log_stds]
    z = np.random.default_rng(seed).normal(scale=3.0, size=(n, dim))
    matrix = mixture.component_logpdf_matrix(head, z).data
    want = [[component_logpdf(head, z[i], c) for c in range(k)] for i in range(n)]
    assert_allclose(matrix, want, rtol=0.0, atol=1e-12)


@settings(derandomize=True, deadline=None)
@given(
    n=st.integers(2, 6),
    dim=st.integers(1, 4),
    means=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
    log_stds=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
    unlabeled_weight=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_loss_gradient_over_random_heads(n, dim, means, log_stds, unlabeled_weight, seed):
    k = len(means)
    rng = np.random.default_rng(seed)
    head = mixture.MixtureHead(k, dim, mean_scalars=means, log_stds=log_stds[:k], learn_weights=True)
    head.weight_logits.data[...] = rng.normal(size=k)
    x = rng.normal(size=(n, dim))
    labels = rng.integers(0, k, size=n)
    labeled = rng.permutation(n)[: int(rng.integers(1, n + 1))]
    cfg = mixture.LossConfig(labeled, np.setdiff1d(np.arange(n), labeled), unlabeled_weight)
    model = flows.GcFlowModel([], adjacency=None)
    assert head.params() == [head.means, head.log_stds, head.weight_logits]

    def f():
        return mixture.semi_supervised_loss(head, model.forward(x), labels, cfg)

    assert ad.grad_check(f, head.params()) < 1e-6


def test_log_marginal_identity_model_reduces_to_mixture():
    model = flows.GcFlowModel([], adjacency=None)
    head = mixture.MixtureHead(2, 2, mean_scalars=[0.0, 1.0])
    x = np.array([[0.2, -0.4], [1.1, 0.9], [3.0, -2.0]])
    marginal = mixture.log_densities(head, model.forward(x))[1].data
    for i in range(3):
        assert_allclose(marginal[i], mixture_logpdf(head, x[i]), atol=1e-12)


def test_marginal_sum_matches_bruteforce_change_of_variables():
    n, dim = 3, 2
    adj = ring_graph(n)
    model = flows.build_gcflow(2, dim, hidden=5, net_layers=2, adjacency=adj, seed=3)
    for flow in model.flows:
        for layer in flow.layers:
            layer.s_scale.data[...] = 0.5
    head = mixture.MixtureHead(2, dim, mean_scalars=[0.0, 1.5])
    x = np.random.default_rng(4).normal(size=(n, dim))
    result = model.forward(x)
    total = mixture.log_densities(head, result)[1].data.sum()
    base = sum(mixture_logpdf(head, z) for z in result.z.data)
    brute_logdet = flows.jacobian_bruteforce(lambda a: model.forward(a).z, x)
    assert_allclose(total, base + brute_logdet, atol=1e-6)


def test_marginal_share_tracks_adjacency_determinant():
    # scaling a D=1, T=1 mixing matrix by 2 adds exactly log 2 per node
    rng = np.random.default_rng(5)
    n = 3
    m = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
    base = DenseMixing(m)
    doubled = DenseMixing(2.0 * m)
    head = mixture.MixtureHead(1, 1, mean_scalars=[0.0])
    x = rng.normal(size=(n, 1))
    rows_base = mixture.log_densities(head, flows.GcFlowModel([flows.FlowStack([])], base).forward(x))[1]
    rows_doubled = mixture.log_densities(
        head, flows.GcFlowModel([flows.FlowStack([])], doubled).forward(0.5 * x)
    )[1]
    # evaluate the doubled model at x/2 so both latents coincide: the whole
    # difference is the determinant share
    assert_allclose(rows_doubled.data - rows_base.data, np.full(n, np.log(2.0)), atol=1e-12)


def test_marginalization_identity_on_nontrivial_model():
    n, dim, k = 8, 3, 3
    adj = ring_graph(n, extra=[(0, 4), (2, 6)])
    model = flows.build_gcflow(2, dim, hidden=5, net_layers=2, adjacency=adj, seed=6)
    head = mixture.MixtureHead(k, dim)
    x = np.random.default_rng(7).normal(size=(n, dim))
    result = model.forward(x)
    joint, marginal = (t.data for t in mixture.log_densities(head, result))
    lse = np.log(np.exp(joint - joint.max(axis=1, keepdims=True)).sum(axis=1)) + joint.max(axis=1)
    assert np.abs(lse - marginal).max() < 1e-12


def test_posterior_symmetric_components_uniform():
    head = mixture.MixtureHead(2, 3, mean_scalars=[-1.5, 1.5])
    post = mixture.posterior_matrix(head, ad.Tensor(np.zeros((4, 3))))
    assert_allclose(post, np.full((4, 2), 0.5), atol=1e-12)


def test_posterior_rows_sum_to_one():
    rng = np.random.default_rng(8)
    head = mixture.MixtureHead(4, 3)
    post = mixture.posterior_matrix(head, ad.Tensor(rng.normal(size=(6, 3)) * 3))
    assert_allclose(post.sum(axis=1), np.ones(6), atol=1e-12)


@settings(derandomize=True, deadline=None)
@given(
    n=st.integers(1, 6),
    dim=st.integers(1, 5),
    means=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4),
    log_stds=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_posterior_is_the_joint_over_the_marginal_on_random_heads(n, dim, means, log_stds, seed):
    k = len(means)
    rng = np.random.default_rng(seed)
    head = mixture.MixtureHead(k, dim, mean_scalars=means, log_stds=log_stds[:k], learn_weights=True)
    head.weight_logits.data[...] = rng.normal(size=k)
    z = rng.normal(scale=3.0, size=(n, dim))
    joint, marginal = (t.data for t in mixture.log_densities(head, flows.GcFlowModel([], adjacency=None).forward(z)))
    assert_allclose(mixture.posterior_matrix(head, z), np.exp(joint - marginal[:, None]), rtol=0.0, atol=1e-12)


def test_posterior_in_row_blocks_equals_the_whole_array_result():
    # two full blocks of autodiff.ROW_BLOCK rows and a partial one
    n = 2 * ad.ROW_BLOCK + 176
    rng = np.random.default_rng(10)
    head = mixture.MixtureHead(3, 16, mean_scalars=[-1.0, 0.5, 2.0], log_stds=[0.3, -0.2, 0.1], learn_weights=True)
    head.weight_logits.data[...] = rng.normal(size=3)
    z = rng.normal(scale=2.0, size=(n, 16))
    whole = mixture.normalize_rows(mixture.component_logpdf_matrix(head, z).data + head.log_weights().data)[0]
    assert mixture.posterior_matrix(head, z).tobytes() == whole.tobytes()
    assert mixture.posterior_matrix(head, ad.Tensor(z)).tobytes() == whole.tobytes()


def test_posterior_invariant_to_common_logpdf_shift():
    # shifting every component's log-density by the same constant is a
    # softmax invariance: realize the shift through the weight logits
    rng = np.random.default_rng(9)
    z = rng.normal(size=(5, 2))
    head = mixture.MixtureHead(3, 2, learn_weights=True)
    shifted = mixture.MixtureHead(3, 2, learn_weights=True)
    shifted.weight_logits.data[...] = head.weight_logits.data + 7.3
    assert_allclose(
        mixture.posterior_matrix(head, ad.Tensor(z)),
        mixture.posterior_matrix(shifted, ad.Tensor(z)),
        atol=1e-12,
    )


def test_learned_log_weights_normalize():
    head = mixture.MixtureHead(3, 2, learn_weights=True)
    head.weight_logits.data[...] = [0.5, -1.0, 2.0]
    assert_allclose(np.exp(head.log_weights().data).sum(), 1.0, atol=1e-12)


def test_loss_config_validation():
    with pytest.raises(ConfigError):
        mixture.LossConfig(labeled=[], unlabeled=[0])
    with pytest.raises(ConfigError):
        mixture.LossConfig(labeled=[0, 1], unlabeled=[1, 2])
    with pytest.raises(DomainError):
        mixture.LossConfig(labeled=[0], unlabeled=[1], unlabeled_weight=1.5)


def test_loss_closed_form_single_node():
    x = np.zeros((1, 2))
    cfg = mixture.LossConfig(labeled=[0], unlabeled=[], unlabeled_weight=0.0)
    model = flows.GcFlowModel([], adjacency=None)
    loss1 = mixture.semi_supervised_loss(standard_head(1), model.forward(x), [0], cfg)
    assert_allclose(loss1.item(), LOG_2PI, atol=1e-10)
    loss3 = mixture.semi_supervised_loss(standard_head(3), model.forward(x), [0], cfg)
    assert_allclose(loss3.item(), LOG_2PI + np.log(3.0), atol=1e-10)


def test_loss_zero_weight_is_mean_labeled_joint():
    # w = 0 keeps only the labeled joints; w = 0.5 adds the unlabeled
    # marginals, rebuilt here node by node from the scalar mixture density
    n, dim = 6, 2
    adj = ring_graph(n)
    model = flows.build_gcflow(1, dim, hidden=4, net_layers=2, adjacency=adj, seed=10)
    head = mixture.MixtureHead(2, dim)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(n, dim))
    labels = np.array([0, 1, 0, 1, 0, 1])
    labeled, unlabeled = np.array([0, 1, 2]), np.array([3, 4, 5])
    result = model.forward(x)
    joint = mixture.log_densities(head, result)[0].data
    share = result.flow_logdet.data + result.graph_logdet.data / n
    for w in (0.0, 0.5):
        cfg = mixture.LossConfig(labeled=labeled, unlabeled=unlabeled, unlabeled_weight=w)
        loss = mixture.semi_supervised_loss(head, model.forward(x), labels, cfg)
        want = -(1.0 - w) * np.mean([joint[i, labels[i]] for i in labeled])
        want -= w * np.mean([mixture_logpdf(head, result.z.data[i]) + share[i] for i in unlabeled])
        assert_allclose(loss.item(), want, atol=1e-12)


def test_loss_gradient_matches_finite_differences():
    n, dim = 6, 4
    adj = ring_graph(n, extra=[(0, 3)])
    model = flows.build_gcflow(2, dim, hidden=3, net_layers=2, adjacency=adj, seed=12)
    for flow in model.flows:
        for layer in flow.layers:
            layer.s_scale.data[...] = 0.3
    head = mixture.MixtureHead(2, dim, mean_scalars=[0.0, 2.0], learn_weights=True)
    x = np.random.default_rng(13).normal(size=(n, dim))
    labels = np.array([0, 0, 1, 1, 0, 1])
    cfg = mixture.LossConfig(labeled=np.array([0, 2, 4]), unlabeled=np.array([1, 3, 5]))
    params = model.params() + head.params()

    def f():
        return mixture.semi_supervised_loss(head, model.forward(x), labels, cfg)

    assert ad.grad_check(f, params) < 1e-6


def test_loss_descends_under_small_gradient_steps():
    rng = np.random.default_rng(14)
    n, dim = 20, 3
    labels = np.repeat([0, 1], n // 2)
    x = rng.normal(size=(n, dim)) + labels[:, None] * 3.0
    adj = ring_graph(n, extra=[(0, 10), (5, 15)])
    model = flows.build_gcflow(2, dim, hidden=4, net_layers=2, adjacency=adj, seed=15)
    head = mixture.MixtureHead(2, dim, mean_scalars=[0.0, 3.0])
    cfg = mixture.LossConfig(
        labeled=np.array([0, 1, 2, 10, 11, 12]),
        unlabeled=np.array([i for i in range(n) if i not in (0, 1, 2, 10, 11, 12)]),
    )
    params = model.params() + head.params()
    losses = []
    for _ in range(10):
        ad.zero_grads(params)
        loss = mixture.semi_supervised_loss(head, model.forward(x), labels, cfg)
        loss.backward()
        losses.append(loss.item())
        for p in params:
            p.data -= 1e-4 * p.grad
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_plain_flow_density_integrates_to_one():
    model = flows.build_gcflow(2, 2, hidden=6, net_layers=2, adjacency=None, seed=16)
    for flow in model.flows:
        for layer in flow.layers:
            layer.s_scale.data[...] = 0.4
    head = mixture.MixtureHead(3, 2, mean_scalars=[-1.0, 0.5, 2.0], log_stds=[0.0, -0.3, 0.2])
    xs = np.linspace(-10.0, 10.0, 400)
    grid_x, grid_y = np.meshgrid(xs, xs, indexing="ij")
    points = np.stack([grid_x.reshape(-1), grid_y.reshape(-1)], axis=1)
    result = model.forward(points)
    density = np.exp(mixture.log_densities(head, result)[1].data).reshape(400, 400)
    integral = trapezoid(trapezoid(density, xs, axis=1), xs)
    assert abs(integral - 1.0) < 0.01


def test_init_means_from_labels():
    head = mixture.MixtureHead(3, 2)
    z = np.array([[1.0, 1.0], [5.0, 5.0], [1.0, 1.0], [9.0, 9.0]])
    default_last = head.means.data[2]
    mixture.init_means_from_labels(head, z, labels=[0, 1, 0, 1], labeled=[0, 1, 2])
    assert_allclose(head.means.data[0], 1.0)
    assert_allclose(head.means.data[1], 5.0)
    assert head.means.data[2] == default_last

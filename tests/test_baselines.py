import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import log_softmax, softmax

from gcflow import autodiff as ad
from gcflow.autodiff import Tensor, grad_check
from gcflow.baselines import (
    EmGmm,
    EmReference,
    GcnModel,
    _component_logpdfs,
    component_class_mapping,
    em_fit,
    gcn_loss,
    responsibilities,
)
from gcflow.errors import (
    ConfigError,
    DegenerateComponentError,
    ShapeError,
    SingularMatrixError,
)
from gcflow.evalkit import kmeans, micro_f1
from gcflow.graphs import make_graph, normalize_row
from gcflow.mixture import normalize_rows
from oracles import dense_gaussian_logpdf, identity_adjacency


def ring_adjacency(n):
    # even rings are singular under row normalization, so damp those
    g = make_graph(n, [(i, (i + 1) % n) for i in range(n)])
    adj = normalize_row(g)
    try:
        adj.log_abs_det
    except SingularMatrixError:
        return normalize_row(g, damping=1e-2)
    return adj


# -- graph-convolutional classifier -------------------------------------


def test_gcn_rows_are_distributions():
    rng = np.random.default_rng(0)
    model = GcnModel(ring_adjacency(6), [3, 5, 4], seed=1)
    logits = model.forward(rng.normal(size=(6, 3)))[0]
    assert logits.shape == (6, 4)
    probs, log_norms = normalize_rows(logits.data)
    assert np.all(probs > 0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(log_norms, ad.logsumexp_rows(logits).data, rtol=0.0, atol=1e-12)


def test_gcn_zero_weights_predict_uniformly():
    model = GcnModel(ring_adjacency(5), [3, 4, 2], seed=0)
    for w in model.weights:
        w.data[:] = 0.0
    logits = model.forward(np.random.default_rng(1).normal(size=(5, 3)))[0]
    assert np.array_equal(logits.data, np.zeros((5, 2)))
    loss = gcn_loss(logits, np.array([0, 1, 1, 0, 1]), np.arange(5))
    assert abs(loss.item() - np.log(2.0)) < 1e-15


def test_single_layer_edgeless_gcn_is_plain_softmax():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 3))
    model = GcnModel(identity_adjacency(4), [3, 2], seed=3)
    logits = model.forward(x)[0]
    expected = x @ model.weights[0].data
    assert np.allclose(logits.data, expected, atol=1e-14)
    labels = np.array([0, 1, 1, 0])
    want = -log_softmax(expected, axis=1)[np.arange(4), labels].mean()
    assert abs(gcn_loss(logits, labels, np.arange(4)).item() - want) < 1e-14


def test_gcn_penultimate_is_hidden_activation():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 3))
    adj = ring_adjacency(6)
    model = GcnModel(adj, [3, 5, 2], seed=4)
    _, penult = model.forward(x)
    expected = np.maximum(adj.sparse.toarray() @ x @ model.weights[0].data, 0.0)
    assert np.allclose(penult, expected, atol=1e-14)
    assert penult.shape == (6, 5)


def test_gcn_rejects_row_mismatch():
    model = GcnModel(ring_adjacency(5), [3, 2], seed=0)
    with pytest.raises(ShapeError):
        model.forward(np.zeros((4, 3)))


def test_gcn_dropout_perturbs_only_a_forward_with_an_rng():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 3))
    model = GcnModel(ring_adjacency(6), [3, 5, 2], dropout=0.5, seed=5)
    eval_a = model.forward(x)[0].data
    eval_b = model.forward(x)[0].data
    assert np.array_equal(eval_a, eval_b)
    trained = model.forward(x, rng=np.random.default_rng(0))[0].data
    assert not np.array_equal(eval_a, trained)


def test_gcn_loss_perfect_prediction_is_zero():
    # a margin of 50 puts exp(-50) below half an ulp of the true logit
    logits = Tensor(50.0 * np.eye(3))
    labels = np.array([0, 1, 2])
    loss = gcn_loss(logits, labels, np.arange(3))
    assert loss.item() == 0.0


def test_gcn_loss_uniform_prediction_is_log_k():
    logits = Tensor(np.full((4, 3), 2.5))
    loss = gcn_loss(logits, np.array([0, 1, 2, 0]), np.arange(4))
    assert abs(loss.item() - np.log(3.0)) < 1e-12


def test_gcn_loss_keeps_the_gradient_of_a_confidently_wrong_node():
    # true class 1 is 40 below the top logit: the loss and its gradient row stay whole
    logits = Tensor(np.array([[40.0, 0.0, 0.0], [0.0, 1.0, 0.5], [2.0, 0.0, 1.0]]), requires_grad=True)
    labels = np.array([1, 1, 0])
    loss = gcn_loss(logits, labels, np.arange(3))
    loss.backward()
    want = -log_softmax(logits.data, axis=1)[np.arange(3), labels].mean()
    assert abs(loss.item() - want) <= 1e-15 * want
    assert loss.item() > 40.0 / 3.0
    assert_allclose(logits.grad[0], np.array([1.0, -1.0, 0.0]) / 3.0, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_gcn_loss_is_the_mean_negative_log_softmax_past_large_gaps(seed):
    rng = np.random.default_rng(seed)
    n, k = 12, 4
    logits = rng.normal(scale=3.0, size=(n, k))
    logits[np.arange(n), rng.integers(0, k, size=n)] += rng.uniform(30.0, 60.0, size=n)
    labels = rng.integers(0, k, size=n)
    labeled = rng.permutation(n)[:8]
    gaps = logits[labeled].max(axis=1) - logits[labeled, labels[labeled]]
    assert gaps.max() > 30.0
    t = Tensor(logits, requires_grad=True)
    loss = gcn_loss(t, labels, labeled)
    loss.backward()
    want = -log_softmax(logits[labeled], axis=1)[np.arange(labeled.size), labels[labeled]].mean()
    assert abs(loss.item() - want) <= 1e-12 * abs(want)
    grad = np.zeros((n, k))
    grad[labeled] = softmax(logits[labeled], axis=1) - np.eye(k)[labels[labeled]]
    assert_allclose(t.grad, grad / labeled.size, rtol=0.0, atol=1e-15)


def test_gcn_loss_requires_labeled_nodes():
    with pytest.raises(ConfigError):
        gcn_loss(Tensor(np.full((2, 2), 0.5)), np.array([0, 1]), np.array([], dtype=np.intp))


def test_gcn_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(6, 3))
    labels = np.array([0, 1, 0, 1, 0, 1])
    model = GcnModel(ring_adjacency(6), [3, 4, 2], seed=7)

    def loss_fn():
        return gcn_loss(model.forward(x)[0], labels, np.arange(6))

    assert grad_check(loss_fn, model.params()) < 1e-6


def test_gcn_predict_matches_argmax():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 3))
    model = GcnModel(ring_adjacency(5), [3, 4, 3], seed=8)
    pred, _ = model.predict_and_represent(x)
    assert np.array_equal(pred, model.forward(x)[0].data.argmax(axis=1))


# -- EM mixture ---------------------------------------------------------


def test_component_logpdfs_match_dense_oracle():
    rng = np.random.default_rng(8)
    d, k, n = 3, 2, 5
    covs = []
    for _ in range(k):
        m = rng.normal(size=(d, d))
        covs.append(m @ m.T + 0.5 * np.eye(d))
    gmm = EmGmm(np.full(k, 0.5), rng.normal(size=(k, d)), np.stack(covs))
    x = rng.normal(size=(n, d))
    got = _component_logpdfs(gmm, x)
    for i in range(n):
        for c in range(k):
            want = dense_gaussian_logpdf(x[i], gmm.means[c], gmm.covs[c])
            assert abs(got[i, c] - want) < 1e-10 * max(1.0, abs(want))


def test_responsibilities_rows_sum_to_one():
    rng = np.random.default_rng(9)
    gmm = EmGmm([0.3, 0.7], rng.normal(size=(2, 2)), np.stack([np.eye(2)] * 2))
    resp, loglik = responsibilities(gmm, rng.normal(size=(10, 2)))
    assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)
    assert np.isfinite(loglik)


def kmeans_means(x, k, seed):
    """k-means centroids to start EM from."""
    return kmeans(x, k, seed=seed).centroids


def test_em_loglik_trace_is_monotone():
    rng = np.random.default_rng(10)
    x = np.concatenate([rng.normal(size=(40, 2)), rng.normal(size=(40, 2)) + 4.0])
    gmm = em_fit(x, 2, kmeans_means(x, 2, seed=0))
    trace = np.array(gmm.loglik_trace)
    assert trace.size >= 2
    assert np.all(np.diff(trace) > -1e-7)
    assert gmm.converged


def test_em_recovers_separated_blob_means():
    rng = np.random.default_rng(11)
    x = np.concatenate(
        [rng.normal(scale=0.5, size=(200, 1)), rng.normal(scale=0.5, size=(200, 1)) + 10.0]
    )
    gmm = em_fit(x, 2, kmeans_means(x, 2, seed=1))
    found = np.sort(gmm.means.ravel())
    assert abs(found[0] - 0.0) < 0.1
    assert abs(found[1] - 10.0) < 0.1
    assert np.allclose(gmm.weights, 0.5, atol=0.05)


def test_em_exact_fit_on_k_distinct_points():
    x = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    gmm = em_fit(x, 3, x + 0.01)
    order = np.argsort(gmm.means[:, 0] + 100 * gmm.means[:, 1])
    assert np.allclose(gmm.means[order], x[np.argsort(x[:, 0] + 100 * x[:, 1])], atol=1e-3)


def test_em_is_seed_deterministic():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(60, 3))
    a = em_fit(x, 3, kmeans_means(x, 3, seed=5))
    b = em_fit(x, 3, kmeans_means(x, 3, seed=5))
    assert a.means.tobytes() == b.means.tobytes()
    assert a.loglik_trace == b.loglik_trace


def test_em_rejects_bad_component_counts():
    x = np.zeros((3, 2))
    with pytest.raises(ConfigError):
        em_fit(x, 4, np.zeros((4, 2)))
    with pytest.raises(ConfigError):
        em_fit(x, 2, np.zeros((3, 2)))


def test_singular_covariance_is_reported():
    gmm = EmGmm([1.0], np.zeros((1, 2)), np.zeros((1, 2, 2)))
    with pytest.raises(DegenerateComponentError):
        responsibilities(gmm, np.zeros((4, 2)))


def gmm_classify(gmm, x, labels, labeled):
    """Predictions of an EM reference holding ``gmm``, its components mapped
    to classes by the labeled majority."""
    ref = EmReference(gmm.k)
    ref.gmm = gmm
    ref.mapping = component_class_mapping(gmm, x, labels, labeled)
    return ref.predict_and_represent(x)[0]


def test_gmm_classify_maps_components_to_classes():
    rng = np.random.default_rng(13)
    x = np.concatenate([rng.normal(size=(50, 2)), rng.normal(size=(50, 2)) + 8.0])
    truth = np.concatenate([np.zeros(50, dtype=int), np.ones(50, dtype=int)])
    gmm = em_fit(x, 2, kmeans_means(x, 2, seed=3))
    labeled = np.array([0, 1, 2, 50, 51, 52])
    pred = gmm_classify(gmm, x, truth, labeled)
    assert micro_f1(pred, truth) == 1.0


def test_gmm_classify_label_permutation_follows_votes():
    # same data, labels flipped: predictions must flip with them
    rng = np.random.default_rng(14)
    x = np.concatenate([rng.normal(size=(30, 1)), rng.normal(size=(30, 1)) + 9.0])
    truth = np.concatenate([np.ones(30, dtype=int), np.zeros(30, dtype=int)])
    gmm = em_fit(x, 2, kmeans_means(x, 2, seed=4))
    pred = gmm_classify(gmm, x, truth, np.array([0, 1, 30, 31]))
    assert micro_f1(pred, truth) == 1.0


def test_gmm_classify_single_component_uses_majority():
    x = np.random.default_rng(15).normal(size=(10, 2))
    truth = np.array([0, 0, 0, 1, 1, 1, 1, 0, 0, 0])
    gmm = em_fit(x, 1, kmeans_means(x, 1, seed=0))
    pred = gmm_classify(gmm, x, truth, np.arange(10))
    assert np.all(pred == 0)


def test_gmm_classify_requires_labeled_nodes():
    gmm = EmGmm([1.0], np.zeros((1, 1)), np.ones((1, 1, 1)))
    with pytest.raises(ConfigError):
        gmm_classify(gmm, np.zeros((3, 1)), np.zeros(3, dtype=int), np.array([], dtype=np.intp))

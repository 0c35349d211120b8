import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gcflow import evalkit
from gcflow.data import SbmConfig, generate_sbm
from gcflow.errors import ConfigError, DomainError, ShapeError


# -- independent oracles ------------------------------------------------


def f1_via_confusion(pred, truth):
    """Micro F1 from per-class confusion counts: micro P = micro R here."""
    classes = np.union1d(pred, truth)
    tp = sum(np.sum((pred == c) & (truth == c)) for c in classes)
    fp = sum(np.sum((pred == c) & (truth != c)) for c in classes)
    fn = sum(np.sum((pred != c) & (truth == c)) for c in classes)
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def silhouette_loops(x, labels):
    """Quadratic-time reference silhouette."""
    x = np.asarray(x, float)
    labels = np.asarray(labels)
    n = x.shape[0]
    dist = np.array([[np.linalg.norm(x[i] - x[j]) for j in range(n)] for i in range(n)])
    scores = []
    for i in range(n):
        mine = (labels == labels[i]) & (np.arange(n) != i)
        if not mine.any():
            scores.append(0.0)
            continue
        a = dist[i][mine].mean()
        b = min(
            dist[i][labels == c].mean() for c in np.unique(labels) if c != labels[i]
        )
        scores.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    return float(np.mean(scores))


def nmi_from_table(a, t):
    """Direct contingency-table computation with explicit loops."""
    a = np.asarray(a)
    t = np.asarray(t)
    n = a.size
    va, vt = np.unique(a), np.unique(t)
    info = 0.0
    for ca in va:
        for ct in vt:
            joint = np.sum((a == ca) & (t == ct)) / n
            if joint > 0:
                pa = np.sum(a == ca) / n
                pt = np.sum(t == ct) / n
                info += joint * np.log(joint / (pa * pt))
    ha = -sum(p * np.log(p) for p in [np.mean(a == c) for c in va] if p > 0)
    ht = -sum(p * np.log(p) for p in [np.mean(t == c) for c in vt] if p > 0)
    if ha == 0 or ht == 0:
        return 0.0
    return info / np.sqrt(ha * ht)


def ari_from_pairs(a, t):
    """ARI from exhaustive pair enumeration."""
    a = np.asarray(a)
    t = np.asarray(t)
    ss = sd = ds = dd = 0
    for i, j in itertools.combinations(range(a.size), 2):
        same_a = a[i] == a[j]
        same_t = t[i] == t[j]
        ss += same_a and same_t
        sd += same_a and not same_t
        ds += same_t and not same_a
        dd += not same_a and not same_t
    index = ss
    sum_a = ss + sd
    sum_t = ss + ds
    total = ss + sd + ds + dd
    expected = sum_a * sum_t / total
    denom = 0.5 * (sum_a + sum_t) - expected
    if denom == 0:
        return 1.0
    return (index - expected) / denom


# -- micro F1 -----------------------------------------------------------


def test_micro_f1_trivials():
    truth = np.array([0, 1, 2, 1])
    assert evalkit.micro_f1(truth, truth) == 1.0
    half = np.array([0, 1, 0, 0])
    assert evalkit.micro_f1(half, truth) == 0.5


def test_micro_f1_eval_subset():
    pred = np.array([0, 0, 1, 1])
    truth = np.array([0, 1, 1, 1])
    assert evalkit.micro_f1(pred[[0, 2]], truth[[0, 2]]) == 1.0
    assert evalkit.micro_f1(pred[[1]], truth[[1]]) == 0.0


def test_micro_f1_empty_eval_set_rejected():
    with pytest.raises(ConfigError):
        evalkit.micro_f1(np.array([0])[[]], np.array([0])[[]])


def test_micro_f1_matches_confusion_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = rng.integers(5, 40)
        pred = rng.integers(0, 4, size=n)
        truth = rng.integers(0, 4, size=n)
        if not np.any(pred == truth):
            continue  # oracle precision undefined with zero true positives
        assert_allclose(evalkit.micro_f1(pred, truth), f1_via_confusion(pred, truth), atol=1e-12)
        assert_allclose(evalkit.micro_f1(pred, truth), np.mean(pred == truth), atol=1e-15)


# -- silhouette ---------------------------------------------------------


def test_silhouette_two_tight_far_pairs():
    x = np.array([[0.0], [0.1], [10.0], [10.1]])
    labels = np.array([0, 0, 1, 1])
    want = np.mean(
        [
            (10.05 - 0.1) / 10.05,
            (9.95 - 0.1) / 9.95,
            (9.95 - 0.1) / 9.95,
            (10.05 - 0.1) / 10.05,
        ]
    )
    got = evalkit.silhouette(x, labels)
    assert_allclose(got, want, atol=1e-12)
    assert got == pytest.approx(0.99, abs=1e-3)


def test_silhouette_label_swap_invariant():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(20, 3))
    labels = rng.integers(0, 2, size=20)
    labels[0], labels[1] = 0, 1
    assert_allclose(evalkit.silhouette(x, labels), evalkit.silhouette(x, 1 - labels), atol=1e-15)


def test_silhouette_single_cluster_rejected():
    with pytest.raises(ConfigError):
        evalkit.silhouette(np.zeros((3, 2)), [1, 1, 1])
    with pytest.raises(ConfigError):
        evalkit.silhouette(np.zeros((0, 2)), [])


def test_silhouette_singleton_contributes_zero():
    x = np.array([[0.0], [5.0], [6.0]])
    got = evalkit.silhouette(x, [0, 1, 1])
    want = np.mean([0.0, (5.0 - 1.0) / 5.0, (6.0 - 1.0) / 6.0])
    assert_allclose(got, want, atol=1e-12)


def test_silhouette_matches_loop_oracle_and_range():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(6, 40))
        k = int(rng.integers(2, 5))
        x = rng.normal(size=(n, 3))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)  # every cluster non-empty
        got = evalkit.silhouette(x, labels)
        assert_allclose(got, silhouette_loops(x, labels), atol=1e-10)
        assert -1.0 <= got <= 1.0


def test_silhouette_blockwise_equals_direct(monkeypatch):
    # a budget of 70 rows x n distances splits the rows into four full
    # blocks and a ragged last one of 20
    rng = np.random.default_rng(3)
    n, dim = 300, 45
    x = rng.normal(size=(n, dim))
    labels = rng.integers(0, 3, size=n)
    monkeypatch.setattr(evalkit, "DISTANCE_BUDGET", 70 * n)
    block = evalkit.DISTANCE_BUDGET // n
    assert 1 < block < n and n % block
    shapes = []
    real = evalkit.cdist
    monkeypatch.setattr(evalkit, "cdist", lambda a, b: shapes.append((a.shape[0], b.shape[0])) or real(a, b))
    assert_allclose(evalkit.silhouette(x, labels), silhouette_loops(x, labels), atol=1e-10)
    assert [rows for rows, _ in shapes] == [70, 70, 70, 70, 20]
    # each block reaches only the points from its first row on: 55,000
    # distances, the upper triangle and diagonal blocks, not all 90,000
    assert [cols for _, cols in shapes] == [300, 230, 160, 90, 20]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    n=st.integers(2, 30),
    dim=st.integers(1, 5),
    k=st.integers(2, 8),
    distinct=st.integers(1, 30),
    rows=st.integers(1, 31),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=6, dim=2, k=6, distinct=1, rows=6, seed=0)  # every cluster a singleton, every point the same
@example(n=8, dim=3, k=2, distinct=1, rows=3, seed=1)  # a = b = 0 for every point
@example(n=7, dim=2, k=3, distinct=7, rows=1, seed=2)  # one row per block
def test_silhouette_matches_loop_oracle_property(n, dim, k, distinct, rows, seed):
    # points drawn from `distinct` locations, so small pools give duplicates
    # (a = b = 0); k close to n gives singletons; label values are spread
    # out and partly negative, so they are neither contiguous nor 0-based;
    # a budget of `rows` x n distances gives blocks of `rows` rows, from one
    # per point to one block for all (rows >= n), with a ragged last block
    # whenever `rows` does not divide n
    rng = np.random.default_rng(seed)
    rows = min(rows, n + 1)
    k = min(k, n)
    codes = rng.integers(0, k, size=n)
    codes[:k] = np.arange(k)
    labels = rng.choice(np.arange(-40, 40), size=k, replace=False)[codes] * 3
    pool = rng.normal(size=(min(distinct, n), dim))
    x = pool[rng.integers(0, pool.shape[0], size=n)]
    patched = pytest.MonkeyPatch()
    patched.setattr(evalkit, "DISTANCE_BUDGET", rows * n)
    try:
        got = evalkit.silhouette(x, labels)
    finally:
        patched.undo()
    assert abs(got - silhouette_loops(x, labels)) <= 1e-10
    assert -1.0 <= got <= 1.0


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    n=st.integers(2, 30),
    dim=st.integers(1, 4),
    ks=st.lists(st.integers(2, 8), min_size=2, max_size=4),
    distinct=st.integers(1, 30),
    rows=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=6, dim=2, ks=[6, 2], distinct=1, rows=2, seed=0)  # singletons; a = b = 0 everywhere
@example(n=9, dim=1, ks=[2, 9, 3], distinct=3, rows=4, seed=5)  # duplicates beside singletons
def test_silhouette_of_several_labelings_equals_one_call_each(n, dim, ks, distinct, rows, seed):
    # a budget of `rows` x n distances splits the points into several
    # blocks; every labeling reads the same block of distances
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(min(distinct, n), dim))
    x = pool[rng.integers(0, pool.shape[0], size=n)]
    labelings = []
    for k in ks:
        k = min(k, n)
        codes = rng.integers(0, k, size=n)
        codes[:k] = rng.permutation(k)  # every cluster non-empty
        labelings.append(codes * 7 - 11)
    patched = pytest.MonkeyPatch()
    patched.setattr(evalkit, "DISTANCE_BUDGET", rows * n)
    try:
        together = evalkit.silhouette(x, *labelings)
        alone = [evalkit.silhouette(x, labels) for labels in labelings]
    finally:
        patched.undo()
    assert isinstance(together, tuple)
    assert [np.float64(v).tobytes() for v in together] == [np.float64(v).tobytes() for v in alone]


def test_silhouette_of_several_labelings_takes_one_distance_pass(monkeypatch):
    rng = np.random.default_rng(4)
    n = 300
    x = rng.normal(size=(n, 5))
    first, second = rng.integers(0, 3, size=n), rng.integers(0, 4, size=n)
    monkeypatch.setattr(evalkit, "DISTANCE_BUDGET", 70 * n)
    rows = []
    real = evalkit.cdist
    monkeypatch.setattr(evalkit, "cdist", lambda a, b: rows.append(a.shape[0]) or real(a, b))
    together = evalkit.silhouette(x, first, second)
    assert rows == [70, 70, 70, 70, 20]
    assert together == (evalkit.silhouette(x, first), evalkit.silhouette(x, second))


def test_cluster_agreement_scores_known_classes_apart_when_some_are_unknown(monkeypatch):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(40, 3))
    assign = rng.integers(0, 3, size=40)
    truth = rng.integers(0, 2, size=40)
    passes = []
    real = evalkit.cdist
    monkeypatch.setattr(evalkit, "cdist", lambda a, b: passes.append(b.shape[0]) or real(a, b))
    got = evalkit.cluster_agreement(x, assign, truth)
    assert (got["silhouette_kmeans"], got["silhouette_truth"]) == evalkit.silhouette(x, assign, truth)
    assert passes == [40, 40]  # one pass for both silhouettes, one for the check
    assert got["nmi"] == evalkit.nmi(assign, truth) and got["ari"] == evalkit.ari(assign, truth)
    truth[::4] = -1
    passes.clear()
    known = truth >= 0
    got = evalkit.cluster_agreement(x, assign, truth)
    assert passes == [40, 30]
    assert got == {
        "silhouette_kmeans": evalkit.silhouette(x, assign),
        "silhouette_truth": evalkit.silhouette(x[known], truth[known]),
        "nmi": evalkit.nmi(assign[known], truth[known]),
        "ari": evalkit.ari(assign[known], truth[known]),
    }


def test_cluster_agreement_rejects_a_class_count_mismatch():
    x = np.random.default_rng(7).normal(size=(10, 2))
    assign = np.arange(10) % 2
    for truth in (np.arange(8) % 2, np.array([0, 1, -1, 0, 1, 0, 1, 0])):
        with pytest.raises(ShapeError, match="one class per point"):
            evalkit.cluster_agreement(x, assign, truth)


def test_silhouette_cdist_route_matches_broadcast_reference(monkeypatch):
    rng = np.random.default_rng(18)
    n, dim = 2400, 16
    x = rng.normal(size=(n, dim))
    labels = rng.integers(0, 3, size=n)
    got = evalkit.silhouette(x, labels)
    # the former route: an explicit rows x n x D difference temporary,
    # squared and reduced; a small budget keeps that temporary near 30 MB
    monkeypatch.setattr(
        evalkit, "cdist", lambda a, b: np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    )
    monkeypatch.setattr(evalkit, "DISTANCE_BUDGET", 100 * n)
    want = evalkit.silhouette(x, labels)
    assert abs(got - want) <= 1e-12


def test_silhouette_rejects_label_count_mismatch():
    with pytest.raises(ShapeError):
        evalkit.silhouette(np.zeros((6, 2)), [0, 1, 0])


def test_silhouette_rejects_one_dimensional_points():
    with pytest.raises(ShapeError):
        evalkit.silhouette(np.array([0.0, 0.1, 5.0, 5.1]), [0, 0, 1, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_silhouette_rejects_non_finite_points(bad):
    x = np.random.default_rng(19).normal(size=(6, 2))
    x[3, 1] = bad
    with pytest.raises(DomainError):
        evalkit.silhouette(x, [0, 0, 0, 1, 1, 1])


# -- NMI ----------------------------------------------------------------


def test_nmi_identical_partitions():
    labels = np.array([0, 0, 1, 1, 2, 2, 2])
    assert_allclose(evalkit.nmi(labels, labels), 1.0, atol=1e-12)


def test_nmi_single_cluster_is_zero():
    assert evalkit.nmi(np.zeros(6, dtype=int), np.array([0, 1, 2, 0, 1, 2])) == 0.0


def test_nmi_matches_contingency_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.integers(0, 3, size=20)
        t = rng.integers(0, 4, size=20)
        assert_allclose(evalkit.nmi(a, t), nmi_from_table(a, t), atol=1e-12)
        assert 0.0 <= evalkit.nmi(a, t) <= 1.0 + 1e-12


def test_nmi_label_permutation_invariant():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 3, size=30)
    t = rng.integers(0, 3, size=30)
    relabeled = np.array([2, 0, 1])[a]
    assert_allclose(evalkit.nmi(a, t), evalkit.nmi(relabeled, t), atol=1e-12)


# -- ARI ----------------------------------------------------------------


def test_ari_identical_partitions():
    labels = np.array([0, 1, 1, 2, 0, 2])
    assert_allclose(evalkit.ari(labels, labels), 1.0, atol=1e-12)


def test_ari_hand_example_matches_pair_oracle():
    a = np.array([0, 0, 1, 1, 2, 2])
    t = np.array([0, 0, 1, 2, 2, 2])
    assert_allclose(evalkit.ari(a, t), ari_from_pairs(a, t), atol=1e-12)


def test_ari_matches_pair_oracle_on_random_cases():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = rng.integers(0, 3, size=12)
        t = rng.integers(0, 3, size=12)
        assert_allclose(evalkit.ari(a, t), ari_from_pairs(a, t), atol=1e-12)


def test_ari_near_zero_for_independent_partitions():
    rng = np.random.default_rng(7)
    values = [
        evalkit.ari(rng.integers(0, 3, size=24), rng.integers(0, 3, size=24))
        for _ in range(1000)
    ]
    assert abs(np.mean(values)) < 0.02


# -- k-means ------------------------------------------------------------


def test_kmeans_one_cluster_per_point():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 2)) * 10
    out = evalkit.kmeans(x, 5, seed=0)
    assert sorted(out.labels.tolist()) == [0, 1, 2, 3, 4]
    assert out.inertia == pytest.approx(0.0, abs=1e-18)


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(9)
    truth = np.repeat([0, 1], 40)
    x = rng.normal(size=(80, 3)) * 0.2 + truth[:, None] * 25.0
    out = evalkit.kmeans(x, 2, seed=1)
    assert evalkit.ari(out.labels, truth) == 1.0


def test_kmeans_deterministic_for_fixed_seed():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(40, 4))
    a = evalkit.kmeans(x, 3, seed=7)
    b = evalkit.kmeans(x, 3, seed=7)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centroids, b.centroids)


def test_kmeans_inertia_trace_non_increasing():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(60, 2))
    out = evalkit.kmeans(x, 4, seed=2)
    trace = out.inertia_trace
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_kmeans_rejects_too_many_clusters():
    with pytest.raises(ConfigError):
        evalkit.kmeans(np.zeros((2, 2)), 3)


def test_kmeans_rejects_fewer_distinct_points_than_clusters():
    x = np.repeat([[0.0, 0.0], [1.0, 2.0]], 5, axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "Mean of empty slice" on the way to the error
        with pytest.raises(ConfigError, match="cannot form 3 clusters from 2 distinct points"):
            evalkit.kmeans(x, 3)


def test_kmeans_restarts_an_emptied_cluster_at_the_farthest_point(monkeypatch):
    rng = np.random.default_rng(22)
    truth = np.repeat([0, 1, 2], 20)
    x = rng.normal(size=(60, 2)) * 0.1 + np.array([[0.0, 0.0], [10.0, 0.0], [40.0, 0.0]])[truth]
    # two equal seeds: every point's nearest is the first copy, so the second's cluster starts empty
    monkeypatch.setattr(evalkit, "_plusplus_seed", lambda points, k, rng: points[[0, 0, 20]].copy())
    out = evalkit.kmeans(x, 3)
    assert evalkit.ari(out.labels, truth) == 1.0
    assert len(np.unique(out.centroids, axis=0)) == 3


@pytest.mark.parametrize("k", [0, -1])
def test_kmeans_rejects_fewer_than_one_cluster(k):
    with pytest.raises(ConfigError):
        evalkit.kmeans(np.random.default_rng(20).normal(size=(5, 2)), k)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_rejects_non_finite_points(bad):
    x = np.random.default_rng(21).normal(size=(8, 2))
    x[5, 0] = bad
    with pytest.raises(DomainError):
        evalkit.kmeans(x, 2)


def test_kmeans_rejects_one_dimensional_points():
    with pytest.raises(ShapeError):
        evalkit.kmeans(np.array([0.0, 1.0, 5.0, 6.0]), 2)


# -- PCA ----------------------------------------------------------------


def test_pca_reconstructs_low_rank_data():
    rng = np.random.default_rng(12)
    basis = rng.normal(size=(3, 8))
    x = rng.normal(size=(50, 3)) @ basis + rng.normal(size=8)
    proj = evalkit.pca_fit(x, 3)
    coords = evalkit.pca_apply(proj, x)
    back = coords @ proj.directions.T + proj.mean
    assert np.abs(back - x).max() < 1e-8


def test_pca_directions_orthonormal():
    rng = np.random.default_rng(13)
    proj = evalkit.pca_fit(rng.normal(size=(30, 6)), 4)
    gram = proj.directions.T @ proj.directions
    assert np.abs(gram - np.eye(4)).max() < 1e-10


def test_pca_projected_covariance_diagonal():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(40, 5)) @ rng.normal(size=(5, 5))
    coords = evalkit.pca_apply(evalkit.pca_fit(x, 3), x)
    centered = coords - coords.mean(axis=0)
    cov = centered.T @ centered / (coords.shape[0] - 1)
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() < 1e-8


def test_pca_explained_non_increasing():
    rng = np.random.default_rng(15)
    proj = evalkit.pca_fit(rng.normal(size=(25, 7)), 5)
    assert all(b <= a + 1e-12 for a, b in zip(proj.explained, proj.explained[1:]))


def test_pca_full_rank_preserves_distances():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(20, 4))
    coords = evalkit.pca_apply(evalkit.pca_fit(x, 4), x)
    for i in range(0, 20, 5):
        for j in range(20):
            d0 = np.linalg.norm(x[i] - x[j])
            d1 = np.linalg.norm(coords[i] - coords[j])
            assert abs(d0 - d1) < 1e-10


def test_pca_reduction_is_idempotent():
    x = generate_sbm(SbmConfig(dim=8, seed=7)).features
    once = evalkit.pca_apply(evalkit.pca_fit(x, 4), x)
    twice = evalkit.pca_apply(evalkit.pca_fit(once, 4), once)
    assert np.allclose(once, twice, atol=1e-9)


def test_pca_sign_convention_deterministic():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(30, 5))
    p1 = evalkit.pca_fit(x, 3)
    p2 = evalkit.pca_fit(x.copy(), 3)
    assert np.array_equal(p1.directions, p2.directions)
    for c in range(3):
        col = p1.directions[:, c]
        assert col[np.abs(col).argmax()] > 0


def test_pca_rejects_bad_rank():
    with pytest.raises(ShapeError):
        evalkit.pca_fit(np.zeros((4, 3)), 4)
    with pytest.raises(ShapeError):
        evalkit.pca_fit(np.zeros((4, 3)), 0)

"""Classification and clustering metrics, k-means, and PCA.

All metrics are pure functions of their inputs. Cluster ids and class ids
are plain integer vectors; ``ClusterAssignment`` additionally carries the
centroids and the inertia trace of the k-means run that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ConfigError, DomainError, ShapeError

# cap on the distances held per block: rows x (n - start) floats, most in the
# first block (2.4 MB at this budget). Keep that block above about 2 MB. On the
# benchmark workloads (n=2400, one BLAS thread) this budget evaluated 15-17%
# faster than 600,000 (4.8 MB blocks) with no other metric worse, while blocks
# of 0.8 MB (100,000) gave 43x the minor faults and twice the forward step
# time, seemingly because a freed block raises glibc's mmap threshold only to
# its own size, below the size of the forward's temporaries
DISTANCE_BUDGET = 300_000
KMEANS_MAX_ITERS = 1000


def _labels_of(assign):
    labels = assign.labels if hasattr(assign, "labels") else assign
    return np.asarray(labels)


def micro_f1(pred, truth) -> float:
    """Micro-averaged F1 of predictions against the truth.

    With one label per node, micro precision and recall both equal
    accuracy, so this is the fraction of exact matches.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ShapeError(f"prediction and truth lengths differ: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise ConfigError("evaluation set is empty")
    return float((pred == truth).mean())


def _finite_points(points):
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"need an n x D point matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DomainError("points have non-finite coordinates; distances are undefined")
    return x


def _cluster_codes(raw, n):
    """0-based cluster codes, member counts and one-hot matrix of one labeling."""
    raw = _labels_of(raw)
    if raw.shape != (n,):
        raise ShapeError(f"need one label per point: {raw.shape} labels for {n} points")
    _, labels = np.unique(raw, return_inverse=True)
    k = labels.max() + 1 if labels.size else 0
    if k < 2:
        raise ConfigError("silhouette needs at least two clusters")
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    return labels, counts, onehot


def _widths(sums, labels, counts):
    """Silhouette widths of every point from its summed distances to each cluster."""
    own_count = counts[labels]
    at = np.arange(labels.size)
    with np.errstate(invalid="ignore", divide="ignore"):
        a = sums[at, labels] / (own_count - 1.0)
        means = sums / counts[None, :]
    means[at, labels] = np.inf
    b = means.min(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = (b - a) / np.maximum(a, b)
    s[own_count == 1.0] = 0.0
    s[np.maximum(a, b) == 0.0] = 0.0
    return s


def silhouette(points, assign, *more):
    """Mean silhouette width under Euclidean distance.

    Per point: a = mean distance to its own cluster (excluding itself),
    b = smallest mean distance to any other cluster, score = (b-a)/max(a,b).
    Points in singleton clusters score 0, and so do points with a = b = 0.
    Distances come from ``cdist`` (compiled direct differences, not the
    inner-product expansion, which loses ~1e-9 of precision that the metric
    oracles notice), and each one is computed once: the block of rows
    ``start:stop`` takes its distances to the points from ``start`` on, the
    upper triangle of the symmetric matrix, and adds them both to its own
    rows' cluster sums and, transposed, to the later rows' sums. A block holds
    at most DISTANCE_BUDGET distances, so the full n x n matrix never
    materializes; when n x n is within the budget, one block is that matrix.

    With one labeling the result is a float. Further labelings of the same
    points (``more``) are scored from the same distance blocks, two
    ``block @ onehot`` products each, and a tuple of floats comes back in
    argument order; each equals what a call with that labeling alone returns.
    """
    x = _finite_points(points)
    n = x.shape[0]
    codings = [_cluster_codes(raw, n) for raw in (assign, *more)]
    totals = [np.zeros((n, counts.size)) for _, counts, _ in codings]
    block = max(1, DISTANCE_BUDGET // n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        dist = cdist(x[start:stop], x[start:])
        for total, (_, _, onehot) in zip(totals, codings):
            total[start:stop] += dist @ onehot[start:]
            total[stop:] += dist[:, stop - start:].T @ onehot[start:stop]
        del dist  # before the next block is allocated, so one block is alive at a time
    means = tuple(float(_widths(total, labels, counts).mean())
                  for total, (labels, counts, _) in zip(totals, codings))
    return means if more else means[0]


def cluster_agreement(points, assign, truth) -> dict:
    """How well a clustering of all points fits them and the known classes
    (``truth`` >= 0): its silhouette, the known classes' silhouette over the
    points that have one, and its NMI and ARI against those classes.

    With every class known, both silhouettes come from one distance pass.
    Otherwise the known points are a different point set, scored in a pass
    of their own.
    """
    truth = _labels_of(truth)
    if truth.shape != (len(points),):
        raise ShapeError(f"need one class per point: {truth.shape} classes for {len(points)} points")
    known = truth >= 0
    if known.all():
        sil_assign, sil_truth = silhouette(points, assign, truth)
    else:
        sil_assign = silhouette(points, assign)
        sil_truth = silhouette(np.asarray(points)[known], truth[known])
    found = _labels_of(assign)[known]
    return {
        "silhouette_kmeans": sil_assign,
        "silhouette_truth": sil_truth,
        "nmi": nmi(found, truth[known]),
        "ari": ari(found, truth[known]),
    }


def _contingency(a, b):
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    rows, cols = ai.max() + 1, bi.max() + 1
    return np.bincount(ai * cols + bi, minlength=rows * cols).reshape(rows, cols).astype(np.float64)


def _entropy(counts, n):
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def nmi(assign, truth) -> float:
    """Mutual information normalized by the geometric mean of entropies.

    Natural logarithms throughout; zero by convention when either side has
    zero entropy (a single cluster carries no information).
    """
    a = _labels_of(assign)
    t = _labels_of(truth)
    if a.size == 0 or a.shape != t.shape:
        raise ShapeError("need two equal-length non-empty label vectors")
    n = a.size
    table = _contingency(a, t)
    row = table.sum(axis=1)
    col = table.sum(axis=0)
    h_a = _entropy(row, n)
    h_t = _entropy(col, n)
    if h_a == 0.0 or h_t == 0.0:
        return 0.0
    info = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            c = table[i, j]
            if c > 0:
                info += (c / n) * np.log(c * n / (row[i] * col[j]))
    return float(max(info, 0.0) / np.sqrt(h_a * h_t))


def _choose2(x):
    return x * (x - 1.0) / 2.0


def ari(assign, truth) -> float:
    """Adjusted Rand index from the pair-counting formula."""
    a = _labels_of(assign)
    t = _labels_of(truth)
    if a.size == 0 or a.shape != t.shape:
        raise ShapeError("need two equal-length non-empty label vectors")
    table = _contingency(a, t)
    index = _choose2(table).sum()
    sum_a = _choose2(table.sum(axis=1)).sum()
    sum_t = _choose2(table.sum(axis=0)).sum()
    total = _choose2(float(a.size))
    expected = sum_a * sum_t / total if total else 0.0
    denom = 0.5 * (sum_a + sum_t) - expected
    if denom == 0.0:
        return 1.0
    return float((index - expected) / denom)


@dataclass
class ClusterAssignment:
    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    inertia_trace: list = field(default_factory=list)


def _plusplus_seed(x, k, rng):
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    closest = ((x - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = rng.choice(n, p=closest / total)
        else:
            idx = rng.integers(n)
        centroids[c] = x[idx]
        closest = np.minimum(closest, ((x - centroids[c]) ** 2).sum(axis=1))
    return centroids


def kmeans(points, k, seed=0) -> ClusterAssignment:
    """Lloyd iterations from a distance-weighted random seeding.

    Stops when assignments reach a fixpoint or after KMEANS_MAX_ITERS rounds.
    A cluster that loses all members is restarted at the point farthest
    from its current centroid assignment. When that point sits on its
    centroid, every point does, so there are fewer than k distinct points
    and ``ConfigError`` is raised.
    """
    x = _finite_points(points)
    n = x.shape[0]
    if k < 1:
        raise ConfigError(f"need at least one cluster, got k={k}")
    if n < k:
        raise ConfigError(f"cannot form {k} clusters from {n} points")
    if seed < 0:
        raise ConfigError(f"k-means seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    centroids = _plusplus_seed(x, k, rng)
    labels = None
    trace = []
    for _ in range(KMEANS_MAX_ITERS):
        sq = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = sq.argmin(axis=1)
        for c in range(k):
            if not np.any(new_labels == c):
                farthest = sq[np.arange(n), new_labels].argmax()
                if sq[farthest, new_labels[farthest]] == 0.0:
                    distinct = len(np.unique(x, axis=0))
                    raise ConfigError(f"cannot form {k} clusters from {distinct} distinct points")
                centroids[c] = x[farthest]
                sq[:, c] = ((x - centroids[c]) ** 2).sum(axis=1)
                new_labels = sq.argmin(axis=1)
        trace.append(float(sq[np.arange(n), new_labels].sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centroids[c] = x[labels == c].mean(axis=0)
    sq = ((x - centroids[labels]) ** 2).sum(axis=1)
    return ClusterAssignment(labels=labels, centroids=centroids, inertia=float(sq.sum()), inertia_trace=trace)


@dataclass
class PcaProjection:
    mean: np.ndarray
    directions: np.ndarray  # D x r, orthonormal columns
    explained: np.ndarray  # variances, non-increasing


def pca_fit(x, r) -> PcaProjection:
    """Top-r principal directions of the feature covariance.

    Deterministic up to sign, which is fixed by making each direction's
    largest-magnitude entry positive.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"need a 2-D feature matrix, got shape {x.shape}")
    n, d = x.shape
    if not (1 <= r <= min(n, d)):
        raise ShapeError(f"cannot keep {r} directions of a {n}x{d} matrix")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / max(n - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:r]
    directions = eigvecs[:, order].copy()
    for c in range(r):
        col = directions[:, c]
        if col[np.abs(col).argmax()] < 0:
            directions[:, c] = -col
    return PcaProjection(mean=mean, directions=directions, explained=eigvals[order].copy())


def pca_apply(proj: PcaProjection, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != proj.mean.size:
        raise ShapeError(f"projection expects {proj.mean.size} features, got {x.shape[1]}")
    return (x - proj.mean) @ proj.directions

"""Reference models the flow is compared against.

Two families: a graph-convolutional classifier trained with cross-entropy,
and a full-covariance Gaussian mixture fitted by EM directly on features
(optionally pre-mixed by the normalized adjacency). The mixture has no
access to labels during fitting; labels only enter afterwards, when
components are mapped to classes by majority vote.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DegenerateComponentError, DomainError
from .flows import glorot
from .graphs import NormalizedAdjacency

GCN_HIDDEN = 128
GCN_DROPOUT = 0.5


class GcnModel:
    """Stack of mix-then-project layers, relu between, softmax on top.

    No biases anywhere. Dropout acts on each layer's input in a forward
    handed an rng; the penultimate activations (input to the final layer,
    before its dropout) double as the model's node representation.
    """

    def __init__(self, adjacency: NormalizedAdjacency, widths, dropout=GCN_DROPOUT, seed=0):
        if len(widths) < 2:
            raise DomainError("need input and output widths at minimum")
        if not (0.0 <= dropout < 1.0):
            raise DomainError(f"dropout must lie in [0, 1), got {dropout}")
        self.adjacency = adjacency
        self.dropout = dropout
        rng = np.random.default_rng(seed)
        self.weights = [
            Tensor(glorot(rng, fan_in, fan_out), requires_grad=True)
            for fan_in, fan_out in zip(widths[:-1], widths[1:])
        ]

    def params(self):
        return list(self.weights)

    def loss_and_predictions(self, x, labels, loss_cfg, rng):
        """Cross-entropy over the labeled nodes of one training forward, and
        that forward's most probable class per node; without dropout these
        equal ``predict_and_represent``'s."""
        probs, _ = self.forward(x, rng=rng)
        return gcn_loss(probs, labels, loss_cfg.labeled), probs.data.argmax(axis=1)

    def represent(self, x):
        return self.predict_and_represent(x)[1]

    def predict_and_represent(self, x):
        """Most probable class per node and the penultimate representation,
        from one forward with no tape."""
        with ad.no_grad():
            probs, penultimate = self.forward(x)
        return probs.data.argmax(axis=1), penultimate

    def forward(self, x, rng=None):
        """Class probabilities and the penultimate representation."""
        h = ad.as_tensor(x)
        penultimate = h.data
        for idx, w in enumerate(self.weights):
            if idx == len(self.weights) - 1:
                penultimate = h.data
            h = ad.dropout(h, self.dropout, rng)
            h = self.adjacency.mix(h, logdet=False)[0] @ w
            if idx < len(self.weights) - 1:
                h = ad.relu(h)
        return ad.row_softmax(h), penultimate


def gcn_loss(probs, labels, labeled) -> Tensor:
    """Mean negative log-probability of the true class over labeled nodes."""
    labeled = np.asarray(labeled, dtype=np.intp)
    if labeled.size == 0:
        raise ConfigError("cross-entropy needs at least one labeled node")
    picked = ad.take_per_row(ad.gather_rows(probs, labeled), np.asarray(labels)[labeled])
    # clamp floor guards log(0); ceiling 2 keeps prob=1 off the mask boundary
    return -ad.tsum(ad.log(ad.clamp(picked, 1e-12, 2.0))) * (1.0 / labeled.size)


# -- EM-fitted Gaussian mixture -----------------------------------------

EM_MAX_ITERS = 200
EM_TOL = 1e-6
COV_RIDGE = 1e-6


class EmGmm:
    """Full-covariance mixture: weights (k,), means (k, d), covs (k, d, d)."""

    def __init__(self, weights, means, covs):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.means = np.asarray(means, dtype=np.float64)
        self.covs = np.asarray(covs, dtype=np.float64)
        self.loglik_trace: list[float] = []
        self.converged = False

    @property
    def k(self):
        return self.means.shape[0]


def _component_logpdfs(gmm: EmGmm, x):
    """(n, k) matrix of per-component Gaussian log-densities."""
    n, d = x.shape
    out = np.empty((n, gmm.k))
    for c in range(gmm.k):
        try:
            chol = np.linalg.cholesky(gmm.covs[c])
        except np.linalg.LinAlgError:
            raise DegenerateComponentError(
                f"component {c} covariance is not positive definite"
            ) from None
        diff = x - gmm.means[c]
        solved = np.linalg.solve(chol, diff.T)
        quad = (solved ** 2).sum(axis=0)
        logdet = 2.0 * np.log(np.diag(chol)).sum()
        out[:, c] = -0.5 * (quad + logdet + d * np.log(2.0 * np.pi))
    return out


def responsibilities(gmm: EmGmm, x):
    """Posterior component probabilities per row, plus total log-likelihood."""
    scores = _component_logpdfs(gmm, x) + np.log(gmm.weights)[None, :]
    top = scores.max(axis=1, keepdims=True)
    shifted = np.exp(scores - top)
    norm = shifted.sum(axis=1, keepdims=True)
    loglik = float((np.log(norm) + top).sum())
    return shifted / norm, loglik


def em_fit(x, k, init_means) -> EmGmm:
    """Fit a k-component mixture by EM from ``init_means`` until the log-likelihood settles."""
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    if k < 1 or k > n:
        raise ConfigError(f"cannot fit {k} components to {n} points")
    init_means = np.asarray(init_means, dtype=np.float64)
    if init_means.shape != (k, d):
        raise ConfigError(f"init means must be {k}x{d}, got {init_means.shape}")

    base_cov = np.cov(x, rowvar=False).reshape(d, d) + COV_RIDGE * np.eye(d)
    gmm = EmGmm(np.full(k, 1.0 / k), init_means, np.tile(base_cov, (k, 1, 1)))

    previous = -np.inf
    for _ in range(EM_MAX_ITERS):
        resp, loglik = responsibilities(gmm, x)
        gmm.loglik_trace.append(loglik)
        if abs(loglik - previous) < EM_TOL * max(1.0, abs(previous)):
            gmm.converged = True
            break
        previous = loglik

        counts = resp.sum(axis=0)
        if np.any(counts < 1e-10):
            raise DegenerateComponentError("a component lost all its responsibility mass")
        gmm.weights = counts / n
        gmm.means = (resp.T @ x) / counts[:, None]
        for c in range(k):
            diff = x - gmm.means[c]
            gmm.covs[c] = (resp[:, c][:, None] * diff).T @ diff / counts[c]
            gmm.covs[c] += COV_RIDGE * np.eye(d)
    return gmm


def component_class_mapping(gmm: EmGmm, x, labels, labeled):
    """Class id per component, by majority vote of its labeled members.

    Components that capture no labeled node fall back to the most common
    labeled class overall.
    """
    labeled = np.asarray(labeled, dtype=np.intp)
    if labeled.size == 0:
        raise ConfigError("component-to-class mapping needs labeled nodes")
    labels = np.asarray(labels)
    resp, _ = responsibilities(gmm, x)
    assign = resp.argmax(axis=1)

    known = labels[labeled]
    fallback = np.bincount(known).argmax()
    mapping = np.full(gmm.k, fallback, dtype=np.intp)
    for c in range(gmm.k):
        members = known[assign[labeled] == c]
        if members.size:
            mapping[c] = np.bincount(members).argmax()
    return mapping


class EmReference:
    """An EM mixture fitted on features, or on features pre-mixed by a fixed
    normalized ``adjacency``, with its components mapped to classes.

    It has no gradient parameters: ``fit`` takes the place of training.
    """

    def __init__(self, classes, adjacency=None):
        self.classes = int(classes)
        self.adjacency = adjacency
        self.gmm: EmGmm | None = None
        self.mapping: np.ndarray | None = None

    def params(self):
        return []

    def represent(self, x):
        """The features the mixture is fitted on."""
        return x if self.adjacency is None else self.adjacency.mix(x, logdet=False)[0].data

    def fit(self, x, labels, labeled):
        """EM from the labeled per-class feature means, then the class mapping.

        A class with no labeled node has no mean to start from and raises
        ``ConfigError``.
        """
        feats = self.represent(x)
        init = []
        for c in range(self.classes):
            members = labeled[labels[labeled] == c]
            if members.size == 0:
                raise ConfigError(f"class {c} has no training node to start its EM component from")
            init.append(feats[members].mean(axis=0))
        self.gmm = em_fit(feats, self.classes, np.stack(init))
        self.mapping = component_class_mapping(self.gmm, feats, labels, labeled)

    def predict_and_represent(self, x):
        """Mapped class per node and ``represent(x)``, mixing the features once."""
        feats = self.represent(x)
        resp, _ = responsibilities(self.gmm, feats)
        return self.mapping[resp.argmax(axis=1)], feats


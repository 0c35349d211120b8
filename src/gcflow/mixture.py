"""Gaussian-mixture base distribution and the semi-supervised likelihood.

The latent distribution is a K-component mixture of isotropic Gaussians
whose means are scalar multiples of the all-ones vector and whose
covariances are scalar multiples of the identity, one scalar pair per
component. Each component doubles as a class: a node's label posterior is
the component posterior of its latent vector.

A node's log-density adds three pieces: the mixture log-density of its
latent vector, its own coupling log-determinant, and an equal per-node
share of the adjacency log-determinant. ``log_densities`` always includes
the last piece, so the likelihoods it reports are proper ones. When the
adjacency is fixed that piece is a constant with no gradient, and the
training loss of ``FlowMixture`` leaves it out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DomainError
from .graphs import NormalizedAdjacency

LOG_2PI = float(np.log(2.0 * np.pi))

# default spread for component mean scalars
MEAN_LO = 0.5
MEAN_HI = 10.0


def spread_means(num_components, lo=MEAN_LO, hi=MEAN_HI):
    """Component mean scalars evenly spaced from lo to hi (lo alone for K=1)."""
    if num_components == 1:
        return [lo]
    step = (hi - lo) / (num_components - 1)
    return [lo + k * step for k in range(num_components)]


class MixtureHead:
    """Component mean and log-std scalars, one (K,) tensor each, plus mixture weights.

    Weights are uniform and fixed unless ``learn_weights`` is set, in which
    case softmax-parameterized logits train with everything else.
    """

    def __init__(self, num_components, dim, mean_scalars=None, log_stds=None, learn_weights=False):
        if num_components < 1:
            raise DomainError(f"need at least one component, got {num_components}")
        if dim < 1:
            raise DomainError(f"need at least one feature, got {dim}")
        self.num_components = int(num_components)
        self.dim = int(dim)
        if mean_scalars is None:
            mean_scalars = spread_means(num_components)
        if log_stds is None:
            log_stds = [0.0] * num_components
        if len(mean_scalars) != num_components or len(log_stds) != num_components:
            raise DomainError("need one mean scalar and one log-std per component")
        self.means = ad.Tensor(np.asarray(mean_scalars, dtype=np.float64), requires_grad=True)
        self.log_stds = ad.Tensor(np.asarray(log_stds, dtype=np.float64), requires_grad=True)
        self.learn_weights = bool(learn_weights)
        self.weight_logits = ad.Tensor(np.zeros(num_components), requires_grad=self.learn_weights)

    def log_weights(self):
        if not self.learn_weights:
            return ad.Tensor(np.full(self.num_components, -np.log(self.num_components)))
        row = ad.reshape(self.weight_logits, (1, self.num_components))
        return ad.reshape(row - ad.reshape(ad.logsumexp_rows(row), (1, 1)), (self.num_components,))

    def params(self):
        out = [self.means, self.log_stds]
        if self.learn_weights:
            out.append(self.weight_logits)
        return out


def component_logpdf_matrix(head: MixtureHead, z) -> ad.Tensor:
    """n x K matrix of per-component Gaussian log-densities, differentiable.

    The squared distances are summed over the last, contiguous axis of an
    n x K x D difference, so each entry is summed in the same order as a
    single-component n x D difference would be.
    """
    z = ad.as_tensor(z)
    n, dim = z.shape
    k = head.num_components
    diff = ad.reshape(z, (n, 1, dim)) - ad.reshape(head.means, (k, 1))
    sq = ad.tsum(diff * diff, axis=2)
    inv_var = ad.exp(head.log_stds * -2.0)
    return sq * inv_var * -0.5 - (0.5 * dim * LOG_2PI) - head.log_stds * float(dim)


def share_rows(result) -> ad.Tensor:
    """Per-node log-determinant: own coupling part plus adjacency share."""
    n = result.flow_logdet.shape[0]
    return result.flow_logdet + result.graph_logdet * (1.0 / n)


def log_densities(head: MixtureHead, result):
    """Per-node log-densities of a forward result, from one component matrix.

    Returns the n x K joint log-density of each node with each class and
    the length-n marginal log-density over classes. The loss, the
    likelihood reports and the numeric checks all read these two.
    """
    comp_lw = component_logpdf_matrix(head, result.z) + head.log_weights()
    share = share_rows(result)
    joint = comp_lw + ad.reshape(share, (share.shape[0], 1))
    return joint, ad.logsumexp_rows(comp_lw) + share


def normalize_rows(scores):
    """Each row of ``exp(scores)`` divided by its sum, and the log of that sum
    (the row's logsumexp), both taken after subtracting the row maximum."""
    top = scores.max(axis=1, keepdims=True)
    shifted = np.exp(scores - top)
    norm = shifted.sum(axis=1, keepdims=True)
    return shifted / norm, (np.log(norm) + top).reshape(-1)


def posterior_matrix(head: MixtureHead, z) -> np.ndarray:
    """Component posteriors per node; the determinant terms cancel out.

    The log-densities are taken ``autodiff.ROW_BLOCK`` rows at a time with
    no tape, so no temporary is larger than a block's K x D differences;
    each row is computed as a whole-array call would compute it.
    """
    z = ad.as_tensor(z).data
    scores = np.empty((z.shape[0], head.num_components))
    with ad.no_grad():
        for r in range(0, z.shape[0], ad.ROW_BLOCK):
            scores[r:r + ad.ROW_BLOCK] = component_logpdf_matrix(head, z[r:r + ad.ROW_BLOCK]).data
        scores += head.log_weights().data
    return normalize_rows(scores)[0]


def _finite(z) -> np.ndarray:
    """``z`` itself; non-finite latents raise ``DomainError``."""
    if not np.all(np.isfinite(z)):
        raise DomainError("forward pass produced non-finite latent features")
    return z


def _latents(model, x) -> np.ndarray:
    """Latent features from ``model.latents``, the tape-free route in row
    blocks, which computes no log-determinant: neither latents nor
    posteriors need one.

    Without the log-det's factorization nothing else would notice a broken
    mixing matrix, so non-finite latents raise ``DomainError``.
    """
    return _finite(model.latents(x))


def _classify(head: MixtureHead, z) -> np.ndarray:
    """Most probable component per row of a latent matrix."""
    return posterior_matrix(head, z).argmax(axis=1)


def predict(model, head: MixtureHead, x):
    """Most probable component per node, and the latents it was read from."""
    z = _latents(model, x)
    return _classify(head, z), z


@dataclass
class LossConfig:
    """Index sets and the weight that balances the unlabeled term."""

    labeled: np.ndarray
    unlabeled: np.ndarray
    unlabeled_weight: float = 0.5

    def __post_init__(self):
        self.labeled = np.asarray(self.labeled, dtype=np.intp)
        self.unlabeled = np.asarray(self.unlabeled, dtype=np.intp)
        if self.labeled.size == 0:
            raise ConfigError("the labeled set must not be empty")
        if np.intersect1d(self.labeled, self.unlabeled).size:
            raise ConfigError("labeled and unlabeled sets overlap")
        if not (0.0 <= self.unlabeled_weight <= 1.0):
            raise DomainError(f"unlabeled weight must lie in [0,1], got {self.unlabeled_weight}")


def semi_supervised_loss(head: MixtureHead, result, labels, cfg: LossConfig) -> ad.Tensor:
    """Negative weighted sum of labeled joint and unlabeled marginal terms.

    Labeled nodes contribute their joint log-density with the observed class,
    unlabeled nodes their marginal log-density; the two means are blended
    with weights (1 - w) and w and negated for minimization. With no
    unlabeled nodes the second term is dropped. The densities are read from
    ``result``, the flow forward the caller ran.
    """
    labels = np.asarray(labels, dtype=np.intp)
    joint, marginal = log_densities(head, result)
    picked = ad.take_per_row(ad.gather_rows(joint, cfg.labeled), labels[cfg.labeled])
    w = cfg.unlabeled_weight
    loss = ad.tsum(picked) * (-(1.0 - w) / cfg.labeled.size)
    if cfg.unlabeled.size:
        loss = loss + ad.tsum(ad.gather_rows(marginal, cfg.unlabeled)) * (-w / cfg.unlabeled.size)
    return loss


def init_means_from_labels(head: MixtureHead, z, labels, labeled):
    """Set each component's mean scalar from its labeled nodes' latents.

    Uses the mean coordinate value over the labeled nodes of that class;
    classes with no labeled nodes keep their current scalar.
    """
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    labeled = np.asarray(labeled, dtype=np.intp)
    for k in range(head.num_components):
        mine = labeled[labels[labeled] == k]
        if mine.size:
            head.means.data[k] = z[mine].mean()


class FlowMixture:
    """A flow paired with its mixture head: one trainable model.

    ``params`` lists the flow's parameters first, then the head's, and that
    order is the one checkpoints store.
    """

    def __init__(self, flow, head: MixtureHead):
        self.flow = flow
        self.head = head

    def params(self):
        return self.flow.params() + self.head.params()

    def loss_and_predictions(self, x, labels, loss_cfg: LossConfig, rng):
        """A function that builds the training loss, the most probable
        component per node, and the latents, from one training forward. The
        loss, and with it the graph log|det| it reads, is built only when the
        function is called, so the head can change before then. A forward
        that draws no noise computes the same latents as inference, so its
        predictions and latents equal ``predict_and_represent``'s.
        Non-finite latents raise ``DomainError``.

        A fixed adjacency's log|det| is left out of the loss: it is a
        constant with no gradient, so the parameters train as they would
        with it, and its last bit depends on the BLAS thread count, which it
        would carry into every epoch's loss. With unlabeled nodes the
        negative log-likelihood is this loss minus the constant's per-node
        share: the feature width times the stage count times
        ``log_abs_det``, over n.
        """
        result = self.flow.forward(x, rng=rng)
        if isinstance(self.flow.adjacency, NormalizedAdjacency):
            result = replace(result, stage_logdets=[])
        z = _finite(result.z.data)
        return lambda: semi_supervised_loss(self.head, result, labels, loss_cfg), _classify(self.head, z), z

    def represent(self, x) -> np.ndarray:
        """Latent features: the space the mixture clusters in."""
        return _latents(self.flow, x)

    def predict_and_represent(self, x):
        """Most probable component per node and the latents, from one forward."""
        return predict(self.flow, self.head, x)

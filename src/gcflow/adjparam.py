"""Input-dependent mixing matrices learned alongside the flows.

Two constructions, both confined to the given edge set:

* attention reweighting: each existing edge gets a positive weight from a
  small scorer over endpoint embeddings, and each node's weights are
  softmax-normalized over its neighborhood, so rows are stochastic;
* near-binary edge gating: each direction of an existing edge gets a gate
  in [0,1] sampled from a hard-concrete relaxation (a temperature-controlled
  logistic stretched to (-0.1, 1.1) and clamped back). The two directions
  share one antisymmetric score, so without noise an edge's two gates sum
  to 1: a gate can turn one direction off but never the whole edge.

Neither construction adds edges: ``realize`` returns one value per entry
of the CSR ``pattern``, the directed edges in ``directed_edges`` order.
``EdgeSource.mix``, called by every model stage, mixes with that matrix plus
``damping`` times the identity (rows of a softmax-normalized matrix sum to 1
and exact singularity is otherwise common). It returns, beside the mixed
features, a function that computes the matrix's log|det|: only a likelihood
calls it, so a forward that is not scored never factors.
Embedding weights are shared across stages; the values still differ per
stage because each stage feeds its own features in.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from . import autodiff as ad
from .errors import DomainError
from .flows import Mlp
from .graphs import Graph, directed_edges, logabsdet_tensor

DEFAULT_DAMPING = 1e-3
DEFAULT_TEMPERATURE = 0.66
# the hard-concrete stretch, symmetric about 1/2
STRETCH_LO = -0.1
STRETCH_HI = 1.1


class EdgeSource:
    """What both learned sources share: the directed edges, their CSR
    ``pattern``, the damping, and ``mix``. A subclass defines ``realize``."""

    def __init__(self, graph: Graph, damping, needs_edges):
        if len(graph.edges) == 0:
            raise DomainError(needs_edges)
        self.n = graph.n
        self.damping = float(damping)
        self.src, self.dst = directed_edges(graph)
        self.pattern = scipy.sparse.csr_matrix(
            (np.ones(self.src.size), (self.src, self.dst)), shape=(self.n, self.n))

    def mix(self, x, rng=None):
        """Mix ``x`` by ``realize``'s matrix plus damping times the identity;
        also a function that factors that matrix for its differentiable log|det|."""
        values = self.realize(x, rng)
        mixed = ad.sparse_matmul(self.pattern, values, x) + x * self.damping
        return mixed, lambda: logabsdet_tensor(self.pattern, values, self.damping)


class AttentionAdjacency(EdgeSource):
    """Row-stochastic edge reweighting from learned endpoint embeddings."""

    def __init__(self, graph: Graph, dim, embed_dim=16, damping=DEFAULT_DAMPING, seed=0):
        super().__init__(graph, damping, "attention reweighting needs at least one edge")
        rng = np.random.default_rng(seed)
        self.embed_src = Mlp([dim, embed_dim], rng)
        self.embed_dst = Mlp([dim, embed_dim], rng)
        self.scorer = Mlp([2 * embed_dim, 1], rng)
        # where each source's run of edges starts; ``src`` is sorted
        self.row_starts = np.flatnonzero(np.diff(self.src, prepend=-1))

    def edge_scores(self, x) -> ad.Tensor:
        x = ad.as_tensor(x)
        h = ad.relu(self.embed_src(x))
        g = ad.relu(self.embed_dst(x))
        paired = ad.concat_cols([ad.gather_rows(h, self.src), ad.gather_rows(g, self.dst)])
        return ad.lrelu(ad.reshape(self.scorer(paired), (self.src.size,)))

    def realize(self, x, rng=None):
        scores = self.edge_scores(x)
        # softmax per source row, stabilized by a constant per-row shift: the
        # row's own max, so its largest weight is exp(0) = 1 and the row sum
        # cannot underflow to zero however negative the scores are
        row_max = np.full(self.n, -np.inf)
        row_max[self.src[self.row_starts]] = np.maximum.reduceat(scores.data, self.row_starts)
        weights = ad.exp(scores - ad.Tensor(row_max[self.src]))
        # an isolated node has no entry, so no row sum of zero is ever read
        row_sums = ad.sparse_matmul(self.pattern, weights, np.ones((self.n, 1)))
        return weights / ad.reshape(ad.gather_rows(row_sums, self.src), (self.src.size,))

    def params(self):
        return self.embed_src.params() + self.embed_dst.params() + self.scorer.params()


class ConcreteAdjacency(EdgeSource):
    """Per-direction soft edge gates from a stretched logistic relaxation.

    Each directed edge's keep-score is an antisymmetric function of its
    endpoint embeddings squashed to (-1, 1). A ``realize`` handed an rng
    perturbs the score with logistic noise drawn from it; one without uses
    the noise-free deterministic limit. Stretching past [0,1] and clamping
    back lets a gate reach exactly 0 or 1 with nonzero probability; the clamp
    passes gradient only in its interior. Without noise an edge's two
    directed gates sum to exactly 1: a gate of 0 in one direction means 1 in
    the other, so the gates can orient an edge but never remove it.
    """

    def __init__(self, graph: Graph, dim, embed_dim=16, temperature=DEFAULT_TEMPERATURE,
                 damping=DEFAULT_DAMPING, seed=0):
        if not temperature > 0.0:
            raise DomainError(f"temperature must be positive, got {temperature}")
        super().__init__(graph, damping, "edge gating needs at least one edge")
        rng = np.random.default_rng(seed)
        self.temperature = float(temperature)
        self.embed_a = Mlp([dim, embed_dim], rng)
        self.embed_b = Mlp([dim, embed_dim], rng)

    def edge_logits(self, x) -> ad.Tensor:
        """Antisymmetric per-edge score: swapping an edge's endpoints negates it."""
        x = ad.as_tensor(x)
        ta = ad.tanh(self.embed_a(x))
        tb = ad.tanh(self.embed_b(x))
        forward = ad.gather_rows(ta, self.src) * ad.gather_rows(tb, self.dst)
        backward = ad.gather_rows(tb, self.src) * ad.gather_rows(ta, self.dst)
        return ad.tanh(ad.tsum(forward - backward, axis=1))

    def realize(self, x, rng=None):
        logits = self.edge_logits(x)
        if rng is not None:
            eps = rng.uniform(size=self.src.size)
            logits = logits + ad.Tensor(np.log(eps) - np.log1p(-eps))
        soft = ad.sigmoid(logits * (1.0 / self.temperature))
        stretched = soft * (STRETCH_HI - STRETCH_LO) + STRETCH_LO
        return ad.clamp(stretched, 0.0, 1.0)

    def params(self):
        return self.embed_a.params() + self.embed_b.params()

"""An input-dependent mixing matrix learned alongside the flows.

Attention reweighting: each existing edge gets a positive weight from a
small scorer over endpoint embeddings, and each node's weights are
softmax-normalized over its neighborhood, so rows are stochastic.

No edge is added: ``realize`` returns one value per entry of the CSR
``pattern``, the directed edges in ``directed_edges`` order.
``AttentionAdjacency.mix``, called by every model stage, mixes with that
matrix plus ``damping`` times the identity (rows of a softmax-normalized
matrix sum to 1 and exact singularity is otherwise common). It returns,
beside the mixed features, a function that computes the matrix's log|det|:
only a likelihood calls it, so a forward that is not scored never factors.
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


class AttentionAdjacency:
    """Row-stochastic edge reweighting from learned endpoint embeddings."""

    def __init__(self, graph: Graph, dim, embed_dim=16, damping=DEFAULT_DAMPING, seed=0):
        if len(graph.edges) == 0:
            raise DomainError("attention reweighting needs at least one edge")
        self.n = graph.n
        self.damping = float(damping)
        self.src, self.dst = directed_edges(graph)
        self.pattern = scipy.sparse.csr_matrix(
            (np.ones(self.src.size), (self.src, self.dst)), shape=(self.n, self.n))
        rng = np.random.default_rng(seed)
        self.embed_src = Mlp([dim, embed_dim], rng)
        self.embed_dst = Mlp([dim, embed_dim], rng)
        self.scorer = Mlp([2 * embed_dim, 1], rng)
        # where each source's run of edges starts; ``src`` is sorted
        self.row_starts = np.flatnonzero(np.diff(self.src, prepend=-1))

    def mix(self, x):
        """Mix ``x`` by ``realize``'s matrix plus damping times the identity;
        also a function that factors that matrix for its differentiable log|det|."""
        values = self.realize(x)
        mixed = ad.sparse_matmul(self.pattern, values, x) + x * self.damping
        return mixed, lambda: logabsdet_tensor(self.pattern, values, self.damping)

    def edge_scores(self, x) -> ad.Tensor:
        x = ad.as_tensor(x)
        h = ad.relu(self.embed_src(x))
        g = ad.relu(self.embed_dst(x))
        paired = ad.concat_cols([ad.gather_rows(h, self.src), ad.gather_rows(g, self.dst)])
        return ad.lrelu(ad.reshape(self.scorer(paired), (self.src.size,)))

    def realize(self, x):
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


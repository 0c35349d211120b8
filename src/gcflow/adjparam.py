"""A mixing matrix learned alongside the flows, one per stage.

Each stage holds one free logit per directed edge, as in LDS (Franceschi et
al., arXiv:1903.11960): the logits start at zero and depend on no features,
and each node's weights are softmax-normalized over its neighborhood, so
rows are stochastic. A stage's matrix is therefore a function of the
parameters alone, and the model it mixes for stays an exact, invertible
change of variables.

No edge is added: ``realize(stage)`` returns one value per entry of the CSR
``pattern``, the directed edges in ``directed_edges`` order.
``AttentionAdjacency.mix``, called by every model stage, mixes with that
matrix plus ``damping`` times the identity (rows of a softmax-normalized
matrix sum to 1 and exact singularity is otherwise common). It returns,
beside the mixed features, a function that computes the matrix's log|det|:
only a likelihood calls it, so a forward that is not scored never factors.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from . import autodiff as ad
from .errors import DomainError
from .graphs import Graph, directed_edges, logabsdet_tensor

DEFAULT_DAMPING = 1e-3


class AttentionAdjacency:
    """Row-stochastic edge reweighting from free per-edge logits, one set per stage."""

    def __init__(self, graph: Graph, stages, damping=DEFAULT_DAMPING):
        if len(graph.edges) == 0:
            raise DomainError("attention reweighting needs at least one edge")
        self.n = graph.n
        self.damping = float(damping)
        self.src, self.dst = directed_edges(graph)
        self.pattern = scipy.sparse.csr_matrix(
            (np.ones(self.src.size), (self.src, self.dst)), shape=(self.n, self.n))
        self.logits = [ad.Tensor(np.zeros(self.src.size), requires_grad=True) for _ in range(stages)]
        # where each source's run of edges starts; ``src`` is sorted
        self.row_starts = np.flatnonzero(np.diff(self.src, prepend=-1))

    def mix(self, x, stage):
        """Mix ``x`` by stage ``stage``'s matrix plus damping times the identity;
        also a function that factors that matrix for its differentiable log|det|."""
        values = self.realize(stage)
        mixed = ad.sparse_matmul(self.pattern, values, x) + x * self.damping
        return mixed, lambda: logabsdet_tensor(self.pattern, values, self.damping)

    def realize(self, stage):
        scores = self.logits[stage]
        # softmax per source row, stabilized by a constant per-row shift: the
        # row's own max, so its largest weight is exp(0) = 1 and the row sum
        # cannot underflow to zero however negative the logits are
        row_max = np.full(self.n, -np.inf)
        row_max[self.src[self.row_starts]] = np.maximum.reduceat(scores.data, self.row_starts)
        weights = ad.exp(scores - ad.Tensor(row_max[self.src]))
        # an isolated node has no entry, so no row sum of zero is ever read
        row_sums = ad.sparse_matmul(self.pattern, weights, np.ones((self.n, 1)))
        return weights / ad.reshape(ad.gather_rows(row_sums, self.src), (self.src.size,))

    def params(self):
        return list(self.logits)

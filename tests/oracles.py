"""Dense reference constructions the sparse graph code is checked against,
and a counter of the dense factorizations it runs."""

import numpy as np

from gcflow import graphs


def adjacency_dense(g):
    """Symmetric 0/1 adjacency matrix of the graph, without self-loops."""
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        a[i, j] = 1.0
        a[j, i] = 1.0
    return a


def normalized_dense(g, scheme, damping=0.0):
    """The normalized adjacency built densely: A + I, divided by its row sums
    ("row") or scaled by their inverse square roots on both sides ("sym"),
    plus ``damping`` times the identity."""
    a = adjacency_dense(g) + np.eye(g.n)
    if scheme == "row":
        m = a / a.sum(axis=1, keepdims=True)
    else:
        inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
        m = a * inv_sqrt[:, None] * inv_sqrt[None, :]
    if damping:
        m = m + damping * np.eye(g.n)
    return m


def count_factorizations(monkeypatch):
    """Record the shape of every LU the graph module runs; returns the
    list, which grows as factorizations happen."""
    calls = []
    lu = graphs._lu_checked

    def counted(matrix):
        calls.append(np.shape(matrix))
        return lu(matrix)

    monkeypatch.setattr(graphs, "_lu_checked", counted)
    return calls

"""Undirected graphs, adjacency normalization, and exact log|det| computation.

A graph's normalized adjacency is the mixing matrix applied to node features
before each constituent flow. Both normalizations add self-loops first, so a
stored edge list never contains them. The log absolute determinant of the
normalized adjacency enters the model's likelihood, so singular matrices are
rejected at construction; damping (adding a small multiple of the identity)
is the supported remediation.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import DomainError, FormatError, ShapeError, SingularMatrixError

# pivot magnitudes below this fraction of the largest entry count as zero
SINGULAR_THRESHOLD = 1e-12


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple  # sorted (i, j) pairs with i < j


def make_graph(n, edges) -> Graph:
    """Validate and canonicalize an undirected edge list.

    Pairs are deduplicated regardless of orientation and stored with the
    smaller endpoint first. Self-loops are rejected: normalization adds its
    own, and a doubled diagonal would silently change the model.
    """
    if n < 1:
        raise DomainError(f"graph needs at least one node, got n={n}")
    canonical = set()
    for i, j in edges:
        i, j = int(i), int(j)
        if i == j:
            raise DomainError(f"self-loop on node {i} not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise DomainError(f"edge ({i},{j}) out of range for n={n}")
        canonical.add((min(i, j), max(i, j)))
    return Graph(n=int(n), edges=tuple(sorted(canonical)))


def fingerprint(g: Graph) -> dict:
    """Node count plus SHA-256 of the canonical edge list, as little-endian
    int64 pairs; saved artifacts use it to refuse a graph they were not made for."""
    edges = np.asarray(g.edges, dtype="<i8").reshape(-1, 2)
    return {"n": g.n, "edges_sha256": hashlib.sha256(edges.tobytes()).hexdigest()}


def load_edge_list(path):
    """Read "i<TAB>j" pairs, one per line; '#' starts a comment."""
    pairs = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise FormatError(f"{path}:{lineno}: expected two tab-separated node ids")
            try:
                i, j = int(fields[0]), int(fields[1])
            except ValueError:
                raise FormatError(f"{path}:{lineno}: non-integer node id") from None
            pairs.append((i, j))
    return pairs


def adjacency_dense(g: Graph):
    """Symmetric 0/1 adjacency matrix of the graph, without self-loops."""
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        a[i, j] = 1.0
        a[j, i] = 1.0
    return a


class NormalizedAdjacency:
    """A nonsingular mixing matrix with its cached log|det|.

    ``matrix`` is the dense view used for determinants and linear solves;
    ``sparse`` is the CSR view used for fast products against feature
    matrices. ``scheme`` records how the matrix was built ("row-normalized",
    "symmetric", "identity", or "external") and ``damping`` the total
    multiple of the identity added after normalization (0.0 when none).
    Instances are immutable after construction.
    """

    def __init__(self, matrix, scheme, damping=0.0):
        self.matrix = np.asarray(matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ShapeError(f"adjacency must be square, got {self.matrix.shape}")
        self.scheme = scheme
        self.damping = float(damping)
        self.log_abs_det = log_abs_det(self.matrix)
        self.sparse = scipy.sparse.csr_matrix(self.matrix)

    @property
    def n(self):
        return self.matrix.shape[0]

    def __repr__(self):
        return f"NormalizedAdjacency(n={self.n}, scheme={self.scheme!r}, damping={self.damping})"


def identity_adjacency(n) -> NormalizedAdjacency:
    return NormalizedAdjacency(np.eye(n), scheme="identity")


def _finish(matrix, scheme, damping):
    if damping:
        if damping < 0.0:
            raise DomainError(f"damping must be non-negative, got {damping}")
        matrix = matrix + damping * np.eye(matrix.shape[0])
    try:
        return NormalizedAdjacency(matrix, scheme=scheme, damping=damping)
    except SingularMatrixError:
        hint = "increase damping" if damping else "pass a small damping value"
        raise SingularMatrixError(f"{scheme} adjacency is singular; {hint}") from None


def normalize_row(g: Graph, damping=0.0) -> NormalizedAdjacency:
    """Row-stochastic normalization (D+I)^-1 (A+I), plus optional damping.

    Some graphs (the triangle, for one) normalize to a singular matrix;
    ``damping`` adds that multiple of the identity to restore invertibility.
    """
    a = adjacency_dense(g) + np.eye(g.n)
    return _finish(a / a.sum(axis=1, keepdims=True), "row-normalized", float(damping))


def normalize_sym(g: Graph, damping=0.0) -> NormalizedAdjacency:
    """Symmetric normalization D^-1/2 (A+I) D^-1/2 with self-loops in D."""
    a = adjacency_dense(g) + np.eye(g.n)
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return _finish(a * inv_sqrt[:, None] * inv_sqrt[None, :], "symmetric", float(damping))


def damp(adj: NormalizedAdjacency, epsilon) -> NormalizedAdjacency:
    """Add epsilon times the identity, restoring invertibility."""
    epsilon = float(epsilon)
    if epsilon <= 0.0:
        raise DomainError(f"damping epsilon must be positive, got {epsilon}")
    matrix = adj.matrix + epsilon * np.eye(adj.n)
    try:
        return NormalizedAdjacency(matrix, scheme=adj.scheme, damping=adj.damping + epsilon)
    except SingularMatrixError:
        raise SingularMatrixError(f"adjacency still singular after damping by {epsilon}") from None


def logabsdet_tensor(a):
    """Differentiable log|det| of a square tensor.

    The gradient of log|det A| with respect to A is the transposed inverse,
    so the matrix must be comfortably nonsingular; the same pivot check as
    ``log_abs_det`` applies. The value comes from one LU factorization, and
    only a backward pass turns those factors into the transposed inverse
    (one triangular solve against the identity), so a forward that is never
    differentiated pays for the factorization alone.
    """
    from . import autodiff as ad

    a = ad.as_tensor(a)
    factors, value = _lu_checked(a.data)

    def bw(out):
        def run():
            if a.requires_grad:
                inv_t = scipy.linalg.lu_solve(factors, np.eye(a.shape[0]), trans=1, check_finite=False)
                a.accumulate(out.grad * inv_t)

        return run

    return ad.make_node(np.float64(value), (a,), bw, "logabsdet")


def _lu_checked(matrix):
    """LU factors of a square matrix, as ``lu_factor`` returns them, and its log|det|.

    A pivot below SINGULAR_THRESHOLD times the largest entry magnitude means
    the matrix is numerically singular.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"log_abs_det needs a square matrix, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix has non-finite entries; its determinant is undefined")
    scale = np.abs(m).max()
    if scale == 0.0:
        raise SingularMatrixError("zero matrix is singular")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on exact singularity; the pivot check below handles it
        factors = scipy.linalg.lu_factor(m, check_finite=False)
    pivots = np.abs(np.diag(factors[0]))
    if np.any(pivots < SINGULAR_THRESHOLD * scale):
        raise SingularMatrixError(
            f"matrix is numerically singular (pivot below {SINGULAR_THRESHOLD:g} of max entry)"
        )
    return factors, float(np.log(pivots).sum())


def log_abs_det(matrix):
    """log|det M| through LU with partial pivoting; see ``_lu_checked``."""
    return _lu_checked(matrix)[1]

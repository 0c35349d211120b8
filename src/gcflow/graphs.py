"""Undirected graphs, adjacency normalization, and exact log|det| computation.

A graph's normalized adjacency is the mixing matrix applied to node features
before each constituent flow. Both normalizations add self-loops first, so a
stored edge list never contains them. The log absolute determinant of the
normalized adjacency enters the model's likelihood, so ``normalize_row`` and
``normalize_sym`` reject singular matrices; damping (adding a small multiple
of the identity) is the supported remediation. The adjacency itself is a CSR
matrix built from the edge list, and its log|det| is factored only when
first read.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from . import autodiff as ad
from .errors import DomainError, ShapeError, SingularMatrixError

# pivot magnitudes below this fraction of the largest entry count as zero
SINGULAR_THRESHOLD = 1e-12


@dataclass(frozen=True, eq=False)
class Graph:
    n: int
    edges: np.ndarray  # read-only (E, 2) intp array of sorted pairs, i < j in each


def make_graph(n, edges) -> Graph:
    """Validate and canonicalize an undirected edge list.

    Pairs are deduplicated regardless of orientation and stored with the
    smaller endpoint first, sorted. Self-loops are rejected: normalization
    adds its own, and a doubled diagonal would silently change the model.
    The first bad pair, in input order, is the one reported.
    """
    if n < 1:
        raise DomainError(f"graph needs at least one node, got n={n}")
    try:
        pairs = np.asarray(edges, dtype=np.intp)
    except (TypeError, ValueError, OverflowError):
        raise DomainError("edges must be (i, j) pairs of integer node ids") from None
    if pairs.size and pairs.shape[1:] != (2,):
        raise DomainError(f"edges must be (i, j) pairs of node ids, got an array of shape {pairs.shape}")
    pairs = pairs.reshape(-1, 2)
    loops = pairs[:, 0] == pairs[:, 1]
    bad = np.flatnonzero(loops | ((pairs < 0) | (pairs >= n)).any(axis=1))
    if bad.size:
        i, j = pairs[bad[0]]
        if loops[bad[0]]:
            raise DomainError(f"self-loop on node {i} not allowed")
        raise DomainError(f"edge ({i},{j}) out of range for n={n}")
    canonical = np.unique(np.sort(pairs, axis=1), axis=0)
    canonical.flags.writeable = False
    return Graph(n=int(n), edges=canonical)


def directed_edges(g: Graph):
    """Both orientations of every edge as (source, target) arrays, sorted
    by source, then target: the order of a canonical CSR matrix's entries."""
    src = np.concatenate([g.edges[:, 0], g.edges[:, 1]])
    dst = np.concatenate([g.edges[:, 1], g.edges[:, 0]])
    order = np.lexsort((dst, src))
    return src[order], dst[order]


def fingerprint(g: Graph) -> dict:
    """Node count plus SHA-256 of the canonical edge list, as little-endian
    int64 pairs; saved artifacts use it to refuse a graph they were not made for."""
    edges = g.edges.astype("<i8", copy=False)
    return {"n": g.n, "edges_sha256": hashlib.sha256(edges.tobytes()).hexdigest()}


class NormalizedAdjacency:
    """A nonsingular mixing matrix, held as CSR, with a lazy log|det|.

    ``sparse`` is the CSR matrix that ``mix`` multiplies feature matrices by.
    ``log_abs_det`` is factored densely (O(n³)) on first read and cached;
    only a likelihood reads it, so inference never pays for it. ``scheme``
    records how the matrix was built ("row-normalized", "symmetric", or
    "external") and ``damping`` the total multiple of the identity added
    after normalization (0.0 when none).
    Dense or sparse input is accepted; NaN or infinite entries raise
    ``DomainError``.
    """

    def __init__(self, matrix, scheme, damping=0.0):
        if not scipy.sparse.issparse(matrix):
            matrix = np.asarray(matrix, dtype=np.float64)
            if matrix.ndim != 2:
                raise ShapeError(f"adjacency must be square, got {matrix.shape}")
        self.sparse = scipy.sparse.csr_matrix(matrix, dtype=np.float64)
        if self.sparse.shape[0] != self.sparse.shape[1]:
            raise ShapeError(f"adjacency must be square, got {self.sparse.shape}")
        if not np.all(np.isfinite(self.sparse.data)):
            raise DomainError(f"{scheme} adjacency has non-finite entries")
        self.scheme = scheme
        self.damping = float(damping)
        self._log_abs_det = None

    @property
    def n(self):
        return self.sparse.shape[0]

    @property
    def log_abs_det(self):
        if self._log_abs_det is None:
            self._log_abs_det = log_abs_det(self.sparse.toarray())
        return self._log_abs_det

    def mix(self, x, rng=None, logdet=True):
        """The matrix times ``x``, and its cached log|det| when ``logdet``,
        else None; fixed mixing draws no noise, so ``rng`` goes unused."""
        return ad.sparse_matmul(self.sparse, self.sparse.data, x), (self.log_abs_det if logdet else None)

    def __repr__(self):
        return f"NormalizedAdjacency(n={self.n}, scheme={self.scheme!r}, damping={self.damping})"


def _normalized(g: Graph, scheme, damping, check):
    """CSR of the normalized A + I built from the edge list in one pass.

    With d = degree + 1, entry (i, j) of A + I becomes 1/d_i (row scheme) or
    (1·s_i)·s_j with s = 1/sqrt(d) (symmetric scheme), and ``damping`` is
    added to the diagonal: the same float operations a dense build performs,
    so the stored entries and the log|det| come out bit-identical to it.
    """
    damping = float(damping)
    if not damping >= 0.0:
        raise DomainError(f"damping must be non-negative, got {damping}")
    edges, loops = g.edges, np.arange(g.n)
    rows = np.concatenate([edges[:, 0], edges[:, 1], loops])
    cols = np.concatenate([edges[:, 1], edges[:, 0], loops])
    d = np.bincount(rows, minlength=g.n).astype(np.float64)
    if scheme == "row-normalized":
        values = 1.0 / d[rows]
    else:
        s = 1.0 / np.sqrt(d)
        values = s[rows] * s[cols]
    if damping:
        values[rows == cols] += damping
    matrix = scipy.sparse.csr_matrix((values, (rows, cols)), shape=(g.n, g.n))
    adj = NormalizedAdjacency(matrix, scheme=scheme, damping=damping)
    if check:
        try:
            adj.log_abs_det
        except SingularMatrixError:
            hint = "increase damping" if damping else "pass a small damping value"
            raise SingularMatrixError(f"{scheme} adjacency is singular; {hint}") from None
    return adj


def normalize_row(g: Graph, damping=0.0, check=True) -> NormalizedAdjacency:
    """Row-stochastic normalization (D+I)^-1 (A+I), plus optional damping.

    Some graphs (the triangle, for one) normalize to a singular matrix;
    ``damping`` adds that multiple of the identity to restore invertibility.
    The result's log|det| is read here, so a singular matrix raises
    ``SingularMatrixError``; ``check=False`` skips that factorization, for a
    (graph, damping) pair already known to be nonsingular.
    """
    return _normalized(g, "row-normalized", damping, check)


def normalize_sym(g: Graph, damping=0.0, check=True) -> NormalizedAdjacency:
    """Symmetric normalization D^-1/2 (A+I) D^-1/2 with self-loops in D;
    damping and ``check`` as for ``normalize_row``."""
    return _normalized(g, "symmetric", damping, check)


def logabsdet_tensor(pattern, values, damping=0.0):
    """Differentiable log|det| of A + damping·I, A as in ``autodiff.sparse_matmul``.

    The matrix is densified once, for one LU factorization, with the pivot
    check of ``log_abs_det``. Only a backward pass solves for the transposed
    inverse (the gradient of log|det|, one triangular solve against the
    identity) and passes back its entries at the pattern's positions.
    """
    values = ad.as_tensor(values)
    a = scipy.sparse.csr_matrix((values.data, pattern.indices, pattern.indptr), shape=pattern.shape)
    dense = a.toarray()
    dense.flat[:: dense.shape[1] + 1] += damping
    factors, value = _lu_checked(dense)
    return ad.make_node(np.float64(value), (values,), (
        lambda g: g * scipy.linalg.lu_solve(factors, np.eye(a.shape[0]), trans=1,
                                            check_finite=False)[a.tocoo().row, a.indices],
    ), "logabsdet")


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

"""Undirected graphs, adjacency normalization, and exact log|det| computation.

A graph's normalized adjacency is the mixing matrix applied to node features
before each constituent flow. Both normalizations add self-loops first, so a
stored edge list never contains them. The adjacency itself is a CSR
matrix built from the edge list. Its log absolute determinant enters the
model's likelihood, and it is computed only when first read: one exact block
elimination of an independent set of nodes, then a dense symmetric LDLᵀ of
the remaining nodes' Schur complement. That read is where a singular matrix
raises ``SingularMatrixError``, and damping (adding a small multiple of the
identity) is the supported remediation. A learned mixing matrix's
differentiable log|det| (``logabsdet_tensor``) eliminates an independent set
the same way, under a plan built once per pattern, and LU-factors the rest's
Schur complement; its gradient inverts only that complement.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
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
    The first bad pair, in input order, is the one reported. Node ids must
    be integers: a float or bool id is refused, never truncated. Pairs are
    deduplicated as the int64 keys ``lo * n + hi``, so an n whose square does
    not fit in int64 is refused.
    """
    if n < 1:
        raise DomainError(f"graph needs at least one node, got n={n}")
    n = int(n)
    if n ** 2 > np.iinfo(np.int64).max:
        raise DomainError(f"n={n} is too large: n**2 must fit in a 64-bit integer")
    try:
        pairs = np.asarray(edges)
        # numpy reads a list that mixes bools with ints as ints, so a list's own entries are read too
        if pairs.size and (pairs.dtype.kind not in "iu" or not isinstance(edges, np.ndarray)
                           and {bool, np.bool_} & set(map(type, itertools.chain.from_iterable(edges)))):
            raise TypeError
    except (TypeError, ValueError, OverflowError):
        raise DomainError("edges must be (i, j) pairs of integer node ids") from None
    if pairs.size and pairs.shape[1:] != (2,):
        raise DomainError(f"edges must be (i, j) pairs of node ids, got an array of shape {pairs.shape}")
    pairs = pairs.reshape(-1, 2).astype(np.intp, copy=False)
    lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
    loops = lo == hi
    bad = np.flatnonzero(loops | (lo < 0) | (hi >= n))
    if bad.size:
        i, j = pairs[bad[0]]
        if loops[bad[0]]:
            raise DomainError(f"self-loop on node {i} not allowed")
        raise DomainError(f"edge ({i},{j}) out of range for n={n}")
    keys = np.sort(lo * n + hi)
    # the first of each run of equal keys; every key is at least 1, so the -1 put first never equals one
    # (np.unique gives the same keys, but took 70 ms to the sort's 1.4 ms at 130k keys on numpy 2.4)
    canonical = np.stack(np.divmod(keys[np.diff(keys, prepend=-1) != 0], n), axis=1)
    canonical.flags.writeable = False
    return Graph(n=n, edges=canonical)


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
    """A normalized mixing matrix, held as CSR, with a lazy log|det|.

    Built only by ``normalize_row`` and ``normalize_sym``. ``sparse`` is the
    CSR matrix that ``mix`` multiplies feature matrices by. ``log_abs_det``
    is computed from its sparsity pattern on first read and cached: an
    independent set of nodes is eliminated exactly, and only the rest is
    factored densely, by a symmetric LDLᵀ (see ``_shifted_log_abs_det``).
    Only a likelihood reads it, so inference never pays for it, and that read
    is where a singular matrix raises ``SingularMatrixError``. ``scheme``
    records how the matrix was built ("row-normalized" or "symmetric") and
    ``damping`` the multiple of the identity added after normalization (0.0
    when none).
    """

    def __init__(self, matrix, scheme, damping):
        self.sparse = matrix
        self.scheme = scheme
        self.damping = damping
        self._log_abs_det = None

    @property
    def n(self):
        return self.sparse.shape[0]

    @property
    def log_abs_det(self):
        if self._log_abs_det is None:
            try:
                self._log_abs_det = _shifted_log_abs_det(self.sparse, self.damping)
            except SingularMatrixError:
                hint = "increase damping" if self.damping else "pass a small damping value"
                raise SingularMatrixError(f"{self.scheme} adjacency is singular; {hint}") from None
        return self._log_abs_det

    def mix(self, x, stage=None):
        """The matrix times ``x`` at any stage, and a function that reads its cached log|det|."""
        return ad.sparse_matmul(self.sparse, self.sparse.data, x), lambda: self.log_abs_det

    def __repr__(self):
        return f"NormalizedAdjacency(n={self.n}, scheme={self.scheme!r}, damping={self.damping})"


def _normalized(g: Graph, scheme, damping):
    """CSR of the normalized A + I built from the edge list in one pass.

    With d = degree + 1, entry (i, j) of A + I becomes 1/d_i (row scheme) or
    (1·s_i)·s_j with s = 1/sqrt(d) (symmetric scheme), and ``damping`` is
    added to the diagonal: the same float operations a dense build performs,
    so the stored entries come out bit-identical to it.
    """
    damping = float(damping)
    if not 0.0 <= damping < np.inf:
        raise DomainError(f"damping must be non-negative and finite, got {damping}")
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
    return NormalizedAdjacency(matrix, scheme, damping)


def normalize_row(g: Graph, damping=0.0) -> NormalizedAdjacency:
    """Row-stochastic normalization (D+I)^-1 (A+I), plus optional damping.

    Some graphs (the triangle, for one) normalize to a singular matrix, whose
    ``log_abs_det`` raises ``SingularMatrixError`` when read; ``damping``
    adds that multiple of the identity to restore invertibility.
    """
    return _normalized(g, "row-normalized", damping)


def normalize_sym(g: Graph, damping=0.0) -> NormalizedAdjacency:
    """Symmetric normalization D^-1/2 (A+I) D^-1/2 with self-loops in D;
    damping as for ``normalize_row``."""
    return _normalized(g, "symmetric", damping)


def independent_set(pattern):
    """Mask of a maximal independent set of the graph whose edges are the
    off-diagonal entries of the square CSR matrix ``pattern`` (a
    ``NormalizedAdjacency``'s ``sparse``): greedy, lowest (degree, node id) first.

    One sequential pass in that order takes each node that no taken
    neighbour has ruled out, with no rng, in time linear in nodes plus edges
    whatever the node order. (Vectorized rounds that take every local
    minimum at once need about n/2 rounds on a path whose ids follow it.)
    """
    n = pattern.shape[0]
    src, dst = np.repeat(np.arange(n), np.diff(pattern.indptr)), pattern.indices
    order = np.argsort(np.bincount(src[src != dst], minlength=n), kind="stable")
    chosen, undecided = np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
    indptr, indices = pattern.indptr.tolist(), pattern.indices
    for node in order.tolist():
        if undecided[node]:
            chosen[node] = True
            undecided[indices[indptr[node]:indptr[node + 1]]] = False
    return chosen


def _shifted_log_abs_det(pattern, damping):
    """log|det| of either normalization of a graph, from the CSR ``pattern``
    of its A + I, with no n x n array.

    With d = degree + 1, a row's entry count, both are diagonal rescalings of
    the symmetric B = A + I + damping·diag(d), so their log|det| is
    log|det B| − Σ log d. One exact block elimination gives log|det B|. B's
    block over an ``independent_set`` I is the diagonal 1 + damping·d ≥ 1, so
    log|det B| = Σ_I log(1 + damping·d) + log|det S|, with the complement's
    S = B_RR − B_RI diag(1/(1 + damping·d_I)) B_IR built by sparse products.
    Only S is densified and factored. S is symmetric and indefinite, so
    ``_ldl_checked`` factors it (Bunch–Kaufman, half an LU's flops; a
    Cholesky would fail): its pivots are held against SINGULAR_THRESHOLD
    times S's largest entry, which is whole-number scale, not against the
    normalized matrix's (at most 1 + damping). An empty S is not factored.
    A second level of elimination would pivot on S's diagonal without
    pivoting, so there is none.
    """
    inside = independent_set(pattern)
    outside = ~inside
    d = np.diff(pattern.indptr).astype(np.float64)
    shift = 1.0 + damping * d
    # B less its damping: a one at every entry of A + I
    ones = scipy.sparse.csr_matrix((np.ones(pattern.nnz), pattern.indices, pattern.indptr), shape=pattern.shape)
    b_rows = ones[outside]
    b_ri = b_rows[:, inside]
    s = (b_rows[:, outside] + scipy.sparse.diags(damping * d[outside])
         - b_ri @ scipy.sparse.diags(1.0 / shift[inside]) @ b_ri.T)
    value = np.log(shift[inside]).sum() - np.log(d).sum()
    if s.shape[0]:
        # S is symmetric, so its C-order array's transpose is S itself, in Fortran order
        value += _ldl_checked(s.toarray().T)
    return float(value)


@dataclass(frozen=True, eq=False)
class EliminationPlan:
    """Where ``logabsdet_tensor`` puts each entry of a pattern, and where its
    backward reads, once the independent set I is eliminated: built by
    ``elimination_plan`` from the pattern's structure, whatever its values.

    Positions in the Schur complement S, whose rows and columns are the
    other nodes R in order, are flat Fortran-order indices, row + |R|·column.
    """

    eliminated: int  # |I|
    kept: np.ndarray  # the R x R entries, in CSR order, which S takes as they are
    kept_indices: np.ndarray  # their columns in S
    kept_indptr: np.ndarray  # the CSR row pointers of S's rows over them
    kept_read: np.ndarray  # the position of each kept entry's transpose
    # each fill term pairs an entry (r, k), k in I, with an entry (k, c): it
    # takes M_rk·M_kc/damping from S at (r, c); terms are sorted by that position
    left: np.ndarray  # the (r, k) entry of each term
    right: np.ndarray  # the (k, c) entry of each term
    fill_starts: np.ndarray  # where each position's run of terms starts
    fill_at: np.ndarray  # the position each run fills
    term_read: np.ndarray  # (c, r), the transposed position of each term


def elimination_plan(pattern, damping) -> EliminationPlan:
    """The plan ``logabsdet_tensor(pattern, values, damping)`` follows.

    A node is eliminated when it is in the ``independent_set`` of the graph
    of the pattern's off-diagonal entries, taken in both directions, its row
    stores no diagonal entry, and 0 < damping < inf. M's block over those
    nodes is then damping·I, whatever the values. With none eliminated, S is M.
    """
    n = pattern.shape[0]
    rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
    cols = pattern.indices.astype(np.intp)
    inside = np.zeros(n, dtype=bool)
    if 0.0 < damping < np.inf:
        ones = scipy.sparse.csr_matrix((np.ones(cols.size), cols, pattern.indptr), shape=pattern.shape)
        inside = independent_set((ones + ones.T).tocsr())
        inside[rows[rows == cols]] = False
    rest = np.flatnonzero(~inside)
    m = rest.size
    at = np.zeros(n, dtype=np.intp)  # each node of R's row and column in S
    at[rest] = np.arange(m)
    row_in, col_in = inside[rows], inside[cols]
    kept = np.flatnonzero(~row_in & ~col_in)
    kept_indptr = np.concatenate([[0], np.cumsum(np.bincount(at[rows[kept]], minlength=m))])
    # the (r, k) entries grouped by k; the (k, c) entries are grouped by k already, in CSR order
    into = np.flatnonzero(~row_in & col_in)
    into = into[np.argsort(cols[into], kind="stable")]
    out_of = np.flatnonzero(row_in & ~col_in)
    out_count = np.bincount(rows[out_of], minlength=n)
    out_start = np.cumsum(out_count) - out_count
    runs = out_count[cols[into]]  # the terms of each (r, k) entry: one per (k, c) entry
    left = np.repeat(into, runs)
    offset = np.arange(left.size) - np.repeat(np.cumsum(runs) - runs, runs)
    right = out_of[np.repeat(out_start[cols[into]], runs) + offset]
    fill = at[rows[left]] + m * at[cols[right]]
    order = np.argsort(fill, kind="stable")
    left, right, fill = left[order], right[order], fill[order]
    fill_starts = np.flatnonzero(np.diff(fill, prepend=-1))
    return EliminationPlan(
        eliminated=n - m, kept=kept, kept_indices=at[cols[kept]], kept_indptr=kept_indptr,
        kept_read=at[cols[kept]] + m * at[rows[kept]], left=left, right=right, fill_starts=fill_starts,
        fill_at=fill[fill_starts], term_read=at[cols[right]] + m * at[rows[left]])


def logabsdet_tensor(pattern, values, damping=0.0, plan=None):
    """Differentiable log|det| of M = A + damping·I, A as in ``autodiff.sparse_matmul``.

    ``plan``, ``elimination_plan(pattern, damping)`` when not given, names
    the eliminated independent set I, whose block of M is damping·I. Only the
    other nodes' Schur complement S = M_RR − M_RI·M_IR/damping is densified,
    in Fortran order, and log|det M| = |I|·log(damping) + log|det S|. S is
    LU-factored in place with the pivot check of ``log_abs_det``, held
    against S's largest entry, and damping is held to the same rule. With
    nothing eliminated S is M and this is the whole matrix's LU.

    Only a backward pass inverts: LAPACK ``getri`` overwrites S's factors
    with S⁻¹, using the blocked workspace ``getri_lwork`` asks for (scipy's
    default of 3n runs it unblocked, slower than a solve against the
    identity). The gradient at entry (i, j) is (M⁻¹)_ji: S⁻¹ for i, j in R,
    −(S⁻¹·M_RI)/damping for i in I and −(M_IR·S⁻¹)/damping for j in I. No
    entry joins two nodes of I, so M⁻¹ itself is never formed. Those entries
    are kept, so a repeated backward reuses them once the factors are gone.
    The 1/damping terms cost digits: at damping 1e-3 on a 600-node learned
    matrix the gradient's error against a refined inverse reached 4e-11 of
    its largest entry, against 1.4e-12 for the whole matrix's inverse.
    """
    values = ad.as_tensor(values)
    plan = elimination_plan(pattern, damping) if plan is None else plan
    v = values.data
    if not np.isfinite(v).all():
        raise DomainError("matrix has non-finite entries; its determinant is undefined")
    m = plan.kept_indptr.size - 1
    s = scipy.sparse.csr_matrix((v[plan.kept], plan.kept_indices, plan.kept_indptr), shape=(m, m)).toarray(order="F")
    s.flat[:: m + 1] += damping
    left, right = v[plan.left], v[plan.right]
    if left.size:
        s.reshape(-1, order="F")[plan.fill_at] -= np.add.reduceat(left * right, plan.fill_starts) / damping
    factors, value = None, 0.0
    if m:
        if plan.eliminated:  # every eliminated pivot is the damping
            _checked_log_abs_det([damping], _checked_scale(s))
        factors, value = _lu_checked(s)
    if plan.eliminated:
        value += plan.eliminated * np.log(damping)

    @functools.cache
    def transposed_inverse_at_pattern():
        inverse = np.zeros(0)
        if m:
            # the pivot check passed, so no pivot is zero and getri cannot fail
            lwork = int(scipy.linalg.lapack.dgetri_lwork(m)[0])
            inverse = scipy.linalg.lapack.dgetri(*factors, lwork=lwork, overwrite_lu=1)[0].reshape(-1, order="F")
        grad = np.zeros(v.size)
        if left.size:
            read = inverse[plan.term_read]
            grad = np.bincount(plan.left, read * right, v.size) + np.bincount(plan.right, read * left, v.size)
            grad /= -damping
        grad[plan.kept] = inverse[plan.kept_read]
        return grad

    return ad.make_node(np.float64(value), (values,), (lambda g: g * transposed_inverse_at_pattern(),),
                        "logabsdet")


def _lu_checked(matrix):
    """LU factors of a square matrix, as ``lu_factor`` returns them, and its log|det|.

    The matrix is factored in place: a Fortran-order float64 array comes back
    overwritten as the factors' first element, with no n x n copy made, so
    callers hand over an array nothing else reads. A pivot below
    SINGULAR_THRESHOLD times the largest entry magnitude means the matrix is
    numerically singular.
    """
    m = np.asarray(matrix, dtype=np.float64)
    scale = _checked_scale(m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on exact singularity; the pivot check below handles it
        factors = scipy.linalg.lu_factor(m, overwrite_a=True, check_finite=False)
    return factors, _checked_log_abs_det(np.diag(factors[0]), scale)


def _ldl_checked(matrix):
    """log|det| of a symmetric matrix through LAPACK's Bunch–Kaufman LDLᵀ
    (``dsytrf``), with the blocked workspace ``dsytrf_lwork`` asks for.

    Only the upper triangle is read, and a Fortran-order float64 array is
    factored in place, as by ``_lu_checked``. D is block diagonal: each 1 x 1
    block is a pivot, and each 2 x 2 block, whose two rows ``ipiv`` marks
    negative, gives two, its eigenvalues. Every pivot is held to
    ``_lu_checked``'s rule, so a null direction inside a 2 x 2 block is caught.
    """
    m = np.asarray(matrix, dtype=np.float64)
    scale = _checked_scale(m)
    lwork = int(scipy.linalg.lapack.dsytrf_lwork(m.shape[0])[0])
    factors, ipiv, _ = scipy.linalg.lapack.dsytrf(m, lwork=lwork, overwrite_a=1)
    pivots = factors.diagonal().copy()
    # a block's rows are adjacent, and upper storage keeps its off-diagonal entry above the diagonal
    first = np.flatnonzero(ipiv < 0)[::2]
    mean = 0.5 * (pivots[first] + pivots[first + 1])
    radius = np.hypot(0.5 * (pivots[first] - pivots[first + 1]), factors[first, first + 1])
    pivots[first], pivots[first + 1] = mean + radius, mean - radius
    return _checked_log_abs_det(pivots, scale)


def _checked_scale(m):
    """The largest entry magnitude of a square float64 matrix; refuses a
    non-square, non-finite or zero one."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"log_abs_det needs a square matrix, got {m.shape}")
    # the extremes are NaN if any entry is and infinite if any entry is, so
    # they check every entry and give the largest magnitude without an n x n temporary
    top, bottom = m.max(), m.min()
    if not (np.isfinite(top) and np.isfinite(bottom)):
        raise DomainError("matrix has non-finite entries; its determinant is undefined")
    scale = max(top, -bottom)
    if scale == 0.0:
        raise SingularMatrixError("zero matrix is singular")
    return scale


def _checked_log_abs_det(pivots, scale):
    """Σ log|pivot|, once no pivot magnitude is below SINGULAR_THRESHOLD times ``scale``."""
    pivots = np.abs(pivots)
    if np.any(pivots < SINGULAR_THRESHOLD * scale):
        raise SingularMatrixError(
            f"matrix is numerically singular (pivot below {SINGULAR_THRESHOLD:g} of max entry)"
        )
    return float(np.log(pivots).sum())


def log_abs_det(matrix):
    """log|det M| through LU with partial pivoting; see ``_lu_checked``.
    ``matrix`` is left as it is: the factorization runs on a copy."""
    return _lu_checked(np.array(matrix, dtype=np.float64, order="F"))[1]

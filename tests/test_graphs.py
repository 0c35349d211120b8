import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gcflow import autodiff as ad
from gcflow import adjparam, graphs
from gcflow.data import SbmConfig, generate_sbm
from gcflow.errors import DomainError, ShapeError, SingularMatrixError
from oracles import (adjacency_dense, count_factorizations, full_pattern, greedy_independent_set, logabsdet_dense,
                     normalized_dense, refined_inverse, unique_pairs, with_random_logits)


def det_leibniz(m):
    """Sum over all permutations: sign(perm) * product of picked entries."""
    n = m.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(n)):
        sign = 1.0
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        total += sign * np.prod([m[i, perm[i]] for i in range(n)])
    return total


def det_cofactor_3x3(m):
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def path3():
    return graphs.make_graph(3, [(0, 1), (1, 2)])


def triangle():
    return graphs.make_graph(3, [(0, 1), (1, 2), (0, 2)])


def test_make_graph_canonicalizes():
    g = graphs.make_graph(4, [(2, 1), (1, 2), (3, 0)])
    assert np.array_equal(g.edges, [[0, 3], [1, 2]]) and not g.edges.flags.writeable


def test_make_graph_refuses_what_is_not_pairs():
    with pytest.raises(DomainError, match="pairs"):
        graphs.make_graph(4, [(0, 1, 2), (1, 2, 3)])  # six ids are not three pairs
    with pytest.raises(DomainError, match="pairs"):
        graphs.make_graph(4, [(0, 1), (1, 2, 3)])
    with pytest.raises(DomainError, match="pairs"):
        graphs.make_graph(4, [(0, "x")])
    # ids are not truncated: (0, 1.5) is not the edge (0, 1), nor (True, 2) the edge (1, 2)
    for edges in ([(0, 1.5)], [(True, 2)], np.array([[0.0, 1.0]]), np.array([[True, False]])):
        with pytest.raises(DomainError, match="pairs of integer node ids"):
            graphs.make_graph(3, edges)
    assert graphs.make_graph(3, []).edges.shape == (0, 2)


# the first bad pair in input order is reported, as a self-loop if it is one
def test_make_graph_rejects_self_loop():
    with pytest.raises(DomainError, match=r"^self-loop on node 1 not allowed$"):
        graphs.make_graph(3, [(1, 1)])
    with pytest.raises(DomainError, match=r"^self-loop on node 5 not allowed$"):
        graphs.make_graph(3, [(0, 1), (5, 5), (0, 7)])


def test_make_graph_rejects_out_of_range():
    with pytest.raises(DomainError, match=r"^edge \(0,3\) out of range for n=3$"):
        graphs.make_graph(3, [(0, 3)])
    with pytest.raises(DomainError, match=r"^edge \(-1,2\) out of range for n=3$"):
        graphs.make_graph(3, [(0, 1), (-1, 2), (2, 2)])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(n=st.integers(1, 12), size=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
@example(n=1, size=0, seed=0)  # the one edge list a single node can have
@example(n=5, size=0, seed=0)  # no edges
@example(n=2, size=6, seed=0)  # one edge, repeated in both orientations
def test_make_graph_dedupe_matches_sorted_unique_rows(n, size, seed):
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(size, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    # repeat some pairs, some of them flipped
    again = pairs[rng.integers(0, len(pairs), size=len(pairs) // 2)] if len(pairs) else pairs
    pairs = np.concatenate([pairs, again, again[:, ::-1]])
    rng.shuffle(pairs)
    got = graphs.make_graph(n, pairs).edges
    want = unique_pairs(pairs)
    assert got.dtype == np.intp and got.shape == want.shape and got.tobytes() == want.tobytes()
    assert got.flags.c_contiguous and not got.flags.writeable


def test_make_graph_refuses_a_node_count_whose_square_overflows_int64():
    # dedupe keys lo * n + hi stay below n**2, which must fit in int64
    largest = math.isqrt(np.iinfo(np.int64).max)
    with pytest.raises(DomainError, match=f"^n={largest + 1} is too large"):
        graphs.make_graph(largest + 1, [])
    g = graphs.make_graph(largest, [(largest - 1, largest - 2), (largest - 1, 0), (0, largest - 1)])
    assert g.edges.tolist() == [[0, largest - 1], [largest - 2, largest - 1]]


@pytest.mark.parametrize("edges", [[], [(0, 1)], [(3, 1), (0, 2), (2, 3), (1, 0)]])
def test_edge_array_and_fingerprint_match_the_tuple_conversion(edges):
    g = graphs.make_graph(4, edges)
    # the sorted tuple of canonical tuples the edge list used to be held as
    former = np.asarray(sorted({(min(i, j), max(i, j)) for i, j in edges}), dtype="<i8").reshape(-1, 2)
    assert g.edges.shape == former.shape and g.edges.dtype == np.intp and np.array_equal(g.edges, former)
    # the SHA-256 every saved checkpoint carries
    assert graphs.fingerprint(g) == {"n": 4, "edges_sha256": hashlib.sha256(former.tobytes()).hexdigest()}


def test_fingerprint_of_a_fixed_graph_is_pinned():
    g = graphs.make_graph(3, [(0, 1), (1, 2)])
    assert graphs.fingerprint(g)["edges_sha256"] == (
        "7acccfef7a7e85ef7264470497c1a438a1f281c784c4df9658b37135ba552cc1"
    )


def test_edgeless_normalizations_are_identity():
    g = graphs.make_graph(5, [])
    for norm in (graphs.normalize_row, graphs.normalize_sym):
        adj = norm(g)
        assert np.array_equal(adj.sparse.toarray(), np.eye(5))
        assert adj.log_abs_det == 0.0


def test_normalize_row_path3():
    adj = graphs.normalize_row(path3())
    want = np.array(
        [
            [0.5, 0.5, 0.0],
            [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
            [0.0, 0.5, 0.5],
        ]
    )
    assert_allclose(adj.sparse.toarray(), want, atol=1e-15)
    assert_allclose(adj.log_abs_det, math.log(1.0 / 12.0), atol=1e-12)
    assert_allclose(adj.log_abs_det, np.log(abs(det_cofactor_3x3(adj.sparse.toarray()))), atol=1e-12)


def test_normalize_row_triangle_singular():
    # the build factors nothing; reading the log-determinant finds the singularity
    adj = graphs.normalize_row(triangle())
    with pytest.raises(SingularMatrixError, match="damping"):
        adj.log_abs_det


def test_normalize_sym_path3():
    adj = graphs.normalize_sym(path3())
    assert_allclose(np.diag(adj.sparse.toarray()), [0.5, 1.0 / 3.0, 0.5], atol=1e-15)
    assert_allclose(adj.sparse.toarray(), adj.sparse.toarray().T, atol=1e-12)
    assert_allclose(adj.log_abs_det, np.log(abs(det_cofactor_3x3(adj.sparse.toarray()))), atol=1e-12)


def test_row_normalization_rows_sum_to_one():
    rng = np.random.default_rng(0)
    for n in (2, 5, 9):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        adj_matrix = adjacency_dense(graphs.make_graph(n, edges)) + np.eye(n)
        rows = adj_matrix / adj_matrix.sum(axis=1, keepdims=True)
        assert_allclose(rows.sum(axis=1), np.ones(n), atol=1e-12)


def test_damp_identity():
    damped = graphs.normalize_row(graphs.make_graph(4, []), damping=1e-3)
    assert_allclose(damped.sparse.toarray(), 1.001 * np.eye(4), atol=1e-15)
    assert_allclose(damped.log_abs_det, 4 * math.log(1.001), atol=1e-12)
    assert damped.damping == 1e-3


def test_damping_rescues_singular_triangle():
    damped = graphs.normalize_row(triangle(), damping=1e-3)
    assert damped.damping == 1e-3
    assert_allclose(damped.log_abs_det, np.log(abs(det_leibniz(damped.sparse.toarray()))), atol=1e-10)


def test_normalize_rejects_negative_or_nan_damping():
    for norm in (graphs.normalize_row, graphs.normalize_sym):
        for damping in (-1e-3, float("nan"), float("inf")):
            with pytest.raises(DomainError, match="damping"):
                norm(path3(), damping=damping)


def test_log_abs_det_trivials():
    assert graphs.log_abs_det(np.eye(7)) == 0.0
    assert_allclose(graphs.log_abs_det(np.diag([2.0, 3.0])), math.log(6.0), atol=1e-12)


def test_log_abs_det_matches_leibniz_5x5():
    rng = np.random.default_rng(1)
    for _ in range(5):
        m = rng.normal(size=(5, 5)) + 2.0 * np.eye(5)
        assert_allclose(graphs.log_abs_det(m), np.log(abs(det_leibniz(m))), atol=1e-10)


def test_log_abs_det_multiplicative():
    rng = np.random.default_rng(2)
    for _ in range(10):
        m1 = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
        m2 = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
        lhs = graphs.log_abs_det(m1 @ m2)
        rhs = graphs.log_abs_det(m1) + graphs.log_abs_det(m2)
        assert_allclose(lhs, rhs, atol=1e-8)


def test_log_abs_det_permutation_invariant():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(5, 5)) + 2.0 * np.eye(5)
    p = np.eye(5)[rng.permutation(5)]
    assert_allclose(graphs.log_abs_det(p @ m), graphs.log_abs_det(m), atol=1e-10)


@pytest.mark.parametrize("order", ["C", "F"])
def test_log_abs_det_leaves_its_argument_as_it_was(order):
    rng = np.random.default_rng(4)
    m = np.array(rng.normal(size=(6, 6)) + 2.0 * np.eye(6), order=order)
    before = m.copy(order=order)
    value = graphs.log_abs_det(m)
    assert m.tobytes(order="A") == before.tobytes(order="A")
    assert graphs.log_abs_det(m) == value


def test_log_abs_det_rejects_singular_and_nonsquare():
    with pytest.raises(SingularMatrixError):
        graphs.log_abs_det(np.ones((3, 3)))
    with pytest.raises(SingularMatrixError):
        graphs.log_abs_det(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        graphs.log_abs_det(np.ones((2, 3)))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    n=st.integers(1, 12),
    density=st.floats(0.0, 1.0),
    epsilon=st.sampled_from([0.0, 1e-3, 0.1]),
    norm=st.sampled_from([graphs.normalize_row, graphs.normalize_sym]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, density=1.0, epsilon=0.0, norm=graphs.normalize_row, seed=0)  # the triangle: singular
@example(n=3, density=1.0, epsilon=0.0, norm=graphs.normalize_sym, seed=0)
def test_normalized_log_abs_det_identity_on_random_graphs(n, density, epsilon, norm, seed):
    # with D = deg + 1, both schemes are diagonal rescalings of A + I + eps*D
    # (D^-1 on the left, or D^-1/2 on both sides), so their log|det| is
    # log|det(A + I + eps*D)| - sum(log D_ii); a singular draw fails on both sides
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    g = graphs.make_graph(n, edges)
    a = adjacency_dense(g)
    d = a.sum(axis=1) + 1.0
    try:
        want = graphs.log_abs_det(a + np.eye(n) + epsilon * np.diag(d)) - np.log(d).sum()
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            norm(g, damping=epsilon).log_abs_det
        return
    got = norm(g, damping=epsilon).log_abs_det
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(half=st.integers(1, 15), form=st.sampled_from(["dense", "bipartite"]), deficit=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1))
@example(half=1, form="bipartite", deficit=0, seed=0)  # one 2 x 2 block and nothing else
@example(half=6, form="bipartite", deficit=1, seed=1)  # singular, every pivot a 2 x 2 block
def test_ldl_matches_the_dense_lu_on_zero_diagonal_symmetric_matrices(half, form, deficit, seed):
    # a zero diagonal leaves Bunch-Kaufman no 1 x 1 pivot to start with, so it takes 2 x 2 blocks
    rng = np.random.default_rng(seed)
    n = 2 * half
    if form == "dense":
        deficit = 0
        x = rng.normal(size=(n, n))
        m = x + x.T
        np.fill_diagonal(m, 0.0)
    else:
        # [[0, B], [B^T, 0]] keeps a zero diagonal through every elimination step, so
        # each pivot is a 2 x 2 block, and a B of rank half - deficit puts the exact
        # null directions inside one
        deficit = min(deficit, half - 1)
        b = rng.normal(size=(half, half - deficit)) @ rng.normal(size=(half - deficit, half))
        m = np.block([[np.zeros((half, half)), b], [b.T, np.zeros((half, half))]])
    order = rng.permutation(n)
    m = m[np.ix_(order, order)]
    try:
        want = graphs.log_abs_det(m)
    except SingularMatrixError:
        assert deficit > 0
        with pytest.raises(SingularMatrixError, match="numerically singular"):
            graphs._ldl_checked(np.asfortranarray(m))
        return
    assert deficit == 0
    got = graphs._ldl_checked(np.asfortranarray(m))
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@settings(derandomize=True, deadline=None, max_examples=120)
@given(
    n=st.integers(1, 12),
    isolated=st.integers(0, 3),
    density=st.floats(0.0, 1.0),
    epsilon=st.sampled_from([0.0, 1e-3, 0.1]),
    scheme=st.sampled_from(["row", "sym"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, isolated=0, density=0.0, epsilon=0.0, scheme="row", seed=0)  # one node, no edges
@example(n=4, isolated=2, density=0.0, epsilon=0.1, scheme="sym", seed=0)  # empty edge list
@example(n=3, isolated=1, density=1.0, epsilon=0.0, scheme="row", seed=0)  # triangle: singular
def test_csr_build_matches_dense_oracle_bit_for_bit(n, isolated, density, epsilon, scheme, seed):
    # the last ``isolated`` nodes get no edges
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    g = graphs.make_graph(n + isolated, edges)
    norm = graphs.normalize_row if scheme == "row" else graphs.normalize_sym
    oracle = normalized_dense(g, scheme, epsilon)
    want = scipy.sparse.csr_matrix(oracle)
    adj = norm(g, damping=epsilon)
    got = adj.sparse
    assert got.has_canonical_format
    for field in ("indptr", "indices", "data"):
        assert getattr(got, field).dtype == getattr(want, field).dtype
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    assert adj.sparse.toarray().tobytes() == oracle.tobytes()
    # ``log_abs_det`` eliminates an independent set and factors the rest, the
    # public function the whole dense oracle: the same error, and log|det| to rounding
    try:
        want_logdet = graphs.log_abs_det(oracle)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError, match="damping"):
            adj.log_abs_det
        return
    assert abs(adj.log_abs_det - want_logdet) <= 1e-12 * max(1.0, abs(want_logdet))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(n=st.integers(1, 30), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(n=3, density=0.0, seed=0)  # no edges
def test_directed_edges_match_the_sorted_set_of_both_orientations(n, density, seed):
    rng = np.random.default_rng(seed)
    g = graphs.make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density])
    pairs = sorted({(i, j) for i, j in g.edges} | {(j, i) for i, j in g.edges})
    src, dst = graphs.directed_edges(g)
    assert src.dtype == dst.dtype == np.intp
    assert src.tobytes() == np.array([p[0] for p in pairs], dtype=np.intp).tobytes()
    assert dst.tobytes() == np.array([p[1] for p in pairs], dtype=np.intp).tobytes()


def test_log_abs_det_is_factored_once_on_first_read(monkeypatch):
    calls = count_factorizations(monkeypatch)
    adj = graphs.normalize_row(path3())
    # building factors nothing, singular or damped alike
    graphs.normalize_sym(path3())
    graphs.normalize_row(triangle())
    graphs.normalize_sym(triangle(), damping=0.1)
    assert calls == []
    first = adj.log_abs_det
    assert adj.log_abs_det == first
    # the path's two ends are eliminated: only its middle node is factored, symmetrically
    assert calls == [("ldl", (1, 1))]


@settings(derandomize=True, deadline=None, max_examples=120)
@given(n=st.integers(1, 30), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(n=5, density=0.0, seed=0)  # no edges: every node is taken
@example(n=12, density=1.0, seed=0)  # complete: node 0 alone
def test_independent_set_is_the_sequential_greedy_one(n, density, seed):
    rng = np.random.default_rng(seed)
    g = graphs.make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density])
    # the set is read off the pattern of A + I, whatever the values on it
    chosen = graphs.independent_set(graphs.normalize_row(g).sparse)
    assert chosen.dtype == bool and chosen.shape == (n,)
    a = adjacency_dense(g) > 0
    # independent: no edge joins two chosen nodes; maximal: every other node has a chosen neighbour
    assert not a[chosen][:, chosen].any()
    assert a[~chosen][:, chosen].any(axis=1).all()
    assert graphs.independent_set(graphs.normalize_sym(g, damping=0.1).sparse).tobytes() == chosen.tobytes()
    assert chosen.tobytes() == greedy_independent_set(g).tobytes()


def test_an_id_ordered_path_of_20000_nodes_gives_the_sequential_greedy_set():
    # a chain whose ids follow it: the order in which rounds of local minima
    # would admit only one node per chain end
    n = 20_000
    g = graphs.make_graph(n, np.c_[np.arange(n - 1), np.arange(1, n)])
    assert graphs.independent_set(graphs.normalize_sym(g).sparse).tobytes() == greedy_independent_set(g).tobytes()
    # a random part beside such a chain
    rng = np.random.default_rng(3)
    pairs = rng.integers(0, 1000, size=(2000, 2))
    g = graphs.make_graph(2000, np.vstack([pairs[pairs[:, 0] != pairs[:, 1]], 1000 + g.edges[:999]]))
    assert graphs.independent_set(graphs.normalize_row(g).sparse).tobytes() == greedy_independent_set(g).tobytes()


def shifted_log_abs_det(g, epsilon):
    """The identity test's oracle: log|det(A + I + eps*D)| - sum(log D_ii), D = deg + 1, by one dense LU."""
    a = adjacency_dense(g)
    d = a.sum(axis=1) + 1.0
    return graphs.log_abs_det(a + np.eye(g.n) + epsilon * np.diag(d)) - np.log(d).sum()


@pytest.mark.parametrize("norm", [graphs.normalize_row, graphs.normalize_sym])
def test_a_star_factors_only_its_centre(norm, monkeypatch):
    g = graphs.make_graph(7, [(3, j) for j in range(7) if j != 3])
    # the six leaves are eliminated, leaving the centre's 1 + 7 eps - 6 / (1 + 2 eps)
    assert graphs.independent_set(norm(g).sparse).tolist() == [True] * 3 + [False] + [True] * 3
    wants = [shifted_log_abs_det(g, epsilon) for epsilon in (0.0, 1e-3)]
    calls = count_factorizations(monkeypatch)
    for epsilon, want in zip((0.0, 1e-3), wants):
        got = norm(g, damping=epsilon).log_abs_det
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        assert_allclose(got, math.log(abs(1 + 7 * epsilon - 6 / (1 + 2 * epsilon)))
                        + 6 * math.log(1 + 2 * epsilon) - 6 * math.log(2) - math.log(7), rtol=1e-14)
    assert calls == [("ldl", (1, 1))] * 2


@pytest.mark.parametrize("norm", [graphs.normalize_row, graphs.normalize_sym])
def test_an_edgeless_graph_factors_nothing(norm, monkeypatch):
    g = graphs.make_graph(5, [])
    calls = count_factorizations(monkeypatch)
    assert norm(g).log_abs_det == 0.0
    assert_allclose(norm(g, damping=0.1).log_abs_det, 5 * math.log(1.1), rtol=1e-15)
    assert calls == []


def test_an_isolated_edge_is_singular_undamped():
    # the twin pair's two rows of A + I are equal; the path beside it is not singular
    g = graphs.make_graph(5, [(0, 1), (2, 3), (3, 4)])
    for norm in (graphs.normalize_row, graphs.normalize_sym):
        with pytest.raises(SingularMatrixError, match="pass a small damping value"):
            norm(g).log_abs_det
        with pytest.raises(SingularMatrixError):
            shifted_log_abs_det(g, 0.0)
        want = shifted_log_abs_det(g, 1e-3)
        assert abs(norm(g, damping=1e-3).log_abs_det - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("block_size", [100, 400], ids=["sbm-300", "sbm-1200"])
def test_elimination_matches_the_dense_lu_on_block_models(block_size):
    g = generate_sbm(SbmConfig(block_size=block_size, seed=0)).graph
    # the eliminated set is a real share of the graph, not a corner case
    assert 0.05 * g.n < graphs.independent_set(graphs.normalize_row(g).sparse).sum() < 0.5 * g.n
    for epsilon in (0.0, 1e-3):
        want = shifted_log_abs_det(g, epsilon)
        for scheme, norm in (("row", graphs.normalize_row), ("sym", graphs.normalize_sym)):
            # the pivot check runs on S, not on the normalized matrix: both reach the same verdict
            # here, and the dense LU of the normalized matrix itself gives the same value
            dense = graphs.log_abs_det(normalized_dense(g, scheme, epsilon))
            got = norm(g, damping=epsilon).log_abs_det
            assert abs(got - want) <= 1e-12 * abs(want)
            assert abs(got - dense) <= 1e-12 * abs(dense)


def test_sparse_and_dense_views_agree():
    for scheme, norm in (("row", graphs.normalize_row), ("sym", graphs.normalize_sym)):
        adj = norm(path3())
        assert_allclose(adj.sparse.toarray(), normalized_dense(path3(), scheme), atol=0)


def sparse_logdet_fixture(n, seed):
    rng = np.random.default_rng(seed)
    pattern = (scipy.sparse.random(n, n, density=0.01, random_state=rng) + scipy.sparse.eye(n)).tocsr()
    return pattern, ad.Tensor(pattern.data.copy(), requires_grad=True)


def test_logabsdet_backward_inverts_in_place_over_the_factors():
    n = 600
    pattern, values = sparse_logdet_fixture(n, seed=0)
    logdet = graphs.logabsdet_tensor(pattern, values)
    tracemalloc.start()
    try:
        logdet.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # getri's workspace (64 columns at this size) and the gathered entries;
    # no n x n array beside the factors it overwrites
    assert peak < 0.25 * n * n * 8
    factors, _ = graphs._lu_checked(pattern.toarray(order="F"))
    lwork = int(scipy.linalg.lapack.dgetri_lwork(n)[0])
    inverse = scipy.linalg.lapack.dgetri(*factors, lwork=lwork)[0]
    coo = pattern.tocoo()
    assert values.grad.tobytes() == inverse[coo.col, coo.row].tobytes()


def test_logabsdet_backward_asks_getri_for_its_blocked_workspace(monkeypatch):
    # scipy's default workspace (3n) runs getri a few columns at a time,
    # slower than a solve against the identity
    n = 300
    pattern, values = sparse_logdet_fixture(n, seed=1)
    asked = []
    real = scipy.linalg.lapack.dgetri
    monkeypatch.setattr(scipy.linalg.lapack, "dgetri", lambda *a, **kw: asked.append(kw["lwork"]) or real(*a, **kw))
    graphs.logabsdet_tensor(pattern, values).backward()
    assert asked == [int(scipy.linalg.lapack.dgetri_lwork(n)[0])]


def test_logabsdet_repeated_backward_doubles_the_share():
    pattern, values = sparse_logdet_fixture(200, seed=2)
    logdet = graphs.logabsdet_tensor(pattern, values)
    logdet.backward()
    first = values.grad.copy()
    logdet.backward()
    assert values.grad.tobytes() == (2.0 * first).tobytes()


def whole_matrix_logabsdet(pattern, values, damping):
    """log|det| of the pattern's matrix plus damping times the identity by one
    LU of the whole matrix, and the gradient by getri over its factors."""
    dense = scipy.sparse.csr_matrix((values, pattern.indices, pattern.indptr), shape=pattern.shape).toarray(order="F")
    dense.flat[:: dense.shape[1] + 1] += damping
    factors, value = graphs._lu_checked(dense)
    lwork = int(scipy.linalg.lapack.dgetri_lwork(pattern.shape[0])[0])
    inverse = scipy.linalg.lapack.dgetri(*factors, lwork=lwork)[0]
    return value, inverse[pattern.indices, pattern.tocoo().row]


def diagonal_free_pattern(n, density, symmetric, rng):
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    if symmetric:
        mask |= mask.T
    return scipy.sparse.csr_matrix(mask.astype(np.float64))


# the eliminated route's shared bound on |got - want|, relative to max(1, |log|det||)
# for the value and to M⁻¹'s largest entry for the gradient: its 1/damping terms
# cost up to about three digits at damping 1e-3, on matrices whose condition number
# is below 1e6, against the oracle's inverse at about 1e-16 times that
ELIMINATED_TOL = 1e-8


@settings(derandomize=True, deadline=None, max_examples=120)
@given(n=st.integers(1, 14), isolated=st.integers(0, 3), density=st.floats(0.0, 1.0), symmetric=st.booleans(),
       damping=st.sampled_from([1e-3, 1e-2, 1.5]), seed=st.integers(0, 2**32 - 1))
def test_the_eliminated_route_matches_the_dense_oracle(n, isolated, density, symmetric, damping, seed):
    rng = np.random.default_rng(seed)
    pattern = diagonal_free_pattern(n, density, symmetric, rng)
    pattern.resize(n + isolated, n + isolated)  # isolated nodes: empty rows, eliminated with the damping alone
    raw = rng.uniform(-1.0, 1.0, size=pattern.nnz)
    rows, cols = pattern.nonzero()
    matrix = ad.Tensor(damping * np.eye(n + isolated), requires_grad=True)
    matrix.data[rows, cols] = raw
    assume(np.linalg.cond(matrix.data) < 1e6)
    want = logabsdet_dense(matrix)
    want.backward()
    values = ad.Tensor(raw.copy(), requires_grad=True)
    got = graphs.logabsdet_tensor(pattern, values, damping)
    got.backward()
    assert graphs.elimination_plan(pattern, damping).eliminated >= 1
    assert abs(got.item() - want.item()) <= ELIMINATED_TOL * max(1.0, abs(want.item()))
    assert np.abs(values.grad - matrix.grad[rows, cols]).max(initial=0.0) <= ELIMINATED_TOL * np.abs(matrix.grad).max()


@pytest.mark.parametrize("route", ["stored-diagonal", "undamped"])
def test_with_nothing_eliminated_the_route_is_the_whole_matrix_lu(route, monkeypatch):
    n, rng = 40, np.random.default_rng(3)
    if route == "stored-diagonal":
        pattern, damping = full_pattern(n), 1e-3
        raw = (rng.normal(size=(n, n)) + 3.0 * np.eye(n)).ravel()
    else:
        pattern, damping = diagonal_free_pattern(n, 0.2, True, rng), 0.0
        raw = rng.uniform(-1.0, 1.0, size=pattern.nnz)
    want_value, want_grad = whole_matrix_logabsdet(pattern, raw, damping)
    calls = count_factorizations(monkeypatch)
    values = ad.Tensor(raw.copy(), requires_grad=True)
    got = graphs.logabsdet_tensor(pattern, values, damping)
    got.backward()
    assert calls == [("lu", (n, n))]
    assert got.data.tobytes() == np.float64(want_value).tobytes()
    assert values.grad.tobytes() == want_grad.tobytes()


def test_eliminated_rows_are_checked_for_non_finite_values():
    # a path, whose eliminated nodes reach S through the fill, and one edge stored in
    # one direction only, whose eliminated source row reaches S nowhere
    path = scipy.sparse.csr_matrix(np.eye(5, k=1) + np.eye(5, k=-1))
    one_way = scipy.sparse.csr_matrix(([1.0], ([0], [1])), shape=(3, 3))
    for pattern in (path, one_way):
        inside = graphs.independent_set((pattern + pattern.T).tocsr())
        assert graphs.elimination_plan(pattern, 1e-3).eliminated == inside.sum()
        rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
        values = np.full(pattern.nnz, 0.5)
        values[np.flatnonzero(inside[rows])[0]] = np.nan
        with pytest.raises(DomainError, match="non-finite"):
            graphs.logabsdet_tensor(pattern, ad.Tensor(values, requires_grad=True), 1e-3)


def test_a_singular_matrix_is_refused_after_elimination():
    # K5: node 0 is eliminated, and nodes 1 and 2 get equal columns of M, so S has two equal columns
    n, damping = 5, 1e-2
    pattern = diagonal_free_pattern(n, 1.0, True, np.random.default_rng(0))
    matrix = damping * np.eye(n)
    matrix[pattern.nonzero()] = np.random.default_rng(4).uniform(0.1, 1.0, size=pattern.nnz)
    matrix[[0, 3, 4], 2] = matrix[[0, 3, 4], 1]
    matrix[1, 2] = matrix[2, 1] = damping
    assert np.array_equal(matrix[:, 1], matrix[:, 2])
    plan = graphs.elimination_plan(pattern, damping)
    assert plan.eliminated == 1 and plan.kept_indptr.size - 1 == n - 1
    values = ad.Tensor(matrix[pattern.nonzero()], requires_grad=True)
    with pytest.raises(SingularMatrixError):
        graphs.logabsdet_tensor(pattern, values, damping)


def test_the_eliminated_gradient_stays_near_a_refined_inverse():
    # the cost of dividing by the damping: at 1e-3 the gradient of this n=210 learned matrix
    # read 3.2e-12 of the inverse's largest entry (3.8e-12 on two BLAS threads), the whole
    # matrix's LU and getri 3.1e-15
    g = generate_sbm(SbmConfig(block_size=70, seed=0)).graph
    source = with_random_logits(adjparam.AttentionAdjacency(g, 1), seed=0)
    assert source.damping == 1e-3 and source.plan.eliminated > 0.2 * g.n
    values = ad.Tensor(source.realize(0).data, requires_grad=True)
    logdet = graphs.logabsdet_tensor(source.pattern, values, source.damping, source.plan)
    logdet.backward()
    matrix = source.damping * np.eye(g.n)
    matrix[source.src, source.dst] += values.data
    want = refined_inverse(matrix)
    assert np.abs(values.grad - want.T[source.src, source.dst]).max() <= 1e-10 * np.abs(want).max()
    assert abs(logdet.item() - np.linalg.slogdet(matrix)[1]) <= 1e-12 * abs(logdet.item())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_log_abs_det_rejects_non_finite_entries(bad):
    m = np.eye(3)
    m[1, 2] = bad
    with pytest.raises(DomainError, match="non-finite"):
        graphs.log_abs_det(m)
    with pytest.raises(DomainError, match="non-finite"):
        graphs.logabsdet_tensor(full_pattern(3), ad.Tensor(m.ravel(), requires_grad=True))

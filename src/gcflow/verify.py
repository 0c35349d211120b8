"""Numeric checks shared by the ``verify`` subcommand and the acceptance tests.

Each check recomputes a core identity through an independent route and
returns the measured error: the analytic log-determinant against a
brute-force Jacobian, analytic gradients against finite differences, the
learned log-determinant's gradient against a dense inverse, the inverse
against the forward, the per-class joints against the marginal,
and the density against a numeric integral, the determinant and inverse on
fixed and on learned mixing. Sizes and seeds are
parameters: the acceptance tests run them large, ``run_self_checks`` runs
them small enough to finish in seconds.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import trapezoid

from .adjparam import AttentionAdjacency
from .autodiff import Tensor, grad_check
from .data import SbmConfig, generate_sbm
from .errors import SingularMatrixError
from .flows import build_gcflow, jacobian_bruteforce
from .graphs import logabsdet_tensor, make_graph, normalize_row
from .mixture import LossConfig, MixtureHead, log_densities, semi_supervised_loss


def random_edges(rng, n):
    """Graph on n nodes with each pair linked with probability 0.6, or the
    first pair alone when the draw links none."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = [p for p in pairs if rng.random() < 0.6]
    return make_graph(n, keep or [pairs[0]])


def random_graph(rng, n, max_cond=None):
    """Row-normalized random graph on n nodes, each pair linked with probability 0.6.

    Without ``max_cond`` a singular draw is damped; with it, draws that are
    singular or worse conditioned are rejected and redrawn.
    """
    # the difference route of the log-determinant loses cond(A)^stages
    # digits, so near-singular draws would test the probe, not the formula
    while True:
        g = random_edges(rng, n)
        adj = normalize_row(g)
        try:
            adj.log_abs_det
        except SingularMatrixError:
            if max_cond is None:
                return normalize_row(g, damping=1e-2)
            continue
        if max_cond is None or np.linalg.cond(adj.sparse.toarray()) <= max_cond:
            return adj


def random_attention(rng, n, stages, max_cond=None):
    """Attention source with standard normal logits on a ``random_edges`` graph;
    with ``max_cond``, redrawn until no stage's matrix is worse conditioned."""
    while True:
        source = AttentionAdjacency(random_edges(rng, n), stages)
        for logits in source.logits:
            logits.data[...] = rng.normal(size=logits.shape)
        if max_cond is None or all(np.linalg.cond(source.mix(np.eye(n), s)[0].data) <= max_cond
                                   for s in range(stages)):
            return source


def determinant_error(seed, trials, sizes, dims, depths, max_cond=None, learned=False):
    """Largest gap between the analytic log-determinant of random graph flows
    and the log-determinant of their brute-force Jacobian.

    Each trial draws a node count from ``range(*sizes)``, a width from
    ``dims``, a flow count from ``range(*depths)``, a graph (with ``learned``,
    a ``random_attention``) and an input.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        n = int(rng.integers(*sizes))
        dim = int(rng.choice(dims))
        stages = int(rng.integers(*depths))
        adj = random_attention(rng, n, stages, max_cond) if learned else random_graph(rng, n, max_cond)
        model = build_gcflow(stages, dim, hidden=6, net_layers=2, adjacency=adj, seed=trial)
        x0 = rng.normal(size=(n, dim))
        result = model.forward(x0)
        analytic = float(result.flow_logdet.data.sum() + result.graph_logdet.data)
        brute = jacobian_bruteforce(lambda arr: model.forward(arr).z, x0)
        worst = max(worst, abs(analytic - brute))
    return worst


def loss_gradient_error(adjacency, x, labels, classes, hidden, seed):
    """Largest relative gap between the semi-supervised loss gradient and
    central differences, over every flow and head parameter.

    Nodes with a negative label form the unlabeled set.
    """
    labels = np.asarray(labels)
    model = build_gcflow(2, x.shape[1], hidden=hidden, net_layers=2, adjacency=adjacency, seed=seed)
    head = MixtureHead(classes, x.shape[1])
    cfg = LossConfig(np.flatnonzero(labels >= 0), np.flatnonzero(labels < 0))
    return grad_check(
        lambda: semi_supervised_loss(head, model.forward(x), labels, cfg), model.params() + head.params()
    )


def learned_logdet_gradient_error(seed, n, damping):
    """Largest gap, relative to the largest expected entry, between the
    backward share of an attention source's log|det| at random logits and its
    matrix's transposed inverse (``np.linalg.inv``) at the pattern's positions."""
    rng = np.random.default_rng(seed)
    source = random_attention(rng, n, 1)
    values = Tensor(source.realize(0).data, requires_grad=True)
    logabsdet_tensor(source.pattern, values, damping).backward()
    matrix = damping * np.eye(n)
    matrix[source.src, source.dst] += values.data
    want = np.linalg.inv(matrix).T[source.src, source.dst]
    return float(np.abs(values.grad - want).max() / np.abs(want).max())


def inverse_error(seed, trials, sizes, dims, max_cond=None, learned=False):
    """Largest entry of |inverse(forward(x)) - x| over random flows; every
    third trial, starting with the first, has no graph, unless ``learned``:
    then every trial has a ``random_attention`` drawn under ``max_cond``."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        n = int(rng.integers(*sizes))
        dim = int(rng.choice(dims))
        adj = (random_attention(rng, n, 2, max_cond) if learned
               else None if trial % 3 == 0 else random_graph(rng, n))
        model = build_gcflow(2, dim, hidden=8, net_layers=2, adjacency=adj, seed=trial)
        x = rng.normal(size=(n, dim))
        back = model.inverse(model.forward(x).z.data)
        worst = max(worst, np.abs(back - x).max())
    return worst


def density_mass(hidden, points):
    """Trapezoid integral of a two-layer row-flow mixture density over
    [-10, 10]^2 sampled at ``points`` per axis; one for a proper density."""
    model = build_gcflow(2, 2, hidden=hidden, net_layers=2, adjacency=None, seed=5)
    head = MixtureHead(3, 2, mean_scalars=[-1.0, 0.5, 2.0])
    axis = np.linspace(-10.0, 10.0, points)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    grid = np.column_stack([xs.ravel(), ys.ravel()])
    logp = log_densities(head, model.forward(grid))[1].data
    density = np.exp(logp).reshape(axis.size, axis.size)
    return float(trapezoid(trapezoid(density, axis, axis=1), axis))


def marginalization_error(rng, fixtures):
    """Largest gap between the log-sum-exp of each node's per-class joints
    and its marginal, over ``(adjacency, n, dim, classes, seed)`` fixtures
    fed inputs drawn from ``rng``."""
    worst = 0.0
    for adj, n, dim, k, seed in fixtures:
        model = build_gcflow(2, dim, hidden=6, net_layers=2, adjacency=adj, seed=seed)
        joint, marginal = log_densities(MixtureHead(k, dim), model.forward(rng.normal(size=(n, dim))))
        lse = np.logaddexp.reduce(joint.data, axis=1)
        worst = max(worst, np.abs(lse - marginal.data).max())
    return worst


def _small_gradient_error():
    rng = np.random.default_rng(1)
    adj = random_graph(rng, 4)
    x = rng.normal(size=(4, 2))
    return loss_gradient_error(adj, x, [0, 1, -1, -1], classes=2, hidden=4, seed=9)


def _small_marginalization_error():
    rng = np.random.default_rng(3)
    return marginalization_error(rng, [(random_graph(rng, 6), 6, 4, 3, 4)])


def _generator_mismatches():
    a = generate_sbm(SbmConfig(blocks=2, block_size=60, seed=11))
    b = generate_sbm(SbmConfig(blocks=2, block_size=60, seed=11))
    same_edges = np.array_equal(a.graph.edges, b.graph.edges)
    return int(a.features.tobytes() != b.features.tobytes()) + int(not same_edges)


# (name, measured error, bound it must stay below)
CHECKS = [
    ("determinant decomposition vs brute-force Jacobian",
     lambda: determinant_error(0, trials=5, sizes=(3, 6), dims=[2], depths=(2, 3)), 1e-5),
    ("loss gradients vs finite differences", _small_gradient_error, 1e-5),
    ("learned log-det gradient vs transposed inverse",
     lambda: learned_logdet_gradient_error(4, n=10, damping=1e-2), 1e-12),
    ("learned determinant decomposition vs brute-force Jacobian",
     lambda: determinant_error(0, trials=3, sizes=(3, 6), dims=[2], depths=(2, 3), max_cond=30.0, learned=True),
     1e-5),
    ("inverse undoes forward", lambda: inverse_error(2, trials=2, sizes=(5, 6), dims=[4]), 1e-8),
    ("learned inverse undoes forward",
     lambda: inverse_error(2, trials=2, sizes=(5, 6), dims=[4], max_cond=30.0, learned=True), 1e-8),
    ("per-class joints marginalize consistently", _small_marginalization_error, 1e-12),
    ("model density integrates to one", lambda: abs(density_mass(hidden=6, points=121) - 1.0), 0.02),
    ("synthetic generator is seed-deterministic", _generator_mismatches, 1),
]


def run_self_checks(out=print):
    failures = 0
    for name, measure, bound in CHECKS:
        try:
            err = measure()
        except Exception as exc:
            failures += 1
            out(f"FAIL {name}: {type(exc).__name__}: {exc}")
            continue
        if err < bound:
            out(f"pass {name}: {err:.1e} < {bound:g}")
        else:
            failures += 1
            out(f"FAIL {name}: {err:.1e}, bound {bound:g}")
    if failures:
        out(f"{failures} of {len(CHECKS)} checks failed")
        return 1
    out(f"all {len(CHECKS)} checks passed")
    return 0

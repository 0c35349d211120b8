"""Reference implementations the optimized code is checked against: dense
adjacency constructions and the identity mixing matrix, a counter of the
dense factorizations the graph module runs, the dense n x n mixing route of
the parameterized sources and their stage-replaying inverse, an MLP built
from unfused ops, per-vector mixture densities, the block-model sampler's
single full-matrix draw, and the two-forward training loop and two-pass
evaluate."""

import numpy as np
import scipy.sparse

from gcflow import graphs
from gcflow.errors import SingularMatrixError

LOG_2PI = float(np.log(2.0 * np.pi))


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


def identity_adjacency(n):
    """The n x n identity as a mixing matrix: mixing with it changes nothing."""
    return graphs.NormalizedAdjacency(scipy.sparse.identity(n, format="csr"), scheme="external")


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


def full_pattern(n):
    """CSR structure with every one of the n x n entries stored, row by row:
    its values are a dense matrix's ``ravel()``."""
    return scipy.sparse.csr_matrix(np.ones((n, n)))


# -- the dense mixing route of the parameterized sources ------------------


def scatter_matrix(values, rows, cols, shape):
    """Differentiable placement of ``values[i]`` at (rows[i], cols[i]) in a
    zero matrix; duplicate positions add."""
    from gcflow import autodiff as ad

    values = ad.as_tensor(values)
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    base = np.zeros(shape)
    np.add.at(base, (rows, cols), values.data)
    return ad.make_node(base, (values,), (lambda g: g[rows, cols],), "scatter_matrix")


def logabsdet_dense(a):
    """Differentiable log|det| of a dense square tensor; its gradient is the
    transposed inverse, taken with ``np.linalg.inv``."""
    from gcflow import autodiff as ad

    a = ad.as_tensor(a)
    sign, value = np.linalg.slogdet(a.data)
    if sign == 0.0:
        raise SingularMatrixError("singular matrix")
    return ad.make_node(np.float64(value), (a,), (lambda g: g * np.linalg.inv(a.data).T,), "logabsdet_dense")


def attention_dense(source, x, rng=None):
    """An ``AttentionAdjacency``'s mixing matrix built as an n x n tensor:
    the shifted score exponentials scattered, divided by their dense row sums
    (1 on an isolated node's empty row), plus damping times the identity.
    Attention draws no noise, so ``rng`` is unused."""
    from gcflow import autodiff as ad

    scores = source.edge_scores(x)
    row_max = np.full(source.n, -np.inf)
    np.maximum.at(row_max, source.src, scores.data)
    weights = ad.exp(scores - ad.Tensor(row_max[source.src]))
    numer = scatter_matrix(weights, source.src, source.dst, (source.n, source.n))
    lonely = (np.bincount(source.src, minlength=source.n) == 0).astype(np.float64)
    denom = ad.tsum(numer, axis=1) + ad.Tensor(lonely)
    return numer / ad.reshape(denom, (source.n, 1)) + ad.Tensor(source.damping * np.eye(source.n))


def gates_dense(source, x, rng=None):
    """A ``ConcreteAdjacency``'s mixing matrix built as an n x n tensor: its
    edge gates scattered, plus damping times the identity."""
    from gcflow import autodiff as ad

    gates = source.realize(x, rng)
    matrix = scatter_matrix(gates, source.src, source.dst, (source.n, source.n))
    return matrix + ad.Tensor(source.damping * np.eye(source.n))


def forward_dense(model, x, dense_mixing, rng=None):
    """``GcFlowModel.forward`` for a parameterized source, with every stage
    mixing through the dense n x n tensor ``dense_mixing(source, x)`` and its
    log|det| from ``logabsdet_dense``; returns the latents, the per-node
    coupling log-determinants and the graph log-determinant."""
    from gcflow import autodiff as ad

    x = ad.as_tensor(x)
    flow_logdet = ad.Tensor(np.zeros(x.shape[0]))
    graph_logdet = ad.Tensor(0.0)
    for flow in model.flows:
        a = dense_mixing(model.adjacency, x, rng)
        graph_logdet = graph_logdet + x.shape[1] * logabsdet_dense(a)
        x, ld = flow.forward(ad.matmul(a, x), rng)
        flow_logdet = flow_logdet + ld
    return x, flow_logdet, graph_logdet


def stage_matrices(model, x, rng=None):
    """Replay ``GcFlowModel.forward`` for a learned source stage by stage and
    return each stage's mixing matrix, A + damping·I as CSR, with A built from
    ``realize``'s values on the source's pattern. Each stage mixes as
    ``EdgeSource.mix`` does, so every stage sees the forward's own input."""
    from gcflow import autodiff as ad

    source, x = model.adjacency, ad.as_tensor(x)
    pattern, damping = source.pattern, source.damping
    matrices = []
    for flow in model.flows:
        values = source.realize(x, rng)
        a = scipy.sparse.csr_matrix((values.data, pattern.indices, pattern.indptr), shape=pattern.shape)
        matrices.append(a + damping * scipy.sparse.identity(pattern.shape[0], format="csr"))
        x, _ = flow.forward(ad.sparse_matmul(pattern, values, x) + x * damping, rng)
    return matrices


def inverse_replayed(model, x, z, rng=None):
    """Undo ``model.forward(x)`` from its latents ``z`` for a learned source:
    each stage inverts its flow, then solves with the matrix
    ``stage_matrices`` rebuilds from the forward's input ``x``."""
    from gcflow import autodiff as ad

    y = ad.as_tensor(z)
    for flow, a in zip(reversed(model.flows), reversed(stage_matrices(model, x, rng))):
        y = ad.Tensor(np.linalg.solve(a.toarray(), flow.inverse(y).data))
    return y


# -- an MLP built from unfused ops -----------------------------------------


def mlp_unfused(mlp, x, rng=None):
    """``mlp`` applied as a product, a broadcast bias add and a tanh whose
    backward is ``(1 - y*y) * g``, each its own node, with the same dropout
    draws as ``Mlp.__call__``."""
    from gcflow import autodiff as ad

    last = len(mlp.weights) - 1
    for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        x = ad.matmul(x, w) + b
        if k < last:
            y = np.tanh(x.data)
            x = ad.make_node(y, (x,), (lambda g, y=y: (1.0 - y * y) * g,), "tanh")
            if rng is not None and mlp.dropout > 0.0:
                keep = rng.random(x.shape) >= mlp.dropout
                x = x * ad.Tensor(keep / (1.0 - mlp.dropout))
    return x


# -- per-vector mixture densities -----------------------------------------


def component_logpdf(head, z, k):
    """Log-density of one latent vector under component k of a mixture head,
    from its scalars, one vector at a time."""
    z = np.asarray(z, dtype=np.float64).reshape(-1)
    dim = z.size
    m = head.means.data[k]
    ls = head.log_stds.data[k]
    sq = float(((z - m) ** 2).sum())
    return -0.5 * np.exp(-2.0 * ls) * sq - 0.5 * dim * LOG_2PI - dim * ls


def mixture_logpdf(head, z):
    """Log-density of one latent vector under the whole mixture."""
    lw = head.log_weights().data
    comps = np.array([component_logpdf(head, z, k) for k in range(head.num_components)])
    stacked = lw + comps
    m = stacked.max()
    return float(m + np.log(np.exp(stacked - m).sum()))


# -- the block-model sampler's single full-matrix draw --------------------


def sbm_full_draw(cfg):
    """``generate_sbm`` drawing all n x n uniforms at once: one dense
    probability matrix, one ``rng.random((n, n))`` and its strict upper
    triangle."""
    from gcflow import data

    rng = np.random.default_rng(cfg.seed)
    n = cfg.blocks * cfg.block_size
    labels = np.repeat(np.arange(cfg.blocks), cfg.block_size)
    prob = np.where(labels[:, None] == labels[None, :], cfg.p_intra, cfg.q_inter)
    src, dst = np.nonzero(np.triu(rng.random((n, n)) < prob, k=1))
    graph = data.make_graph(n, np.column_stack([src, dst]))
    direction = np.ones(cfg.dim) / np.sqrt(cfg.dim)
    features = labels[:, None] * cfg.separation * direction[None, :]
    features = features + cfg.noise * rng.normal(size=(n, cfg.dim))
    empty = np.zeros(n, dtype=bool)
    ds = data.Dataset(name=f"sbm{cfg.blocks}x{cfg.block_size}s{cfg.seed}", graph=graph, features=features,
                      labels=labels, train_mask=empty, val_mask=empty, test_mask=empty,
                      num_classes=cfg.blocks)
    return data.make_split(ds, data.TRAIN_PER_CLASS, data.VAL_PER_CLASS, seed=cfg.seed)


# -- the two-forward training loop and two-pass evaluate ------------------


def descend_two_forward(cfg, tm, ds, snapshot, start):
    """Reference epoch loop: every epoch builds a fresh loss forward and
    scores validation with a second, inference forward. Drop-in for
    ``training._descend``."""
    import time

    from gcflow import autodiff as ad
    from gcflow.errors import ConfigError, DivergedError, DomainError, SingularMatrixError
    from gcflow.evalkit import micro_f1
    from gcflow.mixture import LossConfig, init_means_from_labels
    from gcflow.training import CLIP_NORM, AdamState, RunRecord, adam_step, clip_gradients

    x = ds.features
    labels = ds.labels
    train_idx = ds.mask_indices("train")
    val_idx = ds.mask_indices("val")
    val_idx = val_idx[labels[val_idx] >= 0]
    if val_idx.size == 0:
        raise ConfigError("dataset's val split has no node with a known label")
    unlabeled = np.flatnonzero(~ds.train_mask)
    loss_cfg = LossConfig(train_idx, unlabeled, unlabeled_weight=cfg.unlabeled_weight)

    params = tm.model.params()
    if tm.head is not None and cfg.label_init_means:
        init_means_from_labels(tm.head, tm.model.represent(x), labels, train_idx)

    run_rng = np.random.default_rng(cfg.seed)
    opt = AdamState(params, cfg.lr, weight_decay=cfg.weight_decay)
    losses, val_f1s = [], []
    best_f1, best_loss, best_epoch, best_params = -1.0, np.inf, -1, None

    for epoch in range(cfg.epochs):
        ad.zero_grads(params)
        try:
            loss = tm.model.loss_and_predictions(x, labels, loss_cfg, run_rng)[0]
            value = loss.item()
            if not np.isfinite(value):
                raise DomainError(f"loss is {value}")
            loss.backward()
            clip_gradients(params, CLIP_NORM)
            adam_step(opt)
            losses.append(value)
            f1 = micro_f1(tm.model.predict_and_represent(x)[0][val_idx], labels[val_idx])
        except (DomainError, SingularMatrixError) as exc:
            if len(val_f1s) < len(losses):
                val_f1s.append(float("nan"))
            record = RunRecord(
                config=snapshot, seed=cfg.seed, epochs_run=len(losses), losses=losses,
                val_f1s=val_f1s, test_micro_f1=float("nan"), silhouette_kmeans=float("nan"),
                silhouette_truth=float("nan"), nmi=float("nan"), ari=float("nan"),
                wall_seconds=time.perf_counter() - start,
            )
            raise DivergedError(f"training diverged at epoch {epoch}: {exc}", record=record) from None
        val_f1s.append(f1)
        if f1 > best_f1 or (f1 == best_f1 and value < best_loss):
            best_f1, best_loss, best_epoch = f1, value, epoch
            best_params = [p.data.copy() for p in params]
        if epoch - best_epoch >= cfg.patience:
            break

    for p, saved in zip(params, best_params):
        np.copyto(p.data, saved)
    return losses, val_f1s


def evaluate_two_pass(tm, ds):
    """Reference evaluate: a ``predictions`` forward, a ``represent`` forward,
    and one silhouette distance pass per labeling. Drop-in for
    ``training.evaluate``."""
    from gcflow import evalkit
    from gcflow.errors import ConfigError
    from gcflow.training import predictions, representation

    pred = predictions(tm, ds)
    z = representation(tm, ds)
    known = ds.labels >= 0
    test = ds.mask_indices("test")
    test = test[known[test]]
    if test.size == 0:
        raise ConfigError("dataset's test split has no node with a known label")
    km = evalkit.kmeans(z, ds.num_classes, seed=tm.config["seed"])
    return {
        "test_micro_f1": evalkit.micro_f1(pred[test], ds.labels[test]),
        "silhouette_kmeans": evalkit.silhouette(z, km),
        "silhouette_truth": evalkit.silhouette(z[known], ds.labels[known]),
        "nmi": evalkit.nmi(km.labels[known], ds.labels[known]),
        "ari": evalkit.ari(km.labels[known], ds.labels[known]),
    }

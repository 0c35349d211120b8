"""Reference implementations the optimized code is checked against: dense
adjacency constructions, the sequential greedy independent set, the identity mixing matrix and a dense mixing
source, attention logits drawn at random, a counter of the dense LU and LDLᵀ factorizations the graph module runs, a refined inverse, the
dense n x n mixing route of the attention source, an MLP and a coupling
update built from unfused ops, per-vector mixture densities and a dense Gaussian density,
the metric routes of confusion counts, quadratic loops, contingency sums and pair enumeration,
the block-model sampler's single full-matrix draw, the row-wise unique of the edge dedupe,
the two-forward training loop and two-pass evaluate, and a checkpoint block's codec."""

import base64
import itertools

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


def greedy_independent_set(g):
    """Nodes visited one at a time by (degree, node id), each taken unless
    a neighbour already was; a boolean mask."""
    neighbours = [[] for _ in range(g.n)]
    for i, j in g.edges.tolist():
        neighbours[i].append(j)
        neighbours[j].append(i)
    taken = [False] * g.n
    for v in sorted(range(g.n), key=lambda v: (len(neighbours[v]), v)):
        taken[v] = not any(taken[u] for u in neighbours[v])
    return np.array(taken, dtype=bool)


def identity_adjacency(n):
    """The n x n identity as a mixing matrix: mixing with it changes nothing."""
    return graphs.normalize_row(graphs.make_graph(n, []))


class DenseMixing:
    """A fixed mixing matrix held dense, as a mixing source: ``mix`` gives
    the product and a function for the matrix's log|det| at every stage."""

    def __init__(self, m):
        self.m = m

    def mix(self, x, stage=None):
        from gcflow import autodiff as ad

        return ad.matmul(ad.Tensor(self.m), x), lambda: graphs.log_abs_det(self.m)


def with_random_logits(source, seed):
    """An attention source with standard normal logits at every stage."""
    rng = np.random.default_rng(seed)
    for logits in source.logits:
        logits.data[...] = rng.normal(size=logits.shape)
    return source


def count_factorizations(monkeypatch):
    """Record every dense factorization the graph module runs, as the pair
    ("lu" or "ldl", shape of the matrix); returns the list, which grows as
    factorizations happen."""
    calls = []
    for name, attr in (("lu", "_lu_checked"), ("ldl", "_ldl_checked")):
        def counted(matrix, name=name, factor=getattr(graphs, attr)):
            calls.append((name, np.shape(matrix)))
            return factor(matrix)

        monkeypatch.setattr(graphs, attr, counted)
    return calls


def refined_inverse(m):
    """The inverse of a float64 matrix, as longdouble: ``np.linalg.inv``
    refined by two Newton steps X + X(I - MX) carried in longdouble."""
    m = np.asarray(m, dtype=np.longdouble)
    x = np.linalg.inv(m.astype(np.float64)).astype(np.longdouble)
    eye = np.eye(m.shape[0], dtype=np.longdouble)
    for _ in range(2):
        x = x + x @ (eye - m @ x)
    return x


def full_pattern(n):
    """CSR structure with every one of the n x n entries stored, row by row:
    its values are a dense matrix's ``ravel()``."""
    return scipy.sparse.csr_matrix(np.ones((n, n)))


# -- the dense mixing route of the attention source ------------------------


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


def attention_dense(source, stage):
    """An ``AttentionAdjacency``'s mixing matrix at ``stage`` built as an
    n x n tensor: the shifted logit exponentials scattered, divided by their
    dense row sums (1 on an isolated node's empty row), plus damping times
    the identity."""
    from gcflow import autodiff as ad

    scores = source.logits[stage]
    row_max = np.full(source.n, -np.inf)
    np.maximum.at(row_max, source.src, scores.data)
    weights = ad.exp(scores - ad.Tensor(row_max[source.src]))
    numer = scatter_matrix(weights, source.src, source.dst, (source.n, source.n))
    lonely = (np.bincount(source.src, minlength=source.n) == 0).astype(np.float64)
    denom = ad.tsum(numer, axis=1) + ad.Tensor(lonely)
    return numer / ad.reshape(denom, (source.n, 1)) + ad.Tensor(source.damping * np.eye(source.n))


def forward_dense(model, x, dense_mixing):
    """``GcFlowModel.forward`` for a learned source, with stage s mixing
    through the dense n x n tensor ``dense_mixing(source, s)`` and its
    log|det| from ``logabsdet_dense``; returns the latents, the per-node
    coupling log-determinants and the graph log-determinant."""
    from gcflow import autodiff as ad

    x = ad.as_tensor(x)
    flow_logdet = ad.Tensor(np.zeros(x.shape[0]))
    graph_logdet = ad.Tensor(0.0)
    for stage, flow in enumerate(model.flows):
        a = dense_mixing(model.adjacency, stage)
        graph_logdet = graph_logdet + x.shape[1] * logabsdet_dense(a)
        x, ld = flow.forward(ad.matmul(a, x))
        flow_logdet = flow_logdet + ld
    return x, flow_logdet, graph_logdet


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


def concat_cols(parts):
    """The matrices ``parts`` side by side; each part's share is its own
    columns of the output gradient."""
    from gcflow import autodiff as ad

    parts = [ad.as_tensor(p) for p in parts]
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])
    vjps = [lambda g, j0=j0, j1=j1: g[:, j0:j1] for j0, j1 in zip(offsets[:-1], offsets[1:])]
    return ad.make_node(np.concatenate([p.data for p in parts], axis=1), parts, vjps, "concat_cols")


def couple_unfused(x, s, t, cols):
    """``ad.couple`` as its own nodes: ``x`` sliced into the columns before,
    in and after the slice ``cols``, the middle part times ``exp(s)`` plus
    ``t``, and the three parts joined again."""
    from gcflow import autodiff as ad

    before, changed, after = (ad.slice_cols(x, j0, j1) for j0, j1 in
                              ((0, cols.start), (cols.start, cols.stop), (cols.stop, x.shape[1])))
    return concat_cols([before, changed * ad.exp(s) + t, after])


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


def dense_gaussian_logpdf(x, mean, cov):
    """Multivariate normal log-density of one vector, with an explicit inverse."""
    x = np.asarray(x, float)
    diff = x - mean
    _, logdet = np.linalg.slogdet(cov)
    return float(-0.5 * (diff @ np.linalg.inv(cov) @ diff + logdet + x.size * LOG_2PI))


# -- independent metric routes ----------------------------------------------


def f1_via_confusion(pred, truth):
    """Micro F1 from per-class confusion counts: micro P = micro R here."""
    classes = np.union1d(pred, truth)
    tp = sum(np.sum((pred == c) & (truth == c)) for c in classes)
    fp = sum(np.sum((pred == c) & (truth != c)) for c in classes)
    fn = sum(np.sum((pred != c) & (truth == c)) for c in classes)
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def silhouette_loops(x, labels):
    """Quadratic-time reference silhouette."""
    x = np.asarray(x, float)
    labels = np.asarray(labels)
    n = x.shape[0]
    dist = np.array([[np.linalg.norm(x[i] - x[j]) for j in range(n)] for i in range(n)])
    scores = []
    for i in range(n):
        mine = (labels == labels[i]) & (np.arange(n) != i)
        if not mine.any():
            scores.append(0.0)
            continue
        a = dist[i][mine].mean()
        b = min(dist[i][labels == c].mean() for c in np.unique(labels) if c != labels[i])
        scores.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    return float(np.mean(scores))


def nmi_from_table(a, t):
    """NMI from a contingency table summed with explicit loops."""
    a = np.asarray(a)
    t = np.asarray(t)
    n = a.size
    va, vt = np.unique(a), np.unique(t)
    info = 0.0
    for ca in va:
        for ct in vt:
            joint = np.sum((a == ca) & (t == ct)) / n
            if joint > 0:
                pa = np.sum(a == ca) / n
                pt = np.sum(t == ct) / n
                info += joint * np.log(joint / (pa * pt))
    ha = -sum(p * np.log(p) for p in [np.mean(a == c) for c in va] if p > 0)
    ht = -sum(p * np.log(p) for p in [np.mean(t == c) for c in vt] if p > 0)
    if ha == 0 or ht == 0:
        return 0.0
    return info / np.sqrt(ha * ht)


def ari_from_pairs(a, t):
    """ARI from exhaustive pair enumeration."""
    a = np.asarray(a)
    t = np.asarray(t)
    ss = sd = ds = dd = 0
    for i, j in itertools.combinations(range(a.size), 2):
        same_a, same_t = a[i] == a[j], t[i] == t[j]
        ss += same_a and same_t
        sd += same_a and not same_t
        ds += same_t and not same_a
        dd += not same_a and not same_t
    total = ss + sd + ds + dd
    expected = (ss + sd) * (ss + ds) / total
    denom = 0.5 * ((ss + sd) + (ss + ds)) - expected
    if denom == 0:
        return 1.0
    return (ss - expected) / denom


def kmeans_broadcast(points, k, seed=0):
    """``evalkit.kmeans`` with each round's distances from one n x k x D
    broadcast and empty clusters found by one ``np.any`` pass per cluster;
    returns labels, centroids, inertia and inertia trace."""
    from gcflow import evalkit

    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    centroids = evalkit._plusplus_seed(x, k, rng)
    labels = None
    trace = []
    for _ in range(evalkit.KMEANS_MAX_ITERS):
        sq = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = sq.argmin(axis=1)
        for c in range(k):
            if not np.any(new_labels == c):
                farthest = sq[np.arange(n), new_labels].argmax()
                centroids[c] = x[farthest]
                sq[:, c] = ((x - centroids[c]) ** 2).sum(axis=1)
                new_labels = sq.argmin(axis=1)
        trace.append(float(sq[np.arange(n), new_labels].sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centroids[c] = x[labels == c].mean(axis=0)
    inertia = float(((x - centroids[labels]) ** 2).sum(axis=1).sum())
    return labels, centroids, inertia, trace


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


# -- the edge dedupe as row-wise unique ------------------------------------


def unique_pairs(pairs):
    """``make_graph``'s dedupe as sorted unique rows: each pair ordered
    smaller id first, then ``np.unique`` over whole rows."""
    return np.unique(np.sort(pairs, axis=1), axis=0)


# -- the two-forward training loop and two-pass evaluate ------------------


def descend_two_forward(cfg, tm, ds, snapshot, start):
    """Reference epoch loop: every epoch builds a fresh loss forward and
    scores validation with a second, inference forward, and label mean init
    runs a forward of its own. Drop-in for ``training._descend``."""
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
            loss = tm.model.loss_and_predictions(x, labels, loss_cfg, run_rng)[0]()
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
    return losses, val_f1s, None  # no outputs kept: evaluate runs its own forward


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


def block_arrays(block):
    """The arrays of a checkpoint block, writable copies, split by its shapes
    from the base64 string of little-endian float64s."""
    values = np.frombuffer(base64.b64decode(block["float64le"]), "<f8")
    ends = np.cumsum([int(np.prod(shape)) for shape in block["shapes"]], dtype=np.intp)
    return [part.reshape(shape).copy() for part, shape in zip(np.split(values, ends[:-1]), block["shapes"])]


def block_of(arrays):
    """A checkpoint block of ``arrays``: their shapes and their values in C
    order, base64-encoded as little-endian float64s."""
    flat = np.concatenate([np.ravel(a) for a in arrays]).astype("<f8")
    return {"shapes": [list(np.shape(a)) for a in arrays], "float64le": base64.b64encode(flat.tobytes()).decode()}

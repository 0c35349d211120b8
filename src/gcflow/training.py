"""Full-batch training loop, optimizer, and model assembly.

One entry point, ``train``, covers every model kind: the graph classifier,
the plain row-wise flow, the graph-convolutional flow with fixed or
parameterized mixing, and the two EM-mixture references fitted on raw or
pre-mixed features. Each kind is one ``KINDS`` entry, the one place that
reads the kind, and ``assemble_model`` builds its model object. Everything
after that calls the object's ``params``, ``loss_and_predictions`` (a
function that builds the training loss, the predictions and the
representation of one training forward),
``predict_and_represent`` and ``represent``; the EM references have ``fit``
in place of the loss. ``train`` runs no forward twice: epoch 0's loss
forward seeds the label means, and the final ``evaluate`` scores the
validation forward of the best epoch.
Everything stochastic draws from a single generator seeded by the run seed,
so a repeated run reproduces its metrics exactly.
"""

from __future__ import annotations

import math
import numbers
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .adjparam import DEFAULT_DAMPING, AttentionAdjacency
from .baselines import GCN_DROPOUT, GCN_HIDDEN, EmReference, GcnModel
from .data import Dataset
from .errors import ConfigError, DivergedError, DomainError, SingularMatrixError
from .evalkit import PcaProjection, cluster_agreement, kmeans, micro_f1, pca_apply, pca_fit
from .flows import build_gcflow
from .graphs import normalize_row, normalize_sym
from .mixture import (
    MEAN_HI,
    MEAN_LO,
    FlowMixture,
    LossConfig,
    MixtureHead,
    init_means_from_labels,
    spread_means,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CLIP_NORM = 50.0
FLOW_HIDDEN = 64


# -- optimizer ----------------------------------------------------------


class AdamState:
    """Adam moments for a fixed parameter list, with decoupled weight decay."""

    def __init__(self, params, lr, weight_decay=0.0):
        if lr <= 0.0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.steps = 0
        self.m = [np.zeros_like(p.data, dtype=np.float64) for p in self.params]
        self.v = [np.zeros_like(p.data, dtype=np.float64) for p in self.params]


def adam_step(state: AdamState):
    """One update from the gradients currently stored on the parameters.

    Weight decay multiplies the parameter directly (it never enters the
    moments), then the bias-corrected moment ratio is applied.
    """
    state.steps += 1
    t = state.steps
    correct1 = 1.0 - ADAM_BETA1 ** t
    correct2 = 1.0 - ADAM_BETA2 ** t
    for p, m, v in zip(state.params, state.m, state.v):
        g = p.grad
        if state.weight_decay:
            p.data -= state.lr * state.weight_decay * p.data
        np.copyto(m, ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g)
        np.copyto(v, ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g)
        p.data -= state.lr * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)


def clip_gradients(params, threshold):
    """Scale all gradients so their joint L2 norm is at most the threshold.

    Returns the norm measured before clipping.
    """
    total = np.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
    if total > threshold:
        scale = threshold / total
        for p in params:
            p.grad *= scale
    return total


# -- configuration and run record ---------------------------------------

# what a TrainConfig field of each annotated type admits; only a bool field admits a bool
_FIELD_TYPES = {"str": str, "bool": bool, "int": numbers.Integral, "float": numbers.Real}
# what an admitted value is stored as, so that asdict(config) is plain JSON even for numpy scalars
_PLAIN_TYPES = {"str": str, "bool": bool, "int": int, "float": float}
_INT_MINIMA = (("num_flows", 1), ("couplings", 1), ("net_layers", 1), ("hidden", 1), ("epochs", 1),
               ("patience", 1), ("seed", 0), ("pca_dim", 1))


@dataclass
class TrainConfig:
    model: str = "gcflow"
    num_flows: int = 2
    couplings: int = 1
    net_layers: int = 2
    hidden: int | None = None  # None picks the kind's default width
    dropout: float | None = None
    unlabeled_weight: float = 0.5
    lr: float = 0.01
    weight_decay: float = 5e-4
    epochs: int = 400
    patience: int = 50
    seed: int = 0
    pca_dim: int | None = None
    adjacency: str = "row"
    learn_weights: bool = False
    label_init_means: bool = True
    mean_hi: float = MEAN_HI  # largest component-mean scalar at init; the smallest is MEAN_LO
    log_std_init: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            base, _, optional = f.type.partition(" | ")
            admitted = isinstance(value, _FIELD_TYPES[base]) and isinstance(value, bool) == (base == "bool")
            if not (admitted or (value is None and optional)):
                raise ConfigError(f"config {f.name} must be {f.type}, got {value!r}")
            if value is not None:
                value = _PLAIN_TYPES[base](value)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ConfigError(f"config {f.name} must be finite, got {value!r}")
                setattr(self, f.name, value)
        for name, least in _INT_MINIMA:
            value = getattr(self, name)
            if value is not None and value < least:
                raise ConfigError(f"config {name} must be at least {least}, got {value}")
        if self.model not in KINDS:
            raise ConfigError(f"unknown model kind {self.model!r}, expected one of {MODEL_KINDS}")
        if KINDS[self.model].build is _flow_mixture and not 0.0 < self.unlabeled_weight < 1.0:
            raise ConfigError(
                f"config unlabeled_weight must be inside (0, 1) for a flow, got {self.unlabeled_weight}")
        if self.adjacency not in ("row", "sym"):
            raise ConfigError(f"adjacency scheme must be 'row' or 'sym', got {self.adjacency!r}")
        if self.lr <= 0.0:
            raise ConfigError(f"config lr must be positive, got {self.lr}")
        if self.mean_hi < MEAN_LO:
            raise ConfigError(f"config mean_hi must be at least {MEAN_LO}, got {self.mean_hi}")
        if self.weight_decay < 0.0:
            raise ConfigError(f"config weight_decay must be non-negative, got {self.weight_decay}")
        if self.dropout is not None and not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"config dropout must be in [0, 1), got {self.dropout}")

    @property
    def resolved_hidden(self):
        return KINDS[self.model].hidden if self.hidden is None else self.hidden

    @property
    def resolved_dropout(self):
        return KINDS[self.model].dropout if self.dropout is None else self.dropout


@dataclass
class RunRecord:
    config: dict
    seed: int
    epochs_run: int
    losses: list
    val_f1s: list
    test_micro_f1: float
    silhouette_kmeans: float
    silhouette_truth: float
    nmi: float
    ari: float
    wall_seconds: float
    checkpoint_path: str | None = None

    def metrics_dict(self):
        """The stable serialization schema for a finished run: every field
        but the per-epoch lists and the checkpoint path."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("losses", "val_f1s", "checkpoint_path")}


@dataclass
class TrainedModel:
    """A model with everything needed to run it on the dataset it came from.

    ``model`` is the kind's model object, as built by ``assemble_model``.
    ``pca``, when set, projects the dataset's features wherever the model
    reads them (``node_features``): in training, evaluation and embedding.
    """

    config: dict
    dim: int
    classes: int
    model: object
    pca: PcaProjection | None = None
    damping_used: float = 0.0

    @property
    def head(self) -> MixtureHead | None:
        """The flow kinds' mixture head; None for the other kinds."""
        return getattr(self.model, "head", None)


# -- model assembly -----------------------------------------------------


# A kind's ``mixing(cfg, graph, damping_used)`` returns its mixing source (None for none),
# which holds its damping. ``build(cfg, source, dim, classes)`` returns the untrained model, and
# ``hidden`` and ``dropout`` serve a config that sets neither. The builders look ``normalize_*``
# and the adjacency classes up when called, so rebinding those names reaches every kind.


def _no_mixing(cfg, graph, damping_used):
    return None


def _fixed_mixing(cfg, graph, damping_used):
    """The normalized adjacency at a saved ``damping_used``, or undamped; never factored."""
    normalize = normalize_row if cfg.adjacency == "row" else normalize_sym
    return normalize(graph, damping=damping_used or 0.0)


def _invertible_mixing(cfg, graph, damping_used):
    """``_fixed_mixing`` for a likelihood. Unless ``damping_used`` replays it, its log|det| is read here (the one
    set-up LDLᵀ, of nodes an eliminated independent set leaves); a singular one is rebuilt at ``DEFAULT_DAMPING``."""
    adj = _fixed_mixing(cfg, graph, damping_used)
    if damping_used is None:
        try:
            adj.log_abs_det
        except SingularMatrixError:
            adj = _fixed_mixing(cfg, graph, DEFAULT_DAMPING)
            adj.log_abs_det
    return adj


def _attention(cfg, graph, damping_used):
    return AttentionAdjacency(graph, cfg.num_flows,
                              damping=DEFAULT_DAMPING if damping_used is None else damping_used)


def _gcn(cfg, source, dim, classes):
    return GcnModel(source, [dim, cfg.resolved_hidden, classes], dropout=cfg.resolved_dropout, seed=cfg.seed)


def _flow_mixture(cfg, source, dim, classes):
    flow = build_gcflow(cfg.num_flows, dim, cfg.resolved_hidden, cfg.net_layers, cfg.couplings,
                        adjacency=source, seed=cfg.seed, dropout=cfg.resolved_dropout)
    head = MixtureHead(classes, dim, mean_scalars=spread_means(classes, MEAN_LO, cfg.mean_hi),
                       log_stds=[cfg.log_std_init] * classes, learn_weights=cfg.learn_weights)
    return FlowMixture(flow, head)


def _em(cfg, source, dim, classes):
    return EmReference(classes, adjacency=source)


Kind = namedtuple("Kind", "mixing build hidden dropout", defaults=(FLOW_HIDDEN, 0.0))
KINDS = {
    "gcn": Kind(_fixed_mixing, _gcn, GCN_HIDDEN, GCN_DROPOUT),
    "flowgmm": Kind(_no_mixing, _flow_mixture),
    "gcflow": Kind(_invertible_mixing, _flow_mixture),
    "gcflow-p": Kind(_attention, _flow_mixture),
    "gmm-x": Kind(_no_mixing, _em),
    "gmm-ax": Kind(_fixed_mixing, _em),
}
MODEL_KINDS = tuple(KINDS)
FLOW_KINDS = tuple(name for name, kind in KINDS.items() if kind.build is _flow_mixture)


def assemble_model(cfg: TrainConfig, graph, dim, classes, damping_used=None) -> TrainedModel:
    """Fresh, untrained model for a config, built by its ``KINDS`` entry.

    Deterministic in the config seed, so a checkpoint can rebuild the exact
    same skeleton; ``damping_used`` replays the damping a normalized
    adjacency was built with, without factoring it again.
    """
    kind = KINDS[cfg.model]
    source = kind.mixing(cfg, graph, damping_used)
    model = kind.build(cfg, source, dim, classes)
    return TrainedModel(config=asdict(cfg), dim=dim, classes=classes, model=model,
                        damping_used=getattr(source, "damping", 0.0))


# -- running a trained model --------------------------------------------


def node_features(tm: TrainedModel, ds: Dataset):
    """The dataset's features as the model reads them, through its projection if it has one."""
    x = ds.features if tm.pca is None else pca_apply(tm.pca, ds.features)
    if x.shape[1] != tm.dim:
        raise ConfigError(f"model expects {tm.dim} features, dataset provides {x.shape[1]}")
    return x


def representation(tm: TrainedModel, ds: Dataset):
    """The node embedding each model kind is evaluated on: latents for
    flows, penultimate activations for the classifier, (mixed) features
    for the EM references."""
    return tm.model.represent(node_features(tm, ds))


def predictions(tm: TrainedModel, ds: Dataset):
    return tm.model.predict_and_represent(node_features(tm, ds))[0]


def _scored_indices(ds: Dataset, split):
    """The nodes of a split that F1 is scored over: those with a known label."""
    idx = ds.mask_indices(split)
    idx = idx[ds.labels[idx] >= 0]
    if idx.size == 0:
        raise ConfigError(f"dataset's {split} split has no node with a known label")
    return idx


def evaluate(tm: TrainedModel, ds: Dataset, outputs=None):
    """Classification and clustering metrics on the dataset's test split.

    F1 is scored over the test nodes with a known label. One forward yields
    both the predictions and the representation, and with every label known
    one distance pass yields both silhouettes. k-means is seeded with the
    run seed. ``outputs``, the ``(predictions, representation)`` of a
    forward ``train`` already ran on these parameters and this dataset,
    takes the place of that forward.
    """
    pred, z = tm.model.predict_and_represent(node_features(tm, ds)) if outputs is None else outputs
    test = _scored_indices(ds, "test")
    km = kmeans(z, ds.num_classes, seed=tm.config["seed"])
    return {
        "test_micro_f1": micro_f1(pred[test], ds.labels[test]),
        **cluster_agreement(z, km, ds.labels),
    }


# -- the training loop --------------------------------------------------


def train(cfg: TrainConfig, dataset: Dataset, checkpoint_dir=None) -> RunRecord:
    """Fit a model and report its metrics.

    The EM references are fitted once, with no epochs. Gradient models run
    full-batch with early stopping on validation micro-F1: the
    best-scoring parameters are kept and restored at the end, and training
    stops once the best epoch is ``patience`` epochs old. A non-finite loss
    or a numeric blow-up mid-epoch aborts with the progress so far attached
    to the raised error. ``checkpoint_dir``, when given, is created (with
    its parents) before training starts; a path that exists but is not a
    directory raises ``ConfigError`` then, not after the last epoch. An
    older run's checkpoint there is deleted then too, so after a failed run
    the directory holds no checkpoint. A validation (gradient models) or
    test split with no known label raises ``ConfigError`` before any set-up.
    """
    start = time.perf_counter()
    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        try:
            checkpoint_dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise ConfigError(f"checkpoint directory {checkpoint_dir} is not a directory") from None
        (checkpoint_dir / "checkpoint.json").unlink(missing_ok=True)
    if KINDS[cfg.model].build is not _em:
        _scored_indices(dataset, "val")
    _scored_indices(dataset, "test")
    # fitted before assembly, so a bad pca_dim fails before any factorization
    pca = None if cfg.pca_dim is None else pca_fit(dataset.features, cfg.pca_dim)
    tm = assemble_model(cfg, dataset.graph, cfg.pca_dim or dataset.dim, dataset.num_classes)
    tm.pca = pca
    snapshot = {**tm.config, "damping_used": tm.damping_used}

    if isinstance(tm.model, EmReference):
        tm.model.fit(node_features(tm, dataset), dataset.labels, dataset.mask_indices("train"))
        losses, val_f1s, outputs = [], [], None
    else:
        losses, val_f1s, outputs = _descend(cfg, tm, dataset, snapshot, start)
    metrics = evaluate(tm, dataset, outputs)
    record = RunRecord(
        config=snapshot, seed=cfg.seed, epochs_run=len(losses), losses=losses,
        val_f1s=val_f1s, wall_seconds=time.perf_counter() - start, **metrics,
    )
    if checkpoint_dir is not None:
        from .checkpoint import save_checkpoint

        path = checkpoint_dir / "checkpoint.json"
        save_checkpoint(path, tm, dataset.graph)
        record.checkpoint_path = str(path)
    return record


def _descend(cfg: TrainConfig, tm: TrainedModel, ds: Dataset, snapshot, start):
    """The epoch loop of ``train`` for gradient models; returns the losses
    and validation F1 scores per epoch and the best epoch's validation
    ``(predictions, representation)``, and leaves the best parameters set.

    Label mean init reads epoch 0's loss forward when it drew no noise, and
    a ``represent`` forward otherwise; either way the means are set before
    that epoch's loss is built.
    """
    x = node_features(tm, ds)
    labels = ds.labels
    train_idx = ds.mask_indices("train")
    val_idx = _scored_indices(ds, "val")
    unlabeled = np.flatnonzero(~ds.train_mask)
    loss_cfg = LossConfig(train_idx, unlabeled, unlabeled_weight=cfg.unlabeled_weight)

    params = tm.model.params()

    run_rng = np.random.default_rng(cfg.seed)
    opt = AdamState(params, cfg.lr, weight_decay=cfg.weight_decay)
    losses: list[float] = []
    val_f1s: list[float] = []
    best_f1 = -1.0
    best_loss = np.inf
    best_epoch = -1
    best_params = best_outputs = None
    # a loss forward that leaves the run generator as it was drew no noise
    # and computed what inference does, so the forward after a step can be
    # both this epoch's validation forward and the next epoch's loss forward;
    # its loss is built only when that epoch starts, so an epoch that stops
    # the run never reads the graph log|det| for it. A carried forward that
    # fails, or whose loss does, is the computation a fresh loss forward would
    # repeat, so the failure ends the run at that epoch with no retry
    carried = None

    for epoch in range(cfg.epochs):
        ad.zero_grads(params)
        try:
            # the previous tape is freed only here, after the next forward was
            # built beside it, so its memory is reused rather than re-faulted
            loss, build_loss, carried = None, carried, None
            if build_loss is None:
                before = run_rng.bit_generator.state
                build_loss, _, z = tm.model.loss_and_predictions(x, labels, loss_cfg, run_rng)
                carry = run_rng.bit_generator.state == before
                if epoch == 0 and tm.head is not None and cfg.label_init_means:
                    init_means_from_labels(tm.head, z if carry else tm.model.represent(x), labels, train_idx)
            loss = build_loss()
            value = loss.item()
            if not np.isfinite(value):
                raise DomainError(f"loss is {value}")
            loss.backward()
            clip_gradients(params, CLIP_NORM)
            adam_step(opt)
            losses.append(value)
            if carry and epoch + 1 < cfg.epochs:
                carried, *outputs = tm.model.loss_and_predictions(x, labels, loss_cfg, run_rng)
            else:
                outputs = tm.model.predict_and_represent(x)
            f1 = micro_f1(outputs[0][val_idx], labels[val_idx])
        except (DomainError, SingularMatrixError) as exc:
            if len(val_f1s) < len(losses):  # the step ran, its validation failed
                val_f1s.append(float("nan"))
            unscored = dict.fromkeys(
                ("test_micro_f1", "silhouette_kmeans", "silhouette_truth", "nmi", "ari"), float("nan"))
            record = RunRecord(config=snapshot, seed=cfg.seed, epochs_run=len(losses), losses=losses,
                               val_f1s=val_f1s, wall_seconds=time.perf_counter() - start, **unscored)
            raise DivergedError(f"training diverged at epoch {epoch}: {exc}", record=record) from None
        val_f1s.append(f1)
        # ties on validation F1 go to the lower training loss, so a
        # saturated validation set does not freeze an early model
        if f1 > best_f1 or (f1 == best_f1 and value < best_loss):
            best_f1 = f1
            best_loss = value
            best_epoch = epoch
            best_params = [p.data.copy() for p in params]
            best_outputs = outputs
        if epoch - best_epoch >= cfg.patience:
            break

    for p, saved in zip(params, best_params):
        np.copyto(p.data, saved)
    return losses, val_f1s, best_outputs

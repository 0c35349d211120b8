import base64
import json
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from numpy.testing import assert_allclose

from gcflow import autodiff as ad
from gcflow import graphs
from gcflow.autodiff import Tensor
from gcflow.baselines import EmReference, GcnModel
from gcflow import checkpoint
from gcflow.checkpoint import FORMAT_TAG, load_checkpoint, save_checkpoint
from gcflow.data import SbmConfig, generate_sbm
from gcflow.errors import ConfigError, DivergedError, DomainError, FormatError, SingularMatrixError
from gcflow.evalkit import micro_f1, pca_apply, pca_fit
from gcflow import adjparam, flows, mixture, training
from gcflow.graphs import make_graph
from gcflow.training import (
    FLOW_KINDS,
    MODEL_KINDS,
    AdamState,
    TrainConfig,
    adam_step,
    assemble_model,
    clip_gradients,
    evaluate,
    node_features,
    predictions,
    representation,
    train,
)
import oracles
from oracles import count_factorizations


@pytest.fixture(scope="module")
def sbm():
    return generate_sbm(SbmConfig(seed=0))


# -- optimizer ----------------------------------------------------------


def test_adam_first_step_moves_by_signed_lr():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    p.grad = np.array([0.5, -0.01, 2.0])
    state = AdamState([p], lr=0.1)
    adam_step(state)
    # bias correction cancels on step one, leaving lr * sign(g) up to eps
    assert np.allclose(p.data, [1.0 - 0.1, -2.0 + 0.1, 3.0 - 0.1], atol=1e-6)


def test_adam_zero_gradient_is_a_noop():
    p = Tensor(np.array([1.5, -0.5]), requires_grad=True)
    p.grad = np.zeros(2)
    adam_step(AdamState([p], lr=0.1))
    assert np.array_equal(p.data, [1.5, -0.5])


def test_adam_weight_decay_is_decoupled():
    p = Tensor(np.array([2.0]), requires_grad=True)
    p.grad = np.zeros(1)
    adam_step(AdamState([p], lr=0.1, weight_decay=0.5))
    # zero gradient: only the decay term acts, multiplicatively
    assert np.allclose(p.data, [2.0 * (1.0 - 0.1 * 0.5)], atol=1e-15)


def test_adam_identical_streams_stay_identical():
    rng = np.random.default_rng(0)
    grads = [rng.normal(size=4) for _ in range(5)]
    outs = []
    for _ in range(2):
        p = Tensor(np.ones(4), requires_grad=True)
        state = AdamState([p], lr=0.01, weight_decay=0.1)
        for g in grads:
            p.grad = g.copy()
            adam_step(state)
        outs.append(p.data.tobytes())
    assert outs[0] == outs[1]


def test_adam_handles_scalar_params():
    p = Tensor(0.5, requires_grad=True)
    p.grad = np.asarray(2.0)
    adam_step(AdamState([p], lr=0.1))
    assert abs(p.data - 0.4) < 1e-6


def test_clip_below_threshold_is_identity():
    p = Tensor(np.zeros(3), requires_grad=True)
    p.grad = np.array([1.0, 2.0, 2.0])
    norm = clip_gradients([p], threshold=50.0)
    assert norm == 3.0
    assert np.array_equal(p.grad, [1.0, 2.0, 2.0])


def test_clip_scales_down_to_threshold():
    p = Tensor(np.zeros(2), requires_grad=True)
    q = Tensor(np.zeros(2), requires_grad=True)
    p.grad = np.array([30.0, 0.0])
    q.grad = np.array([0.0, 40.0])
    norm = clip_gradients([p, q], threshold=5.0)
    assert abs(norm - 50.0) < 1e-12
    joint = np.sqrt((p.grad ** 2).sum() + (q.grad ** 2).sum())
    assert joint <= 5.0 + 1e-9
    assert abs(joint - 5.0) < 1e-9


# -- config -------------------------------------------------------------


def test_config_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="kind"):
        TrainConfig(model="transformer")


def test_config_flow_needs_interior_unlabeled_weight():
    with pytest.raises(ConfigError):
        TrainConfig(model="gcflow", unlabeled_weight=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(model="flowgmm", unlabeled_weight=1.0)
    TrainConfig(model="gcn", unlabeled_weight=0.0)  # ignored for the classifier


def test_config_rejects_bad_scheme_and_depths():
    with pytest.raises(ConfigError):
        TrainConfig(adjacency="spectral")
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(num_flows=0)


def test_config_checks_value_types_and_ranges():
    # numpy numbers pass as ints and floats; a bool is refused anywhere but a bool field
    cfg = TrainConfig(epochs=np.int64(3), hidden=np.int32(4), lr=np.float32(0.01))
    assert cfg.epochs == 3 and cfg.resolved_hidden == 4
    for key, value in [("epochs", "abc"), ("epochs", 2.5), ("epochs", True), ("lr", "x"), ("lr", None),
                       ("dropout", "0.1"), ("learn_weights", 1), ("adjacency", 3), ("seed", -1),
                       ("hidden", -3), ("pca_dim", 0), ("patience", 0),
                       ("dropout", 1.0), ("dropout", -0.2), ("dropout", float("nan")),
                       ("weight_decay", -5.0), ("weight_decay", float("nan")), ("lr", float("nan")),
                       ("lr", float("inf")), ("lr", -0.1), ("mean_hi", float("nan")), ("mean_hi", 0.2),
                       ("log_std_init", float("inf")), ("unlabeled_weight", -float("inf"))]:
        with pytest.raises(ConfigError, match=f"config {key} must be"):
            TrainConfig(**{key: value})


def _built_widths_and_dropouts(model):
    """The layer widths and dropout of every network a built model trains."""
    if isinstance(model, GcnModel):
        return [([w.shape for w in model.weights], model.dropout)]
    if isinstance(model, mixture.FlowMixture):
        return [(net.widths, net.dropout) for stack in model.flow.flows for layer in stack.layers
                for net in (layer.s_net, layer.t_net)]
    assert isinstance(model, EmReference)
    return []


def test_config_kind_defaults(sbm):
    dim, k = sbm.dim, sbm.num_classes
    half = dim // 2
    defaults = {"gcn": (128, 0.5), "flowgmm": (64, 0.0), "gcflow": (64, 0.0), "gcflow-p": (64, 0.0),
                "gmm-x": (None, None), "gmm-ax": (None, None)}
    assert sorted(defaults) == sorted(training.KINDS)

    def expected_nets(kind, hidden, dropout):
        if kind == "gcn":
            return [([(dim, hidden), (hidden, k)], dropout)]
        if kind.startswith("gmm"):
            return []
        return [([half, hidden, dim - half], dropout)] * 4  # two stacks of one coupling, an s and a t net each

    for kind, (hidden, dropout) in defaults.items():
        cfg = TrainConfig(model=kind)
        if hidden is not None:
            assert (cfg.resolved_hidden, cfg.resolved_dropout) == (hidden, dropout)
        built = assemble_model(cfg, sbm.graph, dim, k).model
        assert _built_widths_and_dropouts(built) == expected_nets(kind, hidden, dropout), kind
        # a config's own width and dropout replace the kind's
        cfg = TrainConfig(model=kind, hidden=7, dropout=0.1)
        assert (cfg.resolved_hidden, cfg.resolved_dropout) == (7, 0.1)
        built = assemble_model(cfg, sbm.graph, dim, k).model
        assert _built_widths_and_dropouts(built) == expected_nets(kind, 7, 0.1), kind


@pytest.mark.parametrize("num_flows", [1, 3])
def test_parameterized_mixing_holds_zero_logits_per_directed_edge_and_stage(sbm, num_flows):
    cfg = TrainConfig(model="gcflow-p", num_flows=num_flows)
    tm = assemble_model(cfg, sbm.graph, sbm.dim, sbm.num_classes)
    source = tm.model.flow.adjacency
    assert [logits.data.tolist() for logits in source.logits] == [[0.0] * 2 * len(sbm.graph.edges)] * num_flows
    params = tm.model.params()
    assert all(sum(p is logits for p in params) == 1 for logits in source.logits)


def test_readme_model_kinds_names_exactly_the_kinds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Model kinds\n", 1)[1].split("\n## ", 1)[0]
    listed = []
    for line in section.splitlines():
        if line.startswith("- `"):
            listed += re.findall(r"`([^`]+)`", line.partition(":")[0])
    assert sorted(listed) == sorted(MODEL_KINDS)


def test_build_adjacency_rescues_singular_graph():
    g = make_graph(6, [(i, (i + 1) % 6) for i in range(6)])  # even ring: singular
    tm = assemble_model(TrainConfig(model="gcflow"), g, 2, 2)
    assert tm.damping_used == adjparam.DEFAULT_DAMPING
    assert tm.model.flow.adjacency.damping == tm.damping_used
    assert np.isfinite(tm.model.flow.adjacency.log_abs_det)
    # a saved damping is replayed as it is, with no factorization to rescue it
    replayed = assemble_model(TrainConfig(model="gcn"), g, 2, 2, damping_used=0.0)
    assert replayed.damping_used == replayed.model.adjacency.damping == 0.0
    with pytest.raises(SingularMatrixError, match="damping"):
        replayed.model.adjacency.log_abs_det


def test_gcflow_assembly_rescues_an_isolated_edge():
    # the twin pair's equal rows of A + I leave a zero in the eliminated complement
    g = make_graph(5, [(0, 1), (2, 3), (3, 4)])
    tm = assemble_model(TrainConfig(model="gcflow"), g, 2, 2)
    assert tm.damping_used == tm.model.flow.adjacency.damping == adjparam.DEFAULT_DAMPING
    assert np.isfinite(tm.model.flow.adjacency.log_abs_det)


@pytest.mark.parametrize("kind", ["gcn", "gmm-ax"])
def test_fixed_mixing_of_a_singular_graph_is_neither_factored_nor_damped(kind, monkeypatch):
    # only a likelihood inverts its mixing matrix, so the classifier and the
    # pre-mixed EM reference neither read a log|det| nor rescue a singular one
    g = make_graph(6, [(i, (i + 1) % 6) for i in range(6)])  # even ring: singular
    calls = count_factorizations(monkeypatch)
    tm = assemble_model(TrainConfig(model=kind), g, 2, 2)
    assert calls == []
    assert tm.damping_used == tm.model.adjacency.damping == 0.0


# -- training runs ------------------------------------------------------


def test_gcn_masters_the_synthetic_fixture(sbm):
    # dropout off: randomly blanking half of 8 features drowns the signal
    cfg = TrainConfig(model="gcn", epochs=200, dropout=0.0, adjacency="sym", seed=0)
    record = train(cfg, sbm)
    assert record.test_micro_f1 > 0.9
    assert record.epochs_run <= 200
    assert len(record.losses) == record.epochs_run
    assert len(record.val_f1s) == record.epochs_run
    assert record.wall_seconds > 0.0


def test_flow_loss_descends(sbm):
    cfg = TrainConfig(
        model="gcflow", num_flows=2, hidden=16, lr=1e-3,
        epochs=10, patience=10, seed=0,
    )
    record = train(cfg, sbm)
    assert record.epochs_run == 10
    assert record.losses[-1] < record.losses[0]
    assert np.isfinite(record.silhouette_kmeans)


def test_training_is_seed_deterministic(sbm):
    cfg = TrainConfig(model="gcn", epochs=15, seed=3)  # dropout active
    a = train(cfg, sbm)
    b = train(cfg, sbm)
    assert a.losses == b.losses
    assert a.val_f1s == b.val_f1s
    assert a.test_micro_f1 == b.test_micro_f1
    assert a.silhouette_kmeans == b.silhouette_kmeans
    assert a.nmi == b.nmi and a.ari == b.ari


def test_best_validation_params_are_restored(sbm, tmp_path):
    cfg = TrainConfig(model="gcn", epochs=30, seed=1)
    record = train(cfg, sbm, checkpoint_dir=tmp_path)
    tm = load_checkpoint(record.checkpoint_path, sbm.graph)
    pred = predictions(tm, sbm)
    val = sbm.mask_indices("val")
    assert micro_f1(pred[val], sbm.labels[val]) == max(record.val_f1s)


def test_patience_stops_training_early(sbm):
    cfg = TrainConfig(model="gcn", epochs=200, patience=5, seed=0)
    record = train(cfg, sbm)
    assert record.epochs_run < 200
    best_epoch = int(np.argmax(record.val_f1s))
    assert record.epochs_run == best_epoch + 5 + 1


def test_divergence_raises_with_partial_record(sbm):
    cfg = TrainConfig(model="gcflow", hidden=8, lr=1e8, epochs=10, patience=10, seed=0)
    with pytest.raises(DivergedError) as err:
        train(cfg, sbm)
    record = err.value.record
    assert record is not None
    assert record.epochs_run >= 1
    assert len(record.losses) == record.epochs_run


@pytest.mark.parametrize("kind", FLOW_KINDS)
def test_divergence_record_has_one_val_f1_per_loss(sbm, kind):
    cfg = TrainConfig(model=kind, hidden=8, lr=1e8, epochs=10, patience=10, seed=0)
    with pytest.raises(DivergedError) as err:
        train(cfg, sbm)
    record = err.value.record
    assert record.epochs_run >= 1
    assert len(record.losses) == len(record.val_f1s) == record.epochs_run


# -- one forward per epoch: the two-forward loop is the reference ---------


def run_route(monkeypatch, cfg, ds, descend, score):
    """Train with the given epoch loop and evaluate; returns the comparable
    outcome: status, message, losses and val F1s as bytes, metrics minus
    the wall clock, the parameters evaluate saw, and whether train handed
    evaluate the outputs of a forward it already ran."""
    seen = []
    reused = []

    def scoring(tm, dataset, outputs=None):
        seen.extend(p.data.copy() for p in tm.model.params())
        reused.append(outputs is not None)
        return score(tm, dataset) if outputs is None else score(tm, dataset, outputs)

    monkeypatch.setattr(training, "_descend", descend)
    monkeypatch.setattr(training, "evaluate", scoring)
    try:
        record, status = train(cfg, ds), "ok"
    except DivergedError as exc:
        record, status = exc.record, str(exc)
    metrics = record.metrics_dict()
    del metrics["wall_seconds"]
    return {
        "status": status,
        "losses": np.array(record.losses).tobytes(),
        "val_f1s": np.array(record.val_f1s).tobytes(),
        "metrics": json.dumps(metrics, sort_keys=True),
        "params": [p.tobytes() for p in seen],
        "reused": reused,
    }


def both_routes(monkeypatch, cfg, ds):
    reference = run_route(monkeypatch, cfg, ds, oracles.descend_two_forward, oracles.evaluate_two_pass)
    got = run_route(monkeypatch, cfg, ds, ONE_FORWARD_DESCEND, ONE_PASS_EVALUATE)
    return reference, got


ONE_FORWARD_DESCEND = training._descend
ONE_PASS_EVALUATE = training.evaluate

ROUTE_CASES = [dict(model=kind) for kind in MODEL_KINDS] + [
    dict(model="gcflow", adjacency="sym"),
    dict(model="gcflow", dropout=0.1),
    dict(model="gcn", dropout=0.0, adjacency="sym"),
]


@pytest.mark.parametrize("case", ROUTE_CASES, ids=lambda c: "-".join(map(str, c.values())))
def test_one_forward_loop_matches_the_two_forward_reference(sbm, monkeypatch, case):
    # patience 3 of 12 epochs: most cases stop early, so the carried forward
    # of the last epoch run is discarded at the break
    cfg = TrainConfig(hidden=8, epochs=12, patience=3, seed=0, **case)
    reference, got = both_routes(monkeypatch, cfg, sbm)
    # the reference evaluate runs its own forwards; a gradient model's train
    # hands evaluate the best epoch's validation outputs instead
    assert reference.pop("reused") == [False]
    assert got.pop("reused") == [case["model"] not in ("gmm-x", "gmm-ax")]
    assert got == reference
    assert reference["status"] == "ok"


@pytest.mark.parametrize("kind", ["flowgmm", "gcflow", "gcflow-p"])
def test_one_forward_loop_matches_the_reference_on_divergence(sbm, monkeypatch, kind):
    cfg = TrainConfig(model=kind, hidden=8, dropout=0.0, lr=1e8, epochs=10, patience=10, seed=0)
    reference, got = both_routes(monkeypatch, cfg, sbm)
    assert got == reference
    assert reference["status"].startswith("training diverged at epoch")


def fail_logdet(monkeypatch, calls):
    """Make the forward's ``logabsdet_tensor`` raise on the given call numbers."""
    real = graphs.logabsdet_tensor
    count = [0]

    def maybe_singular(*args):
        count[0] += 1
        if count[0] in calls:
            raise SingularMatrixError("forced singular mixing matrix")
        return real(*args)

    monkeypatch.setattr(adjparam, "logabsdet_tensor", maybe_singular)
    return count


def test_a_lasting_singularity_diverges_as_the_reference_does(sbm, monkeypatch):
    cfg = TrainConfig(model="gcflow-p", hidden=8, epochs=6, patience=6, seed=0)
    fail_logdet(monkeypatch, set(range(7, 100)))
    reference = run_route(monkeypatch, cfg, sbm, oracles.descend_two_forward, oracles.evaluate_two_pass)
    fail_logdet(monkeypatch, set(range(7, 100)))
    got = run_route(monkeypatch, cfg, sbm, ONE_FORWARD_DESCEND, ONE_PASS_EVALUATE)
    assert got == reference
    assert reference["status"] == "training diverged at epoch 3: forced singular mixing matrix"


def count_gcflow_forwards(monkeypatch):
    """Calls of the taped forward and of the tape-free ``latents``, in one list."""
    calls = []
    for name in ("forward", "latents"):
        real = getattr(flows.GcFlowModel, name)
        monkeypatch.setattr(flows.GcFlowModel, name,
                            lambda self, *a, real=real, **kw: calls.append(1) or real(self, *a, **kw))
    return calls


def test_gcflow_runs_one_forward_per_epoch_and_none_in_evaluate(sbm, monkeypatch):
    calls = count_gcflow_forwards(monkeypatch)
    at_evaluate = []
    real_evaluate = training.evaluate

    def counted(tm, ds, outputs=None):
        at_evaluate.append(len(calls))
        return real_evaluate(tm, ds, outputs)

    monkeypatch.setattr(training, "evaluate", counted)
    epochs = 7
    train(TrainConfig(model="gcflow", hidden=8, epochs=epochs, patience=epochs, seed=0), sbm)
    # the first loss (which also seeds the means), one carried forward per
    # later epoch, the last predict; evaluate scores a kept one
    assert at_evaluate == [epochs + 1]
    assert len(calls) == epochs + 1


@pytest.mark.parametrize("kind", ["gcflow", "gcflow-p"])
def test_a_failed_carried_forward_ends_the_run_with_no_second_forward(sbm, monkeypatch, kind):
    calls = count_gcflow_forwards(monkeypatch)
    cfg = TrainConfig(model=kind, hidden=8, lr=1e8, epochs=10, patience=10, seed=0)
    with pytest.raises(DivergedError, match=r"^training diverged at epoch 0: exp overflow$") as err:
        train(cfg, sbm)
    # the first loss, which seeds the means, and the carried forward that
    # overflows: no inference forward retries it
    assert len(calls) == 2
    record = err.value.record
    assert record.epochs_run == len(record.losses) == len(record.val_f1s) == 1
    assert np.isnan(record.val_f1s[0])


@pytest.mark.parametrize("case, noisy", [
    (dict(model="gcflow"), False),
    (dict(model="gcflow-p"), False),
    (dict(model="flowgmm", dropout=0.1), True),
    (dict(model="gcflow-p", dropout=0.1), True),
    (dict(model="gcn"), True),
    (dict(model="gcn", dropout=0.0), False),
])
def test_models_report_whether_training_draws_noise(sbm, monkeypatch, case, noisy):
    # the forwards per epoch show it: a loss forward that draws no noise is
    # carried on as the validation forward and the next loss, a noisy one
    # needs its own validation forward
    forwards = []
    for cls, name in ((flows.GcFlowModel, "forward"), (flows.GcFlowModel, "latents"), (GcnModel, "forward")):
        real = getattr(cls, name)
        monkeypatch.setattr(
            cls, name, lambda self, *a, real=real, **kw: forwards.append(1) or real(self, *a, **kw)
        )
    marks = []
    real_zero = ad.zero_grads
    monkeypatch.setattr(ad, "zero_grads", lambda params: marks.append(len(forwards)) or real_zero(params))
    epochs = 5
    train(TrainConfig(hidden=8, epochs=epochs, patience=epochs, seed=0, **case), sbm)
    # epoch 0 builds its loss afresh, so it runs two forwards either way, and
    # a noisy flow's head reads its mean init from a third
    first = 3 if noisy and case["model"] != "gcn" else 2
    assert np.diff(marks).tolist() == [first] + [2 if noisy else 1] * (epochs - 2)


def partly_labelled(ds):
    """The dataset with the labels of a third of its non-training nodes hidden."""
    labels = ds.labels.copy()
    hidden = np.flatnonzero(~ds.train_mask)[::3]
    labels[hidden] = -1
    return replace(ds, labels=labels)


@pytest.mark.parametrize("kind", ["gcflow", "gcn", "gmm-ax"])
def test_evaluate_matches_the_two_pass_reference(sbm, kind, tmp_path):
    record = train(TrainConfig(model=kind, hidden=8, epochs=4, patience=4, seed=1), sbm, checkpoint_dir=tmp_path)
    tm = load_checkpoint(record.checkpoint_path, sbm.graph)
    for ds in (sbm, partly_labelled(sbm)):
        got = evaluate(tm, ds)
        assert json.dumps(got) == json.dumps(oracles.evaluate_two_pass(tm, ds))
    assert got["silhouette_truth"] != record.silhouette_truth  # fewer points scored


def test_test_f1_is_scored_over_the_known_labels_only(sbm, tmp_path):
    record = train(TrainConfig(model="gcflow", hidden=8, epochs=4, patience=4, seed=1), sbm, checkpoint_dir=tmp_path)
    tm = load_checkpoint(record.checkpoint_path, sbm.graph)
    ds = partly_labelled(sbm)
    test = ds.mask_indices("test")
    known = test[ds.labels[test] >= 0]
    assert 0 < known.size < test.size
    assert evaluate(tm, ds)["test_micro_f1"] == micro_f1(predictions(tm, ds)[known], ds.labels[known])


@pytest.mark.parametrize("split, kind", [("val", "gcflow"), ("test", "gmm-x")])
def test_a_split_without_a_known_label_is_refused(sbm, split, kind):
    labels = sbm.labels.copy()
    labels[getattr(sbm, f"{split}_mask")] = -1
    with pytest.raises(ConfigError, match=f"{split} split has no node with a known label"):
        train(TrainConfig(model=kind, hidden=8, epochs=2), replace(sbm, labels=labels))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_a_split_that_cannot_be_scored_fails_before_any_set_up(sbm, monkeypatch, kind):
    factored, epochs = [], []
    real_factor, real_zero = graphs._shifted_log_abs_det, ad.zero_grads
    monkeypatch.setattr(graphs, "_shifted_log_abs_det", lambda *a: factored.append(1) or real_factor(*a))
    monkeypatch.setattr(ad, "zero_grads", lambda params: epochs.append(1) or real_zero(params))
    labels = sbm.labels.copy()
    labels[sbm.test_mask] = -1
    with pytest.raises(ConfigError, match="^dataset's test split has no node with a known label$"):
        train(TrainConfig(model=kind, hidden=8, epochs=200, patience=200), replace(sbm, labels=labels))
    # with both splits unscorable a gradient model names val, the split it reads first
    labels[sbm.val_mask] = -1
    split = "test" if kind in ("gmm-x", "gmm-ax") else "val"
    with pytest.raises(ConfigError, match=f"^dataset's {split} split has no node with a known label$"):
        train(TrainConfig(model=kind, hidden=8, epochs=200, patience=200), replace(sbm, labels=labels))
    assert factored == epochs == []


@pytest.mark.parametrize("kind", FLOW_KINDS + ("gcn",))
@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_the_reused_outputs_belong_to_the_restored_parameters(sbm, tmp_path, kind, dropout):
    cfg = TrainConfig(model=kind, hidden=8, dropout=dropout, epochs=30, patience=3, seed=0)
    record = train(cfg, sbm, checkpoint_dir=tmp_path)
    # stopped by patience, so the best epoch is patience epochs before the last
    assert record.epochs_run < cfg.epochs
    reloaded = evaluate(load_checkpoint(record.checkpoint_path, sbm.graph), sbm)
    metrics = record.metrics_dict()
    assert json.dumps({key: metrics[key] for key in reloaded}) == json.dumps(reloaded)


def perturbed_flow_model(kind, ds, seed=1):
    """A fresh flow model whose parameters are all moved off their initial values."""
    cfg = TrainConfig(model=kind, hidden=8, seed=seed)
    tm = training.assemble_model(cfg, ds.graph, ds.dim, ds.num_classes)
    rng = np.random.default_rng(seed)
    for p in tm.model.params():
        p.data += 0.1 * rng.normal(size=p.data.shape)
    return tm


@pytest.fixture(scope="module")
def sparse_sbm():
    # n = 2100 and about 8.6k edges: one n x n float64 array is 35 MB, the edges are kilobytes
    return generate_sbm(SbmConfig(block_size=700, p_intra=0.01, q_inter=0.001, seed=0))


@pytest.mark.parametrize("kind", ["gcflow-p"])
def test_no_n_by_n_tensor_rides_the_tape(sparse_sbm, kind):
    ds = sparse_sbm
    tm = perturbed_flow_model(kind, ds)
    loss_cfg = mixture.LossConfig(ds.mask_indices("train"), np.flatnonzero(~ds.train_mask))
    loss = tm.model.loss_and_predictions(ds.features, ds.labels, loss_cfg, np.random.default_rng(0))[0]()
    tape = loss._topo()
    assert len(tape) > 100
    assert [t._op for t in tape if t.shape == (ds.n, ds.n)] == []
    loss.backward()
    assert all(np.isfinite(p.grad).all() for p in tm.model.params())


@pytest.mark.parametrize("kind", ["gcflow-p"])
def test_parameterized_inference_runs_in_edge_memory(sparse_sbm, kind):
    ds = sparse_sbm
    tm = perturbed_flow_model(kind, ds)
    tracemalloc.start()
    try:
        pred, z = tm.model.predict_and_represent(ds.features)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pred.shape == (ds.n,) and z.shape == (ds.n, ds.dim)
    assert peak < ds.n * ds.n * 8  # below a single dense n x n float64 matrix


@pytest.mark.parametrize("kind", FLOW_KINDS)
def test_inference_matches_the_taped_route(sbm, kind):
    tm = perturbed_flow_model(kind, sbm)
    taped = tm.model.flow.forward(sbm.features)
    assert taped.z.requires_grad
    assert tm.model.represent(sbm.features).tobytes() == taped.z.data.tobytes()
    want = mixture.posterior_matrix(tm.head, taped.z).argmax(axis=1)
    assert tm.model.predict_and_represent(sbm.features)[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["gcflow-p"])
def test_inference_skips_the_graph_logdet(sbm, kind, monkeypatch):
    calls = []
    real = adjparam.logabsdet_tensor
    monkeypatch.setattr(adjparam, "logabsdet_tensor", lambda *args: calls.append(1) or real(*args))
    tm = perturbed_flow_model(kind, sbm)
    x = sbm.features
    tm.model.predict_and_represent(x)
    tm.model.represent(x)
    result = tm.model.flow.forward(x)
    assert calls == []
    # the first read factors each stage once; a second read is the cached sum
    first = result.graph_logdet
    assert result.graph_logdet is first
    assert len(calls) == tm.model.flow.num_flows
    calls.clear()
    loss_cfg = mixture.LossConfig(sbm.mask_indices("train"), np.flatnonzero(~sbm.train_mask))
    build_loss = tm.model.loss_and_predictions(x, sbm.labels, loss_cfg, np.random.default_rng(0))[0]
    assert calls == []
    build_loss()
    assert len(calls) == tm.model.flow.num_flows


@pytest.mark.parametrize("scheme", ["row", "sym"])
def test_the_fixed_mixing_loss_leaves_out_the_constant_log_det(sbm, scheme, monkeypatch):
    tm = training.assemble_model(TrainConfig(model="gcflow", adjacency=scheme, hidden=8, seed=1),
                                 sbm.graph, sbm.dim, sbm.num_classes)
    flow, head = tm.model.flow, tm.head
    loss_cfg = mixture.LossConfig(sbm.mask_indices("train"), np.flatnonzero(~sbm.train_mask))
    constant = flow.adjacency.log_abs_det

    def losses():
        trained = tm.model.loss_and_predictions(sbm.features, sbm.labels, loss_cfg, np.random.default_rng(0))[0]()
        return trained.item(), mixture.semi_supervised_loss(head, flow.forward(sbm.features), sbm.labels, loss_cfg).item()

    trained, likelihood = losses()
    assert_allclose(likelihood, trained - sbm.dim * flow.num_flows * constant / sbm.n, rtol=1e-12)
    # another last bit of the constant leaves the trained loss's bytes as they were
    monkeypatch.setattr(graphs.NormalizedAdjacency, "log_abs_det", property(lambda adj: constant * (1 + 1e-15)))
    moved_trained, moved_likelihood = losses()
    assert moved_trained == trained
    assert moved_likelihood != likelihood


@pytest.mark.parametrize("kind", FLOW_KINDS)
def test_inference_rejects_non_finite_latents(sbm, kind):
    tm = perturbed_flow_model(kind, sbm)
    tm.model.flow.flows[-1].layers[-1].t_net.biases[-1].data[...] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        tm.model.predict_and_represent(sbm.features)
    with pytest.raises(DomainError, match="non-finite"):
        tm.model.represent(sbm.features)


def test_gmm_kinds_fit_without_epochs(sbm):
    # unsupervised EM happily merges adjacent blobs, so only demand
    # clearly-better-than-chance plus complete metrics
    for kind in ("gmm-x", "gmm-ax"):
        record = train(TrainConfig(model=kind, seed=0), sbm)
        assert record.epochs_run == 0
        assert record.losses == []
        assert record.test_micro_f1 > 0.5
        assert np.isfinite(record.silhouette_truth)


def test_gmm_ax_normalizes_the_adjacency_once(sbm, monkeypatch):
    calls = []
    real = training.normalize_row
    monkeypatch.setattr(training, "normalize_row", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    train(TrainConfig(model="gmm-ax", seed=0), sbm)
    assert len(calls) == 1


@pytest.mark.parametrize("scheme", ["row", "sym"])
def test_gmm_ax_mixes_through_the_csr_like_the_dense_product(sbm, scheme):
    tm = assemble_model(TrainConfig(model="gmm-ax", adjacency=scheme, seed=0), sbm.graph, sbm.dim, sbm.num_classes)
    mixed = oracles.normalized_dense(sbm.graph, scheme, tm.damping_used) @ sbm.features
    dense = EmReference(sbm.num_classes)
    tm.model.fit(sbm.features, sbm.labels, sbm.mask_indices("train"))
    dense.fit(mixed, sbm.labels, sbm.mask_indices("train"))
    # the two products sum each row in a different order, so the mixed
    # features and the EM fit on them agree to rounding, not bit for bit
    assert_allclose(tm.model.represent(sbm.features), mixed, rtol=1e-13, atol=1e-13)
    for name in ("weights", "means", "covs"):
        assert_allclose(getattr(tm.model.gmm, name), getattr(dense.gmm, name), rtol=1e-12, atol=1e-12)
    assert np.array_equal(tm.model.mapping, dense.mapping)
    assert np.array_equal(tm.model.predict_and_represent(sbm.features)[0], dense.predict_and_represent(mixed)[0])


def forbid_densifying(monkeypatch):
    """Make densifying any CSR matrix, the adjacency included, fail."""

    def dense(self, *args, **kwargs):
        raise AssertionError("the replayed adjacency was densified")

    monkeypatch.setattr(scipy.sparse.csr_matrix, "toarray", dense)


def test_gmm_ax_checkpoint_predicts_without_a_dense_matrix(tmp_path, monkeypatch):
    ds = generate_sbm(SbmConfig(block_size=800, seed=0))
    record = train(TrainConfig(model="gmm-ax", seed=0), ds, checkpoint_dir=tmp_path)

    # the dense n x n float64 matrix alone is 46 MB at n = 2400
    forbid_densifying(monkeypatch)
    tracemalloc.start()
    try:
        tm = load_checkpoint(record.checkpoint_path, ds.graph)
        pred = predictions(tm, ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pred.shape == (ds.n,)
    assert peak < 16 * 2**20


def param_values(payload):
    """The parameter block of a checkpoint payload, decoded."""
    return np.frombuffer(base64.b64decode(payload["params"]["float64le"]), "<f8").copy()


def encode(values):
    """A parameter block of ``values``, as ``save_checkpoint`` writes one."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


def with_params(payload, **entries):
    """``payload`` with the given ``params`` entries replaced."""
    return {**payload, "params": {**payload["params"], **entries}}


def test_checkpoint_rejects_non_numeric_values(sbm, tmp_path):
    record = train(TrainConfig(model="gcn", hidden=8, epochs=1, seed=0), sbm, checkpoint_dir=tmp_path)
    payload = json.loads(Path(record.checkpoint_path).read_text())
    bad = tmp_path / "bad.json"
    for key, value in (("dim", "x"), ("params", with_params(payload, float64le=[["a"]])["params"]),
                       ("params", payload["params"]["shapes"]),
                       ("pca", [[0.0]]), ("pca", {"mean": [0.0], "directions": [[1.0]]})):
        bad.write_text(json.dumps({**payload, key: value}))
        with pytest.raises(FormatError, match="malformed checkpoint"):
            load_checkpoint(bad, sbm.graph)


@pytest.mark.parametrize("key, value", [
    ("dim", 8.7), ("classes", 3.5), ("classes", True), ("dim", 0),
    ("damping_used", None), ("damping_used", -1.0), ("damping_used", float("inf")),
    ("damping_used", float("nan")), ("damping_used", False), ("params", "nan"),
])
def test_checkpoint_rejects_header_values_out_of_range(sbm, tmp_path, monkeypatch, key, value):
    # the dataset has 8 features and 3 classes, so truncating 8.7 or 3.5 would load; a null
    # damping_used would rebuild the adjacency as training does, factoring it and maybe re-damping it
    record = train(TrainConfig(model="gcflow", hidden=8, epochs=1, seed=0), sbm, checkpoint_dir=tmp_path)
    payload = json.loads(Path(record.checkpoint_path).read_text())
    if value == "nan":
        values = param_values(payload)
        values[0] = float("nan")
        value = with_params(payload, float64le=encode(values))["params"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**payload, key: value}))
    calls = count_factorizations(monkeypatch)
    with pytest.raises(FormatError, match=f"^{re.escape(str(bad))}: "):
        load_checkpoint(bad, sbm.graph)
    assert calls == []


def corrupt_param_block(payload, how):
    values, shapes = param_values(payload), payload["params"]["shapes"]
    if how == "not-base64":  # a character outside the alphabet, which a lenient decoder would skip
        block = payload["params"]["float64le"]
        return with_params(payload, float64le=block[:8] + "!" + block[8:])
    if how in ("nan", "inf"):
        values[-1] = float(how)
        return with_params(payload, float64le=encode(values))
    if how == "short":
        return with_params(payload, float64le=encode(values[:-1]))
    if how == "long":
        return with_params(payload, float64le=encode(np.append(values, 0.0)))
    if how == "ragged":  # a byte count that is not a multiple of 8
        return with_params(payload, float64le=base64.b64encode(values.tobytes()[:-3]).decode())
    if how == "count":  # one shape fewer, and the block cut to match
        return with_params(payload, shapes=shapes[:-1], float64le=encode(values[:-int(np.prod(shapes[-1]))]))
    # one matrix transposed: the same byte count, another shape
    first = next(i for i, shape in enumerate(shapes) if len(shape) == 2 and shape[0] != shape[1])
    return with_params(payload, shapes=shapes[:first] + [shapes[first][::-1]] + shapes[first + 1:])


@pytest.mark.parametrize("how, match", [
    ("not-base64", "malformed checkpoint"),
    ("short", "parameter block holds"),
    ("long", "parameter block holds"),
    ("ragged", "parameter block holds"),
    ("count", "stores parameter arrays of shapes"),
    ("shape", "stores parameter arrays of shapes"),
    ("nan", "non-finite"),
    ("inf", "non-finite"),
])
def test_checkpoint_rejects_a_parameter_block_that_does_not_fit(sbm, tmp_path, monkeypatch, how, match):
    record = train(TrainConfig(model="gcflow", hidden=8, epochs=1, seed=0), sbm, checkpoint_dir=tmp_path)
    payload = json.loads(Path(record.checkpoint_path).read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt_param_block(payload, how)))
    calls = count_factorizations(monkeypatch)
    with pytest.raises(FormatError, match=f"^{re.escape(str(bad))}: .*{match}"):
        load_checkpoint(bad, sbm.graph)
    assert calls == []


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_checkpoint_round_trips_the_bits_of_every_parameter_value(sbm, kind, tmp_path):
    # a negative zero, two subnormals, values near both ends of the finite range, and 1 + ulp
    edge = np.array([-0.0, 5e-324, -2.5e-320, 1e308, -1e308, np.nextafter(1.0, 2.0)])
    record = train(TrainConfig(model=kind, hidden=8, epochs=1, seed=0), sbm, checkpoint_dir=tmp_path)
    tm = load_checkpoint(record.checkpoint_path, sbm.graph)
    for p in tm.model.params():
        p.data[...] = np.resize(edge, p.data.shape)
    saved = tmp_path / "edge.json"
    save_checkpoint(saved, tm, sbm.graph)
    again = load_checkpoint(saved, sbm.graph)
    assert [p.data.tobytes() for p in again.model.params()] == [p.data.tobytes() for p in tm.model.params()]
    if isinstance(tm.model, EmReference):
        assert again.model.params() == []
        for name in ("weights", "means", "covs"):
            assert getattr(again.model.gmm, name).tobytes() == getattr(tm.model.gmm, name).tobytes()
    else:
        # the flows' zero-dim coupling scales are in the block too
        assert any(p.data.ndim == 0 for p in tm.model.params()) == isinstance(tm.model, mixture.FlowMixture)
    resaved = tmp_path / "resaved.json"
    save_checkpoint(resaved, again, sbm.graph)
    assert resaved.read_bytes() == saved.read_bytes()


def test_an_interrupted_save_leaves_the_previous_checkpoint_whole(sbm, tmp_path, monkeypatch):
    record = train(TrainConfig(model="gcn", hidden=8, epochs=1, seed=0), sbm, checkpoint_dir=tmp_path)
    path = Path(record.checkpoint_path)
    before = path.read_bytes()
    tm = load_checkpoint(path, sbm.graph)

    def cut_short(payload, fh, **kwargs):
        fh.write('{"format": ')
        raise KeyboardInterrupt

    monkeypatch.setattr(checkpoint.json, "dump", cut_short)
    with pytest.raises(KeyboardInterrupt):
        save_checkpoint(path, tm, sbm.graph)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.json"]


@pytest.mark.parametrize("key, value, match", [
    ("means", [[0.0, 1.0]] * 3, r"\(3, 2\)"),
    ("weights", [0.5, 0.5], r"\(2,\)"),
    ("covs", np.eye(8)[None].repeat(2, axis=0).tolist(), r"\(2, 8, 8\)"),
    ("mapping", [0, 7, 1], r"\[0, 7, 1\]"),
    ("mapping", [0, 1], r"\(2,\)"),
    ("mapping", [-1, 0, 1], r"\[-1, 0, 1\]"),
], ids=["means", "weights", "covs", "mapping-class", "mapping-length", "mapping-negative"])
def test_checkpoint_rejects_em_arrays_that_do_not_fit_the_model(sbm, tmp_path, key, value, match):
    record = train(TrainConfig(model="gmm-x", seed=0), sbm, checkpoint_dir=tmp_path)
    payload = json.loads(Path(record.checkpoint_path).read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**payload, "gmm": {**payload["gmm"], key: value}}))
    with pytest.raises(FormatError, match=match):
        load_checkpoint(bad, sbm.graph)


@pytest.mark.parametrize("key, value", [
    ("weights", [2.0, -0.5, -0.5]),
    ("weights", [0.5, 0.3, 0.1]),
    ("weights", [float("nan"), 0.5, 0.5]),
    ("covs", "asymmetric"),
    ("covs", "indefinite"),
    ("covs", "non-finite"),
    ("mapping", [0.0, 1.7, 2.9]),
], ids=["weights-negative", "weights-sum", "weights-nan", "covs-asymmetric", "covs-indefinite",
        "covs-inf", "mapping-float"])
def test_checkpoint_rejects_em_values_that_are_not_a_mixture(sbm, tmp_path, key, value):
    record = train(TrainConfig(model="gmm-x", seed=0), sbm, checkpoint_dir=tmp_path)
    payload = json.loads(Path(record.checkpoint_path).read_text())
    if key == "covs":
        covs = np.array(payload["gmm"]["covs"])
        if value == "asymmetric":
            covs[1, 0, 1] += 1e-3
        elif value == "indefinite":
            covs[2] -= 10.0 * np.eye(covs.shape[1])  # symmetric, a negative eigenvalue
        else:
            covs[0, 3, 3] = np.inf
        value = covs.tolist()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**payload, "gmm": {**payload["gmm"], key: value}}))
    with pytest.raises(FormatError):
        load_checkpoint(bad, sbm.graph)


def test_em_checkpoint_covariances_load_when_symmetric_only_to_rounding(sbm, tmp_path):
    record = train(TrainConfig(model="gmm-x", seed=0), sbm, checkpoint_dir=tmp_path)
    covs = np.array(json.loads(Path(record.checkpoint_path).read_text())["gmm"]["covs"])
    asymmetry = np.abs(covs - covs.transpose(0, 2, 1)).max()
    assert 0.0 < asymmetry < 1e-15  # EM's weighted outer products are not exactly symmetric
    tm = load_checkpoint(record.checkpoint_path, sbm.graph)
    assert evaluate(tm, sbm)["test_micro_f1"] == record.test_micro_f1


@pytest.mark.parametrize("kind", ["gmm-x", "gmm-ax"])
def test_em_fit_refuses_a_class_without_training_nodes(sbm, kind):
    ds = replace(sbm, train_mask=sbm.train_mask & (sbm.labels != 2))
    with pytest.raises(ConfigError, match="class 2 has no training node"):
        train(TrainConfig(model=kind, seed=0), ds)


def test_metrics_schema_is_complete(sbm):
    record = train(TrainConfig(model="gmm-x", seed=0), sbm)
    metrics = record.metrics_dict()
    assert sorted(metrics) == sorted(
        ["config", "seed", "epochs_run", "test_micro_f1", "silhouette_kmeans",
         "silhouette_truth", "nmi", "ari", "wall_seconds"]
    )
    assert metrics["config"]["model"] == "gmm-x"
    assert "damping_used" in metrics["config"]


# -- checkpoints --------------------------------------------------------


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_checkpoint_round_trip_every_kind(sbm, kind, tmp_path):
    cfg = TrainConfig(model=kind, hidden=8, epochs=3, patience=3, seed=2)
    record = train(cfg, sbm, checkpoint_dir=tmp_path)
    tm = load_checkpoint(record.checkpoint_path, sbm.graph)
    metrics = evaluate(tm, sbm)
    assert metrics == {key: getattr(record, key) for key in metrics}
    z = representation(tm, sbm)
    again = load_checkpoint(record.checkpoint_path, sbm.graph)
    assert representation(again, sbm).tobytes() == z.tobytes()
    # same node count, other edges
    other = generate_sbm(SbmConfig(seed=1)).graph
    assert other.n == sbm.n and not np.array_equal(other.edges, sbm.graph.edges)
    with pytest.raises(FormatError, match="graph"):
        load_checkpoint(record.checkpoint_path, other)


def test_checkpoint_of_a_config_with_numpy_scalars_matches_the_plain_one(sbm, tmp_path):
    plain = dict(model="gmm-x", seed=0, epochs=3, lr=0.01, log_std_init=0.0, learn_weights=False)
    scalars = dict(plain, seed=np.int64(0), epochs=np.int32(3), lr=np.float64(0.01), log_std_init=np.float32(0.0))
    paths = []
    for name, values in (("plain", plain), ("numpy", scalars)):
        cfg = TrainConfig(**values)
        assert all(type(getattr(cfg, key)) is type(value) for key, value in plain.items())
        (tmp_path / name).mkdir()
        paths.append(Path(train(cfg, sbm, checkpoint_dir=tmp_path / name).checkpoint_path))
    saved = [json.loads(path.read_text())["config"] for path in paths]
    assert json.dumps(saved[1], sort_keys=True) == json.dumps(saved[0], sort_keys=True)
    assert paths[1].read_bytes() == paths[0].read_bytes()
    assert load_checkpoint(paths[1], sbm.graph).config == saved[0]


def test_checkpoint_round_trip_flow(sbm, tmp_path):
    cfg = TrainConfig(model="gcflow", hidden=8, lr=1e-3, epochs=3, patience=5, seed=2)
    record = train(cfg, sbm, checkpoint_dir=tmp_path)
    tm = load_checkpoint(record.checkpoint_path, sbm.graph)
    z = representation(tm, sbm)
    metrics = evaluate(tm, sbm)
    assert metrics["test_micro_f1"] == record.test_micro_f1
    assert metrics["silhouette_kmeans"] == record.silhouette_kmeans
    again = load_checkpoint(record.checkpoint_path, sbm.graph)
    assert representation(again, sbm).tobytes() == z.tobytes()


@pytest.mark.parametrize("kind", ["gcflow-p"])
def test_checkpoint_round_trip_parameterized_adjacency(sbm, kind, tmp_path):
    cfg = TrainConfig(model=kind, hidden=8, lr=1e-3, epochs=2, patience=5, seed=3)
    record = train(cfg, sbm, checkpoint_dir=tmp_path)
    tm = load_checkpoint(record.checkpoint_path, sbm.graph)
    assert evaluate(tm, sbm)["test_micro_f1"] == record.test_micro_f1


def test_a_reloaded_parameterized_checkpoint_inverts_its_own_forward(sbm, tmp_path):
    record = train(TrainConfig(model="gcflow-p", hidden=8, epochs=8, patience=8, seed=3), sbm,
                   checkpoint_dir=tmp_path)
    flow = load_checkpoint(record.checkpoint_path, sbm.graph).model.flow
    assert not any(np.array_equal(logits.data, np.zeros_like(logits.data)) for logits in flow.adjacency.logits)
    x = sbm.features
    assert np.abs(flow.inverse(flow.forward(x).z).data - x).max() < 1e-8


def test_a_version_5_checkpoint_is_refused_naming_both_tags(sbm, tmp_path):
    # version 5 stored gcflow-p's attention embeddings and the config's embed_dim
    record = train(TrainConfig(model="gcflow-p", hidden=8, epochs=2, patience=2, seed=3), sbm,
                   checkpoint_dir=tmp_path)
    payload = json.loads(Path(record.checkpoint_path).read_text())
    payload["format"] = "gcflow-checkpoint-5"
    payload["config"]["embed_dim"] = 16
    old = tmp_path / "version5.json"
    old.write_text(json.dumps(payload))
    with pytest.raises(FormatError, match=f"'gcflow-checkpoint-5'.*'{FORMAT_TAG}'"):
        load_checkpoint(old, sbm.graph)
    assert FORMAT_TAG == "gcflow-checkpoint-8"


def test_checkpoint_round_trip_gcn_and_gmm(sbm, tmp_path):
    gcn_dir = tmp_path / "gcn"
    gcn_dir.mkdir()
    record = train(TrainConfig(model="gcn", epochs=10, seed=4), sbm, checkpoint_dir=gcn_dir)
    tm = load_checkpoint(record.checkpoint_path, sbm.graph)
    assert evaluate(tm, sbm)["test_micro_f1"] == record.test_micro_f1

    gmm_dir = tmp_path / "gmm"
    gmm_dir.mkdir()
    record = train(TrainConfig(model="gmm-ax", seed=4), sbm, checkpoint_dir=gmm_dir)
    tm = load_checkpoint(record.checkpoint_path, sbm.graph)
    assert np.array_equal(predictions(tm, sbm), predictions(tm, sbm))
    assert evaluate(tm, sbm)["test_micro_f1"] == record.test_micro_f1


def test_checkpoint_preserves_pca_projection(sbm, tmp_path):
    cfg = TrainConfig(model="gcflow", hidden=8, lr=1e-3, epochs=2, patience=5, seed=5, pca_dim=4)
    record = train(cfg, sbm, checkpoint_dir=tmp_path)
    tm = load_checkpoint(record.checkpoint_path, sbm.graph)
    fitted = pca_fit(sbm.features, 4)
    assert all(getattr(tm.pca, key).tobytes() == getattr(fitted, key).tobytes()
               for key in ("mean", "directions", "explained"))
    assert node_features(tm, sbm).shape == (sbm.n, 4)
    assert evaluate(tm, sbm)["test_micro_f1"] == record.test_micro_f1


@pytest.mark.parametrize("kind", ["gcflow", "gmm-x"])
def test_a_projection_as_wide_as_the_features_is_still_applied(sbm, kind, tmp_path):
    # a full-width projection rotates the features; the model must read the
    # rotated ones wherever it reads them, not guess from the column count
    cfg = TrainConfig(model=kind, epochs=60, patience=5, pca_dim=sbm.dim)
    record = train(cfg, sbm, checkpoint_dir=tmp_path)
    tm = load_checkpoint(record.checkpoint_path, sbm.graph)
    assert node_features(tm, sbm).tobytes() == pca_apply(tm.pca, sbm.features).tobytes()
    assert evaluate(tm, sbm)["test_micro_f1"] == record.test_micro_f1
    assert record.test_micro_f1 > 0.5  # chance is 1/3; raw features at evaluation read 0.333 and 0.367


def test_checkpoint_rejects_non_checkpoints(tmp_path, sbm):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"format\": \"something-else\"}")
    with pytest.raises(FormatError):
        load_checkpoint(bad, sbm.graph)
    # version 6 configs carried the damping setting, version 7 stored parameters as nested JSON lists
    for tag in ("gcflow-checkpoint-1", "gcflow-checkpoint-2", "gcflow-checkpoint-3", "gcflow-checkpoint-4",
                "gcflow-checkpoint-6", "gcflow-checkpoint-7"):
        bad.write_text(f"{{\"format\": \"{tag}\"}}")
        with pytest.raises(FormatError, match=f"{tag}.*{FORMAT_TAG}"):
            load_checkpoint(bad, sbm.graph)
    bad.write_text("not json at all")
    with pytest.raises(FormatError):
        load_checkpoint(bad, sbm.graph)


def test_train_creates_a_missing_checkpoint_dir(sbm, tmp_path):
    out = tmp_path / "runs" / "first"
    record = train(TrainConfig(model="gmm-x", seed=0), sbm, checkpoint_dir=out)
    assert Path(record.checkpoint_path) == out / "checkpoint.json"
    tm = load_checkpoint(record.checkpoint_path, sbm.graph)
    assert evaluate(tm, sbm)["test_micro_f1"] == record.test_micro_f1


def test_train_refuses_a_file_as_checkpoint_dir_before_training(sbm, tmp_path, monkeypatch):
    def no_assembly(*args, **kwargs):
        raise AssertionError("set-up went on past the checkpoint directory")

    monkeypatch.setattr(training, "assemble_model", no_assembly)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    for path in (blocker, blocker / "below"):
        with pytest.raises(ConfigError, match="not a directory"):
            train(TrainConfig(model="gcn", epochs=5, seed=0), sbm, checkpoint_dir=path)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_inference_route_never_factors(sbm, kind, tmp_path, monkeypatch):
    calls = count_factorizations(monkeypatch)
    cfg = TrainConfig(model=kind, hidden=8, epochs=3, patience=3, seed=2)
    record = train(cfg, sbm, checkpoint_dir=tmp_path)
    mixing = training.KINDS[kind].mixing
    if mixing is training._invertible_mixing:
        # the nonsingularity read at assembly, one LDLᵀ over the complement of the
        # eliminated independent set; the loss reads the cached value
        rest = sbm.n - int(graphs.independent_set(graphs.normalize_row(sbm.graph).sparse).sum())
        assert 0 < rest < sbm.n
        assert calls == [("ldl", (rest, rest))]
    else:
        # a learned source LU-factors each stage of each epoch's loss forward once; no other source is factored
        stages = cfg.num_flows if mixing is training._attention else 0
        assert calls == [("lu", (sbm.n, sbm.n))] * (stages * record.epochs_run)
    calls.clear()
    tm = load_checkpoint(record.checkpoint_path, sbm.graph)
    representation(tm, sbm)
    predictions(tm, sbm)
    assert evaluate(tm, sbm)["test_micro_f1"] == record.test_micro_f1
    assert calls == []


def test_replayed_adjacency_predicts_at_n_20000_in_sparse_memory(monkeypatch):
    n, draws = 20_000, 120_000
    rng = np.random.default_rng(0)
    pairs = rng.integers(0, n, size=(draws, 2))
    g = make_graph(n, pairs[pairs[:, 0] != pairs[:, 1]].tolist())
    x = rng.normal(size=(n, 4))

    # a dense n x n float64 matrix is 3.2 GB: fail before allocating one
    forbid_densifying(monkeypatch)
    tracemalloc.start()
    try:
        tm = assemble_model(TrainConfig(model="gcflow", hidden=8, seed=0), g, 4, 3, damping_used=0.0)
        pred = tm.model.predict_and_represent(x)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pred.shape == (n,)
    assert peak < 100 * 2**20


def test_an_early_stop_factors_no_loss_it_does_not_train_on(sbm, monkeypatch):
    # the forward carried past the epoch that stops the run never builds its
    # loss, so each stage of each trained epoch's loss is factored once, no more
    calls = count_factorizations(monkeypatch)
    cfg = TrainConfig(model="gcflow-p", epochs=60, patience=5, seed=0)
    record = train(cfg, sbm)
    assert record.epochs_run < cfg.epochs
    assert len(calls) == cfg.num_flows * record.epochs_run

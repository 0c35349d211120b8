"""The inference route, ``GcFlowModel.latents``, in row blocks, against the taped forward."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gcflow import autodiff as ad
from gcflow import flows, mixture
from gcflow.errors import DomainError
from gcflow.graphs import make_graph
from gcflow.training import TrainConfig, assemble_model

B = ad.ROW_BLOCK


def random_graph(rng, n, degree=4):
    """An n-node graph of about ``degree * n / 2`` random edges; at n = 1, none."""
    pairs = rng.integers(0, n, size=(degree * n // 2 + 1, 2))
    return make_graph(n, pairs[pairs[:, 0] != pairs[:, 1]])


def perturbed(cfg, graph, dim, classes, rng):
    """An assembled flow model with every parameter, logits and coupling scales
    included, moved off its initial value."""
    tm = assemble_model(cfg, graph, dim, classes, damping_used=1e-2)
    for p in tm.model.params():
        p.data += 0.3 * rng.normal(size=p.data.shape)
    return tm


SPECS = [("gcflow", "row"), ("gcflow", "sym"), ("gcflow-p", "row"), ("flowgmm", "row")]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    spec=st.sampled_from(SPECS),
    n=st.one_of(st.sampled_from([1, B - 1, B, B + 1, 2 * B + 1]), st.integers(1, 2 * B + 2)),
    dim=st.integers(2, 17),
    hidden=st.sampled_from([3, 16, 64]),
    net_layers=st.integers(1, 3),
    couplings=st.integers(1, 3),
    num_flows=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_inference_equals_the_taped_forward_byte_for_byte(spec, n, dim, hidden, net_layers, couplings,
                                                           num_flows, seed):
    kind, adjacency = spec
    assume(kind != "gcflow-p" or n > 1)  # learned mixing needs an edge
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(model=kind, adjacency=adjacency, hidden=hidden, net_layers=net_layers,
                      couplings=couplings, num_flows=num_flows, seed=seed % 7)
    tm = perturbed(cfg, random_graph(rng, n), dim, 3, rng)
    x = rng.normal(size=(n, dim))
    before = x.copy()
    taped = tm.model.flow.forward(x).z
    want = mixture.posterior_matrix(tm.model.head, taped).argmax(axis=1)
    z = tm.model.represent(x)
    pred, z_too = tm.model.predict_and_represent(x)
    assert z.tobytes() == z_too.tobytes() == taped.data.tobytes()
    assert pred.tobytes() == want.tobytes()
    assert x.tobytes() == before.tobytes()  # blocks are updated in place, never the caller's array


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n=st.integers(1, B), k=st.integers(1, 70), m=st.integers(1, 70), seed=st.integers(0, 2**16))
def test_affine_within_one_block_is_the_whole_product(n, k, m, seed):
    # a one-layer net is x @ w + b; its taped forward takes the product by row blocks
    rng = np.random.default_rng(seed)
    net = flows.Mlp([k, m], rng)
    x, w, b = rng.normal(size=(n, k)), net.weights[0].data, net.biases[0].data
    b += rng.normal(size=(1, m))
    assert net(ad.Tensor(x, requires_grad=True)).data.tobytes() == (x @ w + b).tobytes()


def test_the_inverse_reads_the_forwards_scale_and_shift_across_blocks(monkeypatch):
    rng = np.random.default_rng(7)
    layer = flows.CouplingLayer(6, 16, 3, 1, rng)
    for p in layer.params():
        p.data += 0.3 * rng.normal(size=p.data.shape)
    model = flows.GcFlowModel([flows.FlowStack([layer])])
    seen, real = [], flows.Mlp.apply

    def recorded(self, x, keeps=None):
        out = real(self, x, keeps)
        seen.append((self is layer.s_net, out.tobytes()))
        return out

    monkeypatch.setattr(flows.Mlp, "apply", recorded)
    x = rng.normal(size=(2 * B + 1, 6))
    z = model.forward(x).z.data
    forward = sorted(seen)
    seen.clear()
    back = model.inverse(z)
    # each net once per block of rows in each direction, with the same outputs
    assert len(forward) == 6 and sorted(seen) == forward
    assert np.abs(back - x).max() < 1e-10


def overflowing_model(n):
    """A one-coupling plain flow whose scale exponent is -761 on rows whose
    first feature is -1 and +761 (past exp's float64 range) where it is +1."""
    model = flows.build_gcflow(1, 2, hidden=4, net_layers=1, seed=0)
    layer = model.flows[0].layers[0]
    for p in layer.params():
        p.data[...] = 0.0
    layer.s_net.weights[0].data[...] = 1.0
    layer.s_scale.data[...] = 1000.0
    return model


def test_an_overflow_in_a_later_block_raises():
    x = np.zeros((2 * B + 1, 2))
    x[:, 0] = -1.0
    assert np.all(np.isfinite(overflowing_model(len(x)).latents(x)))
    x[B + 3, 0] = 1.0
    with pytest.raises(DomainError, match=r"^exp overflow$"):
        overflowing_model(len(x)).latents(x)
    with pytest.raises(DomainError, match=r"^exp overflow$"):
        overflowing_model(len(x)).forward(x)


def test_non_finite_latents_in_a_later_block_raise():
    rng = np.random.default_rng(3)
    n = 2 * B + 1
    cfg = TrainConfig(model="flowgmm", hidden=8, num_flows=1, seed=0)
    tm = perturbed(cfg, random_graph(rng, n), 4, 3, rng)
    x = rng.normal(size=(n, 4))
    x[2 * B, 3] = np.nan  # in the one coupling's changed half, so no exp reads it
    with pytest.raises(DomainError, match="non-finite"):
        tm.model.represent(x)
    with pytest.raises(DomainError, match="non-finite"):
        tm.model.predict_and_represent(x)


def test_latents_record_no_tape(monkeypatch):
    rng = np.random.default_rng(4)
    n = B + 5
    tm = perturbed(TrainConfig(model="gcflow-p", hidden=8, seed=0), random_graph(rng, n), 4, 3, rng)
    parents, make_node = [], ad.make_node

    def counted(*args, **kwargs):
        out = make_node(*args, **kwargs)
        parents.append(out._parents)
        return out

    monkeypatch.setattr(ad, "make_node", counted)
    tm.model.represent(rng.normal(size=(n, 4)))
    assert parents and not any(parents)  # the learned mixing ran, and recorded nothing


def test_inference_memory_stays_below_one_whole_array_temporary():
    rng = np.random.default_rng(5)
    n, dim, hidden = 8 * B, 8, 64
    cfg = TrainConfig(model="gcflow", hidden=hidden, couplings=2, seed=0)
    tm = perturbed(cfg, random_graph(rng, n), dim, 3, rng)
    x = rng.normal(size=(n, dim))
    tm.model.represent(x)
    tracemalloc.start()
    try:
        tm.model.represent(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * hidden * 8  # one n x hidden float64 temporary of the taped forward

"""Affine coupling flows composed with graph mixing.

A constituent flow is a stack of affine coupling layers. The full model
interleaves graph mixing with these flows: each stage multiplies the current
features by a normalized adjacency and then applies an invertible coupling
stack. With the identity adjacency the model degenerates to an ordinary
row-wise normalizing flow.

The log-determinant of the whole map splits into a per-node part contributed
by the couplings and a shared part contributed by the adjacency matrices
(the adjacency determinant enters once per feature dimension per stage).
``jacobian_bruteforce`` provides the independent check: it differentiates
the full map numerically and takes the determinant of the resulting
(n*D) x (n*D) Jacobian.

Each coupling net is one tape node whose value is ``Mlp.apply`` taken
``autodiff.ROW_BLOCK`` rows at a time. The tape keeps no hidden activation:
backward recomputes each block's hidden layers and passes the gradient back
through them while they are in cache.

Inference has its own route, ``GcFlowModel.latents``, in plain numpy: no
tape, no log-determinant. Only the mixing reads other rows, so each stage
mixes once and then runs its coupling stack over blocks of
``autodiff.ROW_BLOCK`` rows, each updated in place by ``CouplingLayer.apply``
and ``Mlp.apply``, and no coupling temporary is larger than a block. They
apply the taped forward's operations in the same order, and the taped nets
run ``Mlp.apply`` on the same row blocks, so both routes give the same
latents byte for byte. Run as the taped ops under ``no_grad`` instead, the
route took about 1.6 ms more per ``infer`` request, the cost of a
``Tensor`` per operation per block. ``GcFlowModel.inverse`` mirrors the
route on a plain array: the same row blocks, each coupling undone in place
by ``CouplingLayer.inverse``, last first, then one LU solve per stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import autodiff as ad
from .errors import DomainError, ScaleError, ShapeError
from .graphs import _lu_checked, log_abs_det


def glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Mlp:
    """Dense layers with tanh between them, linear at the output.

    Dropout, when configured, acts on the hidden activations of a forward
    that is handed an rng; a forward without one is inference.
    """

    def __init__(self, widths, rng, dropout=0.0):
        if len(widths) < 2:
            raise ShapeError("an MLP needs at least an input and an output width")
        if not (0.0 <= dropout < 1.0):
            raise DomainError(f"dropout must lie in [0, 1), got {dropout}")
        self.widths = list(widths)
        self.dropout = dropout
        self.weights = [
            ad.Tensor(glorot(rng, w_in, w_out), requires_grad=True)
            for w_in, w_out in zip(widths[:-1], widths[1:])
        ]
        self.biases = [ad.Tensor(np.zeros((1, w)), requires_grad=True) for w in widths[1:]]

    def __call__(self, x, rng=None):
        """The net as one tape node, its value ``apply`` taken
        ``autodiff.ROW_BLOCK`` rows at a time. Dropout, given an rng, draws
        one keep mask over all rows per hidden layer, in layer order. The
        tape keeps the input, the output and those bool masks alone;
        ``_shares`` recomputes the hidden layers in backward."""
        x = ad.as_tensor(x)
        if x.data.ndim != 2 or x.shape[1] != self.widths[0]:
            raise ShapeError(f"MLP of input width {self.widths[0]} given shape {x.shape}")
        n = x.shape[0]
        keeps = None
        if rng is not None and self.dropout > 0.0:
            keeps = [rng.random((n, w)) >= self.dropout for w in self.widths[1:-1]]
        out = np.empty((n, self.widths[-1]))
        for r in range(0, n, ad.ROW_BLOCK):
            rows = slice(r, r + ad.ROW_BLOCK)
            out[rows] = self.apply(x.data[rows], keeps and [keep[rows] for keep in keeps])
        return ad.make_node(out, (x, *self.weights, *self.biases), lambda g: self._shares(x, keeps, g), "mlp")

    def _shares(self, x, keeps, g):
        """The input's, weights' and biases' shares of the output gradient
        ``g``, block by block in row order: recompute the block's hidden
        layers, pass ``g`` back through them, write the block's input share
        and add its weight and bias shares into one buffer each. The same
        arithmetic as a product, bias add, tanh and dropout node per layer,
        so equal to theirs bit for bit up to ``autodiff.ROW_BLOCK`` rows."""
        gx = np.empty_like(x.data) if x.requires_grad else None
        gw, gb = ([np.zeros_like(p.data) for p in params] for params in (self.weights, self.biases))
        for r in range(0, x.shape[0], ad.ROW_BLOCK):
            rows = slice(r, r + ad.ROW_BLOCK)
            hidden = []
            self._hidden(x.data[rows], keeps and [keep[rows] for keep in keeps], hidden)
            inputs = [x.data[rows]] + [y for _, y in hidden]
            grad = g[rows]
            for k in reversed(range(len(self.weights))):
                gw[k] += inputs[k].T @ grad
                gb[k] += grad.sum(axis=0, keepdims=True)
                if k:
                    grad = grad @ self.weights[k].data.T
                    if keeps:
                        grad = grad * (keeps[k - 1][rows] / (1.0 - self.dropout))
                    grad = ad._tanh_vjp(hidden[k - 1][0], grad)
            if gx is not None:
                gx[rows] = grad @ self.weights[0].data.T
        return (gx, *gw, *gb)

    def _hidden(self, x, keeps=None, seen=None):
        """The hidden layers on a plain array: ``x @ w``, then ``+= b``, then
        ``tanh`` in place and, with ``keeps``, dropout's multiply by
        ``keep / (1 - dropout)``. ``seen``, a list, receives each layer's
        tanh output and the next layer's input."""
        for k, (w, b) in enumerate(zip(self.weights[:-1], self.biases[:-1])):
            x = x @ w.data
            x += b.data
            np.tanh(x, out=x)
            y = x if keeps is None else x * (keeps[k] / (1.0 - self.dropout))
            if seen is not None:
                seen.append((x, y))
            x = y
        return x

    def apply(self, x, keeps=None):
        """The net on a plain array, recording no tape: the hidden layers,
        then ``x @ w`` and ``+= b`` for the output layer. With no ``keeps``
        (one dropout keep mask per hidden layer) it is inference."""
        x = self._hidden(x, keeps) @ self.weights[-1].data
        x += self.biases[-1].data
        return x

    def params(self):
        return self.weights + self.biases


class CouplingLayer:
    """One affine coupling: half the coordinates pass through untouched and
    parameterize a scale and shift of the other half.

    ``parity`` 0 passes the first half through, 1 the last half. The scale
    exponent is tanh-bounded and multiplied by a learnable scalar that starts
    at zero, so a fresh layer scales by exactly 1.
    """

    def __init__(self, dim, hidden, net_layers, parity, rng, dropout=0.0):
        if dim < 2:
            raise ShapeError(f"coupling needs at least 2 features, got {dim}")
        self.dim = dim
        d = dim // 2
        self.kept, self.changed = ((slice(0, d), slice(d, dim)) if int(parity) % 2 == 0
                                   else (slice(dim - d, dim), slice(0, dim - d)))
        widths = [d] + [hidden] * (net_layers - 1) + [dim - d]
        self.s_net = Mlp(widths, rng, dropout=dropout)
        self.t_net = Mlp(widths, rng, dropout=dropout)
        self.s_scale = ad.Tensor(0.0, requires_grad=True)

    def forward(self, x, rng=None):
        """Returns the transformed tensor and the per-row log-determinant."""
        if x.shape[1] != self.dim:
            raise ShapeError(f"expected {self.dim} features, got {x.shape[1]}")
        kept = ad.slice_cols(x, self.kept.start, self.kept.stop)
        s = ad.tanh(self.s_net(kept, rng), overwrite=True) * self.s_scale
        return ad.couple(x, s, self.t_net(kept, rng), self.changed), ad.tsum(s, axis=1)

    def apply(self, x):
        """``forward``'s output written into the plain array ``x`` in place,
        with no dropout, no tape and no log-determinant: the same operations
        in the same order, without a ``Tensor`` per operation, so byte for
        byte the same for up to ``autodiff.ROW_BLOCK`` rows."""
        kept = x[:, self.kept].copy()
        s = self.s_net.apply(kept)
        np.tanh(s, out=s)
        s *= self.s_scale.data
        changed = x[:, self.changed] * ad._checked_exp(s)
        changed += self.t_net.apply(kept)
        x[:, self.changed] = changed

    def inverse(self, y):
        """Undo ``apply`` in the plain array ``y`` in place, with s and t taken
        from the kept half by ``apply``'s own operations, so bit for bit."""
        kept = y[:, self.kept].copy()
        s = self.s_net.apply(kept)
        np.tanh(s, out=s)
        s *= self.s_scale.data
        y[:, self.changed] = (y[:, self.changed] - self.t_net.apply(kept)) * ad._checked_exp(-s)

    def params(self):
        return self.s_net.params() + self.t_net.params() + [self.s_scale]


class FlowStack:
    """An ordered stack of coupling layers acting as one invertible map."""

    def __init__(self, layers):
        if layers and any(l.dim != layers[0].dim for l in layers):
            raise ShapeError("all couplings in a stack must share the feature dimension")
        self.layers = list(layers)

    @property
    def dim(self):
        return self.layers[0].dim if self.layers else None

    def forward(self, x, rng=None):
        logdet = ad.Tensor(np.zeros(x.shape[0]))
        for layer in self.layers:
            x, ld = layer.forward(x, rng)
            logdet = logdet + ld
        return x, logdet

    def params(self):
        return [p for layer in self.layers for p in layer.params()]


@dataclass
class ForwardResult:
    """Everything the forward pass produces.

    ``z``: latent features, n x D. ``flow_logdet``: length-n tensor of
    per-node coupling log-determinants. ``stage_logdets``: one function per
    mixing stage, as ``mix`` returned it, that gives the stage's log|det|.
    ``graph_logdet``, read only by a likelihood, calls them on its first read:
    a scalar tensor, D times their sum in stage order (zero for the identity).
    """

    z: ad.Tensor
    flow_logdet: ad.Tensor
    stage_logdets: list

    @cached_property
    def graph_logdet(self) -> ad.Tensor:
        return sum((self.z.shape[1] * stage_logdet() for stage_logdet in self.stage_logdets), ad.Tensor(0.0))


class GcFlowModel:
    """Alternating graph mixing and coupling flows.

    ``adjacency`` is None (identity mixing, the plain-flow special case), a
    NormalizedAdjacency (fixed mixing) or a learned ``adjparam`` source, which
    also has ``params()``. Stage s mixes by ``mix(x, s)``, which returns the
    features and a function for the stage's log|det|, then applies its flow;
    no stage matrix reads the features, so every kind inverts exactly. The
    flows' dropout noise is drawn from ``rng`` alone. No log|det| is computed
    until the result's ``graph_logdet`` is read. Inference runs ``latents``,
    which computes no log-determinant at all and records no tape.
    """

    def __init__(self, flows, adjacency=None):
        dims = {f.dim for f in flows if f.dim is not None}
        if len(dims) > 1:
            raise ShapeError(f"flows disagree on feature dimension: {sorted(dims)}")
        self.flows = list(flows)
        self.adjacency = adjacency
        self.dim = dims.pop() if dims else None

    @property
    def num_flows(self):
        return len(self.flows)

    def _features(self, x):
        """``x`` as a tensor, refused unless it is n x (this model's feature count)."""
        x = ad.as_tensor(x)
        if x.data.ndim != 2 or self.dim not in (None, x.shape[1]):
            raise ShapeError(f"model expects n x {self.dim} features, got shape {x.shape}")
        return x

    def forward(self, x, rng=None) -> ForwardResult:
        x = self._features(x)
        flow_logdet = ad.Tensor(np.zeros(x.shape[0]))
        stage_logdets = []
        for stage, flow in enumerate(self.flows):
            if self.adjacency is not None:
                x, stage_logdet = self.adjacency.mix(x, stage)
                stage_logdets.append(stage_logdet)
            x, ld = flow.forward(x, rng)
            flow_logdet = flow_logdet + ld
        return ForwardResult(z=x, flow_logdet=flow_logdet, stage_logdets=stage_logdets)

    def latents(self, x) -> np.ndarray:
        """``forward(x).z`` with no noise, as a plain array, byte for byte,
        with no tape and no log-determinant. Each stage mixes once, then runs
        its coupling stack over blocks of ``autodiff.ROW_BLOCK`` rows, each
        block updated in place."""
        z = self._features(x).data
        if self.adjacency is None:
            z = z.copy()  # updated in place below; the caller's array stays as it was
        for stage, flow in enumerate(self.flows):
            if self.adjacency is not None:
                with ad.no_grad():
                    z = self.adjacency.mix(z, stage)[0].data
            for r in range(0, z.shape[0], ad.ROW_BLOCK):
                block = z[r:r + ad.ROW_BLOCK]
                for layer in flow.layers:
                    layer.apply(block)
        return z

    def inverse(self, z) -> np.ndarray:
        """Undo forward on a plain array, with no tape: each stage, last first,
        undoes its couplings, last first, on the row blocks ``latents`` uses,
        then solves with its mixing matrix, read back as ``mix`` of the
        identity and factored by one checked LU."""
        x = self._features(z).data.copy()  # inverted in place below
        n = x.shape[0]
        for stage in reversed(range(self.num_flows)):
            for r in range(0, n, ad.ROW_BLOCK):
                block = x[r:r + ad.ROW_BLOCK]
                for layer in reversed(self.flows[stage].layers):
                    layer.inverse(block)
            if self.adjacency is not None:
                with ad.no_grad():
                    factors = _lu_checked(self.adjacency.mix(np.eye(n), stage)[0].data)[0]
                x = scipy.linalg.lu_solve(factors, x, check_finite=False)
        return x

    def params(self):
        out = [p for flow in self.flows for p in flow.params()]
        if self.adjacency is not None and hasattr(self.adjacency, "params"):
            out += self.adjacency.params()
        return out


def build_gcflow(num_flows, dim, hidden, net_layers, couplings_per_flow=1, adjacency=None, seed=0, dropout=0.0):
    """Construct a model with a globally alternating coupling parity."""
    rng = np.random.default_rng(seed)
    flows = []
    counter = 0
    for _ in range(num_flows):
        layers = []
        for _ in range(couplings_per_flow):
            layers.append(
                CouplingLayer(dim, hidden, net_layers, parity=counter % 2, rng=rng, dropout=dropout)
            )
            counter += 1
        flows.append(FlowStack(layers))
    return GcFlowModel(flows, adjacency=adjacency)


def jacobian_bruteforce(fn, x0, h=1e-6):
    """log|det| of the Jacobian of fn at x0 by central finite differences.

    ``fn`` maps an n x D array to an n x D array. The Jacobian is built one
    input coordinate at a time, so this is only for small problems; inputs
    with more than 64 total entries are refused.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    size = x0.size
    if size > 64:
        raise ScaleError(f"brute-force Jacobian limited to 64 entries, got {size}")

    def evaluate(flat):
        out = fn(flat.reshape(x0.shape))
        if isinstance(out, ad.Tensor):
            out = out.data
        return np.asarray(out, dtype=np.float64).reshape(-1)

    jac = np.zeros((size, size))
    flat0 = x0.reshape(-1)
    for i in range(size):
        up = flat0.copy()
        up[i] += h
        down = flat0.copy()
        down[i] -= h
        jac[:, i] = (evaluate(up) - evaluate(down)) / (2.0 * h)
    return log_abs_det(jac)

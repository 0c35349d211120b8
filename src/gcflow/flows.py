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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import autodiff as ad
from .errors import ScaleError, ShapeError
from .graphs import NormalizedAdjacency, _lu_checked, log_abs_det


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
            raise ShapeError(f"dropout must lie in [0, 1), got {dropout}")
        self.widths = list(widths)
        self.dropout = dropout
        self.weights = [
            ad.Tensor(glorot(rng, w_in, w_out), requires_grad=True)
            for w_in, w_out in zip(widths[:-1], widths[1:])
        ]
        self.biases = [ad.Tensor(np.zeros((1, w)), requires_grad=True) for w in widths[1:]]

    def __call__(self, x, rng=None):
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = ad.affine(x, w, b)
            if k < last:
                x = ad.dropout(ad.tanh(x), self.dropout, rng)
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
        self.d = dim // 2
        self.parity = int(parity) % 2
        widths = [self.d] + [hidden] * (net_layers - 1) + [dim - self.d]
        self.s_net = Mlp(widths, rng, dropout=dropout)
        self.t_net = Mlp(widths, rng, dropout=dropout)
        self.s_scale = ad.Tensor(0.0, requires_grad=True)

    def _split(self, x):
        if x.shape[1] != self.dim:
            raise ShapeError(f"expected {self.dim} features, got {x.shape[1]}")
        if self.parity == 0:
            return ad.slice_cols(x, 0, self.d), ad.slice_cols(x, self.d, self.dim)
        return ad.slice_cols(x, self.dim - self.d, self.dim), ad.slice_cols(x, 0, self.dim - self.d)

    def _join(self, kept, changed):
        if self.parity == 0:
            return ad.concat_cols([kept, changed])
        return ad.concat_cols([changed, kept])

    def _scale_shift(self, kept, rng=None):
        s = ad.tanh(self.s_net(kept, rng)) * self.s_scale
        return s, self.t_net(kept, rng)

    def forward(self, x, rng=None):
        """Returns the transformed tensor and the per-row log-determinant."""
        kept, changed = self._split(x)
        s, t = self._scale_shift(kept, rng)
        return self._join(kept, changed * ad.exp(s) + t), ad.tsum(s, axis=1)

    def inverse(self, y):
        kept, changed = self._split(y)
        s, t = self._scale_shift(kept)
        return self._join(kept, (changed - t) * ad.exp(-s))

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

    def inverse(self, y):
        for layer in reversed(self.layers):
            y = layer.inverse(y)
        return y

    def params(self):
        return [p for layer in self.layers for p in layer.params()]


@dataclass
class ForwardResult:
    """Everything the forward pass produces.

    ``z``: latent features, n x D. ``flow_logdet``: length-n tensor of
    per-node coupling log-determinants. ``graph_logdet``: scalar tensor,
    D times the summed stage log-determinants that ``mix`` returned (zero
    for the identity), or None when the forward was asked to skip them
    (``logdet=False``).
    """

    z: ad.Tensor
    flow_logdet: ad.Tensor
    graph_logdet: ad.Tensor | None


class GcFlowModel:
    """Alternating graph mixing and coupling flows.

    ``adjacency`` is None (identity mixing, the plain-flow special case), a
    NormalizedAdjacency (fixed mixing) or a learned ``adjparam`` source, which
    also has ``params()``. Each stage mixes by ``mix(x, rng, logdet)`` (the
    features and the stage's log|det|, None unless ``logdet``), then applies
    its flow. Noise is drawn from ``rng`` alone: a forward without one is inference.

    ``forward(..., logdet=False)`` skips the adjacency log-determinants,
    which for a learned source cost one dense LU per stage. Only a
    likelihood needs them; latents and class posteriors do not.
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

    def forward(self, x, rng=None, logdet=True) -> ForwardResult:
        x = ad.as_tensor(x)
        n, dim = x.shape
        if self.dim is not None and dim != self.dim:
            raise ShapeError(f"model expects {self.dim} features, got {dim}")
        flow_logdet = ad.Tensor(np.zeros(n))
        graph_logdet = ad.Tensor(0.0) if logdet else None
        for flow in self.flows:
            if self.adjacency is not None:
                x, stage_logdet = self.adjacency.mix(x, rng=rng, logdet=logdet)
                if logdet:
                    graph_logdet = graph_logdet + dim * stage_logdet
            x, ld = flow.forward(x, rng)
            flow_logdet = flow_logdet + ld
        return ForwardResult(z=x, flow_logdet=flow_logdet, graph_logdet=graph_logdet)

    def inverse(self, z):
        """Undo forward for identity or fixed mixing; a learned source's stage
        matrices depend on stage inputs ``z`` does not give back (``ShapeError``).
        One checked LU of the fixed matrix serves every stage's solve."""
        if self.adjacency is None:
            factors = None
        elif isinstance(self.adjacency, NormalizedAdjacency):
            factors = _lu_checked(self.adjacency.sparse.toarray())[0]
        else:
            raise ShapeError("input-dependent adjacency: the stage matrices cannot be recomputed from z")
        x = ad.as_tensor(z)
        for flow in reversed(self.flows):
            x = flow.inverse(x)
            if factors is not None:
                x = ad.Tensor(scipy.linalg.lu_solve(factors, x.data, check_finite=False))
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

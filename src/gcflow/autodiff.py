"""Dense float64 tensors with reverse-mode automatic differentiation.

An operation computes its value and hands ``make_node`` its inputs with one
vector-Jacobian function per input: the output's gradient in, that input's
share of the gradient, in the input's shape, out. The recorded graph is the
tape. ``make_node`` alone turns these into a backward step: it calls only
the functions of inputs that need grad, accumulates what they return, and
refers to the output only weakly, so a tape has no reference cycles and is
freed as soon as its last reference is dropped, not whenever the cyclic
garbage collector next runs. ``Tensor.backward`` replays the tape in reverse
topological order, accumulating gradients additively into every tensor built
with ``requires_grad=True``. Only first-order gradients of a scalar output
are supported, which is all the training loops here need.

All storage is float64. Gradient buffers are allocated lazily: a tensor
holds none until a backward pass first accumulates into it, and reading
``.grad`` before that returns (and keeps) zeros. A vector-Jacobian function
returns either a new array or the output gradient itself or a view of it,
never an array that something else keeps. So the first gradient to reach a
tensor becomes its buffer without a copy when it is a new float64 array of
the tensor's shape; the output gradient, a view or broadcast of any array,
and a numpy scalar are copied, since a later in-place update of the buffer
must not reach another tensor's gradient. Gradients of parameters
accumulate across backward calls until ``zero_grad`` (or ``zero_grads``)
resets them; intermediate nodes drop their buffers at the start of each
backward pass.

Inside ``with no_grad():`` operations compute their values only: results
record no parents and no backward step, so nothing is kept for a
backward pass that will not come. Inference uses it.
"""

from __future__ import annotations

import contextlib
import contextvars
import weakref

import numpy as np
import scipy.sparse

from .errors import DomainError, ShapeError

LRELU_SLOPE = 0.2

# False inside ``no_grad``; a context variable, so threads and tasks each see their own
_recording = contextvars.ContextVar("gcflow_autodiff_recording", default=True)


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    g = grad
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g if g.shape == shape else g.reshape(shape)


class Tensor:
    """A dense float64 array plus its gradient slot and tape linkage."""

    __slots__ = ("data", "_grad", "requires_grad", "_backward", "_parents", "_op", "__weakref__")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self._grad = None  # no buffer until a gradient arrives
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents = ()
        self._op = "leaf"

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    @property
    def grad(self):
        """The accumulated gradient; zeros, allocated now, if none has arrived."""
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = value

    def accumulate(self, g, owned=False):
        """Add ``g`` (broadcastable to this shape) to the gradient.

        The first contribution becomes the buffer instead of being added to
        zeros. ``owned`` says that ``g`` is a new float64 array of this shape
        that nothing else references, and it is then kept as it is; anything
        else is copied, so later in-place updates of the buffer cannot reach
        the array ``g`` came from.
        """
        if self._grad is None:
            if owned:
                self._grad = g
                return
            if np.shape(g) != self.data.shape:
                g = np.broadcast_to(g, self.data.shape)
            self._grad = np.array(g, dtype=np.float64)
        else:
            self._grad += g

    def zero_grad(self):
        self._grad = None

    # -- tape ----------------------------------------------------------

    def _topo(self):
        order, visited, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return order

    def backward(self):
        """Populate gradients of every requires-grad tensor reachable from here.

        Only a scalar output may start a backward pass. Gradients of leaf
        tensors accumulate additively across calls; intermediates drop their
        buffers each call, so repeated backward passes double leaf gradients
        rather than compounding them through the interior of the graph. A
        buffer is allocated only when the first gradient reaches a tensor, so
        tensors that receive none cost nothing. A result computed under
        ``no_grad`` has no tape behind it and passes nothing back.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar output, got shape {self.shape}")
        order = self._topo()
        for node in order:
            if node._parents:
                node._grad = None
        self.accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None:
                node._backward()

    # -- operator sugar ------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@contextlib.contextmanager
def no_grad():
    """Compute values without recording a tape, restoring the previous mode on exit."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def make_node(data, parents, vjps, op="custom") -> Tensor:
    """Create an op-result tensor from its value, its parents and one
    vector-Jacobian function per parent; recorded on the tape only when a
    parent needs grad and no ``no_grad`` block is active. A share that owns
    its memory and is not the output gradient is handed over, not copied."""
    out = Tensor(data)
    if _recording.get() and any(p.requires_grad for p in parents):
        parents = tuple(parents)
        out.requires_grad = True
        out._parents = parents
        out._op = op
        ref = weakref.ref(out)

        def backward():
            g = ref().grad
            for parent, vjp in zip(parents, vjps):
                if parent.requires_grad:
                    share = vjp(g)
                    parent.accumulate(share, owned=type(share) is np.ndarray and share.base is None
                                      and share is not g and share.dtype == np.float64
                                      and share.shape == parent.data.shape)

        out._backward = backward
    return out


def _scatter_add(shape, index, g):
    """Zeros of ``shape`` with ``g`` added at ``index``, a tuple of slices or
    index arrays; entries the arrays repeat add up, in index order, as
    ``np.add.at`` would add them. Index arrays go through one ``np.bincount``
    over flat positions; slices repeat nothing and are added in place."""
    if all(isinstance(i, slice) for i in index):
        full = np.zeros(shape)
        full[index] += g
        return full
    size = int(np.prod(shape))
    flat = np.arange(size).reshape(shape)[index]
    return np.bincount(flat.reshape(-1), weights=np.reshape(g, -1), minlength=size
                       ).astype(np.float64, copy=False).reshape(shape)


# -- binary elementwise (broadcasting) ---------------------------------


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return make_node(a.data + b.data, (a, b), (lambda g: _unbroadcast(g, a.shape),
                                               lambda g: _unbroadcast(g, b.shape)), "add")


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return make_node(a.data - b.data, (a, b), (lambda g: _unbroadcast(g, a.shape),
                                               lambda g: -_unbroadcast(g, b.shape)), "sub")


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return make_node(a.data * b.data, (a, b), (lambda g: _unbroadcast(g * b.data, a.shape),
                                               lambda g: _unbroadcast(g * a.data, b.shape)), "mul")


def div(a, b):
    """Elementwise quotient; the caller guarantees a nonzero denominator."""
    a, b = as_tensor(a), as_tensor(b)
    return make_node(a.data / b.data, (a, b), (
        lambda g: _unbroadcast(g / b.data, a.shape),
        lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
    ), "div")


# -- matrix products ---------------------------------------------------


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    return make_node(a.data @ b.data, (a, b), (lambda g: g @ b.data.T, lambda g: a.data.T @ g), "matmul")


def affine(x, w, b):
    """``x @ w + b`` as one node, the bias broadcast over the rows: one
    product and an in-place add, where ``matmul`` then ``add`` make two
    nodes and two n x k arrays."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"affine: incompatible shapes {x.shape} @ {w.shape}")
    if b.shape not in ((w.shape[1],), (1, w.shape[1])):
        raise ShapeError(f"affine: bias of shape {b.shape} for {w.shape[1]} outputs")
    out = x.data @ w.data
    out += b.data
    return make_node(out, (x, w, b), (lambda g: g @ w.data.T, lambda g: x.data.T @ g,
                                      lambda g: _unbroadcast(g, b.shape)), "affine")


def sparse_matmul(pattern, values, x):
    """``A @ x``, where A has the CSR structure of ``pattern`` (whose own
    stored entries are ignored) and the stored entries ``values``. For the
    output gradient G, entry (i, j) gets row i of G · row j of ``x``, and
    ``x`` gets Aᵀ G."""
    values, x = as_tensor(values), as_tensor(x)
    if values.shape != (pattern.nnz,) or pattern.shape[1] != x.shape[0]:
        raise ShapeError(f"sparse_matmul: {pattern.shape} matrix of {pattern.nnz} entries given "
                         f"{values.shape} values, times {x.shape} features")
    a = scipy.sparse.csr_matrix((values.data, pattern.indices, pattern.indptr), shape=pattern.shape)
    return make_node(a @ x.data, (values, x), (
        lambda g: np.einsum("ij,ij->i", g[a.tocoo().row], x.data[a.indices]),
        lambda g: a.T.tocsr() @ g,
    ), "sparse_matmul")


# -- elementwise unary -------------------------------------------------


def _unary(a, value, local_grad, op):
    """An elementwise op whose derivative is ``local_grad(value)``."""
    return make_node(value, (a,), (lambda g: local_grad(value) * g,), op)


def exp(a):
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        value = np.exp(a.data)
    if not np.all(np.isfinite(value)):
        raise DomainError("exp overflow")
    return _unary(a, value, lambda y: y, "exp")


def log(a):
    a = as_tensor(a)
    if np.any(a.data <= 0.0):
        raise DomainError("log of non-positive value")
    return _unary(a, np.log(a.data), lambda y: 1.0 / a.data, "log")


def _tanh_vjp(y, g):
    """(1 - y*y) * g, the same arithmetic in the same order, in one buffer."""
    t = np.multiply(y, y, out=np.empty_like(y))
    np.subtract(1.0, t, out=t)
    t *= g
    return t


def tanh(a):
    a = as_tensor(a)
    value = np.tanh(a.data)
    return make_node(value, (a,), (lambda g: _tanh_vjp(value, g),), "tanh")


def sigmoid(a):
    a = as_tensor(a)
    # exp overflows to inf below about -709, and 1 / inf is the 0 wanted there
    with np.errstate(over="ignore"):
        value = 1.0 / (1.0 + np.exp(-a.data))
    return _unary(a, value, lambda y: y * (1.0 - y), "sigmoid")


def relu(a):
    a = as_tensor(a)
    return _unary(a, np.maximum(a.data, 0.0), lambda y: (a.data > 0.0).astype(np.float64), "relu")


def lrelu(a):
    a = as_tensor(a)
    value = np.where(a.data > 0.0, a.data, LRELU_SLOPE * a.data)
    return _unary(a, value, lambda y: np.where(a.data > 0.0, 1.0, LRELU_SLOPE), "lrelu")


def clamp(a, lo, hi):
    """Clip to [lo, hi]; gradient passes only where the input is strictly interior."""
    a = as_tensor(a)
    value = np.clip(a.data, lo, hi)
    mask = (a.data > lo) & (a.data < hi)
    return _unary(a, value, lambda y: mask.astype(np.float64), "clamp")


def dropout(a, rate, rng=None):
    """Inverted dropout: keep entries where ``rng.random`` draws >= ``rate``, scaled
    by 1/(1 - rate). Without an rng, or at rate 0, ``a`` itself comes back."""
    if rng is None or rate == 0.0:
        return a
    keep = rng.random(a.shape) >= rate
    return mul(a, Tensor(keep / (1.0 - rate)))


# -- softmax family ----------------------------------------------------


def row_softmax(a):
    """Row-wise softmax of a matrix, stabilized by row-max subtraction."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"row_softmax expects a matrix, got shape {a.shape}")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    value = e / e.sum(axis=1, keepdims=True)
    return make_node(value, (a,), (lambda g: value * (g - (g * value).sum(axis=1, keepdims=True)),),
                     "row_softmax")


def logsumexp_rows(a):
    """log(sum(exp(row))) for each row of a matrix, returned as a vector."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"logsumexp_rows expects a matrix, got shape {a.shape}")
    m = a.data.max(axis=1, keepdims=True)
    value = (m + np.log(np.exp(a.data - m).sum(axis=1, keepdims=True))).reshape(-1)
    return make_node(value, (a,), (lambda g: np.exp(a.data - value[:, None]) * g[:, None],),
                     "logsumexp_rows")


# -- reductions and reshapes -------------------------------------------


def tsum(a, axis=None):
    a = as_tensor(a)
    if axis is not None and not (0 <= axis < a.data.ndim):
        raise ShapeError(f"sum axis {axis} invalid for shape {a.shape}")
    value = a.data.sum() if axis is None else a.data.sum(axis=axis)
    return make_node(value, (a,), (lambda g: g if axis is None else np.expand_dims(g, axis),), "sum")


def reshape(a, shape):
    a = as_tensor(a)
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")
    return make_node(a.data.reshape(shape), (a,), (lambda g: g.reshape(a.shape),), "reshape")


def slice_cols(a, j0, j1):
    a = as_tensor(a)
    if a.data.ndim != 2 or not (0 <= j0 <= j1 <= a.shape[1]):
        raise ShapeError(f"column slice [{j0}:{j1}] invalid for shape {a.shape}")
    return make_node(a.data[:, j0:j1].copy(), (a,),
                     (lambda g: _scatter_add(a.shape, (slice(None), slice(j0, j1)), g),), "slice_cols")


def concat_cols(parts):
    parts = [as_tensor(p) for p in parts]
    if not parts or any(p.data.ndim != 2 for p in parts):
        raise ShapeError("concat_cols expects a non-empty list of matrices")
    rows = parts[0].shape[0]
    if any(p.shape[0] != rows for p in parts):
        raise ShapeError("concat_cols: row counts differ")
    offsets = np.concatenate([[0], np.cumsum([p.shape[1] for p in parts])])
    vjps = [lambda g, j0=j0, j1=j1: g[:, j0:j1] for j0, j1 in zip(offsets[:-1], offsets[1:])]
    return make_node(np.concatenate([p.data for p in parts], axis=1), parts, vjps, "concat_cols")


# -- indexed access ----------------------------------------------------


def gather_rows(a, indices):
    """Rows of a matrix, or entries of a vector, at the given indices."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    if a.data.ndim not in (1, 2) or (idx.size and (idx.min() < 0 or idx.max() >= a.shape[0])):
        raise ShapeError(f"gather_rows: indices out of range for shape {a.shape}")
    return make_node(a.data[idx], (a,), (lambda g: _scatter_add(a.shape, (idx,), g),), "gather_rows")


def take_per_row(a, cols):
    """Pick entry ``a[i, cols[i]]`` from each row, as a vector."""
    a = as_tensor(a)
    cols = np.asarray(cols, dtype=np.intp)
    if a.data.ndim != 2 or cols.shape != (a.shape[0],):
        raise ShapeError(f"take_per_row: need one column index per row of {a.shape}")
    if cols.size and (cols.min() < 0 or cols.max() >= a.shape[1]):
        raise ShapeError("take_per_row: column index out of range")
    rows = np.arange(a.shape[0])
    return make_node(a.data[rows, cols], (a,), (lambda g: _scatter_add(a.shape, (rows, cols), g),),
                     "take_per_row")


# -- gradient utilities ------------------------------------------------


def zero_grads(params):
    for p in params:
        p.zero_grad()


def grad_check(f, params, h=1e-5):
    """Max relative error between analytic and central finite-difference gradients.

    ``f`` is a zero-argument callable evaluating a scalar Tensor from the
    current values of ``params``. The relative error per coordinate is
    |analytic - central| / max(1, |central|); the max over all coordinates
    of all params is returned.
    """
    params = list(params)
    zero_grads(params)
    out = f()
    if out.data.size != 1:
        raise ShapeError("grad_check requires a scalar-valued function")
    out.backward()
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, g in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            fp = f().item()
            flat[i] = saved - h
            fm = f().item()
            flat[i] = saved
            central = (fp - fm) / (2.0 * h)
            err = abs(gflat[i] - central) / max(1.0, abs(central))
            worst = max(worst, err)
    return worst

"""Dense float64 tensors with reverse-mode automatic differentiation.

An operation computes its value and hands ``make_node`` its inputs with one
vector-Jacobian function per input: the output's gradient in, that input's
share of the gradient, in the input's shape, out. An op whose shares come
from one computation hands one function instead, which returns every
input's share at once. The recorded graph is the tape. ``make_node`` alone
turns these into a backward step: it calls only the functions of inputs
that need grad, accumulates what they return, and
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
resets them; an intermediate node drops its buffer as soon as its own
backward step has passed the gradient on to its inputs, so a spent tape
holds no gradients.

Inside ``with no_grad():`` operations compute their values only: results
record no parents and no backward step, so nothing is kept for a
backward pass that will not come. Inference mixes under it.
"""

from __future__ import annotations

import contextlib
import contextvars
import weakref

import numpy as np
import scipy.sparse

from .errors import DomainError, ShapeError

# False inside ``no_grad``; a context variable, so threads and tasks each see their own
_recording = contextvars.ContextVar("gcflow_autodiff_recording", default=True)

# rows per block of a coupling net's taped forward and backward (``flows.Mlp``)
# and of the tape-free inference route (``flows.GcFlowModel.latents``): a
# 512 x 64 float64 block is 256 KiB
ROW_BLOCK = 512


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
        tensors accumulate additively across calls. An intermediate drops its
        buffer once its own backward step has run, when no later step reads
        it, so repeated backward passes double leaf gradients rather than
        compounding them through the interior of the graph. A buffer is
        allocated only when the first gradient reaches a tensor, so tensors
        that receive none cost nothing. A result computed under ``no_grad``
        has no tape behind it and passes nothing back.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar output, got shape {self.shape}")
        order = self._topo()
        # a pass that raised midway left partial buffers behind
        for node in order:
            if node._parents:
                node._grad = None
        self.accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None:
                node._backward()
                node._grad = None

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
    vector-Jacobian function per parent, or one function that returns every
    parent's share at once (None for a parent that needs no grad); recorded
    on the tape only when a parent needs grad and no ``no_grad`` block is
    active. A share that owns its memory and is not the output gradient is
    handed over, not copied."""
    out = Tensor(data)
    if _recording.get() and any(p.requires_grad for p in parents):
        parents = tuple(parents)
        out.requires_grad = True
        out._parents = parents
        out._op = op
        ref = weakref.ref(out)

        def backward():
            g = ref().grad
            shares = vjps(g) if callable(vjps) else (vjp(g) if parent.requires_grad else None
                                                     for parent, vjp in zip(parents, vjps))
            for parent, share in zip(parents, shares):
                if parent.requires_grad:
                    parent.accumulate(share, owned=type(share) is np.ndarray and share.base is None
                                      and share is not g and share.dtype == np.float64
                                      and share.shape == parent.data.shape)

        out._backward = backward
    return out


def _scatter_add(shape, index, g):
    """Zeros of ``shape`` with ``g`` added at ``index``, a tuple of index
    arrays; entries they repeat add up, in index order, as ``np.add.at``
    would add them, through one ``np.bincount`` over flat positions."""
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


def _checked_exp(values):
    """``np.exp(values)``, refusing a result that overflows."""
    with np.errstate(over="ignore"):
        value = np.exp(values)
    if not np.all(np.isfinite(value)):
        raise DomainError("exp overflow")
    return value


def exp(a):
    a = as_tensor(a)
    return _unary(a, _checked_exp(a.data), lambda y: y, "exp")


def _tanh_vjp(y, g):
    """(1 - y*y) * g, the same arithmetic in the same order, in one buffer."""
    t = np.multiply(y, y, out=np.empty_like(y))
    np.subtract(1.0, t, out=t)
    t *= g
    return t


def tanh(a, overwrite=False):
    """Elementwise tanh. With ``overwrite`` the result is written into
    ``a``'s array, for an ``a`` whose value no backward step reads and no
    caller keeps, such as a coupling net's output: the tape then holds one
    array where it would hold two."""
    a = as_tensor(a)
    value = np.tanh(a.data, out=a.data if overwrite else None)
    return make_node(value, (a,), (lambda g: _tanh_vjp(value, g),), "tanh")


def relu(a):
    a = as_tensor(a)
    return _unary(a, np.maximum(a.data, 0.0), lambda y: (a.data > 0.0).astype(np.float64), "relu")


def dropout(a, rate, rng=None):
    """Inverted dropout: keep entries where ``rng.random`` draws >= ``rate``, scaled
    by 1/(1 - rate). Without an rng, or at rate 0, ``a`` itself comes back."""
    if rng is None or rate == 0.0:
        return a
    keep = rng.random(a.shape) >= rate
    return mul(a, Tensor(keep / (1.0 - rate)))


# -- reductions and reshapes -------------------------------------------


def tsum(a, axis=None):
    a = as_tensor(a)
    if axis is not None and not (0 <= axis < a.data.ndim):
        raise ShapeError(f"sum axis {axis} invalid for shape {a.shape}")
    value = a.data.sum() if axis is None else a.data.sum(axis=axis)
    return make_node(value, (a,), (lambda g: g if axis is None else np.expand_dims(g, axis),), "sum")


def logsumexp_rows(a):
    """log(sum(exp(row))) for each row of a matrix, returned as a vector."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"logsumexp_rows expects a matrix, got shape {a.shape}")
    m = a.data.max(axis=1, keepdims=True)
    value = (m + np.log(np.exp(a.data - m).sum(axis=1, keepdims=True))).reshape(-1)
    return make_node(value, (a,), (lambda g: np.exp(a.data - value[:, None]) * g[:, None],),
                     "logsumexp_rows")


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
                     (lambda g: _put_cols(np.zeros(a.shape), slice(j0, j1), g),), "slice_cols")


def _put_cols(out, cols, values):
    """``out`` with its columns ``cols`` overwritten by ``values``, in place."""
    out[:, cols] = values
    return out


def couple(x, s, t, cols):
    """``x`` with its columns ``cols`` replaced by ``x[:, cols] * exp(s) + t``, an
    affine coupling update as one node."""
    x, s, t = as_tensor(x), as_tensor(s), as_tensor(t)
    if x.data.ndim != 2 or s.shape != x.data[:, cols].shape or t.shape != s.shape:
        raise ShapeError(f"couple: scale {s.shape} and shift {t.shape} for columns {cols} of {x.shape}")
    changed, scale = x.data[:, cols], _checked_exp(s.data)
    return make_node(_put_cols(x.data.copy(), cols, changed * scale + t.data), (x, s, t), (
        lambda g: _put_cols(g.copy(), cols, g[:, cols] * scale), lambda g: scale * (g[:, cols] * changed),
        lambda g: g[:, cols]), "couple")


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

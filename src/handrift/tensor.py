"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is built implicitly: every operation whose inputs require gradients
records a backward closure and parent links on its output. ``trace`` walks
those links into a post-order list of nodes, and ``backward`` runs the chain
rule over it in reverse, consuming it: each interior node drops its gradient,
closure and parent links once its closure has run, so a step's graph is freed
as its backward goes and only leaves keep gradients. The mesh encoder's
graph-convolution stack is one node (``graph_conv_stack``) that keeps only its
input meshes and re-runs its layers in its own backward, so their activations
live only while that node is walked back. Everything is single-threaded per
graph; tensors are treated as immutable once created (only an optimizer
mutates parameter ``data`` in place between steps).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .errors import ContractError, ShapeError

class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "name", "_parents", "_backward")
    # numpy defers ``ndarray (op) Tensor`` to the Tensor's reflected operator, so
    # a constant can stand on either side of an operator with a Tensor
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __getitem__(self, key):
        return getitem(self, key)

    # method aliases used heavily downstream
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def value(x) -> np.ndarray:
    """The array behind ``x``: a Tensor's data, or ``x`` itself as an array."""
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def trace(root: Tensor) -> list[Tensor]:
    """The nodes below ``root`` in post-order (parents before children), by an iterative walk."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


_SPENT = object()  # the ``_backward`` of a node an earlier ``backward`` consumed


def backward(loss: Tensor):
    """Accumulate dLoss/dLeaf into ``.grad`` of every reachable leaf, consuming the graph.

    ``loss`` must be scalar (size 1). Gradients add onto any existing
    ``.grad``, so callers zero parameter grads between steps. Once an interior
    node's closure has run, the node drops its gradient, closure and parent
    links and is marked spent, so the graph is freed as the walk goes and
    only leaves keep gradients; every node keeps its ``data``. A graph that
    reaches a spent node raises ContractError before any gradient flows.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    order = trace(loss)
    if any(node._backward is _SPENT for node in order):
        raise ContractError("backward reached a node whose graph an earlier backward consumed")
    loss.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        if node._backward is None:  # a leaf or a constant
            continue
        if node.grad is not None:
            node._backward(node.grad)
        node.grad, node._backward, node._parents = None, _SPENT, ()


# ---------------------------------------------------------------------------
# op plumbing


def _make(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:  # never written in place (+ and zero_grad rebind), so shared, not copied
        t.grad = np.asarray(g, dtype=np.float64)
    else:
        t.grad = t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    g = np.ascontiguousarray(g)  # sums round by memory layout
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary(name: str, ufunc, da, db, label: str | None = None):
    """The elementwise op ``name`` of two broadcasting operands, ``ufunc`` on their data.

    ``da(g, a, b)`` and ``db(g, a, b)`` give the upstream ``g`` times the
    partial in ``a`` and in ``b`` (arrays); each is summed back to its
    operand's shape, and an operand that needs no gradient is skipped. A
    broadcast failure raises ShapeError naming ``label`` (default ``name``).
    """
    label = label or name

    def apply(a, b) -> Tensor:
        a, b = as_tensor(a), as_tensor(b)
        try:
            out_data = ufunc(a.data, b.data)
        except ValueError:
            raise ShapeError(f"{label}: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None

        def bw(g):
            if a.requires_grad:
                _accum(a, _unbroadcast(da(g, a.data, b.data), a.data.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(db(g, a.data, b.data), b.data.shape))

        return _make(out_data, (a, b), bw)

    apply.__name__ = apply.__qualname__ = name
    return apply


def _unary(name: str, forward, d):
    """The elementwise op ``name`` of one operand: ``forward`` on its data, and ``d(g, x, y)``
    gives the upstream ``g`` times dy/dx at input ``x`` and output ``y``."""
    def apply(a) -> Tensor:
        a = as_tensor(a)
        out_data = forward(a.data)
        return _make(out_data, (a,), lambda g: _accum(a, d(g, a.data, out_data)))

    apply.__name__ = apply.__qualname__ = name
    return apply


# ---------------------------------------------------------------------------
# elementwise ops

add = _binary("add", np.add, lambda g, a, b: g, lambda g, a, b: g)
sub = _binary("sub", np.subtract, lambda g, a, b: g, lambda g, a, b: -g)
mul = _binary("mul", np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a, "multiply")
div = _binary("div", np.divide, lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b), "divide")
neg = _unary("neg", np.negative, lambda g, x, y: -g)
# sqrt's denominator is floored so an exactly-zero upstream at sqrt(0) stays zero
sqrt = _unary("sqrt", np.sqrt, lambda g, x, y: g * 0.5 / np.maximum(y, 1e-300))
exp = _unary("exp", np.exp, lambda g, x, y: g * y)
log = _unary("log", np.log, lambda g, x, y: g / x)
tanh = _unary("tanh", np.tanh, lambda g, x, y: g * (1.0 - y * y))
sin = _unary("sin", np.sin, lambda g, x, y: g * np.cos(x))
cos = _unary("cos", np.cos, lambda g, x, y: -g * np.sin(x))
# hinge is max(x, 0), with subgradient 0 at 0
hinge = _unary("hinge", lambda x: np.maximum(x, 0.0), lambda g, x, y: g * (x > 0.0))


def where(mask, a, b) -> Tensor:
    """Select ``a`` where ``mask`` else ``b``; the mask is a constant."""
    a, b = as_tensor(a), as_tensor(b)
    mask = np.asarray(mask, dtype=bool)
    out_data = np.where(mask, a.data, b.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(np.where(mask, g, 0.0), a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.where(mask, 0.0, g), b.data.shape))

    return _make(out_data, (a, b), bw)


# ---------------------------------------------------------------------------
# shape ops


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must be >= 2-D, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: shapes {a.data.shape} @ {b.data.shape} misaligned")
    try:
        out_data = a.data @ b.data
    except ValueError:
        raise ShapeError(f"matmul: batch dims of {a.data.shape} @ {b.data.shape} do not broadcast") from None

    def bw(g):
        g = np.ascontiguousarray(g)  # the weight gradient's batch sum rounds by memory layout
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            if b.data.ndim == 2:  # a weight: one GEMM over the flattened batch
                _accum(b, a.data.reshape(-1, a.data.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
            else:
                _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _make(out_data, (a, b), bw)


def _graph_conv_layers(h: np.ndarray, adjacency: np.ndarray, weights, biases):
    """Yield (adjacency @ h, tanh((adjacency @ h) @ w + b)) of each layer in turn, for (M,V,C) meshes."""
    for w, b in zip(weights, biases):
        ah = np.matmul(adjacency, h)
        z = np.matmul(ah, w)
        z += b
        h = np.tanh(z, out=z)
        yield ah, h


def _graph_conv_stack_forward(h: np.ndarray, adjacency: np.ndarray, weights, biases, check=None):
    """The layers' last output averaged over the vertices: (M,V,C) -> (M,C'). ``check(out, i)``,
    if given, sees each layer's output as it is made."""
    for i, (_, h) in enumerate(_graph_conv_layers(h, adjacency, weights, biases)):
        if check is not None:
            check(h, i)
    return np.einsum("...vc->...c", h) / h.shape[-2]  # bitwise mean(axis=-2), in a third of its time


def graph_conv_stack(h, adjacency, weights, biases, check=None) -> Tensor:
    """A graph-convolution stack and its vertex mean as one node: layer i is
    ``tanh((adjacency @ h) @ weights[i] + biases[i])``, and the (M,V,C) meshes
    ``h`` pool to (M,C') codes. Each mesh is convolved on its own, so its code
    does not depend on the batch it rides in.

    The meshes and the adjacency are constants: a Tensor ``h`` that requires a
    gradient raises ContractError. The node keeps only ``h``; its backward
    re-runs the layers from it (reading the weights' values at that time) and
    holds their ``adjacency @ h`` and outputs only while it walks them back,
    with the arithmetic of the composed layers' backward, op for op. ``check``
    is as in the forward helper and sees the forward's layers only.
    """
    h = as_tensor(h)
    if h.requires_grad:
        raise ContractError("graph_conv_stack: the input meshes are a constant; no gradient flows to them")
    weights, biases = [as_tensor(w) for w in weights], [as_tensor(b) for b in biases]
    x, adjacency = h.data, value(adjacency)
    wd, bd = [w.data for w in weights], [b.data for b in biases]
    out_data = _graph_conv_stack_forward(x, adjacency, wd, bd, check)
    lowest = next((i for i, (w, b) in enumerate(zip(weights, biases))  # the lowest layer to differentiate
                   if w.requires_grad or b.requires_grad), None)

    def bw(g):
        layers = list(_graph_conv_layers(x, adjacency, wd, bd))
        g = np.expand_dims(g, -2) / x.shape[-2]  # the vertex mean's gradient, broadcast below
        for i in range(len(layers) - 1, lowest - 1, -1):
            ah, out = layers.pop()
            gz = out * out
            np.subtract(1.0, gz, out=gz)
            gz *= g
            gz2 = gz.reshape(-1, gz.shape[-1])
            w, b = weights[i], biases[i]
            if w.requires_grad:
                _accum(w, ah.reshape(-1, ah.shape[-1]).T @ gz2)
            if b.requires_grad:  # a GEMV: several times faster than sum(axis=0) down long columns
                _accum(b, np.ones(len(gz2)) @ gz2)
            if i > lowest:
                g = np.matmul(adjacency.T, gz @ wd[i].T)

    return _make(out_data, (*weights, *biases), bw)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    try:
        out_data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.data.shape} as {shape}") from None

    def bw(g):
        _accum(a, g.reshape(a.data.shape))

    return _make(out_data, (a,), bw)


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    out_data = np.transpose(a.data, axes)
    inv = None if axes is None else np.argsort(axes)

    def bw(g):
        _accum(a, np.transpose(g, inv))

    return _make(out_data, (a,), bw)


def concatenate(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    try:
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        shapes = [t.data.shape for t in tensors]
        raise ShapeError(f"concatenate: incompatible shapes {shapes} on axis {axis}") from None
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                _accum(t, piece)

    return _make(out_data, tuple(tensors), bw)


def stack(tensors, axis: int = 0) -> Tensor:
    return concatenate([reshape(t, t.data.shape[:axis] + (1,) + t.data.shape[axis:]) for t in tensors], axis=axis)


def _is_basic_index(key) -> bool:
    """True for a key of ints, slices, None and Ellipsis: it selects no element twice."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, slice)
               or (isinstance(k, (int, np.integer)) and not isinstance(k, bool)) for k in parts)


def getitem(a, key) -> Tensor:
    """Indexing; the backward assigns into zeros for a basic key, scatter-adds otherwise."""
    a = as_tensor(a)
    out_data = a.data[key]
    basic = _is_basic_index(key)

    def bw(g):
        buf = np.zeros_like(a.data)
        if basic:  # no repeated index to accumulate: the same values as np.add.at
            buf[key] = g
        else:
            np.add.at(buf, key, g)
        _accum(a, buf)

    return _make(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# reductions and normalizations


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape).copy())

    return _make(out_data, (a,), bw)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g / count, a.data.shape).copy())

    return _make(out_data, (a,), bw)


def _softmax_forward(x: np.ndarray, axis: int = -1) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    Entries of exactly -inf are legal (attention masks) and get weight 0.
    """
    a = as_tensor(a)
    out_data = _softmax_forward(a.data, axis)

    def bw(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        _accum(a, out_data * (g - dot))

    return _make(out_data, (a,), bw)


def log_softmax(a, axis: int = -1) -> Tensor:
    """x - log(sum(exp(x))) along ``axis``, composed from primitives with a constant max shift."""
    a = as_tensor(a)
    shift = np.max(a.data, axis=axis, keepdims=True)
    return sub(a, log(tsum(exp(sub(a, Tensor(shift))), axis=axis, keepdims=True)) + Tensor(shift))


def _mean_last(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)``, bitwise, without ndarray.mean's Python wrapper."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _layer_norm_forward(x: np.ndarray, eps: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """(normalized x, 1 / its standard deviation) along the last axis."""
    xc = x - _mean_last(x)
    inv = 1.0 / np.sqrt(_mean_last(xc * xc) + eps)
    return xc * inv, inv


def layer_norm(a, eps: float = 1e-8) -> Tensor:
    """Normalize the last axis to zero mean, unit variance (no affine part)."""
    a = as_tensor(a)
    out_data, inv = _layer_norm_forward(a.data, eps)

    def bw(g):
        gy = g * inv
        _accum(a, gy - _mean_last(gy) - out_data * _mean_last(gy * out_data))

    return _make(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# the same ops over plain arrays

# Where no gradient flows, a body written over an op namespace (the functions
# below, plus the operators and the ``reshape``/``transpose``/``sum``/``mean``
# methods that Tensor and ndarray share) runs on ``plain`` instead of this
# module: the same forward arithmetic, bitwise, with no Tensor, closure or graph.
plain = SimpleNamespace(
    matmul=np.matmul,
    graph_conv_stack=_graph_conv_stack_forward,
    tanh=np.tanh,
    sqrt=np.sqrt,
    sin=np.sin,
    cos=np.cos,
    hinge=lambda a: np.maximum(a, 0.0),
    where=np.where,
    concatenate=np.concatenate,
    stack=np.stack,
    softmax=_softmax_forward,
    layer_norm=lambda a, eps=1e-8: _layer_norm_forward(a, eps)[0],
    value=np.asarray,
)

"""Reverse-mode differentiation over arrays on a flat, append-only tape.

A :class:`Tape` stores one node per recorded array operation: a layer's
matrix product, one elementwise op over a whole (mc, rows, units) block, a
sum over an axis, a column slice.  Nodes are identified by their insertion
index and parents always have smaller ids, so insertion order is a
topological order and the backward sweep is a single reverse pass.

Node storage is struct-of-arrays: ``vals[i]`` is the forward value (an
ndarray) and ``deps[i]`` a tuple of ``(parent_id, vjp)`` pairs, where
``vjp`` maps the node's adjoint to that parent's share of it.  Elementwise
ops broadcast; the sweep sums each share over the axes its parent was
broadcast along, so every adjoint comes back in its node's own shape.
Constants (floats and plain arrays) enter ops directly and record no node.

:class:`Var` (tape + node id) overloads the arithmetic operators, ``@``,
basic indexing, ``reshape`` and ``sum``, and the generic functions below
dispatch on it, so closed-form expressions (the network pass, flow and head
densities) are written once and evaluated either on arrays or on a tape;
the recorded values equal the array values bit for bit.  The elementwise
ops (``exp``, ``expm1``, ``log``, ``log1p``, ``tanh``, ``softplus``,
``square``, ``sqrt`` and ``Var``'s unary minus and ``abs``) are one table,
built by ``_elementwise``: a line per op gives its NumPy function and its
VJP as an expression in the adjoint, the input value and the output value.

Tapes are single-writer.  Independent tapes may be evaluated concurrently;
there is no shared state.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, StructuralError

__all__ = [
    "Tape",
    "Var",
    "grad_check",
    "exp",
    "expm1",
    "log",
    "log1p",
    "logsumexp",
    "tanh",
    "softplus",
    "square",
    "sqrt",
]


def _unbroadcast(g, shape):
    """Sum ``g`` over the axes along which an operand of ``shape`` was
    broadcast, giving an array of that shape."""
    g = np.asarray(g)
    lead = g.ndim - len(shape)
    if lead:
        g = g.sum(axis=tuple(range(lead)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Tape:
    """Append-only computation graph over arrays."""

    __slots__ = ("vals", "deps", "kinds", "_leaf_ids")

    def __init__(self):
        self.vals: list[np.ndarray] = []
        self.deps: list[tuple] = []
        self.kinds: list[str] = []
        self._leaf_ids: list[int] = []

    def leaf(self, value) -> int:
        """Append an input node (no parents) holding a float copy of value."""
        self._leaf_ids.append(len(self.vals))
        return self.push("leaf", np.array(value, dtype=float), ())

    def push(self, kind, value, deps) -> int:
        """Append a node; ``deps`` holds (parent_id, vjp) pairs."""
        self.vals.append(value)
        self.deps.append(deps)
        self.kinds.append(kind)
        return len(self.vals) - 1

    def backward(self, output) -> list[np.ndarray]:
        """Adjoints of sum(output) with respect to every node, by one reverse
        pass; each adjoint has its node's shape.

        Raises NumericError naming the node where a NaN adjoint arose.
        """
        vals = self.vals
        n = len(vals)
        if not 0 <= output < n:
            raise StructuralError(f"unknown output id {output}")
        deps = self.deps
        adj = [None] * n
        adj[output] = np.ones_like(vals[output])
        for nid in range(output, -1, -1):
            a = adj[nid]
            if a is None:
                continue
            for pid, vjp in deps[nid]:
                g = vjp(a)
                shape = vals[pid].shape
                if np.shape(g) != shape:
                    g = _unbroadcast(g, shape)
                prev = adj[pid]
                adj[pid] = g if prev is None else prev + g
        for i, a in enumerate(adj):
            if a is None:
                adj[i] = np.zeros_like(vals[i])
        if any(np.isnan(adj[i]).any() for i in self._leaf_ids):
            # NaN only flows towards lower ids: the highest NaN node is its source
            nid = next(i for i in range(output, -1, -1) if np.isnan(adj[i]).any())
            raise NumericError(f"NaN adjoint at node {nid} ({self.kinds[nid]})", node_id=nid)
        return adj

    def gradient(self, output) -> dict[int, np.ndarray]:
        """d sum(output) / d(leaf) for every leaf node, keyed by node id."""
        adj = self.backward(output)
        return {i: adj[i] for i in self._leaf_ids}


def _record(kind, value, *operands):
    """Record ``value`` with one (operand, vjp) pair per operand; constant
    operands get no edge."""
    tape = None
    deps = []
    for x, vjp in operands:
        if isinstance(x, Var):
            if tape is not None and x.tape is not tape:
                raise StructuralError("operands live on different tapes")
            tape = x.tape
            deps.append((x.id, vjp))
    return Var(tape, tape.push(kind, value, tuple(deps)))


def _value(x):
    return x.value if isinstance(x, Var) else x


def _elementwise(kind, f, vjp):
    """``f`` on arrays and floats; on a Var, one ``kind`` node whose VJP is
    ``vjp(g, v, out)`` for adjoint g, input value v and output value out."""

    def op(x):
        if not isinstance(x, Var):
            return f(x)
        v = x.value
        out = f(v)
        return _record(kind, out, (x, lambda g: vjp(g, v, out)))

    op.__name__ = op.__qualname__ = kind
    return op


def _same(g):
    return g


def _add(x, y):
    return _record("add", _value(x) + _value(y), (x, _same), (y, _same))


def _sub(x, y):
    return _record("sub", _value(x) - _value(y), (x, _same), (y, np.negative))


def _mul(x, y):
    a, b = _value(x), _value(y)
    return _record("mul", a * b, (x, lambda g: g * b), (y, lambda g: g * a))


def _div(x, y):
    a, b = _value(x), _value(y)
    q = a / b
    return _record("div", q, (x, lambda g: g / b), (y, lambda g: -g * q / b))


def _matmul(x, y):
    """a @ b for a 2-D right operand; the left one may carry batch axes."""
    a, b = np.asarray(_value(x)), np.asarray(_value(y))
    if b.ndim != 2:
        raise StructuralError(f"matmul needs a 2-D right operand, got shape {b.shape}")
    return _record(
        "matmul",
        a @ b,
        (x, lambda g: g @ b.T),
        (y, lambda g: a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, b.shape[1])),
    )


class Var:
    """An array on a tape, with operator overloading.

    Arithmetic mixes freely with floats and plain arrays, broadcasting as
    NumPy does; each operation appends one node.
    """

    __slots__ = ("tape", "id")
    __array_ufunc__ = None  # ndarray <op> Var defers to Var's reflected ops

    def __init__(self, tape, node_id):
        self.tape = tape
        self.id = node_id

    @property
    def value(self):
        return self.tape.vals[self.id]

    @property
    def shape(self):
        return self.value.shape

    @property
    def size(self):
        return self.value.size

    def __len__(self):
        return len(self.value)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __float__(self):
        return float(self.value.item())

    def __repr__(self):
        return f"Var(id={self.id}, value={self.value!r})"

    def __add__(self, other):
        return _add(self, other)

    def __radd__(self, other):
        return _add(other, self)

    def __sub__(self, other):
        return _sub(self, other)

    def __rsub__(self, other):
        return _sub(other, self)

    def __mul__(self, other):
        return _mul(self, other)

    def __rmul__(self, other):
        return _mul(other, self)

    def __truediv__(self, other):
        return _div(self, other)

    def __rtruediv__(self, other):
        return _div(other, self)

    def __matmul__(self, other):
        return _matmul(self, other)

    def __rmatmul__(self, other):
        return _matmul(other, self)

    __neg__ = _elementwise("neg", np.negative, lambda g, v, out: np.negative(g))
    # subgradient sign(0) = 0: measure-zero kink, keeps backward total
    __abs__ = _elementwise("abs", np.abs, lambda g, v, out: g * np.sign(v))

    def __getitem__(self, key):
        """Basic indexing (ints, slices, Ellipsis), e.g. column views."""
        v = self.value

        def vjp(g):
            out = np.zeros_like(v)
            out[key] = g
            return out

        return _record("index", v[key], (self, vjp))

    def reshape(self, *shape):
        v = self.value
        return _record("reshape", v.reshape(*shape), (self, lambda g: g.reshape(v.shape)))

    def sum(self, axis=None, keepdims=False):
        v = self.value

        def vjp(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, v.shape)

        return _record("sum", v.sum(axis=axis, keepdims=keepdims), (self, vjp))


# -- generic math: works on Var, floats, and numpy arrays -----------------
exp = _elementwise("exp", np.exp, lambda g, v, out: g * out)
expm1 = _elementwise("expm1", np.expm1, lambda g, v, out: g * (out + 1.0))
log = _elementwise("log", np.log, lambda g, v, out: g / v)
log1p = _elementwise("log1p", np.log1p, lambda g, v, out: g / (1.0 + v))
tanh = _elementwise("tanh", np.tanh, lambda g, v, out: g * (1.0 - out * out))
# sigmoid(v) = exp(v - softplus(v)), stable for either sign
softplus = _elementwise("softplus", lambda x: np.logaddexp(0.0, x),
                        lambda g, v, out: g * np.exp(v - out))
square = _elementwise("square", np.square, lambda g, v, out: g * (2.0 * v))
sqrt = _elementwise("sqrt", np.sqrt, lambda g, v, out: g * 0.5 / out)


def logsumexp(v, axis=-1, mean=False):
    """log sum_i exp(v_i) along axis (log mean exp with ``mean``).

    The shift is the maximum where that is finite and 0 elsewhere, so a slice
    whose terms are all -inf gives -inf rather than -inf - (-inf) = NaN; on a
    tape such a slice passes back a zero adjoint.
    """
    x = _value(v)
    top = np.max(x, axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    e = np.exp(x - top)
    with np.errstate(divide="ignore"):
        out = np.squeeze(top, axis) + np.log(e.mean(axis=axis) if mean else e.sum(axis=axis))
    if not isinstance(v, Var):
        return out

    def vjp(g):
        tot = e.sum(axis=axis, keepdims=True)
        return np.expand_dims(g, axis) * (e / np.where(tot > 0.0, tot, 1.0))

    return _record("logsumexp", out, (v, vjp))


def grad_check(f, point, step=1e-5):
    """Worst relative error between tape gradients and central differences.

    ``f`` takes the point as one 1-D sequence (a Var on the tape side, a
    float array on the finite-difference side; both index, slice and
    iterate alike) and returns a scalar.  The finite-difference side never
    touches a tape, so it is independent of the machinery it checks.
    """
    if step <= 0.0:
        raise StructuralError("step must be positive")
    point = np.array(point, dtype=float).reshape(-1)
    tape = Tape()
    xs = Var(tape, tape.leaf(point))
    out = f(xs)
    y0 = float(out)
    if not math.isfinite(y0):
        raise NumericError(f"function value {y0} is not finite")
    adj = tape.backward(out.id)[xs.id]
    worst = 0.0
    for i in range(point.size):
        bumped = point.copy()
        bumped[i] = point[i] + step
        fp = float(f(bumped))
        bumped[i] = point[i] - step
        fm = float(f(bumped))
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericError("non-finite value in finite-difference probe")
        numeric = (fp - fm) / (2.0 * step)
        analytic = float(adj[i])
        denom = max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst

"""Array substrate with reverse-mode differentiation.

Values are numpy arrays wrapped in ``Tensor`` nodes that record, for each
operation, the parent nodes and a vector-Jacobian closure. ``backward()``
replays the tape in reverse topological order. Every public operation
validates that its output is finite and raises ``NumericsError`` naming the
offending op otherwise.

A tape is single-use. As the sweep passes each interior node it drops the
node's gradient and its closure, and with it every array only the closure
holds (saved activations, statistics, spectra). Leaves keep theirs: after
``backward()`` a parameter or ``requires_grad`` input holds its gradient
in ``.grad``. Every node keeps its ``data`` and parents, so a tape's values
live as long as its output does. A second backward through a swept node,
or through an op built on one, raises ``RuntimeError`` naming the node's op.
Training drops each step's output, and so its whole tape, before the next
step's forward (``train._train_step``), so only one tape is alive at a
time. That frees tens of MB of 0.1-30 MB numpy buffers every step, which
glibc's default policy would hand back to the kernel (a buffer above its
adaptive mmap threshold is unmapped, a free heap top above its trim
threshold is trimmed) for the next step to fault in again page by page:
about 16k minor faults per lm-recipe step. So importing this module
raises glibc's ``M_MMAP_THRESHOLD`` to 32 MiB and its
``M_TRIM_THRESHOLD`` to 256 MiB: freed buffers stay mapped in the heap
and the next step reuses them. On a libc without ``mallopt`` this does
nothing.

Precision is a process-wide setting (float32 for training, float64 for
oracle and gradient tests); use ``set_precision`` or the ``precision``
context manager before creating tensors.

Shape conventions used throughout the package: sequences are batched
(B, L, d), and a single sequence is B = 1; matrices are row-major.
``cross_entropy`` takes (..., C) logits, so one call serves a
per-position head and a per-sequence one.
The attention functions are not defined here: each is one numpy pair in
``factored.phi_table``.

The ops are the ones the package calls: ``add``, ``sub`` and ``mul``
(with the ``+``, ``-`` and ``*`` operators), ``linear``, ``gate_mix``,
``silu``, ``layer_norm``, ``gather_rows``, ``tsum``/``tmean`` and
``cross_entropy`` build the model and its loss; ``matmul`` applies the
dense oracle's weights, one node that ``attention`` builds with
``make_op``, to its values. The SSM branch is one node of its own,
``ssm.ssm_scan``. The sigmoid node that ``gate_mix`` and ``silu`` are
tested against lives with the tests. A leaf is built with the constructor
itself: ``Tensor(x)`` for a constant, ``Tensor(x, requires_grad=True,
name=...)`` for a parameter. Around the ops sit the precision switches
(``set_precision``, ``get_dtype``, ``precision``), ``no_grad``, the
gradient helpers ``grad``, ``zero_grads`` and ``finite_diff`` (the
central-difference reference), and the fault hook
``set_backward_fault``/``backward_fault_hits`` behind ``longvq gradcheck
--inject-fault``.

Dense sublayers are fused ops, one tape node each. ``linear`` is the
projection x @ W + b: every projection of the model is one ``linear``
node, not a ``matmul`` and an ``add``. ``gate_mix`` is the gated residual
x + sigmoid(pre) * (a - x) from the gate's pre-activation, and
``layer_norm`` normalizes each row, of x or of x + residual, in one node.
Each keeps fewer full-size arrays alive until the backward than the chain
of elementwise nodes it replaces: a sum or product folded into the op
that reads it is never a node array that no backward reads.
"""

from __future__ import annotations

import contextlib
import ctypes

import numpy as np

__all__ = [
    "Tensor", "NumericsError", "set_precision", "get_dtype", "precision",
    "no_grad", "grad", "finite_diff", "zero_grads",
    "add", "sub", "mul", "matmul", "linear", "gate_mix",
    "gather_rows", "tsum", "tmean", "silu", "cross_entropy",
    "layer_norm", "set_backward_fault", "backward_fault_hits",
]

_DTYPE = np.float32
_NO_GRAD = False
_FAULT_OP = None
_FAULT_HITS = 0
_LN_EPS = 1e-5


def _keep_freed_pages():
    """Raise glibc's mmap and trim thresholds (see the module docstring);
    a no-op where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)           # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)          # M_TRIM_THRESHOLD


_keep_freed_pages()


class NumericsError(RuntimeError):
    """Raised when an operation produces NaN/Inf or is numerically invalid."""


def set_precision(kind):
    """Select process-wide float precision: 'float32' or 'float64'."""
    global _DTYPE
    if kind in ("float32", np.float32, 32):
        _DTYPE = np.float32
    elif kind in ("float64", np.float64, 64):
        _DTYPE = np.float64
    else:
        raise ValueError(f"unknown precision {kind!r}")


def get_dtype():
    return _DTYPE


@contextlib.contextmanager
def precision(kind):
    """Context manager scoping the process precision."""
    saved = _DTYPE
    set_precision(kind)
    try:
        yield
    finally:
        set_precision(saved)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling tape recording (forward values only)."""
    global _NO_GRAD
    saved, _NO_GRAD = _NO_GRAD, True
    try:
        yield
    finally:
        _NO_GRAD = saved


def set_backward_fault(op_name):
    """Test hook: flip the sign of one op's backward. None disables.

    Resets the count that ``backward_fault_hits`` reports.
    """
    global _FAULT_OP, _FAULT_HITS
    _FAULT_OP = op_name
    _FAULT_HITS = 0


def backward_fault_hits():
    """Tape nodes whose backward the fault hook has wrapped since it was
    last set; 0 means the named op never ran on the tape."""
    return _FAULT_HITS


def _check(data, op):
    if not np.all(np.isfinite(data)):
        raise NumericsError(f"non-finite values produced by op '{op}'")
    return data


class Tensor:
    """A tape node holding a numpy array.

    Treat ``data`` as immutable once the node is produced; only the
    optimizer mutates parameter arrays, between passes.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_vjp",
                 "_op")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=_DTYPE)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents = ()
        self._vjp = None
        self._op = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        tag = f" '{self.name}'" if self.name else ""
        return f"Tensor{tag}(shape={self.data.shape}, dtype={self.data.dtype})"

    # operator sugar
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def backward(self, seed=None):
        """Reverse-mode sweep from this node; accumulates into the leaves'
        .grad.

        The sweep releases the tape as it goes: once an interior node's
        closure has run and its parents hold their shares, the node's
        .grad and closure are dropped. Leaves (parameters and
        ``requires_grad`` inputs) keep .grad; every node keeps .data and
        its parents. A swept tape cannot be swept again: a backward that
        reaches a swept node raises ``RuntimeError`` naming its op before
        any gradient is touched.
        """
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without seed requires a scalar output")
            seed = np.ones_like(self.data)
        order = _toposort(self)
        self.grad = np.asarray(seed, dtype=self.data.dtype)
        for node in reversed(order):
            vjp, g_out = node._vjp, node.grad
            if vjp is None:
                continue
            node._vjp, node.grad = _released, None
            if g_out is None:
                continue
            for p, g in zip(node._parents, vjp(g_out)):
                if g is None or not _wants_grad(p):
                    continue
                g = np.asarray(g, dtype=p.data.dtype)
                p.grad = g if p.grad is None else p.grad + g


def _released(g):
    """The closure of a swept node; backward() refuses such a tape first."""
    raise RuntimeError("backward closure already released by a sweep")


def _toposort(root):
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, emitted = stack.pop()
        if emitted:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node._vjp is _released:
            raise RuntimeError(
                f"backward through op '{node._op}', whose tape an earlier "
                f"backward already released; a tape is single-use")
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _wants_grad(t):
    """True for a parameter or a node on the tape: a gradient reaches it."""
    return t.requires_grad or t._vjp is not None


def _tracked(parents):
    if _NO_GRAD:
        return False
    return any(_wants_grad(p) for p in parents)


def make_op(data, parents, vjp, op_name):
    """Build a tape node; vjp(g) returns per-parent gradients (or None)."""
    global _FAULT_HITS
    _check(data, op_name)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out.name = None
    out._op = op_name
    if _tracked(parents):
        out._parents = tuple(parents)
        if _FAULT_OP == op_name:
            _FAULT_HITS += 1
            out._vjp = lambda g: tuple(
                None if gi is None else -gi for gi in vjp(g))
        else:
            out._vjp = vjp
    else:
        out._parents = ()
        out._vjp = None
    return out


def _unbroadcast(g, shape):
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape))
                 if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    return make_op(a.data + b.data, (a, b),
                   lambda g: (_unbroadcast(g, a.data.shape),
                              _unbroadcast(g, b.data.shape)), "add")


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    return make_op(a.data - b.data, (a, b),
                   lambda g: (_unbroadcast(g, a.data.shape),
                              _unbroadcast(-g, b.data.shape)), "sub")


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    return make_op(a.data * b.data, (a, b),
                   lambda g: (_unbroadcast(g * b.data, a.data.shape),
                              _unbroadcast(g * a.data, b.data.shape)), "mul")


def matmul(a, b):
    """Matrix product on the last two axes, leading axes broadcast."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul expects tensors with ndim >= 2; got "
                         f"{a.data.shape} and {b.data.shape}")
    out = a.data @ b.data

    def vjp(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return make_op(out, (a, b), vjp, "matmul")


def linear(x, w, b):
    """x (..., n) @ w (n, m) + b (m,) as one tape node.

    The leading axes are flattened into rows, so the forward is one 2-D
    GEMM with the bias added in place. The backward gets dx = g @ w^T,
    dw = x^T @ g as one 2-D GEMM over every row, and db as the BLAS
    column sum ones @ g; dx is skipped when x is a constant.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if w.ndim != 2 or x.ndim < 1 or x.data.shape[-1] != w.data.shape[0] \
            or b.data.shape != w.data.shape[1:]:
        raise ValueError(f"linear expects x (..., n), w (n, m), b (m,); got "
                         f"{x.data.shape}, {w.data.shape}, {b.data.shape}")
    n, m = w.data.shape
    x2 = x.data.reshape(-1, n)
    out = x2 @ w.data
    out += b.data

    def vjp(g):
        g2 = g.reshape(-1, m)
        dx = (g2 @ w.data.T).reshape(x.data.shape) if _wants_grad(x) \
            else None
        db = np.ones(g2.shape[0], dtype=g2.dtype) @ g2
        return dx, x2.T @ g2, db

    return make_op(out.reshape(x.data.shape[:-1] + (m,)), (x, w, b), vjp,
                   "linear")


def gate_mix(pre, a, x):
    """x + sigmoid(pre) * (a - x) as one tape node: the convex mix of a and
    x under a sigmoid gate given by its pre-activation.

    All three have one shape. The node keeps neither the gate nor a - x:
    the backward recomputes both from its parents. With s = sigmoid(pre),
    the pre-activation gets g * (a - x) * s * (1 - s), a gets g * s and x
    the rest, g - g * s.
    """
    pre, a, x = _as_tensor(pre), _as_tensor(a), _as_tensor(x)
    if not pre.data.shape == a.data.shape == x.data.shape:
        raise ValueError(f"gate_mix expects one shape; got {pre.data.shape}, "
                         f"{a.data.shape}, {x.data.shape}")
    out = a.data - x.data
    out *= _sigmoid_np(pre.data)
    out += x.data

    def vjp(g):
        s = _sigmoid_np(pre.data)
        da = g * s
        # (1 - s) * s * ((a - x) * g): the product order of sigmoid's
        # backward, so the gradient equals the sigmoid-then-mix chain's
        dpre = np.subtract(1.0, s, out=np.empty_like(s))
        dpre *= s
        np.subtract(a.data, x.data, out=s)
        s *= g
        dpre *= s
        return dpre, da, g - da

    return make_op(out, (pre, a, x), vjp, "gate_mix")


def _first_out_of_range(idx, n):
    """Position of the first entry of idx outside [0, n), or None."""
    if idx.size == 0 or (idx.min() >= 0 and idx.max() < n):
        return None
    return _position(np.argwhere((idx < 0) | (idx >= n))[0])


def _position(at):
    """An index row of np.argwhere as an int (1-D) or a tuple, for errors."""
    at = tuple(int(i) for i in at)
    return at[0] if len(at) == 1 else at


def gather_rows(table, idx):
    """table[idx] for a 2-D table and integer index array of any shape."""
    idx = np.asarray(idx)
    if table.ndim != 2:
        raise ValueError(f"gather_rows expects a 2-D table; got shape "
                         f"{table.data.shape}")
    at = _first_out_of_range(idx, table.shape[0])
    if at is not None:
        raise ValueError(f"gather_rows index {idx[at]} at position {at} is "
                         f"outside [0, {table.shape[0]})")
    out = table.data[idx]

    def vjp(g):
        n, D = table.data.shape
        return (_key_sums(idx.reshape(-1), g.reshape(-1, D), n)
                .astype(g.dtype),)

    return make_op(out, (table,), vjp, "gather_rows")


def _key_sums(keys, rows, n):
    """Float64 (n, D) sums of the rows (N, D) that share a key, for keys
    (N,) in [0, n); a key with no row sums to zero. One bincount adds the
    rows in order, so equal inputs give bitwise equal sums."""
    D = rows.shape[1]
    flat = (keys[:, None] * D + np.arange(D)).ravel()
    return np.bincount(flat, weights=rows.ravel(),
                       minlength=n * D).reshape(n, D)


def tsum(a, axis=None):
    """Sum over one axis, or over every axis when axis is None."""
    out = a.data.sum(axis=axis)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return make_op(np.asarray(out, dtype=a.data.dtype), (a,), vjp, "sum")


def tmean(a, axis=None):
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / n)


# ---------------------------------------------------------------------------
# elementwise nonlinearities

def _sigmoid_np(x):
    """1 / (1 + exp(-x)) in one allocation, in place from the first ufunc.

    The explicit out= keeps a 0-d input an array: np.negative of a 0-d
    array alone returns a scalar, which the in-place ufuncs after it
    cannot write to. exp(-x) overflows to inf for x below about -88
    (float32) or -709 (float64), and 1 / inf is the exact limit 0.
    """
    s = np.negative(x, out=np.empty_like(x))
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.reciprocal(s, out=s)


def silu(a):
    """x * sigmoid(x), the self-gated activation."""
    s = _sigmoid_np(a.data)

    def vjp(g):
        # g * s * (1 + x * (1 - s)) in one allocation
        dx = np.subtract(1.0, s, out=np.empty_like(s))
        dx *= a.data
        dx += 1.0
        dx *= s
        dx *= g
        return (dx,)

    return make_op(a.data * s, (a,), vjp, "silu")


def cross_entropy(logits, targets):
    """Mean negative log-likelihood of integer targets over every position.

    logits: (..., C); targets: ints of shape logits.shape[:-1], so (B, C)
    logits of a per-sequence head and (B, L, C) logits of a per-position
    head take the same call. The op works on the N = prod(...) rows of
    the flattened logits, with a stable log-sum-exp; the gradient is
    (softmax - onehot)/N, shaped back to the logits.
    """
    shape = logits.data.shape
    t = np.asarray(targets)
    if logits.ndim < 1 or t.shape != shape[:-1]:
        raise ValueError(f"cross_entropy expects (..., C) logits and targets "
                         f"of shape logits.shape[:-1]; got {shape} and "
                         f"{t.shape}")
    at = _first_out_of_range(t, shape[-1])
    if at is not None:
        raise ValueError(f"cross_entropy target {t[at]} at position {at} "
                         f"is outside [0, {shape[-1]})")
    x = logits.data.reshape(-1, shape[-1])
    t = t.reshape(-1)
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    z = e.sum(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(z[:, 0])
    n = x.shape[0]
    loss = (lse - x[np.arange(n), t]).mean()

    def vjp(g):
        p = e / z
        p[np.arange(n), t] -= 1.0
        return ((g * p / n).reshape(shape),)

    return make_op(np.asarray(loss, dtype=x.dtype), (logits,), vjp,
                   "cross_entropy")


# ---------------------------------------------------------------------------
# normalizers

def layer_norm(x, gain, bias, residual=None):
    """Per-position normalization over the channel (last) axis, with a
    (d,) gain and bias and a variance floor of _LN_EPS. With a residual of
    x's shape it normalizes x + residual: the sum is a temporary of the
    forward, not a tape node, and both inputs get the same gradient.

    Row means are products with a (d, 1) column of 1/d, not
    mean(axis=-1): numpy's reduction over a short last axis is about five
    times slower than the BLAS product (0.23 vs 0.04 ms on a float32
    (32, 256, 64) array, min of 40 on one thread of a 2-vCPU x86-64 VM).
    The backward takes its two row means the same way and the gain and
    bias gradients as BLAS column sums. Forward plus backward went from
    4.1 to 2.8 ms at that shape.
    """
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ValueError(f"layer_norm gain and bias must have shape ({d},); "
                         f"got {gain.data.shape} and {bias.data.shape}")
    parents = (x, gain, bias)
    x2 = x.data.reshape(-1, d)
    if residual is not None:
        residual = _as_tensor(residual)
        if residual.data.shape != x.data.shape:
            raise ValueError(f"layer_norm residual shape "
                             f"{residual.data.shape} != {x.data.shape}")
        parents += (residual,)
        x2 = x2 + residual.data.reshape(-1, d)
    col = np.full((d, 1), 1.0 / d, dtype=x2.dtype)
    xn = x2 - x2 @ col
    sq = np.square(xn)
    inv = sq @ col
    inv += _LN_EPS
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    xn *= inv
    out = np.multiply(xn, gain.data, out=sq)
    out += bias.data

    def vjp(g):
        g2 = g.reshape(-1, d)
        ones = np.ones(g2.shape[0], dtype=g2.dtype)
        gxn = g2 * gain.data
        t = gxn * xn
        m2 = t @ col
        m1 = gxn @ col
        np.multiply(g2, xn, out=t)
        dgain = ones @ t
        # dx = inv * (gxn - mean(gxn) - xn * mean(gxn * xn))
        np.multiply(xn, m2, out=t)
        gxn -= m1
        gxn -= t
        gxn *= inv
        dx = gxn.reshape(x.data.shape)
        return (dx, dgain, ones @ g2, dx)[:len(parents)]

    return make_op(out.reshape(x.data.shape), parents, vjp, "layer_norm")


# ---------------------------------------------------------------------------
# gradient plumbing

def zero_grads(params):
    for p in params:
        p.grad = None


def grad(loss, params):
    """Reverse-mode gradients of a scalar loss for each parameter.

    Disconnected parameters yield explicit zero arrays.
    """
    zero_grads(params)
    loss.backward()
    return [p.grad if p.grad is not None else np.zeros_like(p.data)
            for p in params]


def finite_diff(loss_fn, params, eps=1e-5):
    """Central-difference gradients, one coordinate at a time.

    loss_fn() may return a float or a scalar Tensor computed from the
    current param values. Run under float64 precision for meaningful
    comparisons.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")

    def ev():
        val = loss_fn()
        return float(val.data) if isinstance(val, Tensor) else float(val)

    out = []
    for p in params:
        g = np.zeros_like(p.data)
        for i in range(p.data.size):
            orig = p.data.flat[i]
            p.data.flat[i] = orig + eps
            hi = ev()
            p.data.flat[i] = orig - eps
            lo = ev()
            p.data.flat[i] = orig
            g.flat[i] = (hi - lo) / (2.0 * eps)
        out.append(g)
    return out

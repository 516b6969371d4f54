"""Structured state-space channels.

Each embedding dimension gets an independent single-input single-output
linear state-space system. The continuous (A, B) pair comes from the
structured init below, is discretized with the bilinear rule at a learned
per-channel step size, and is applied as a causal convolution with the
materialized kernel k[j] = C_bar A_bar^j B_bar plus a learned skip D.

``SsmBank`` is the one differentiable path: ``ssm_kernels`` builds the d
kernels from the state orbit A_bar^j B_bar in fixed-size blocks (doubling
inside the first block, one batched matmul per block after it), and
``tensor.conv_causal_channels`` applies them with the skip D inside the
same node, so the branch is two tape nodes. The backward of
``ssm_kernels`` runs the same blocked orbit on an augmented 2N system
whose upper half is the dt-tangent of the state. ``materialize_kernel``
(state iteration) and ``scan_recurrent`` (the literal recurrence) are the
references; they take one channel as an ``SsmChannel`` of plain arrays
and floats, discretized by ``discretize``.

A and B_in are fixed at init: the kernel op differentiates C_out and
log_dt only, and B_in is a constant input, not a tape parent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    NumericsError, Tensor, conv_causal_channels, get_dtype, make_op,
)

__all__ = [
    "init_s4", "SsmChannel", "DiscreteSsm", "discretize",
    "materialize_kernel", "scan_recurrent", "ssm_kernels", "SsmBank",
    "DT_MIN", "DT_MAX",
]

DT_MIN = 0.001
DT_MAX = 0.1

# states per orbit block in ssm_kernels (a power of two)
_BLOCK = 64


def init_s4(n):
    """Structured (A, B) init for one channel.

    A = A_normal - P P^T with P_i = (i+1/2)^{1/2} and the three-case
    normal part; B_i = (2i+1)^{1/2}.  The algebra forces A strictly
    lower-triangular with diagonal -(i+1).
    """
    if n <= 0:
        raise ValueError("state size must be >= 1")
    i = np.arange(n, dtype=np.float64)
    p = np.sqrt(i + 0.5)
    # share one P_i*P_j array between the normal part and the rank-1 term
    # so the i<j entries cancel exactly, not just to round-off
    pp = np.outer(p, p)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    a_norm = np.where(ii > jj, -pp, pp)
    np.fill_diagonal(a_norm, -0.5)
    a = a_norm - pp
    b = np.sqrt(2.0 * i + 1.0)
    return a, b


@dataclass
class SsmChannel:
    """One SISO state-space channel in continuous form."""
    A: np.ndarray
    B_in: np.ndarray   # (N,)
    C_out: np.ndarray  # (N,)
    D_skip: float
    log_dt: float      # dt = exp(log_dt) > 0 always
    N: int = 0
    label: str = "ssm"

    def __post_init__(self):
        if self.N == 0:
            self.N = int(self.A.shape[0])


@dataclass
class DiscreteSsm:
    A_bar: np.ndarray
    B_bar: np.ndarray
    C_bar: np.ndarray


def discretize(ch):
    """Bilinear rule: A_bar=(I-dt/2 A)^{-1}(I+dt/2 A), B_bar=(I-dt/2 A)^{-1} dt B."""
    a = np.asarray(ch.A, dtype=np.float64)
    b = np.asarray(ch.B_in, dtype=np.float64)
    dt = float(np.exp(ch.log_dt))
    n = a.shape[0]
    m = np.eye(n) - 0.5 * dt * a
    try:
        a_bar = np.linalg.solve(m, np.eye(n) + 0.5 * dt * a)
        b_bar = np.linalg.solve(m, dt * b)
    except np.linalg.LinAlgError as e:
        raise NumericsError(
            f"singular discretization matrix for channel '{ch.label}'") from e
    return DiscreteSsm(a_bar, b_bar, np.asarray(ch.C_out, dtype=np.float64))


def materialize_kernel(d, L):
    """k[j] = C_bar . (A_bar^j B_bar) by iterating the state, O(L N^2)."""
    if L < 1:
        raise ValueError("kernel length must be >= 1")
    k = np.empty(L)
    u = d.B_bar.copy()
    for j in range(L):
        k[j] = d.C_bar @ u
        u = d.A_bar @ u
    return k

def scan_recurrent(d, u):
    """Literal recurrence x_k = A_bar x_{k-1} + B_bar u_k, y_k = C_bar x_k."""
    u = np.asarray(u, dtype=np.float64)
    L = u.shape[0]
    x = np.zeros_like(d.B_bar)
    y = np.empty(L)
    for t in range(L):
        x = d.A_bar @ x + d.B_bar * u[t]
        y[t] = d.C_bar @ x
    return y


# ---------------------------------------------------------------------------
# differentiable kernel materialization for a bank of channels

def _batched_discretize(a, b, dt):
    """a: (N,N); b: (N,); dt: (d,) -> A_bar (d,N,N), B_bar (d,N), R (d,N,N)."""
    n = a.shape[0]
    eye = np.eye(n, dtype=a.dtype)
    m = eye[None] - 0.5 * dt[:, None, None] * a[None]
    p = eye[None] + 0.5 * dt[:, None, None] * a[None]
    try:
        r = np.linalg.solve(m, np.broadcast_to(eye, m.shape).copy())
    except np.linalg.LinAlgError as e:
        dets = [float(np.linalg.det(mi)) for mi in m]
        bad = int(np.argmin(np.abs(dets)))
        raise NumericsError(
            f"singular discretization matrix for channel 'c{bad}'") from e
    a_bar = r @ p
    b_bar = np.einsum("dnm,dm->dn", r, dt[:, None] * b[None])
    return a_bar, b_bar, r


def _orbit(m, x0, L):
    """The orbit m^j x0 for j < L, in consecutive blocks.

    m: (d, n, n); x0: (d, n). Yields (j0, s) with s[:, i] = m^(j0+i) x0,
    s of shape (d, b, n). The first block is built by doubling (each step
    appends m^len applied to the states so far); every later block is one
    batched matmul of the previous block with m^_BLOCK. Only the current
    block is alive, so no (L, d, n) history is ever kept.
    """
    s = x0[:, None, :]
    p = m
    while s.shape[1] < min(_BLOCK, L):
        s = np.concatenate([s, s @ np.swapaxes(p, 1, 2)], axis=1)
        p = p @ p
    step = np.swapaxes(p, 1, 2)      # p == m^len(s) here
    for j0 in range(0, L, s.shape[1]):
        if j0:
            s = s @ step
        yield j0, s[:, :L - j0]


def _orbit_sum(m, x0, g):
    """sum_j g[:, j] m^j x0 for g: (d, L) -> (d, n)."""
    acc = np.zeros_like(x0)
    for j0, s in _orbit(m, x0, g.shape[1]):
        acc += np.einsum("dj,djn->dn", g[:, j0:j0 + s.shape[1]], s)
    return acc


def ssm_kernels(C_out, log_dt, B_in, A, L):
    """Materialized kernels for d channels sharing A.

    C_out: (d, N) tensor; log_dt: (d,) tensor; B_in: (N,) constant
    tensor; A: (N, N) constant array. Returns a (d, L) tensor with
    gradients for C_out and log_dt.
    """
    dtype = get_dtype()
    c = C_out.data.astype(np.float64)
    ld = log_dt.data.astype(np.float64)
    bv = B_in.data.astype(np.float64)
    a = np.asarray(A, dtype=np.float64)
    d, n = c.shape
    dt = np.exp(ld)
    a_bar, b_bar, r = _batched_discretize(a, bv, dt)

    k = np.empty((d, L))
    for j0, s in _orbit(a_bar, b_bar, L):
        k[:, j0:j0 + s.shape[1]] = np.einsum("djn,dn->dj", s, c)
    k = k.astype(dtype)

    def vjp(g):
        g64 = g.astype(np.float64)
        # derivatives of A_bar and B_bar in dt; the orbit of the augmented
        # system [[A_bar, A_bar'], [0, A_bar]] from [B_bar'; B_bar] carries
        # the dt-tangent of every state above the state itself
        ra2 = r @ (0.5 * a)
        a_tan = ra2 @ (a_bar + np.eye(n))
        b_tan = np.einsum("dnm,dm->dn", ra2, b_bar) \
            + np.einsum("dnm,m->dn", r, bv)
        m = np.zeros((d, 2 * n, 2 * n))
        m[:, :n, :n] = a_bar
        m[:, :n, n:] = a_tan
        m[:, n:, n:] = a_bar
        h = _orbit_sum(m, np.concatenate([b_tan, b_bar], axis=1), g64)
        dc = h[:, n:]
        dld = dt * np.einsum("dn,dn->d", c, h[:, :n])
        return dc.astype(dtype), dld.astype(dtype)

    return make_op(k, (C_out, log_dt), vjp, "ssm_kernels")


class SsmBank:
    """d channels sharing one frozen A; the trained form of the module.

    Parameters: C_out (d, N), log_dt (d,), D_skip (d,). B_in is fixed at
    its init value; A never trains.
    """

    def __init__(self, d, n, rng, prefix="ssm"):
        a, b = init_s4(n)
        self.d, self.n = d, n
        self.A = a
        self.B_in = Tensor(b.astype(get_dtype()))
        self.C_out = Tensor(rng.normal((d, n), dtype=get_dtype()),
                            requires_grad=True, name=f"{prefix}.C_out")
        lo, hi = np.log(DT_MIN), np.log(DT_MAX)
        self.log_dt = Tensor(
            rng.uniform((d,), lo, hi, dtype=get_dtype()),
            requires_grad=True, name=f"{prefix}.log_dt")
        self.D_skip = Tensor(np.ones(d, dtype=get_dtype()),
                             requires_grad=True, name=f"{prefix}.D_skip")

    def params(self):
        return [self.C_out, self.log_dt, self.D_skip]

    def kernels(self, L):
        return ssm_kernels(self.C_out, self.log_dt, self.B_in, self.A, L)

    def __call__(self, x):
        """x: (B, L, d) tensor -> (B, L, d) tensor."""
        return conv_causal_channels(self.kernels(x.data.shape[1]), x,
                                    self.D_skip)

"""Structured state-space channels.

Each embedding dimension gets an independent single-input single-output
linear state-space system. The continuous (A, B) pair comes from the
HiPPO-LegS init below, is discretized with the bilinear rule of S4 at a
learned per-channel step size, and is applied as a causal convolution
with the materialized kernel k[j] = C A_bar^j B_bar plus a learned skip D.

``discretize`` is the one bilinear rule: it takes the shared (A, B) and a
(d,) vector of steps and returns every channel's (A_bar, B_bar) in
float64. ``SsmBank`` is the one differentiable path: ``ssm_kernels``
builds the d kernels from the state orbit A_bar^j B_bar in fixed-size
blocks (doubling inside the first block, one batched matmul per block
after it), and ``tensor.conv_causal_channels`` applies them with the skip
D inside the same node, so the branch is two tape nodes. The backward of
``ssm_kernels`` walks the same N-state orbit once more: A_bar, its
dt-derivative and (I - dt/2 A)^{-1} are functions of A and commute, so
both gradients are weighted sums over that orbit. ``materialize_kernel``
(state iteration) and ``scan_recurrent`` (the literal recurrence) are the
references; each takes one channel's (A_bar, B_bar, C) arrays, and
neither uses the blocked orbit or the FFT.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    NumericsError, Tensor, conv_causal_channels, get_dtype, make_op,
)

__all__ = [
    "init_s4", "discretize", "materialize_kernel", "scan_recurrent",
    "ssm_kernels", "SsmBank", "DT_MIN", "DT_MAX",
]

DT_MIN = 0.001
DT_MAX = 0.1

# states per orbit block in ssm_kernels (a power of two)
_BLOCK = 64


def init_s4(n):
    """HiPPO-LegS (A, B) for one channel, in closed form.

    A_ij = -(2i+1)^{1/2} (2j+1)^{1/2} below the diagonal (taken as
    -2 P_i P_j with P_i = (i+1/2)^{1/2}), A_ii = -(i+1) and zero above;
    B_i = (2i+1)^{1/2}.
    """
    if n <= 0:
        raise ValueError("state size must be >= 1")
    i = np.arange(n, dtype=np.float64)
    p = np.sqrt(i + 0.5)
    a = np.tril(-2.0 * np.outer(p, p), -1)
    np.fill_diagonal(a, -(i + 1.0))
    b = np.sqrt(2.0 * i + 1.0)
    return a, b


def discretize(a, b, dt):
    """Bilinear rule for d channels that share one (A, B):
    A_bar = (I - dt/2 A)^{-1} (I + dt/2 A), B_bar = (I - dt/2 A)^{-1} dt B.

    a: (N, N); b: (N,); dt: (d,) steps. Returns float64 A_bar (d, N, N)
    and B_bar (d, N). A singular I - dt/2 A raises NumericsError naming
    the channel, 'c<i>' for row i of dt.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    dt = np.asarray(dt, dtype=np.float64)
    eye = np.eye(a.shape[0])
    m = eye[None] - 0.5 * dt[:, None, None] * a[None]
    p = eye[None] + 0.5 * dt[:, None, None] * a[None]
    try:
        r = np.linalg.solve(m, np.broadcast_to(eye, m.shape).copy())
    except np.linalg.LinAlgError as e:
        bad = int(np.argmin(np.abs(np.linalg.det(m))))
        raise NumericsError(
            f"singular discretization matrix for channel 'c{bad}'") from e
    return r @ p, np.einsum("dnm,dm->dn", r, dt[:, None] * b[None])


def materialize_kernel(a_bar, b_bar, c, L):
    """One channel's k[j] = c . (A_bar^j B_bar) by iterating the state,
    O(L N^2): a_bar (N, N), b_bar (N,), c (N,)."""
    if L < 1:
        raise ValueError("kernel length must be >= 1")
    c = np.asarray(c, dtype=np.float64)
    k = np.empty(L)
    u = np.asarray(b_bar, dtype=np.float64)
    for j in range(L):
        k[j] = c @ u
        u = a_bar @ u
    return k


def scan_recurrent(a_bar, b_bar, c, u):
    """One channel's literal recurrence x_k = A_bar x_{k-1} + B_bar u_k,
    y_k = c . x_k: a_bar (N, N), b_bar (N,), c (N,), u (L,)."""
    c = np.asarray(c, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    x = np.zeros(np.shape(b_bar))
    y = np.empty(u.shape[0])
    for t in range(u.shape[0]):
        x = a_bar @ x + b_bar * u[t]
        y[t] = c @ x
    return y


# ---------------------------------------------------------------------------
# differentiable kernel materialization for a bank of channels

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


def ssm_kernels(C_out, log_dt, B_in, A, L):
    """Materialized kernels for d channels sharing A.

    C_out: (d, N) tensor; log_dt: (d,) tensor; B_in: (N,) constant
    tensor; A: (N, N) constant array. Returns a (d, L) tensor with
    gradients for C_out and log_dt.
    """
    dtype = get_dtype()
    c = C_out.data.astype(np.float64)
    a = np.asarray(A, dtype=np.float64)
    d, n = c.shape
    dt = np.exp(log_dt.data.astype(np.float64))
    a_bar, b_bar = discretize(a, B_in.data, dt)

    k = np.empty((d, L))
    for j0, s in _orbit(a_bar, b_bar, L):
        k[:, j0:j0 + s.shape[1]] = np.einsum("djn,dn->dj", s, c)
    k = k.astype(dtype)

    def vjp(g):
        g64 = g.astype(np.float64)
        # dk_j/d dt = c . (j A_bar^(j-1) A_bar' B_bar + A_bar^j B_bar'), and
        # A_bar, A_bar' and R = (I - dt/2 A)^{-1} = (A_bar + I)/2 are all
        # functions of A, so they commute: A_bar' = R A/2 (A_bar + I) and
        # B_bar' = B_bar/dt + R A/2 B_bar. Both gradients then come from
        # h = sum_j g_j A_bar^j B_bar, which is dC_out, and
        # h' = sum_j (j+1) g_(j+1) A_bar^j B_bar:
        # d log_dt = c . (dt R A/2 ((A_bar + I) h' + h) + h)
        w = np.zeros((d, 2, L))
        w[:, 0] = g64
        w[:, 1, :-1] = g64[:, 1:] * np.arange(1, L)
        acc = np.zeros((d, 2, n))
        for j0, s in _orbit(a_bar, b_bar, L):
            acc += w[:, :, j0:j0 + s.shape[1]] @ s
        h, hp = acc[:, 0], acc[:, 1]
        ap = a_bar + np.eye(n)
        v = np.einsum("dnm,dm->dn", ap, hp) + h
        v = np.einsum("dnm,dm->dn", ap, 0.25 * v @ a.T)
        dld = np.einsum("dn,dn->d", c, dt[:, None] * v + h)
        return h.astype(dtype), dld.astype(dtype)

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

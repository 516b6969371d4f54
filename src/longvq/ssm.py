"""Structured state-space channels.

Each embedding dimension gets an independent single-input single-output
linear state-space system. The continuous (A, B) pair comes from the
HiPPO-LegS init below, is discretized with the bilinear rule of S4 at a
learned per-channel step size, and runs causally with a learned skip D:
h_t = A_bar h_(t-1) + B_bar u_t, y_t = C h_t + D u_t. Its impulse
response is the kernel k[j] = C A_bar^j B_bar.

``discretize`` is the one bilinear rule: it takes the shared (A, B) and a
(d,) vector of steps and returns every channel's (A_bar, B_bar) in
float64. ``ssm_scan`` is the one differentiable path and the whole branch
of ``SsmBank``: one tape node that runs the recurrence in blocks of b =
_BLOCK positions, the chunked state passing of Mamba-2's SSD algorithm
(arXiv:2405.21060), which follows from S4's convolution/recurrence
duality. Within a block, each channel's output is one product with the
b x b lower-triangular Toeplitz matrix of k[0:b], D on its diagonal.
Across blocks, the block-end states sum_j A_bar^(b-1-j) B_bar u_j pass on
by A_bar^b and are read out through C A_bar^(i+1). No length-L kernel and
no FFT is formed, and the branch costs O(B L d (b + N)). The small
matrices come from the orbits of B_bar and C under A_bar, in float64;
only the bulk products run in the model dtype. The C and dt gradients are
weighted sums over the same orbits: A_bar, its dt-derivative and
(I - dt/2 A)^{-1} are functions of A and commute.

``ssm_kernels`` gives the (d, L) kernels as the scan's impulse response,
forward only, for ``longvq kernel-dump``: by the same duality, one scan of
a unit impulse with a zero skip returns k. The references, none of them
on the training path, are ``materialize_kernel`` (state iteration) and
``scan_recurrent`` (the literal recurrence), each on one channel's
(A_bar, B_bar, C) arrays, and ``conv_causal_channels``, the causal
convolution by direct per-channel summation. ``ssm_kernels`` and
``conv_causal_channels`` keep their names and signatures because the
benchmark's span table (``perfbench/spans.py``) wraps both. The scan is
the only op here that builds a tape node.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import (
    NumericsError, Tensor, get_dtype, make_op, no_grad, precision,
)

__all__ = [
    "init_s4", "discretize", "materialize_kernel", "scan_recurrent",
    "ssm_kernels", "ssm_scan", "SsmBank", "conv_causal_channels",
    "DT_MIN", "DT_MAX",
]

DT_MIN = 0.001
DT_MAX = 0.1

# positions per block of ssm_scan
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


def conv_causal_channels(kernels, x, skip):
    """Per-channel causal convolution plus a per-channel feedthrough, by
    direct summation: the reference the scan is checked against.

    kernels: (d, L); x: (B, L, d); skip: (d,) arrays. Returns the float64
    (B, L, d) array out[b, t, c] = sum_(j<=t) kernels[c, j] x[b, t-j, c]
    + skip[c] x[b, t, c].
    """
    kernels, x, skip = (np.asarray(v, dtype=np.float64)
                        for v in (kernels, x, skip))
    if x.ndim != 3:
        raise ValueError(f"input must be (B, L, d), got shape {x.shape}")
    B, L, d = x.shape
    if kernels.shape != (d, L):
        raise ValueError(f"kernel bank shape {kernels.shape} != ({d}, {L})")
    if skip.shape != (d,):
        raise ValueError(f"skip shape {skip.shape} != ({d},)")
    out = skip * x
    for i, c in np.ndindex(B, d):
        out[i, :, c] += np.convolve(kernels[c], x[i, :, c])[:L]
    return out


# ---------------------------------------------------------------------------
# a bank of channels: orbits, kernels and the blocked scan

def _squarings(m, n):
    """[m, m^2, m^4, ..., m^(2^(k-1))] for a (d, n, n) stack m, with 2^k
    the first power of two >= n: the powers that double an orbit to n
    states."""
    pw = []
    while 1 << len(pw) < n:
        pw.append(pw[-1] @ pw[-1] if pw else m)
    return pw


def _orbit(pw, x0, n):
    """The orbit s[:, j] = m^j x0 for j < n, of shape (d, n, states), built
    by doubling: each step appends m^len applied to the states so far.
    pw: _squarings(m, n); x0: (d, states)."""
    s = x0[:, None, :]
    for p in pw:
        s = np.concatenate([s, s @ np.swapaxes(p, 1, 2)], axis=1)
    return s[:, :n]


def _fold(pw, v):
    """sum_i m^i v_i over the rows of v (d, n_rows, n): the transpose of
    _orbit's doubling, pairing v_2i + m^(2^k) v_(2i+1) at level k."""
    n = 1 << len(pw)
    v = np.concatenate([v, np.zeros((v.shape[0], n - v.shape[1],
                                     v.shape[2]))], axis=1)
    for p in pw:
        v = v[:, 0::2] + v[:, 1::2] @ np.swapaxes(p, 1, 2)
    return v[:, 0]


def _to_blocks(dst, u):
    """Copy u (B, L, .) into dst, a (B, nb, b, .) view of nb blocks of b
    positions: dst[i, j, p] = u[i, j * b + p], zero past L."""
    B, nb, b = dst.shape[:3]
    L = u.shape[1]
    full = L // b
    dst[:, :full] = u[:, :full * b].reshape(B, full, b, -1)
    if full < nb:
        dst[:, full, :L - full * b] = u[:, full * b:]
        dst[:, full, L - full * b:] = 0


def _tiles(u, b, width):
    """(B, L, d) -> a (B * nb, d, width) buffer whose [..., :b] holds each
    block of b positions transposed, the last block zero-padded. Row
    i * nb + j is block j of sequence i. The transpose stays inside one
    (b, d) tile, and swapping the first two axes gives the channels-first
    view the batched products run on, with no copy."""
    B, L, d = u.shape
    nb = -(-L // b)
    out = np.empty((B * nb, d, width), u.dtype)
    _to_blocks(np.swapaxes(out.reshape(B, nb, d, width)[..., :b], 2, 3), u)
    return out


def _untiles(t, B, L):
    """The inverse of _tiles: (B * nb, d, b) -> (B, L, d), owning its
    memory."""
    y = np.ascontiguousarray(np.swapaxes(t, 1, 2)).reshape(B, -1, t.shape[1])
    return y if y.shape[1] == L else np.ascontiguousarray(y[:, :L])


def _block_matrices(a_bar, b_bar, c, skip, b, dtype):
    """What one block of the scan needs, from each channel's (A_bar, B_bar,
    C, D): the squarings pw of A_bar; the orbits s[:, m] = A_bar^m B_bar
    and r[:, m] = C A_bar^m for m < b, in float64; and in the model dtype
    kt = [T^T; Q^T] (d, b + N, b), W^T (d, b, N) and A_bar^b."""
    d, n = c.shape
    pw = _squarings(a_bar, b)
    s = _orbit(pw, b_bar, b)
    r = _orbit([np.swapaxes(p, 1, 2) for p in pw], c, b)
    k = np.einsum("dmn,dn->dm", s, c)
    k[:, 0] += skip
    # row j of T^T is k[i - j] for i >= j: a window of k behind b - 1 zeros
    kt = np.empty((d, b + n, b), dtype)
    kt[:, :b] = sliding_window_view(
        np.concatenate([np.zeros((d, b - 1)), k], axis=1), b, axis=1)[:, ::-1]
    kt[:, b:] = np.swapaxes(r @ a_bar, 1, 2)
    wt = np.ascontiguousarray(s[:, ::-1], dtype=dtype)
    step = np.linalg.matrix_power(a_bar, b).astype(dtype)
    return pw, s, r, kt, wt, step


def ssm_scan(C_out, log_dt, D_skip, B_in, A, x):
    """The SSM branch of d channels sharing A, skip included, as one node.

    C_out: (d, N) tensor; log_dt, D_skip: (d,) tensors; B_in: (N,)
    constant tensor; A: (N, N) constant array; x: (B, L, d) tensor.
    Returns the (B, L, d) tensor y[., t, c] = sum_(j<=t) k_c[t-j] x[., j, c]
    + D_c x[., t, c], with gradients for C_out, log_dt, D_skip and x.

    x is cut into nb blocks of b = min(_BLOCK, L) positions. With u a
    block's inputs and H the state entering it, the block's output is
    [u | H] @ [T | Q]^T, one batched GEMM over the channels: T is the
    Toeplitz matrix of k[0:b] with k[0] + D on the diagonal, and Q[i] =
    C A_bar^(i+1). Its end state A_bar^b H + u @ W^T, W[:, j] =
    A_bar^(b-1-j) B_bar, enters the next block. The backward is the
    transposed products and the reverse state recursion. The node keeps x
    (a parent), the (B * nb, d, N) entering states and each channel's
    (A_bar, B_bar, C, D); the backward cuts x's blocks and builds the
    block matrices again, so no other (B, L, d)-sized array, and none of
    (d, b, b) size, waits on the tape.

    The backward holds at most two tile buffers of B * nb * d * (b + N)
    entries at once, [dy | d own] and [u | H], beside the per-channel
    matrices, O(d (b + N)^2), and the float64 orbits. dx's blocks are
    written into the [u | H] tiles after their last read, and [dy | d own]
    is freed before dx is copied out. At the lm recipe's shape (B=32,
    L=256, d=64, N=16, float32) that is 9.5 MB of transients, the 2 MB dx
    included.
    """
    if x.ndim != 3:
        raise ValueError(f"input must be (B, L, d), got shape {x.data.shape}")
    B, L, d = x.data.shape
    if B < 1:
        raise ValueError(f"input must hold at least one sequence, got shape "
                         f"{x.data.shape}")
    if L < 1:
        raise ValueError(f"input must hold at least one position, got shape "
                         f"{x.data.shape}")
    if C_out.data.shape[0] != d:
        raise ValueError(f"input has {d} channels, the SSM bank "
                         f"{C_out.data.shape[0]}")
    n = C_out.data.shape[1]
    for name, got, want in (("log_dt", log_dt.data.shape, (d,)),
                            ("D_skip", D_skip.data.shape, (d,)),
                            ("B_in", B_in.data.shape, (n,)),
                            ("A", np.shape(A), (n, n))):
        if got != want:
            raise ValueError(f"{name} must have shape {want}, got {got}")
    dtype = get_dtype()
    c = C_out.data.astype(np.float64)
    a = np.asarray(A, dtype=np.float64)
    dt = np.exp(log_dt.data.astype(np.float64))
    a_bar, b_bar = discretize(a, B_in.data, dt)
    b = min(_BLOCK, L)
    nb = -(-L // b)
    skip = D_skip.data.astype(np.float64)
    _, _, _, kt, wt, step = _block_matrices(a_bar, b_bar, c, skip, b, dtype)
    xt = _tiles(x.data, b, b + n)                             # [u | H]
    xb = np.swapaxes(xt, 0, 1)
    own = (xb[..., :b] @ wt).reshape(d, B, nb, n)
    h = np.moveaxis(xt.reshape(B, nb, d, b + n)[..., b:], 2, 0)
    h[:, :, 0] = 0.0
    step_t = np.swapaxes(step, 1, 2)
    for j in range(1, nb):
        h[:, :, j] = h[:, :, j - 1] @ step_t + own[:, :, j - 1]
    entering = xt[..., b:].copy()                             # (B * nb, d, N)
    yt = np.empty((B * nb, d, b), dtype)
    np.matmul(xb, kt, out=np.swapaxes(yt, 0, 1))
    y = _untiles(yt, B, L)

    def vjp(g):
        pw, s, r, kt, wt, step = _block_matrices(a_bar, b_bar, c, skip, b,
                                                 dtype)
        gd = np.empty((d, B * nb, b + n), dtype)              # [dy | d own]
        _to_blocks(np.moveaxis(gd.reshape(d, B, nb, b + n)[..., :b], 0, 3),
                   g)
        dh = (gd[..., :b] @ np.swapaxes(kt[:, b:], 1, 2)).reshape(d, B, nb, n)
        down = gd.reshape(d, B, nb, b + n)[..., b:]
        down[:, :, nb - 1] = 0.0
        lam = dh[:, :, nb - 1]
        for j in range(nb - 1, 0, -1):
            down[:, :, j - 1] = lam
            lam = dh[:, :, j - 1] + lam @ step
        tw = np.concatenate([np.swapaxes(kt[:, :b], 1, 2),
                             np.swapaxes(wt, 1, 2)], axis=1)  # [T; W]
        del kt, wt, dh, down, lam
        xt = _tiles(x.data, b, b + n)
        xt[..., b:] = entering
        # [[dT^T, dW^T], [dQ^T, dG^T]] = [u | H]^T [dy | d own]
        dp = np.swapaxes(xt, 0, 1).swapaxes(1, 2) @ gd
        # dx's blocks [dy | d own] @ [T; W] go into x's, no longer read
        np.matmul(gd, tw, out=np.swapaxes(xt[..., :b], 0, 1))
        del gd, tw
        dx = _untiles(xt[..., :b], B, L)
        del xt
        dkt = dp[..., :b]
        dwt = dp[..., b:].astype(np.float64)
        # k[m] sits on the m-th superdiagonal of T^T
        dk = np.stack([np.trace(dkt[:, :b], m, 1, 2, dtype=np.float64)
                       for m in range(b)], axis=1)
        dq = np.swapaxes(dkt[:, b:], 1, 2).astype(np.float64)
        dg = np.swapaxes(dwt[:, b:], 1, 2)
        # Every small matrix is a function of A_bar times B_bar or C:
        # k[m] = C s_m, W[:, j] = s_(b-1-j), Q[i] = C A_bar^(i+1) and
        # A_bar^b. Their weights om[m] = dk[m] C + dW[:, b-1-m] pair with
        # s_m, and dC = sum_m dk[m] s_m + A_bar sum_i A_bar^i dQ[i]. For
        # dt, A_bar' = F (A_bar + I) and B_bar' = F B_bar + B_bar/dt with
        # F = R A/2 and R = (I - dt/2 A)^{-1} = (A_bar + I)/2; all are
        # functions of A and commute, so (A_bar^m)' = m A_bar^(m-1) A_bar'
        # and d dt = <A_bar', me> + <F, mf> + (om . s)/dt, where me and mf
        # collect the orbit terms that meet A_bar' and F.
        om = dk[..., None] * c[:, None] + dwt[:, b - 1::-1]
        me = (np.swapaxes(om[:, 1:] * np.arange(1, b)[:, None], 1, 2)
              @ s[:, :-1]
              + np.swapaxes(r, 1, 2) @ (dq * np.arange(1, b + 1)[:, None])
              + b * np.swapaxes(np.linalg.matrix_power(a_bar, b - 1), 1, 2)
              @ dg)
        mf = np.swapaxes(om, 1, 2) @ s
        ap = a_bar + np.eye(n)
        dld = dt * np.einsum("dij,dij->d", 0.25 * ap @ a,
                             me @ np.swapaxes(ap, 1, 2) + mf) \
            + np.einsum("dmn,dmn->d", om, s)
        dc = np.einsum("dm,dmn->dn", dk, s) \
            + np.einsum("dnm,dm->dn", a_bar, _fold(pw, dq))
        return (dc.astype(dtype), dld.astype(dtype), dk[:, 0].astype(dtype),
                dx)

    return make_op(y, (C_out, log_dt, D_skip, x), vjp, "ssm_scan")


def ssm_kernels(c, log_dt, b_in, a, L):
    """Materialized kernels k[c, j] = C A_bar^j B_bar of d channels
    sharing A, forward only: the impulse response of ``ssm_scan``, run
    once in float64 on a (1, L, d) unit impulse with a zero skip.

    c: (d, N); log_dt: (d,); b_in: (N,); a: (N, N) arrays. Returns a
    (d, L) array at the model dtype.
    """
    if L < 1:
        raise ValueError("kernel length must be >= 1")
    dtype = get_dtype()
    d = np.shape(c)[0]
    x = np.zeros((1, L, d))
    x[0, 0] = 1.0
    with precision("float64"), no_grad():
        y = ssm_scan(Tensor(c), Tensor(log_dt), Tensor(np.zeros(d)),
                     Tensor(b_in), a, Tensor(x))
    return np.ascontiguousarray(y.data[0].T, dtype=dtype)


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
        """The (d, L) kernels at the current parameters, as an array."""
        return ssm_kernels(self.C_out.data, self.log_dt.data,
                           self.B_in.data, self.A, L)

    def __call__(self, x):
        """x: (B, L, d) tensor -> (B, L, d) tensor."""
        return ssm_scan(self.C_out, self.log_dt, self.D_skip, self.B_in,
                        self.A, x)

"""Linear-time attention over quantized keys.

Because every key row equals a codeword, the score matrix has at most S
distinct columns. Queries run in row chunks. A chunk adds its local keys
directly: those within w of it and, when causal, its own keys, which its
prefix stats leave out, with the learned bias on the |i-j| <= w band. It
meets every other key, a far key, once per (query, code) pair through the
code's far count and value sum: the chunk's stats less the local keys
they count. So each key enters a row once, and nothing is taken back.
Output equals the dense quadratic computation on the same quantized
inputs up to reassociation error.

Causal stats hold, for chunk t, the prefix over all chunks before t. The
op takes the chunk from the stats and accepts any chunk >= max(1, w); each
is exact. The layer's choice (stats_chunk) is max(64, w), the same row
block the op uses when bidirectional stats cover the whole sequence. One
forward and one backward kernel serve every attention function and both
directions, with the batch axis in every product, so the Python loop runs
over chunks only.

The stats are a cache of (z, V): the op rebuilds them with the same
builder and requires bitwise equality, and it requires K_hat == C[z].
Stale stats raise ValueError naming the field and the first offending
batch, chunk and code. These checks see the full codebook; the kernels
then run on the codes the batch uses (_in_use). A code no key uses has
n = 0 and U = 0 in every chunk, so it adds no far-field term.

The whole thing is one tape op: straight-through quantization needs
per-position key gradients, which cannot be recovered from any gradient of
the code aggregates (U, n), so the backward assembles the dense-equivalent
dK_hat exactly, by one of two contractions of the same sum (_backward).
The codebook itself is a constant here and never receives gradients.

Cost model, in multiply-adds per query row, with S_u the number of codes
the batch uses (at most S). The forward's far field costs S_u·(dz + dv).
The exact far-field key gradient costs min(S_u·dz·dv, counted_keys·(dz +
dv)): the per-code accumulator Tm, whatever L, or the pairwise
contraction over the row's far keys, counted as the keys its stats count
(the prefix before its chunk when causal, all L when not). Each call
takes the side whose sum over its chunks is smaller, so the backward
stays linear in L. At dz=16, dv=32 the pairwise side wins below L ≈
2·S_u·dz·dv / (dz + dv) + 64 with 64-row causal chunks (about 1430 with
S_u=64) and below L ≈ S_u·dz·dv / (dz + dv) when bidirectional (about
2730 with S_u=256); a bidirectional L=1024 batch that uses 96 codes or
fewer takes the accumulator. The dense computation costs about
3·L·(dz + dv) per row, forward plus backward.

Each attention function is defined once, as the numpy pair (f, f') of
phi_table: the relu^2 and Laplace maps of MEGA (arXiv:2209.10655). The
dense oracle's weights node reads the same pair. The Laplace map imports
scipy.special's erf when it first runs, so a softmax or relu^2 process
never loads scipy.special. A chunk's code and
local logits share one buffer, -inf wherever the row sees nothing, and
one rule, _weights, turns it into weights for the forward, the backward
and the entropy: exp(logit - shift) for softmax, f otherwise; both take
-inf to 0.

The same walk gives each attention row's entropy (attn_row_entropy)
without values or an L x L array. With weights W >= 0 (exp(logit - row
max) for softmax, phi(logit) otherwise), row total T_i and p = W / T_i,
H_i = -(sum_c n0_c p_ic log p_ic + sum_local p_ij log p_ij): O(S) per row
for the far field, and no log T - sum W log W / T cancellation.

Shapes: Q (B,L,z_dim), K_hat (B,L,z_dim), V (B,L,v_dim) and z (B,L); a
single sequence is B = 1. bias (2w+1,) is indexed by relative offset
i-j+w.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .tensor import Tensor, _first_out_of_range, _key_sums, make_op

__all__ = ["CodeStats", "build_code_stats", "stats_chunk", "attn_factored",
           "attn_row_entropy", "phi_table"]

# query rows per block: the op's block for whole-sequence stats and the
# layer's causal chunk unless the window is wider; any value is exact, this
# one keeps the far-field products near BLAS speed while the per-block
# temporaries stay small
_ROWS = 64

# laplace attention function 0.5 * (1 + erf((x - mu) / (sigma * sqrt(2))))
# and its derivative, the normal density; the constants are Python floats,
# since a numpy float64 scalar would promote float32 inputs to float64
LAPLACE_MU = float(np.sqrt(0.5))
LAPLACE_SIGMA = float(np.sqrt(0.25 / np.pi))
_LAPLACE_ERF_SCALE = float(LAPLACE_SIGMA * np.sqrt(2.0))
_LAPLACE_PDF_SCALE = float(LAPLACE_SIGMA * np.sqrt(2.0 * np.pi))


def _relu2(x):
    r = np.maximum(x, 0.0)
    return r * r


def _drelu2(x):
    return 2.0 * np.maximum(x, 0.0)


def _laplace(x):
    from scipy.special import erf

    return 0.5 * (1.0 + erf((x - LAPLACE_MU) / _LAPLACE_ERF_SCALE))


def _dlaplace(x):
    u = (x - LAPLACE_MU) / LAPLACE_SIGMA
    return np.exp(-0.5 * u * u) / _LAPLACE_PDF_SCALE


def phi_table(name):
    """Elementwise attention function and derivative (f, f'), numpy level:
    relu(x)^2, or the Laplace map, a CDF bounded in [0, 1]."""
    if name == "relu2":
        return _relu2, _drelu2
    if name == "laplace":
        return _laplace, _dlaplace
    raise ValueError(f"unknown attention function '{name}'")


@dataclass
class CodeStats:
    """Counts n and value sums U of the code-to-position assignment.

    Bidirectional: n (..., S), U (..., S, v) over the whole sequence.
    Causal: chunk axis at -2 of n; entry t holds the prefix over all chunks
    strictly before t (entry 0 is all zeros). chunk == 0 means global.
    """
    z: np.ndarray
    n: np.ndarray
    U: np.ndarray
    chunk: int = 0


def stats_chunk(window, causal):
    """Chunk length for the stats of a layer: max(64, window) when causal,
    None (whole sequence) otherwise. The op accepts any causal chunk
    >= max(1, window); 64 rows cut the per-chunk passes from L/w to L/64
    while each chunk's products stay small."""
    return max(_ROWS, window) if causal else None


def _chunk_sums(z, v, S, cs):
    """Code counts (B, T, S) and float64 value sums (B, T, S, dv) of each
    chunk of cs positions of z (B, L), v (B, L, dv). Both add in position
    order, so a rebuild is bitwise equal."""
    B, L, dv = v.shape
    T = -(-L // cs)
    key = ((np.arange(B)[:, None] * T + np.arange(L) // cs) * S + z).ravel()
    cnt = np.bincount(key, minlength=B * T * S)
    sums = _key_sums(key, v.reshape(B * L, dv), B * T * S)
    return cnt.reshape(B, T, S), sums.reshape(B, T, S, dv)


def _code_stats(z, v, S, chunk):
    """Batched (n, U): per-chunk exclusive prefixes when chunk is set,
    whole-sequence totals when it is None; stored in v's dtype."""
    cnt, sums = _chunk_sums(z, v, S, chunk or v.shape[1])
    if chunk is None:
        return cnt[:, 0].astype(v.dtype), sums[:, 0].astype(v.dtype)
    # a loop of contiguous adds is much faster than cumsum on this axis
    for t in range(1, cnt.shape[1]):
        cnt[:, t] += cnt[:, t - 1]
        sums[:, t] += sums[:, t - 1]
    n = np.zeros(cnt.shape, dtype=v.dtype)
    U = np.zeros(sums.shape, dtype=v.dtype)
    n[:, 1:] = cnt[:, :-1]
    U[:, 1:] = sums[:, :-1]
    return n, U


def build_code_stats(z, V, S, causal, chunk=None):
    """Exact per-code counts and value sums; prefix-per-chunk when causal.

    z is (B, L) and V (B, L, dv), a Tensor or array.
    """
    z = np.asarray(z)
    v = V.data if isinstance(V, Tensor) else np.asarray(V)
    if z.ndim != 2 or v.ndim != 3 or z.shape != v.shape[:2]:
        raise ValueError(f"build_code_stats takes z (B, L) and V (B, L, dv), "
                         f"got z {z.shape} and V {v.shape}")
    at = _first_out_of_range(z, S)
    if at is not None:
        raise ValueError(f"shortcode {z[at]} at batch {at[0]}, position "
                         f"{at[1]} is outside [0, {S})")
    if causal and (chunk is None or chunk < 1):
        raise ValueError("causal stats need a chunk size >= 1")
    chunk = chunk if causal else None
    n, U = _code_stats(z, v, S, chunk)
    return CodeStats(z=z, n=n, U=U, chunk=chunk or 0)


def _checked_stats(stats, kh, v, C, w, causal):
    """(z, n, U) and the row chunk, after checking that the stats
    belong to this K_hat and V."""
    B, L, dv = v.shape
    S = C.shape[0]
    if causal:
        cs = stats.chunk
        if cs < max(1, w):
            raise ValueError(f"causal stats chunk {cs} is below "
                             f"max(1, window) = {max(1, w)}")
        per_chunk = (-(-L // cs),)
    else:
        cs, per_chunk = _ROWS, ()
    want = {"z": (B, L), "n": (B,) + per_chunk + (S,),
            "U": (B,) + per_chunk + (S, dv)}
    got = {}
    for name, shape in want.items():
        got[name] = np.asarray(getattr(stats, name))
        if got[name].shape != shape:
            raise ValueError(f"stats.{name} has shape {got[name].shape}, "
                             f"expected {shape}")
    z = got["z"]
    if not np.array_equal(kh, C[z]):
        raise ValueError("stats/z mismatch: K_hat rows are not C[z]")
    ref = dict(zip("nU", _code_stats(z, v, S, cs if causal else None)))
    for name in "nU":
        if not np.array_equal(got[name], ref[name]):
            at = np.argwhere(got[name] != ref[name])[0]
            place = (f"batch {at[0]}, chunk {at[1]}, code {at[2]}" if causal
                     else f"batch {at[0]}, code {at[1]}")
            raise ValueError(f"stats/z mismatch: stats.{name} differs from "
                             f"the counts of z and V at {place}")
    return z, got["n"], got["U"], cs


def _in_use(z, C, n, U):
    """The codebook, shortcodes and stats cut to the codes z uses. A code
    with no key has n = 0 and U = 0 in every chunk: its logit is masked
    and no key reads its accumulator rows, so dropping it is exact."""
    u, zu = np.unique(z, return_inverse=True)
    return zu.reshape(z.shape), C[u], n[..., u], U[..., u, :]


# ---------------------------------------------------------------------------
# the kernels

def _chunk(t, q, kh, z, v, n, U, C, b, scale, w, cs, causal):
    """What chunk t, rows [lo, hi), needs in both passes.

    Its local keys [klo, khi) are the w keys before it, then the chunk
    itself when causal or the chunk and the w keys after it when not.
    Every other key is far: the chunk meets it through the far count and
    value sum of its code, the chunk's stats (the prefix when causal) less
    the local keys they count too (the first kc, shared). So each key
    enters a row once. Returns the logit buffer X (B, r, S + k) = [code
    logits | local logits + bias], -inf wherever the row sees nothing (a
    code with no far key, a local key after a causal row); the matching
    keys as columns K (B, dz, S + k), pre-scaled, values V (B, S + k, dv),
    counts cnt (B, S + k) = [n0 | 1]; the clipped offsets for dbias; and
    the slice of the shared keys.
    """
    B, L, _ = q.shape
    S, dv = C.shape[0], v.shape[2]
    lo = t * cs
    hi = min(lo + cs, L)
    klo = max(0, lo - w)
    khi = hi if causal else min(L, hi + w)
    kc = (lo if causal else khi) - klo          # local keys the stats count
    # offset i - j + w + 1, clipped to [0, 2w + 2]: the ends are off the band
    off = np.clip(np.arange(lo, hi)[:, None] - np.arange(klo, khi), -w - 1,
                  w + 1) + w + 1
    nb, Ub = (n[:, t], U[:, t]) if causal else (n, U)
    k = khi - klo
    key = (np.arange(B)[:, None] * S + z[:, klo:klo + kc]).ravel()
    per = np.bincount(key, minlength=B * S)
    cnt = np.ones((B, S + k), dtype=nb.dtype)
    cnt[:, :S] = nb - per.reshape(B, S)
    # sum the shared keys' values only for the (batch, code) pairs they
    # hold, each pair at its rank among them, and take them out at its row
    pair = np.flatnonzero(per)
    rank = np.cumsum(per > 0) - 1
    V = np.concatenate([Ub, v[:, klo:khi]], axis=1)
    V.reshape(B * (S + k), dv)[pair + pair // S * k] -= _key_sums(
        rank[key], v[:, klo:klo + kc].reshape(B * kc, dv),
        pair.size).astype(v.dtype)
    K = scale * np.concatenate([np.broadcast_to(C.T, (B,) + C.T.shape),
                                kh[:, klo:khi].transpose(0, 2, 1)], axis=2)
    X = q[:, lo:hi] @ K
    ninf = X.dtype.type(-np.inf)            # a float64 mask would upcast
    if not cnt[:, :S].all():
        X[..., :S] += np.where(cnt[:, None, :S] > 0, 0, ninf)
    tab = np.zeros(2 * w + 3, dtype=X.dtype)    # what each offset adds
    tab[1:-1] = b
    if causal:
        tab[:w + 1] = ninf                      # a key after the row
    X[..., S:] += tab[off]
    return SimpleNamespace(lo=lo, hi=hi, klo=klo, khi=khi, off=off, X=X, K=K,
                           V=V, cnt=cnt, shared=slice(klo, klo + kc))


def _weights(X, phi, shift=None):
    """Weights of a logit buffer and the softmax shift: phi(X) for an
    elementwise map (f or f' of phi_table), which takes -inf to 0, or,
    for softmax (phi None), exp(X - shift) with the shift the row max
    unless given (the backward passes the row log-normalizers)."""
    if phi is not None:
        return phi(X), None
    if shift is None:
        shift = X.max(axis=2, keepdims=True)
    W = X - shift
    return np.exp(W, out=W), shift


def _forward(q, kh, v, b, C, z, n, U, scale, w, cs, causal, phi):
    """Outputs (B, L, dv) and, for softmax (phi None), row log-normalizers.
    The denominator only adds, so a bias that annihilates the local keys
    of a row cannot cancel its far field."""
    B, L, _ = q.shape
    out = np.empty((B, L, v.shape[2]), dtype=q.dtype)
    lse = np.empty((B, L), dtype=q.dtype) if phi is None else None
    f = phi[0] if phi else None
    for t in range(-(-L // cs)):
        c = _chunk(t, q, kh, z, v, n, U, C, b, scale, w, cs, causal)
        W, m = _weights(c.X, f)
        out[:, c.lo:c.hi] = W @ c.V
        if phi is None:
            den = (W @ c.cnt[..., None])[..., 0]
            out[:, c.lo:c.hi] /= den[..., None]
            lse[:, c.lo:c.hi] = m[..., 0] + np.log(den)
    return out, lse


def _pairwise_is_cheaper(L, S, dz, dv, cs, causal):
    """Whether the pairwise key-gradient contraction takes fewer
    multiply-adds than the per-code accumulator: sum over query chunks of
    rows * counted keys * (dz + dv) against L * S * dz * dv."""
    lo = np.arange(0, L, cs)
    rows = np.minimum(lo + cs, L) - lo
    keys = lo if causal else L
    return int((rows * keys).sum()) * (dz + dv) < L * S * dz * dv


def _backward(q, kh, v, b, C, z, n, U, scale, w, cs, causal, phi, g, out,
              lse):
    """(dQ, dK_hat, dV, dbias) in one pass over the chunks, last first.

    E = W' * (g V^T - r cnt) is the gradient of a chunk's logit buffer
    (W' = W and r_i = g_i.out_i under softmax, W' = f'(X) and r = 0 under
    phi). It gives dQ, and dK_hat, dV and dbias of the local keys. A far
    key j of code c takes sum_i W'_ic (g_i.v_j - r_i) q_i over the rows of
    every chunk that counts it as far, by one of two exact contractions;
    each call takes the one with fewer multiply-adds (_pairwise_is_cheaper):
      - pairwise: each chunk gathers its far W' at every far key's code
        and adds M^T q with M_ji = W'_{i,z_j} (v_j.g_i - r_i); far
        keys·(dz + dv) per query row.
      - accumulator: per-code Tm = sum_i W'_ic q_i g_i^T and, for softmax,
        y = sum_i W_ic r_i q_i, read as Tm_c v_j - y_c; S·dz·dv per query
        row, whatever L. Causal keys read before their own chunk is
        added, bidirectional keys once every chunk is in. The reads reach
        a chunk's shared keys too; it takes them back by the pairwise gather.
    Far value gradients read F = sum_i W_ic g_i per code, and each chunk
    takes its own part back off its shared keys; a softmax W is at most 1,
    so nothing large cancels. The accumulators are (B, S, .) and every
    temporary is one chunk of rows.
    """
    B, L, dz = q.shape
    S, dv = C.shape[0], v.shape[2]
    dQ, dK, dV = np.zeros_like(q), np.zeros_like(kh), np.zeros_like(v)
    db = np.zeros_like(b)
    F = np.zeros((B, S, dv), dtype=q.dtype)
    bi = np.arange(B)[:, None]
    zb = bi * S + z                         # each key's row of (B*S, r)
    pairwise = _pairwise_is_cheaper(L, S, dz, dv, cs, causal)
    if not pairwise:
        Tm = np.zeros((B, S, dz * dv), dtype=q.dtype)
        y = np.zeros((B, S, dz), dtype=q.dtype)

    def read(lo, hi):
        # plain fancy indexing: take_along_axis would broadcast an int64
        # index over the trailing dz*dv axis of Tm
        zc = z[:, lo:hi]
        dV[:, lo:hi] += F[bi, zc]
        if pairwise:
            return
        Tg = Tm[bi, zc].reshape(B, hi - lo, dz, dv)
        far = (Tg @ v[:, lo:hi, :, None])[..., 0]
        dK[:, lo:hi] += scale * (far - y[bi, zc])

    for t in range(-(-L // cs) - 1, -1, -1):
        c = _chunk(t, q, kh, z, v, n, U, C, b, scale, w, cs, causal)
        if causal:
            read(c.lo, c.hi)
        qr, gr = q[:, c.lo:c.hi], g[:, c.lo:c.hi]
        sq = scale * qr
        gV = gr @ c.V.transpose(0, 2, 1)                     # (B, r, S + k)
        if phi is None:
            Wd = W = _weights(c.X, None, lse[:, c.lo:c.hi, None])[0]
            r = (out[:, c.lo:c.hi] * gr).sum(axis=2)[..., None]
            E = W * (gV - r * c.cnt[:, None, :])
        else:
            W, Wd = phi[0](c.X), phi[1](c.X)
            E = Wd * gV
        dQ[:, c.lo:c.hi] += E @ c.K.transpose(0, 2, 1)
        El = E[..., S:]
        db += np.bincount(c.off.ravel(), weights=El.sum(axis=0).ravel(),
                          minlength=2 * w + 3)[1:-1]
        dK[:, c.klo:c.khi] += El.transpose(0, 2, 1) @ sq
        WG = W.transpose(0, 2, 1) @ gr                       # (B, S + k, dv)
        F += WG[:, :S]
        dV[:, c.klo:c.khi] += WG[:, S:]
        dV[:, c.shared] -= WG[bi, z[:, c.shared]]
        # one row gather from a contiguous (B*S, r) copy of the far W'^T
        WdT = Wd[..., :S].transpose(0, 2, 1).reshape(B * S, -1)

        def far_terms(ks):
            M = WdT[zb[:, ks]]
            Pk = v[:, ks] @ gr.transpose(0, 2, 1)            # (B, k, r)
            if phi is None:
                Pk -= r.transpose(0, 2, 1)
            M *= Pk
            return M @ sq

        if pairwise:
            dK[:, :c.klo] += far_terms(slice(0, c.klo))
            if not causal:
                dK[:, c.khi:] += far_terms(slice(c.khi, L))
        else:
            qg = (qr[..., None] * gr[..., None, :]).reshape(*qr.shape[:2], -1)
            Tm += WdT.reshape(B, S, -1) @ qg
            if phi is None:                  # W' = W
                y += WdT.reshape(B, S, -1) @ (r * qr)
            dK[:, c.shared] -= far_terms(c.shared)
    if not causal:
        for lo in range(0, L, cs):
            read(lo, min(lo + cs, L))
    return dQ, dK, dV, db


# ---------------------------------------------------------------------------
# the public op

def attn_factored(Q, cb, stats, K_hat, V, bias, cfg):
    """Linear-time attention equal to the dense path on quantized keys.

    Q, K_hat, V: (B, L, .) tensors; bias: (2w+1,) tensor; cb: Codebook;
    stats: CodeStats from build_code_stats on the same z and V (causal
    chunk >= max(1, w)); cfg needs attn_fn / window / causal / scale.
    The stats, K_hat == C[z], the shapes and the chunk are checked against
    the full codebook; the forward and backward kernels then run on the
    codes z uses, which is exact up to summation order.
    """
    C, w, causal = cb.C, cfg.window, cfg.causal
    q, kh, v = Q.data, K_hat.data, V.data
    for name, x in (("Q", q), ("K_hat", kh), ("V", v)):
        if x.ndim != 3:
            raise ValueError(f"attn_factored takes (B, L, .) inputs, got "
                             f"{name} of shape {x.shape}")
    if bias.data.shape != (2 * w + 1,):
        raise ValueError(f"bias must have shape ({2 * w + 1},), got "
                         f"{bias.data.shape}")
    z, n, U, cs = _checked_stats(stats, kh, v, C, w, causal)
    z, C, n, U = _in_use(z, C, n, U)
    phi = None if cfg.attn_fn == "softmax" else phi_table(cfg.attn_fn)
    args = (q, kh, v, bias.data, C, z, n, U, cfg.scale, w, cs, causal,
            phi)
    out, lse = _forward(*args)
    return make_op(out, (Q, K_hat, V, bias),
                   lambda g: _backward(*args, g, out, lse), "attn_factored")


# ---------------------------------------------------------------------------
# the row-entropy diagnostic

def _xlogx(x):
    return x * np.log(np.where(x > 0, x, 1.0))


def attn_row_entropy(q, z, bias, C, cfg):
    """(B, L) entropy of each attention row over the keys it sees, divided
    by log(visible keys): i+1 when causal, L otherwise; linear in L.

    q (B, L, z_dim) and z (B, L) are arrays, bias (2w+1,), C the (S, z_dim)
    codewords; values do not enter. An all-zero relu2 row reads 0 and a
    row that sees one key reads 1."""
    q, z = np.asarray(q), np.asarray(z)
    B, L, _ = q.shape
    w, causal = cfg.window, cfg.causal
    cs = stats_chunk(w, True)           # any row block is exact
    n, U = _code_stats(z, q[..., :0], C.shape[0], cs if causal else None)
    z, C, n, U = _in_use(z, C, n, U)
    kh = C[z]
    f = None if cfg.attn_fn == "softmax" else phi_table(cfg.attn_fn)[0]
    H = np.empty((B, L), dtype=q.dtype)
    for t in range(-(-L // cs)):
        c = _chunk(t, q, kh, z, q[..., :0], n, U, C, bias, cfg.scale, w, cs,
                   causal)
        W, _ = _weights(c.X, f)
        cnt = c.cnt[..., None]
        T = W @ cnt
        H[:, c.lo:c.hi] = -(_xlogx(W / np.where(T > 0, T, 1.0)) @ cnt)[..., 0]
    keys = np.arange(1, L + 1) if causal else np.full(L, L)
    return np.where(keys > 1, H / np.log(np.maximum(keys, 2)), 1.0)

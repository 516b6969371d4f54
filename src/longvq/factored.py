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
block the op uses when bidirectional stats cover the whole sequence.

Each call builds one plan (_Plan) that the forward, the backward and the
row entropy walk, for every attention function and both directions, with
the batch axis in every product, so the Python loop runs over chunks
only. Every chunk's far counts, code mask and take-out sums come from one
keyed pass over all chunks' shared keys, and the bias table is indexed
once as a band. A walk fills one key buffer and one value buffer [V |
cnt], whose last column is the count, so one product gives the softmax
numerator and denominator. Only the plan, the output and the row
log-normalizers cross to the backward, which recomputes each chunk's
logits, as FlashAttention-2 (arXiv:2307.08691) recomputes its tiles.

The stats are a view (CodeStats) of what they are a pure function of:
z, V, the codebook size S and the chunk; making the view checks z against
V and S. The op checks that the view holds its own V and S and that K_hat
== C[z], then counts n and U once, so no count can go stale. These checks
see the full codebook; the kernels then run on the codes the batch uses
(_in_use). A code no key uses has n = 0 and U = 0 in every chunk, so it
adds no far-field term.

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
never loads scipy.special. One rule, _weights, turns a chunk's logits
into weights: exp(logit - shift) in place for softmax, f otherwise; both
take a masked logit (-inf) to 0.

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

# entries of far weights the backward gathers at once (0.5 MB in float32)
_GATHER = 1 << 17

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


@dataclass(frozen=True, eq=False)
class CodeStats:
    """A checked view of what the code stats are a pure function of:
    shortcodes z (B, L) in [0, S), values v (B, L, dv) and the chunk.

    The code counts n are built on each read, in v's dtype: (B, S) over
    the whole sequence when bidirectional (chunk == 0); when causal, a
    chunk axis at -2, whose entry t holds the prefix over all chunks
    strictly before t (entry 0 is all zeros). The op counts n and the
    value sums U itself (_code_stats).
    """
    z: np.ndarray
    v: np.ndarray
    S: int
    chunk: int = 0

    def __post_init__(self):
        z, v = np.asarray(self.z), np.asarray(self.v)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "v", v)
        if z.ndim != 2 or v.ndim != 3 or z.shape != v.shape[:2]:
            raise ValueError(f"build_code_stats takes z (B, L) and V (B, L, "
                             f"dv), got z {z.shape} and V {v.shape}")
        if z.shape[1] < 1:
            raise ValueError(f"z and V must hold at least one position, got "
                             f"z {z.shape} and V {v.shape}")
        at = _first_out_of_range(z, self.S)
        if at is not None:
            raise ValueError(f"shortcode {z[at]} at batch {at[0]}, position "
                             f"{at[1]} is outside [0, {self.S})")

    @property
    def n(self):
        # counted over a zero-width V: the value sums cost nothing
        return _code_stats(self.z, self.v[..., :0], self.S,
                           self.chunk or None)[0]


def stats_chunk(window, causal):
    """Chunk length for the stats of a layer: max(64, window) when causal,
    None (whole sequence) otherwise. The op accepts any causal chunk
    >= max(1, window); 64 rows cut the per-chunk passes from L/w to L/64
    while each chunk's products stay small."""
    return max(_ROWS, window) if causal else None


def _chunk_sums(z, v, S, cs):
    """Code counts (B, T, S) and float64 value sums (B, T, S, dv) of each
    chunk of cs positions of z (B, L), v (B, L, dv). Both add in position
    order, so a view's n equals the op's bitwise."""
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
    """The checked CodeStats view of z (B, L) and V (B, L, dv), a Tensor
    or array; prefix-per-chunk when causal. It counts nothing: the op
    counts once, and n counts on each read."""
    if causal and (chunk is None or chunk < 1):
        raise ValueError("causal stats need a chunk size >= 1")
    return CodeStats(z=z, v=V.data if isinstance(V, Tensor) else V, S=S,
                     chunk=chunk if causal else 0)


def _checked_stats(stats, kh, v, C, w, causal):
    """The shortcodes and the row chunk, after checking that the stats
    view holds this V, this codebook's S and this K_hat's codes."""
    if causal and stats.chunk < max(1, w):
        raise ValueError(f"causal stats chunk {stats.chunk} is below "
                         f"max(1, window) = {max(1, w)}")
    if stats.S != C.shape[0]:
        raise ValueError(f"stats/codebook mismatch: stats are over S = "
                         f"{stats.S} codes, the codebook has {C.shape[0]}")
    if stats.v is not v and not np.array_equal(stats.v, v):
        raise ValueError("stats/V mismatch: stats.v is not the op's V")
    if not np.array_equal(kh, C[stats.z]):
        raise ValueError("stats/z mismatch: K_hat rows are not C[z]")
    return stats.z, stats.chunk if causal else _ROWS


def _in_use(z, C, n, U):
    """The codebook, shortcodes and stats cut to the codes z uses. A code
    with no key has n = 0 and U = 0 in every chunk: its logit is masked
    and no key reads its accumulator rows, so dropping it is exact."""
    u, zu = np.unique(z, return_inverse=True)
    return zu.reshape(z.shape), C[u], n[..., u], U[..., u, :]


# ---------------------------------------------------------------------------
# the kernels

class _Plan:
    """What every chunk of one call needs, built once for all its walks.

    Chunk t holds rows [lo, hi). Its local keys [klo, khi) are the w keys
    before it, then the chunk itself when causal or the chunk and the w
    keys after it when not; the stats (the prefix when causal) count the
    first kc of them too, its shared keys. The plan holds the far counts
    n0 (T, B, S), the shared keys' value sums of each (chunk, batch, code)
    they hold, each added in position order, and the bias table as a band:
    row a against key lo - m + c, m = min(w, L), past which no chunk
    reaches."""

    def __init__(self, q, kh, z, v, n, U, C, b, scale, w, cs, causal):
        B, L, _ = q.shape
        S, dv = C.shape[0], v.shape[2]
        self.q, self.kh, self.v, self.z, self.U, self.b = q, kh, v, z, U, b
        self.Ct, self.scale = scale * C.T, scale
        self.cs, self.causal = cs, causal
        lo = np.arange(0, L, cs)
        hi = np.minimum(lo + cs, L)
        klo = np.maximum(lo - w, 0)
        khi = hi if causal else np.minimum(hi + w, L)
        kc = (lo if causal else khi) - klo
        rows, m, T = int(hi[0]), min(w, L), lo.size
        # per chunk: rows, keys, shared keys and its first band column
        self.geo = np.stack([lo, hi, klo, khi, kc, klo - lo + m], axis=1)
        self.k_max = int((khi - klo).max())
        # offset i - j + w + 1 clipped to [0, 2w + 2]: both ends off the band
        self.idx = np.clip(np.arange(rows)[:, None] - np.arange(rows + 2 * m)
                           + m, -w - 1, w + 1) + w + 1
        tab = np.zeros(2 * w + 3, dtype=np.result_type(q, kh))
        tab[1:-1] = b
        if causal:
            tab[:w + 1] = -np.inf                   # a key after the row
        self.band = tab[self.idx]
        # every chunk's shared keys in position order, keyed (t, b, code)
        tk = np.repeat(np.arange(T), kc)
        pos = np.arange(tk.size) - np.repeat(np.cumsum(kc) - kc - klo, kc)
        key = ((tk * B + np.arange(B)[:, None]) * S + z[:, pos]).ravel()
        per = np.bincount(key, minlength=T * B * S)
        nb = n.transpose(1, 0, 2) if causal else n
        self.n0 = (nb - per.reshape(T, B, S)).astype(n.dtype)
        hid = np.flatnonzero(self.n0 == 0)
        self.hid = np.divmod(hid % (B * S), S)
        self.hid_cut = np.searchsorted(hid, np.arange(T + 1) * B * S)
        # sum the shared keys' values only for the pairs they hold, each
        # pair at its rank among them; pairs come in chunk order
        pair = np.flatnonzero(per)
        rank = np.cumsum(per > 0) - 1
        self.take = _key_sums(rank[key], v[:, pos].reshape(key.size, dv),
                              pair.size).astype(v.dtype)
        self.row = pair // S % B * (S + self.k_max) + pair % S
        self.cut = np.searchsorted(pair, np.arange(T + 1) * B * S)

    def chunks(self, reverse=False):
        """Walk the chunks, last first when reverse. Each gives its rows and
        keys; its logits X (B, r, S + k) = [code | local + bias], -inf where
        the row sees nothing (a code with no far key, a local key after a
        causal row); K (B, dz, S + k) = scale [C | local keys]^T; and VC
        (B, S + k, dv + 1) = [U - shared | local v], counts [n0 | 1] last."""
        (B, dz, S), dv = self.q.shape[:1] + self.Ct.shape, self.v.shape[2]
        K = np.empty((B, dz, S + self.k_max), dtype=self.kh.dtype)
        K[..., :S] = self.Ct
        VC = np.empty((B, S + self.k_max, dv + 1), dtype=self.v.dtype)
        VC[:, S:, dv] = 1
        khT = self.kh.transpose(0, 2, 1)
        for t in range(len(self.geo))[::-1 if reverse else 1]:
            lo, hi, klo, khi, kc, j0 = map(int, self.geo[t])
            k = khi - klo
            K[..., S:S + k] = self.scale * khT[..., klo:khi]
            VC[:, :S, :dv] = self.U[:, t] if self.causal else self.U
            at = slice(self.cut[t], self.cut[t + 1])
            VC.reshape(-1, dv + 1)[self.row[at], :dv] -= self.take[at]
            VC[:, :S, dv] = self.n0[t]
            VC[:, S:S + k, :dv] = self.v[:, klo:khi]
            band = (slice(0, hi - lo), slice(j0, j0 + k))
            # X is built inside the yield, so this frame never holds it:
            # a walker that drops c.X frees the chunk's logits
            yield SimpleNamespace(lo=lo, hi=hi, klo=klo, khi=khi,
                                  X=self._logits(t, K[..., :S + k], band),
                                  K=K[..., :S + k], VC=VC[:, :S + k],
                                  band=band, shared=slice(klo, klo + kc))

    def _logits(self, t, K, band):
        """Chunk t's logits X against its keys K (see chunks)."""
        lo, hi = map(int, self.geo[t, :2])
        X = self.q[:, lo:hi] @ K
        at = slice(self.hid_cut[t], self.hid_cut[t + 1])
        X[self.hid[0][at], :, self.hid[1][at]] = -np.inf
        X[..., self.Ct.shape[1]:] += self.band[band]
        return X


def _weights(X, phi, shift=None):
    """Weights of a logit buffer and the softmax shift: phi(X) for an
    elementwise map (f or f' of phi_table), which takes -inf to 0, or,
    for softmax (phi None), exp(X - shift) in place, with the shift the
    row max unless given (the backward passes the row log-normalizers)."""
    if phi is not None:
        return phi(X), None
    if shift is None:
        shift = X.max(axis=2, keepdims=True)
    X -= shift
    return np.exp(X, out=X), shift


def _forward(p, phi):
    """Outputs (B, L, dv) and, for softmax (phi None), row log-normalizers,
    whose numerator and denominator are one product W [V | cnt]; the latter
    only adds, so a bias that annihilates a row's local keys cannot cancel
    its far field."""
    q, dv = p.q, p.v.shape[2]
    out = np.empty(q.shape[:2] + (dv,), dtype=q.dtype)
    lse = np.empty(q.shape[:2], dtype=q.dtype) if phi is None else None
    for c in p.chunks():
        W, m = _weights(c.X, phi and phi[0])
        if phi is None:
            R = W @ c.VC
            out[:, c.lo:c.hi] = R[..., :dv] / R[..., dv:]
            lse[:, c.lo:c.hi] = m[..., 0] + np.log(R[..., dv])
        else:
            out[:, c.lo:c.hi] = W @ c.VC[..., :dv]
    return out, lse


def _pairwise_is_cheaper(L, S, dz, dv, cs, causal):
    """Whether the pairwise key-gradient contraction takes fewer
    multiply-adds than the per-code accumulator: sum over query chunks of
    rows * counted keys * (dz + dv) against L * S * dz * dv."""
    lo = np.arange(0, L, cs)
    rows = np.minimum(lo + cs, L) - lo
    keys = lo if causal else L
    return int((rows * keys).sum()) * (dz + dv) < L * S * dz * dv


def _backward(p, phi, g, out, lse):
    """(dQ, dK_hat, dV, dbias) in one walk of the plan, last chunk first.

    E = W' * ([g | -r] [V | cnt]^T) is the gradient of a chunk's logits,
    one product (W' = W and r_i = g_i.out_i under softmax; W' = f'(X) and
    g V^T alone under phi, where r = 0). It gives dQ, and dK_hat, dV and
    dbias of the local keys; dbias adds up on the band, then the table. A
    far key j of code c takes sum_i W'_ic ([v_j | 1].[g_i | -r_i]) q_i
    over the rows of every chunk that counts it as far, by one of two
    exact contractions; each call takes the one with fewer multiply-adds
    (_pairwise_is_cheaper):
      - pairwise: each chunk gathers its far W' at every far key's code
        and adds M^T q with M_ji = W'_{i,z_j} ([v | 1] [g | -r]^T)_ji, one
        product; far keys·(dz + dv) per query row.
      - accumulator: per-code Tm = sum_i W'_ic q_i [g_i | -r_i]^T, read
        as Tm_c [v_j | 1]; S·dz·dv per query row, whatever L. Causal keys
        read before their own chunk is added, bidirectional keys once
        every chunk is in. The reads reach a chunk's shared keys too; it
        takes them back by the pairwise gather.
    Far value gradients read F = sum_i W_ic g_i per code, and each chunk
    takes its own part back off its shared keys; a softmax W is at most 1,
    so nothing large cancels. The accumulators are (B, S, .) and every
    temporary is one chunk of rows.
    """
    q, v, z, S, scale = p.q, p.v, p.z, p.Ct.shape[1], p.scale
    B, L, dz = q.shape
    dQ, dK, dV = np.zeros_like(q), np.zeros_like(p.kh), np.zeros_like(v)
    dband = np.zeros(p.idx.shape)
    F = np.zeros((B, S, v.shape[2]), dtype=q.dtype)
    bi = np.arange(B)[:, None]
    zb = bi * S + z                         # each key's row of (B*S, r)
    va = v if phi else np.concatenate([v, np.ones_like(v[..., :1])], axis=2)
    pairwise = _pairwise_is_cheaper(L, S, dz, v.shape[2], p.cs, p.causal)
    if not pairwise:
        Tm = np.zeros((B, S, dz * va.shape[2]), dtype=q.dtype)

    def read(lo, hi):
        # fancy indexing: take_along_axis would broadcast over Tm's last axis
        zc = z[:, lo:hi]
        dV[:, lo:hi] += F[bi, zc]
        if not pairwise:
            Tg = Tm[bi, zc].reshape(B, hi - lo, dz, -1)
            dK[:, lo:hi] += scale * (Tg @ va[:, lo:hi, :, None])[..., 0]

    for c in p.chunks(reverse=True):
        if p.causal:
            read(c.lo, c.hi)
        qr, gr = q[:, c.lo:c.hi], g[:, c.lo:c.hi]
        sq = scale * qr
        if phi is None:
            Wd = W = _weights(c.X, None, lse[:, c.lo:c.hi, None])[0]
            G = np.concatenate([gr, -(out[:, c.lo:c.hi] * gr).sum(
                axis=2, keepdims=True)], axis=2)
        else:
            W, Wd, G = phi[0](c.X), phi[1](c.X), gr
        E = G @ c.VC[..., :G.shape[2]].transpose(0, 2, 1)   # (B, r, S + k)
        E *= Wd
        dQ[:, c.lo:c.hi] += E @ c.K.transpose(0, 2, 1)
        El = E[..., S:]
        dband[c.band] += El.sum(axis=0)
        dK[:, c.klo:c.khi] += El.transpose(0, 2, 1) @ sq
        del E, El
        WG = W.transpose(0, 2, 1) @ gr                       # (B, S + k, dv)
        F += WG[:, :S]
        dV[:, c.klo:c.khi] += WG[:, S:]
        dV[:, c.shared] -= WG[bi, z[:, c.shared]]
        # one row gather from a contiguous (B*S, r) copy of the far W'^T
        WdT = Wd[..., :S].transpose(0, 2, 1).reshape(B * S, -1)
        del W, Wd, WG, c.X          # the chunk's logits: last read above

        def far_terms(ks):
            M = va[:, ks] @ G.transpose(0, 2, 1)            # (B, k, r)
            # W' gathered at the keys' codes, _GATHER entries at a time
            zk, step = zb[:, ks], max(1, _GATHER // (B * M.shape[2]))
            for a in range(0, M.shape[1], step):
                M[:, a:a + step] *= WdT[zk[:, a:a + step]]
            return M @ sq

        if pairwise:
            dK[:, :c.klo] += far_terms(slice(0, c.klo))
            if not p.causal:
                dK[:, c.khi:] += far_terms(slice(c.khi, L))
        else:
            qG = (qr[..., None] * G[..., None, :]).reshape(B, c.hi - c.lo, -1)
            Tm += WdT.reshape(B, S, -1) @ qG
            dK[:, c.shared] -= far_terms(c.shared)
    if not p.causal:
        for lo, hi in p.geo[:, :2]:
            read(lo, hi)
    db = np.bincount(p.idx.ravel(), weights=dband.ravel(),
                     minlength=p.b.size + 2)[1:-1]
    return dQ, dK, dV, db.astype(p.b.dtype)


# ---------------------------------------------------------------------------
# the public op

def _check_inputs(fn, arrays, bias, w, zd):
    """Name the first (B, L, .) input of another rank or with no position,
    then the first whose (B, L) differs from the first input's or, for a
    query or key, whose width is not the codewords' zd; or a bias that is
    not (2w+1,). arrays holds (name, array, keyed) triples, keyed for a
    query or key."""
    for name, x, _ in arrays:
        if x.ndim != 3:
            raise ValueError(f"{fn} takes (B, L, .) inputs, got {name} of "
                             f"shape {x.shape}")
        if x.shape[1] < 1:
            raise ValueError(f"{name} must hold at least one position, got "
                             f"shape {x.shape}")
    first, x0, _ = arrays[0]
    for name, x, keyed in arrays:
        if x.shape[:2] != x0.shape[:2]:
            raise ValueError(f"{name} of shape {x.shape} and {first} of "
                             f"shape {x0.shape} differ in (B, L)")
        if keyed and x.shape[2] != zd:
            raise ValueError(f"{name} of shape {x.shape} has width "
                             f"{x.shape[2]}, the codewords {zd}")
    if bias.shape != (2 * w + 1,):
        raise ValueError(f"bias must have shape ({2 * w + 1},), got "
                         f"{bias.shape}")


def attn_factored(Q, cb, stats, K_hat, V, bias, cfg):
    """Linear-time attention equal to the dense path on quantized keys.

    Q, K_hat, V: (B, L, .) tensors; bias: (2w+1,) tensor; cb: Codebook;
    stats: the CodeStats view of z and V from build_code_stats (causal
    chunk >= max(1, w)); cfg needs attn_fn / window / causal / scale. The
    shapes (one (B, L) for all three, Q and K_hat as wide as the
    codewords), the chunk, the view's V and S, and K_hat == C[z] are
    checked against the full codebook. The op then counts n and U once; the
    forward and backward kernels run on the codes z uses, which is exact
    up to summation order.
    """
    C, w, causal = cb.C, cfg.window, cfg.causal
    q, kh, v = Q.data, K_hat.data, V.data
    _check_inputs("attn_factored", (("Q", q, True), ("K_hat", kh, True),
                                     ("V", v, False)), bias.data, w,
                  C.shape[1])
    z, cs = _checked_stats(stats, kh, v, C, w, causal)
    n, U = _code_stats(z, v, C.shape[0], cs if causal else None)
    z, C, n, U = _in_use(z, C, n, U)
    phi = None if cfg.attn_fn == "softmax" else phi_table(cfg.attn_fn)
    plan = _Plan(q, kh, z, v, n, U, C, bias.data, cfg.scale, w, cs, causal)
    out, lse = _forward(plan, phi)
    return make_op(out, (Q, K_hat, V, bias), lambda g: _backward(
        plan, phi, g, out, lse), "attn_factored")


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
    q, bias = np.asarray(q), np.asarray(bias)
    w, causal = cfg.window, cfg.causal
    _check_inputs("attn_row_entropy", (("q", q, True),), bias, w,
                  C.shape[1])
    B, L, _ = q.shape
    cs = stats_chunk(w, True)           # any row block is exact
    v, S = q[..., :0], C.shape[0]       # no values: only counts
    z = CodeStats(z, v, S).z            # checks z against q and S
    z, C, n, U = _in_use(z, C, *_code_stats(z, v, S, cs if causal else None))
    p = _Plan(q, C[z], z, v, n, U, C, bias, cfg.scale, w, cs, causal)
    f = None if cfg.attn_fn == "softmax" else phi_table(cfg.attn_fn)[0]
    H = np.empty((B, L), dtype=q.dtype)
    for c in p.chunks():
        W, _ = _weights(c.X, f)
        T = W @ c.VC                        # c.VC (B, S + k, 1): the counts
        H[:, c.lo:c.hi] = -(_xlogx(W / np.where(T > 0, T, 1.0)) @ c.VC)[..., 0]
    keys = np.arange(1, L + 1) if causal else np.full(L, L)
    return np.where(keys > 1, H / np.log(np.maximum(keys, 2)), 1.0)

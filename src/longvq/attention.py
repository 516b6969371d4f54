"""The gated attention layer and its quadratic oracle.

The layer feeds a state-space summary Z into the query/key/gate
projections, quantizes keys onto the codebook, runs attention (factored
linear-time path or the dense oracle), and mixes the gated result with the
input through a learned sigmoid gate:

    Z = silu(SSM(X));  G_a = silu(Z W_ga);  Q = Z W_q;  K = Z W_k
    V = silu(X W_v);   K_hat = quantize(K)
    O_a = G_a * Attn(Q, K_hat, V, local_bias)
    O   = G_o * (O_a W_out) + (1 - G_o) * X,  G_o = sigmoid(X W_go)

X is (B, L, d); a single sequence is B = 1. The dense oracle materializes
the full L x L weights and is the ground truth the factored op must
reproduce; it takes any leading axes. It is one tape node, as the
factored op is: the weights, built by one numpy rule (_dense_weights)
from the scaled logits, the band bias, the causal mask and softmax or
factored.phi_table's (f, f') pair, applied to V. The bench-scaling probe
times the same rule over blocks of query rows, with no tape.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .factored import attn_factored, build_code_stats, phi_table, stats_chunk
from .ssm import SsmBank
from .tensor import (
    Tensor, gate_mix, get_dtype, linear, make_op, mul, silu,
)
from .vq import quantize_st, seed_codebook

__all__ = ["AttentionConfig", "LongVQLayer", "attn_dense_oracle"]

ATTN_FNS = ("softmax", "relu2", "laplace")


@dataclass
class AttentionConfig:
    attn_fn: str = "softmax"
    window: int = 8
    causal: bool = True
    z_dim: int = 16
    v_dim: int = 64

    def __post_init__(self):
        if self.attn_fn not in ATTN_FNS:
            raise ValueError(f"attn_fn must be one of {ATTN_FNS}")
        if self.window < 0:
            raise ValueError(f"window must be >= 0, got {self.window}")
        for name in ("z_dim", "v_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def scale(self):
        return 1.0 / sqrt(self.z_dim)


def _band_index(rows, cols, w):
    """Positions in the (2w + 3,) logit table of _dense_weights for query
    positions rows against key positions cols: the offset i - j, clipped
    to [-w - 1, w + 1], plus w + 1."""
    idx = rows[:, None] - cols + (w + 1)
    return np.clip(idx, 0, 2 * w + 2, out=idx)


def _dense_weights(q, kh, bias, cfg, r0=0):
    """The dense weights rule in numpy: weights (..., r, L) of the query
    rows q, at positions r0.., over every key, and the logits that phi's
    derivative reads (None for softmax).

    The logits are scale * q kh^T plus one entry of a (2w + 3,) table per
    offset: the bias on |i - j| <= w, -inf after the row when causal, 0
    elsewhere. The table is read only on the key columns within w of the
    rows: every key before them is off the band, and every key after them
    is after every row, so a causal block sets those to -inf and a
    bidirectional one leaves them. Softmax's exp and phi_table's f both
    take a masked logit to exactly 0.
    """
    w, r, L = cfg.window, q.shape[-2], kh.shape[-2]
    X = q @ np.swapaxes(kh, -1, -2)
    X *= cfg.scale
    tab = np.zeros(2 * w + 3, dtype=X.dtype)
    tab[1:-1] = bias
    if cfg.causal:
        tab[:w + 1] = -np.inf                 # a key after the row
    lo, hi = max(0, r0 - w), min(L, r0 + r + w)
    X[..., lo:hi] += tab[_band_index(np.arange(r0, r0 + r),
                                     np.arange(lo, hi), w)]
    if cfg.causal:
        X[..., hi:] = -np.inf
    if cfg.attn_fn != "softmax":
        return phi_table(cfg.attn_fn)[0](X), X
    W = X - X.max(axis=-1, keepdims=True)
    np.exp(W, out=W)
    W /= W.sum(axis=-1, keepdims=True)
    return W, None


def attn_dense_oracle(Q, K_hat, V, bias, cfg):
    """Quadratic reference: W @ V for the full (..., L, L) weights W, as
    one tape node with parents (Q, K_hat, V, bias).

    softmax normalizes each row over the keys it sees; relu2/laplace are
    unnormalized elementwise maps; causal gives a key after the row weight
    exactly 0; the learned bias only touches the |i-j| <= w band. Q,
    K_hat (..., L, z_dim) and V (..., L, v_dim) share their leading axes.

    The backward is the textbook dense one: dV = W^T g and gW = g V^T;
    then dX = W * (gW - rowsum(W * gW)) for softmax and gW * f'(X) for
    phi, which is 0 wherever a row sees no key; then dQ = scale dX K_hat,
    dK_hat = scale dX^T Q and the bias gradient by one bincount of dX over
    the table positions.
    """
    L, w = K_hat.data.shape[-2], cfg.window
    for name, x in (("Q", Q.data), ("K_hat", K_hat.data)):
        if x.shape[-2] < 1:
            raise ValueError(f"{name} must hold at least one position, got "
                             f"shape {x.shape}")
        if x.shape[:-1] != V.data.shape[:-1]:
            raise ValueError(f"{name} of shape {x.shape} and V of shape "
                             f"{V.data.shape} differ in (..., L)")
    if bias.data.shape != (2 * w + 1,):
        raise ValueError(f"bias must have shape ({2 * w + 1},), got "
                         f"{bias.data.shape}")
    W, X = _dense_weights(Q.data, K_hat.data, bias.data, cfg)

    def vjp(g):
        dV = np.swapaxes(W, -1, -2) @ g
        gW = g @ np.swapaxes(V.data, -1, -2)
        if X is None:
            dX = W * (gW - (W * gW).sum(axis=-1, keepdims=True))
        else:
            dX = gW * phi_table(cfg.attn_fn)[1](X)
        del gW
        pos = np.arange(L)
        db = np.bincount(_band_index(pos, pos, w).ravel(),
                         weights=dX.reshape(-1, L, L).sum(axis=0).ravel(),
                         minlength=2 * w + 3)
        dX *= cfg.scale
        return (dX @ K_hat.data, np.swapaxes(dX, -1, -2) @ Q.data, dV,
                db[1:-1].astype(dX.dtype))

    return make_op(W @ V.data, (Q, K_hat, V, bias), vjp, "attn_dense")


def _linear_init(rng, fan_in, fan_out, name):
    w = rng.normal((fan_in, fan_out), std=fan_in ** -0.5, dtype=get_dtype())
    return Tensor(w, requires_grad=True, name=name)


def _zeros_param(shape, name):
    return Tensor(np.zeros(shape, dtype=get_dtype()), requires_grad=True,
                  name=name)


class LongVQLayer:
    """Gated SSM-attention layer with quantized keys.

    impl selects 'factored' (linear-time) or 'dense' (quadratic oracle);
    both produce the same outputs and parameter gradients on quantized
    keys. ssm_enabled=False ablates the state branch to Z = silu(X).
    The codebook is seeded from the first batch of keys it sees; a
    checkpoint without it does not load (Model.load_state).
    """

    def __init__(self, d, cfg, S, rng, n_state=16, prefix="attn",
                 ssm_enabled=True, impl="factored"):
        if impl not in ("factored", "dense"):
            raise ValueError("impl must be 'factored' or 'dense'")
        self.d = d
        self.cfg = cfg
        self.S = S
        self.impl = impl
        self.ssm_enabled = ssm_enabled
        self.prefix = prefix
        self.bank = SsmBank(d, n_state, rng.child("ssm"),
                            prefix=f"{prefix}.ssm") if ssm_enabled else None
        # projection name -> (fan-in, fan-out) of its (w, b) pair
        shapes = {"ga": (d, cfg.v_dim), "q": (d, cfg.z_dim),
                  "k": (d, cfg.z_dim), "v": (d, cfg.v_dim), "go": (d, d),
                  "out": (cfg.v_dim, d)}
        wr = rng.child("proj")
        self.proj = {
            name: (_linear_init(wr.child(name), n, m, f"{prefix}.w_{name}"),
                   _zeros_param(m, f"{prefix}.b_{name}"))
            for name, (n, m) in shapes.items()}
        self.local_bias = _zeros_param(2 * cfg.window + 1,
                                       f"{prefix}.local_bias")
        self.codebook = None
        self._cb_rng = rng.child("codebook")

    def params(self):
        ps = list(self.bank.params()) if self.ssm_enabled else []
        return ps + [p for wb in self.proj.values() for p in wb] \
            + [self.local_bias]

    def project_inputs(self, X):
        """(Z, G_a, Q, K, V) per the layer equations; X is (B, L, d)."""
        p = self.proj
        Z = silu(self.bank(X)) if self.ssm_enabled else silu(X)
        G_a = silu(linear(Z, *p["ga"]))
        Q = linear(Z, *p["q"])
        K = linear(Z, *p["k"])
        V = silu(linear(X, *p["v"]))
        return Z, G_a, Q, K, V

    def gate_output(self, X, O_pre, G_a):
        """Gate, project to d, and mix with the input through G_o; the
        sigmoid of G_o runs inside gate_mix, from X W_go + b_go."""
        O_a = mul(G_a, O_pre)
        out = linear(O_a, *self.proj["out"])
        return gate_mix(linear(X, *self.proj["go"]), out, X)

    def ensure_codebook(self, K_data):
        if self.codebook is None:
            self.codebook = seed_codebook(K_data, self.S, self._cb_rng)
        return self.codebook

    def __call__(self, X, frozen=None):
        """Full layer on X (B, L, d). Returns (O, aux); aux has K, K_hat,
        z for the commitment loss and the EMA update.

        frozen, when given, replays a recorded quantization: dict with
        'z' and 'offset' (K_hat - K at record time). That makes the map
        smooth in the parameters, which is what a finite-difference
        check differentiates; the straight-through rule is the
        definition of the gradient, not an approximation under test.
        """
        if X.data.ndim != 3:
            raise ValueError(f"LongVQLayer takes X (B, L, d), got shape "
                             f"{X.data.shape}")
        Z, G_a, Q, K, V = self.project_inputs(X)
        if frozen is None:
            cb = self.ensure_codebook(K.data)
            K_hat, z = quantize_st(K, cb)
        else:
            cb = self.codebook
            z = frozen["z"]
            K_hat = K + Tensor(frozen["offset"].astype(K.data.dtype))
        if self.impl == "factored":
            stats = build_code_stats(
                z, V.data, cb.S, self.cfg.causal,
                stats_chunk(self.cfg.window, self.cfg.causal))
            O_pre = attn_factored(Q, cb, stats, K_hat, V, self.local_bias,
                                  self.cfg)
        else:
            O_pre = attn_dense_oracle(Q, K_hat, V, self.local_bias, self.cfg)
        O = self.gate_output(X, O_pre, G_a)
        aux = {"K": K, "K_hat": K_hat, "z": z,
               "Q": Q.data, "V": V.data}
        return O, aux

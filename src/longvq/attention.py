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
the full L x L score matrix on the tape and is the ground truth the
factored op must reproduce; it takes any leading axes. Its relu2/laplace
weights are one tape op built from factored.phi_table's (f, f') pair. A
blocked no-grad scorer caps memory; it exists only to time the dense path
at long L.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .factored import attn_factored, build_code_stats, phi_table, stats_chunk
from .ssm import SsmBank
from .tensor import (
    Tensor, band_bias_add, gate_mix, get_dtype, linear, make_op, matmul, mul,
    silu, softmax_rows, transpose,
)
from .vq import quantize_st, seed_codebook

__all__ = [
    "AttentionConfig", "GateSet", "LongVQLayer", "attn_dense_oracle",
    "attn_dense_blocked",
]

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


def attn_dense_oracle(Q, K_hat, V, bias, cfg):
    """Quadratic reference: full score matrix on the tape.

    softmax normalizes each row over allowed keys; relu2/laplace are
    unnormalized elementwise maps; causal masks j > i; the learned bias
    only touches the |i-j| <= w band.
    """
    L = Q.data.shape[-2]
    logits = mul(matmul(Q, transpose(K_hat)), cfg.scale)
    logits = band_bias_add(logits, bias, cfg.window, cfg.causal)
    if cfg.attn_fn == "softmax":
        mask = None
        if cfg.causal:
            mask = np.broadcast_to(np.tril(np.ones((L, L), dtype=bool)),
                                   logits.data.shape)
        wts = softmax_rows(logits, mask=mask)
    else:
        f, df = phi_table(cfg.attn_fn)
        x = logits.data
        wts = make_op(f(x), (logits,), lambda g: (g * df(x),), cfg.attn_fn)
        if cfg.causal:
            tri = np.tril(np.ones((L, L), dtype=get_dtype()))
            wts = mul(wts, Tensor(tri))
    return matmul(wts, V)


def attn_dense_blocked(q, kh, v, bias, cfg, block=512):
    """No-grad dense scorer over row blocks; O(block*L) peak memory.

    q/kh/v are numpy (L, .). Returns out (L, v_dim).
    """
    L, dv = q.shape[0], v.shape[1]
    w = cfg.window
    out = np.empty((L, dv), dtype=q.dtype)
    col = np.arange(L)
    for r0 in range(0, L, block):
        r1 = min(r0 + block, L)
        rows = np.arange(r0, r1)
        logits = cfg.scale * (q[r0:r1] @ kh.T)
        off = rows[:, None] - col[None, :]
        band = np.abs(off) <= w
        logits[band] += bias[off[band] + w]
        disallow = off < 0 if cfg.causal else np.zeros_like(band)
        if cfg.attn_fn == "softmax":
            logits[disallow] = -np.inf
            m = logits.max(axis=1, keepdims=True)
            e = np.exp(logits - m)
            p = e / e.sum(axis=1, keepdims=True)
        else:
            f, _ = phi_table(cfg.attn_fn)
            p = f(logits)
            p[disallow] = 0.0
        out[r0:r1] = p @ v
    return out


@dataclass
class GateSet:
    """Projection and gate parameters of one layer."""
    w_ga: Tensor
    b_ga: Tensor
    w_q: Tensor
    b_q: Tensor
    w_k: Tensor
    b_k: Tensor
    w_v: Tensor
    b_v: Tensor
    w_go: Tensor
    b_go: Tensor
    w_out: Tensor
    b_out: Tensor

    def params(self):
        return [self.w_ga, self.b_ga, self.w_q, self.b_q, self.w_k, self.b_k,
                self.w_v, self.b_v, self.w_go, self.b_go, self.w_out,
                self.b_out]


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
        wr = rng.child("proj")
        self.gates = GateSet(
            w_ga=_linear_init(wr.child("ga"), d, cfg.v_dim, f"{prefix}.w_ga"),
            b_ga=_zeros_param(cfg.v_dim, f"{prefix}.b_ga"),
            w_q=_linear_init(wr.child("q"), d, cfg.z_dim, f"{prefix}.w_q"),
            b_q=_zeros_param(cfg.z_dim, f"{prefix}.b_q"),
            w_k=_linear_init(wr.child("k"), d, cfg.z_dim, f"{prefix}.w_k"),
            b_k=_zeros_param(cfg.z_dim, f"{prefix}.b_k"),
            w_v=_linear_init(wr.child("v"), d, cfg.v_dim, f"{prefix}.w_v"),
            b_v=_zeros_param(cfg.v_dim, f"{prefix}.b_v"),
            w_go=_linear_init(wr.child("go"), d, d, f"{prefix}.w_go"),
            b_go=_zeros_param(d, f"{prefix}.b_go"),
            w_out=_linear_init(wr.child("out"), cfg.v_dim, d,
                               f"{prefix}.w_out"),
            b_out=_zeros_param(d, f"{prefix}.b_out"),
        )
        self.local_bias = _zeros_param(2 * cfg.window + 1,
                                       f"{prefix}.local_bias")
        self.codebook = None
        self._cb_rng = rng.child("codebook")

    def params(self):
        ps = list(self.bank.params()) if self.ssm_enabled else []
        return ps + self.gates.params() + [self.local_bias]

    def project_inputs(self, X):
        """(Z, G_a, Q, K, V) per the layer equations; X is (B, L, d)."""
        g = self.gates
        Z = silu(self.bank(X)) if self.ssm_enabled else silu(X)
        G_a = silu(linear(Z, g.w_ga, g.b_ga))
        Q = linear(Z, g.w_q, g.b_q)
        K = linear(Z, g.w_k, g.b_k)
        V = silu(linear(X, g.w_v, g.b_v))
        return Z, G_a, Q, K, V

    def gate_output(self, X, O_pre, G_a):
        """Gate, project to d, and mix with the input through G_o; the
        sigmoid of G_o runs inside gate_mix, from X W_go + b_go."""
        g = self.gates
        O_a = mul(G_a, O_pre)
        proj = linear(O_a, g.w_out, g.b_out)
        return gate_mix(linear(X, g.w_go, g.b_go), proj, X)

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

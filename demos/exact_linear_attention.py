"""Factored attention on quantized keys against the quadratic oracle.

The point of the factorization: once keys are snapped to S codewords,
every attention row is a function of per-code statistics, so the whole
map costs O(L*S) instead of O(L^2). This script shows the two routes
agree to round-off on random instances, then times them as L grows.
"""

import time

import numpy as np

from longvq.attention import AttentionConfig, attn_dense_oracle
from longvq.factored import attn_factored, build_code_stats, stats_chunk
from longvq.rng import Rng
from longvq.tensor import Tensor, set_precision
from longvq.vq import Codebook

set_precision("float64")


def instance(rng, L, S, zd=8, vd=8):
    """Codewords and one sequence (batch axis of 1) of codes, Q and V."""
    C = rng.normal((S, zd))
    z = rng.integers(0, S, (1, L))
    return C, z, rng.normal((1, L, zd)), rng.normal((1, L, vd))


def run_pair(cfg, C, z, Q, V, bias):
    S = C.shape[0]
    cb = Codebook(C=C, ema_count=np.ones(S), ema_sum=C.copy())
    st = build_code_stats(z, V, S, cfg.causal,
                          stats_chunk(cfg.window, cfg.causal))
    f = attn_factored(Tensor(Q), cb, st, Tensor(C[z]), Tensor(V),
                      Tensor(bias), cfg).data
    d = attn_dense_oracle(Tensor(Q), Tensor(C[z]), Tensor(V),
                          Tensor(bias), cfg).data
    return f, d


rng = Rng(0, "demo-exact")
print("agreement on random instances (L=192, S=12):")
for fn in ("softmax", "relu2", "laplace"):
    for causal in (True, False):
        cfg = AttentionConfig(fn, 4, causal, z_dim=8, v_dim=8)
        C, z, Q, V = instance(rng.child(f"{fn}-{causal}"), 192, 12)
        bias = rng.normal((9,))
        f, d = run_pair(cfg, C, z, Q, V, bias)
        rel = np.max(np.abs(f - d) / (1.0 + np.abs(d)))
        word = "causal" if causal else "bidir "
        print(f"  {fn:<8} {word}  max rel diff {rel:.3e}")

print("\nwall-clock, softmax bidirectional, S=128:")
cfg = AttentionConfig("softmax", 8, False, z_dim=16, v_dim=16)
for L in (512, 1024, 2048, 4096):
    C, z, Q, V = instance(rng.child(f"t{L}"), L, 128, 16, 16)
    bias = np.zeros(17)
    cb = Codebook(C=C, ema_count=np.ones(128), ema_sum=C.copy())
    t0 = time.perf_counter()
    st = build_code_stats(z, V, 128, False, None)
    attn_factored(Tensor(Q), cb, st, Tensor(C[z]), Tensor(V),
                  Tensor(bias), cfg)
    t_f = time.perf_counter() - t0
    t0 = time.perf_counter()
    attn_dense_oracle(Tensor(Q), Tensor(C[z]), Tensor(V), Tensor(bias), cfg)
    t_d = time.perf_counter() - t0
    print(f"  L={L:<5} factored {t_f * 1e3:7.1f} ms   "
          f"dense {t_d * 1e3:7.1f} ms   ratio {t_d / t_f:5.2f}x")

"""Wall-clock scaling probe for the two attention paths.

Times one bidirectional softmax forward per length: a no-grad dense
scorer over blocks of 512 query rows (O(512 * L) memory) against codebook
stats + factored evaluation. The scorer is private to this module and
knows only the bidirectional softmax it times, so it takes no attention
config that it could silently ignore. Least-squares slope of log(time) on
log(L) separates quadratic from linear growth without depending on
absolute machine speed.
"""

from __future__ import annotations

import time

import numpy as np

from .attention import AttentionConfig
from .factored import attn_factored, build_code_stats
from .rng import Rng
from .tensor import Tensor, get_dtype, no_grad
from .vq import Codebook

__all__ = ["bench_instance", "time_forward", "fit_slope", "bench_scaling"]

# query rows per block of the dense scorer
_ROWS = 512


def bench_instance(L, S, w, d, rng):
    cfg = AttentionConfig(attn_fn="softmax", window=w, causal=False,
                          z_dim=d, v_dim=d)
    dt = get_dtype()
    q = rng.normal((L, d), dtype=dt)
    C = rng.normal((S, d), dtype=dt)
    z = rng.integers(0, S, (L,))
    v = rng.normal((L, d), dtype=dt)
    bias = rng.normal((2 * w + 1,), std=0.1, dtype=dt)
    cb = Codebook(C=C, ema_count=np.ones(S), ema_sum=C.copy())
    return {"cfg": cfg, "q": q, "C": C, "z": z, "kh": C[z], "v": v,
            "bias": bias, "S": S, "cb": cb}


def _dense_blocked(q, kh, v, bias, scale):
    """Bidirectional softmax attention over row blocks, no tape.

    q/kh/v are numpy (L, .); bias is the (2w + 1,) band bias on the
    offsets |i - j| <= w. Returns out (L, v_dim).
    """
    L, w = q.shape[0], (bias.shape[0] - 1) // 2
    out = np.empty((L, v.shape[1]), dtype=q.dtype)
    col = np.arange(L)
    for r0 in range(0, L, _ROWS):
        r1 = min(r0 + _ROWS, L)
        logits = scale * (q[r0:r1] @ kh.T)
        off = np.arange(r0, r1)[:, None] - col[None, :]
        band = np.abs(off) <= w
        logits[band] += bias[off[band] + w]
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        out[r0:r1] = (e / e.sum(axis=1, keepdims=True)) @ v
    return out


def time_forward(mode, inst):
    """Seconds for one forward pass; stats build counts toward vq."""
    cfg = inst["cfg"]
    t0 = time.perf_counter()
    if mode == "dense":
        _dense_blocked(inst["q"], inst["kh"], inst["v"], inst["bias"],
                       cfg.scale)
    elif mode == "vq":
        with no_grad():       # the op's layout has a batch axis: B = 1
            V = Tensor(inst["v"][None])
            stats = build_code_stats(inst["z"][None], V, inst["S"],
                                     causal=False)
            attn_factored(Tensor(inst["q"][None]), inst["cb"], stats,
                          Tensor(inst["kh"][None]), V, Tensor(inst["bias"]),
                          cfg)
    else:
        raise ValueError(f"unknown bench mode '{mode}'")
    return time.perf_counter() - t0


def fit_slope(Ls, times):
    return float(np.polyfit(np.log(np.asarray(Ls, dtype=float)),
                            np.log(np.asarray(times, dtype=float)), 1)[0])


def bench_scaling(Ls, reps=3, S=512, w=64, d=64, modes=("dense", "vq"),
                  seed=0):
    """Median-of-reps forward times per length, plus log-log slopes.

    Each mode also reports the fastest and slowest rep per length
    (min_s, max_s), so the spread behind every median is on record.
    """
    report = {"schema": "longvq-bench-v1",
              "params": {"S": S, "w": w, "d": d, "reps": reps,
                         "Ls": list(Ls), "seed": seed},
              "modes": {}}
    for mode in modes:
        times, lo, hi = {}, {}, {}
        for L in Ls:
            inst = bench_instance(L, S, w, d, Rng(seed, f"bench-{L}"))
            time_forward(mode, inst)          # warmup, not recorded
            samples = [time_forward(mode, inst) for _ in range(reps)]
            times[str(L)] = float(np.median(samples))
            lo[str(L)], hi[str(L)] = min(samples), max(samples)
        report["modes"][mode] = {
            "times_s": times, "min_s": lo, "max_s": hi,
            "slope": fit_slope(Ls, list(times.values()))}
    if "dense" in report["modes"] and "vq" in report["modes"]:
        ratios = {}
        for L in Ls:
            td = report["modes"]["dense"]["times_s"][str(L)]
            tv = report["modes"]["vq"]["times_s"][str(L)]
            ratios[str(L)] = td / tv
        report["dense_over_vq"] = ratios
    return report

"""Wall-clock scaling probe for the two attention paths.

Times one bidirectional softmax forward per length: the dense oracle's
weights rule (attention._dense_weights) with no tape, over blocks of 512
query rows so that memory stays O(512 * L), against codebook stats +
factored evaluation. Least-squares slope of log(time) on log(L) separates
quadratic from linear growth without depending on absolute machine speed.
"""

from __future__ import annotations

import time

import numpy as np

from .attention import AttentionConfig, _dense_weights
from .factored import attn_factored, build_code_stats
from .rng import Rng
from .tensor import Tensor, get_dtype, no_grad
from .vq import Codebook

__all__ = ["bench_instance", "time_forward", "fit_slope", "bench_scaling"]


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


def _dense_rows(inst):
    """The dense forward of an instance, (L, v_dim): the oracle's weights
    rule, 512 query rows at a time."""
    q, kh, v = inst["q"], inst["kh"], inst["v"]
    out = np.empty((q.shape[0], v.shape[1]), dtype=q.dtype)
    for r0 in range(0, q.shape[0], 512):
        W, _ = _dense_weights(q[r0:r0 + 512], kh, inst["bias"], inst["cfg"],
                              r0)
        out[r0:r0 + 512] = W @ v
    return out


def time_forward(mode, inst):
    """Seconds for one forward pass; stats build counts toward vq."""
    cfg = inst["cfg"]
    t0 = time.perf_counter()
    if mode == "dense":
        _dense_rows(inst)
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

    After one warm-up call per (mode, length), the reps run in rounds, and
    each round times every (mode, length) once. A slow stretch of the
    machine then lands on one round, which the median drops, and not on
    every rep of one length, which would bend the slope. Each mode also
    reports the fastest and slowest rep per length (min_s, max_s), so the
    spread behind every median is on record.
    """
    report = {"schema": "longvq-bench-v1",
              "params": {"S": S, "w": w, "d": d, "reps": reps,
                         "Ls": list(Ls), "seed": seed},
              "modes": {}}
    insts = {L: bench_instance(L, S, w, d, Rng(seed, f"bench-{L}"))
             for L in Ls}
    cells = [(mode, L) for mode in modes for L in Ls]
    for mode, L in cells:
        time_forward(mode, insts[L])          # warmup, not recorded
    samples = {cell: [] for cell in cells}
    for _ in range(reps):
        for mode, L in cells:
            samples[mode, L].append(time_forward(mode, insts[L]))
    for mode in modes:
        times = {str(L): float(np.median(samples[mode, L])) for L in Ls}
        report["modes"][mode] = {
            "times_s": times,
            "min_s": {str(L): min(samples[mode, L]) for L in Ls},
            "max_s": {str(L): max(samples[mode, L]) for L in Ls},
            "slope": fit_slope(Ls, list(times.values()))}
    if "dense" in report["modes"] and "vq" in report["modes"]:
        ratios = {}
        for L in Ls:
            td = report["modes"]["dense"]["times_s"][str(L)]
            tv = report["modes"]["vq"]["times_s"][str(L)]
            ratios[str(L)] = td / tv
        report["dense_over_vq"] = ratios
    return report

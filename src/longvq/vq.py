"""Fixed-size codebook quantization with EMA statistics.

Keys are snapped to their nearest codeword; the straight-through rule
passes gradients to the keys unchanged and the codebook itself never
receives tape gradients. Codewords track assigned keys through
exponentially-averaged count/sum accumulators with Laplace-smoothed
normalization, updated once per optimizer step outside the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import _first_out_of_range, _key_sums, get_dtype, make_op

__all__ = [
    "Codebook", "assign_batch", "quantize_st", "ema_update",
    "commit_loss", "codebook_perplexity", "seed_codebook", "EMA_ETA",
    "EMA_EPSILON",
]

# The EMA decay eta and the Laplace smoothing epsilon of ema_update. They
# are fixed: a checkpoint holds C and the two accumulators, and these
# constants are the rest of a codebook's state.
EMA_ETA = 0.99
EMA_EPSILON = 1e-5


@dataclass
class Codebook:
    C: np.ndarray          # (S, D) codewords
    ema_count: np.ndarray  # (S,) N_s accumulators, >= 0
    ema_sum: np.ndarray    # (S, D) m_s accumulators

    @property
    def S(self):
        return self.C.shape[0]

    @property
    def D(self):
        return self.C.shape[1]


def assign_batch(x, cb):
    """Nearest codeword per row of x (..., D); ties go to the lowest index."""
    x = np.asarray(x)
    if cb.S == 0:
        raise ValueError("empty codebook")
    flat = x.reshape(-1, x.shape[-1])
    # |c|^2 - 2 x.c: the squared distance less the row's |x|^2, which
    # does not move the argmin. One GEMM, one in-place add, one
    # (rows, S) array; argmin keeps the first minimum
    d2 = flat @ (-2.0 * cb.C.T)
    d2 += (cb.C * cb.C).sum(-1)
    return d2.argmin(-1).reshape(x.shape[:-1])


def quantize_st(K, cb):
    """Straight-through quantization.

    Forward rows are exact codebook rows C[z]; backward passes the output
    gradient to K unchanged. Returns (K_hat, z).
    """
    z = assign_batch(K.data, cb)
    k_hat = cb.C[z].astype(K.data.dtype)
    out = make_op(k_hat, (K,), lambda g: (g,), "quantize_st")
    return out, z


def commit_loss(K, cb, z):
    """Mean squared error pulling keys toward their (frozen) codewords, as
    one tape node.

    The node keeps K, the codebook array and z, not K - C[z]: the backward
    forms the difference again. With g1 = g * (1/n) for n entries it
    returns t + t for t = g1 * (K - C[z]), bitwise the gradient of the
    chain it replaces (subtract, square, sum, scale by 1/n).
    """
    C, z = cb.C, np.asarray(z)

    def diff():
        d = C[z].astype(K.data.dtype, copy=False)
        return np.subtract(K.data, d, out=d)

    d = diff()
    n = np.asarray(1.0 / d.size, dtype=d.dtype)
    loss = np.square(d, out=d).sum() * n

    def vjp(g):
        t = diff()
        t *= g * n
        t += t
        return (t,)

    return make_op(np.asarray(loss, dtype=n.dtype), (K,), vjp, "commit_loss")


def ema_update(cb, K_batch, z):
    """One EMA step over a batch of keys (an array, (..., D)) and their
    shortcodes.

    N_s <- eta*N_s + (1-eta)*count_s
    m_s <- eta*m_s + (1-eta)*sum_{z_i=s} K_i
    C_s <- m_s / N~_s with N~_s Laplace-smoothed by epsilon; codes never
    hit keep their initialization (up to smoothing drift). eta and
    epsilon are EMA_ETA and EMA_EPSILON.
    """
    k = np.asarray(K_batch).reshape(-1, cb.D)
    z = np.asarray(z)
    at = _first_out_of_range(z, cb.S)
    if at is not None:
        raise ValueError(f"shortcode {z[at]} at position {at} is outside "
                         f"[0, {cb.S})")
    zf = z.reshape(-1)
    counts = np.bincount(zf, minlength=cb.S).astype(cb.ema_count.dtype)
    sums = _key_sums(zf, k, cb.S).astype(k.dtype)
    cb.ema_count = EMA_ETA * cb.ema_count + (1.0 - EMA_ETA) * counts
    cb.ema_sum = EMA_ETA * cb.ema_sum + (1.0 - EMA_ETA) * sums
    total = cb.ema_count.sum()
    smoothed = (cb.ema_count + EMA_EPSILON) / (total + cb.S * EMA_EPSILON)
    smoothed *= total
    cb.C = cb.ema_sum / smoothed[:, None]


def codebook_perplexity(z, S):
    """exp(entropy) of the empirical shortcode distribution, in [1, S]."""
    zf = np.asarray(z).reshape(-1)
    p = np.bincount(zf, minlength=S) / max(zf.size, 1)
    nz = p[p > 0]
    return float(np.exp(-(nz * np.log(nz)).sum()))


def seed_codebook(K, S, rng):
    """Data-dependent init: distance-weighted seeding, no refinement passes.

    First codeword uniform from the rows of K; each next drawn with
    probability proportional to squared distance from the chosen set.
    Draws from at most max(4096, 2S) rows of K, an array (..., D).
    """
    k = np.asarray(K, dtype=np.float64)
    k = k.reshape(-1, k.shape[-1])
    m = k.shape[0]
    cap = max(4096, 2 * S)
    if m > cap:
        k = k[rng.choice(m, cap, replace=False)]
        m = cap
    D = k.shape[1]
    C = np.empty((S, D))
    C[0] = k[int(rng.integers(0, m))]
    closest = ((k - C[0]) ** 2).sum(-1)
    for s in range(1, S):
        tot = closest.sum()
        if tot <= 1e-12:
            idx = int(rng.integers(0, m))
        else:
            idx = int(rng.choice(m, (), p=closest / tot))
        C[s] = k[idx]
        closest = np.minimum(closest, ((k - C[s]) ** 2).sum(-1))
    dtype = get_dtype()
    C = C.astype(dtype)
    return Codebook(C=C, ema_count=np.ones(S, dtype=dtype),
                    ema_sum=C.copy())


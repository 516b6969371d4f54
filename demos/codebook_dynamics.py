"""Codebook life cycle: seeding, EMA tracking, collapse detection.

The quantizer never sees tape gradients; codewords chase the keys
assigned to them through smoothed count/sum accumulators. Two small
experiments: (1) a codeword converges to a moving target geometrically
at rate eta, (2) perplexity of the assignment histogram exposes
collapse long before accuracy does.
"""

import numpy as np

from longvq.rng import Rng
from longvq.tensor import set_precision
from longvq.vq import (
    EMA_ETA, Codebook, assign_batch, codebook_perplexity, ema_update,
    seed_codebook,
)

set_precision("float64")
rng = Rng(0, "demo-vq")

print(f"1) one codeword chasing a fixed vector, eta={EMA_ETA}:")
cb = Codebook(C=rng.normal((1, 2)), ema_count=np.ones(1),
              ema_sum=np.zeros((1, 2)))
cb.ema_sum[:] = cb.C
target = np.array([[2.0, -1.0]])
for step in range(8):
    dist = float(np.linalg.norm(cb.C - target))
    print(f"   step {step}: |C - v| = {dist:.6f}")
    ema_update(cb, target, np.zeros(1, dtype=int))
print(f"   each line is {EMA_ETA}x the one before: the EMA is a geometric "
      f"decay")

print("\n2) assignment perplexity under healthy vs collapsed keys, S=32:")
keys_spread = rng.normal((512, 8))
cb = seed_codebook(keys_spread, 32, rng.child("seed"))
z = assign_batch(keys_spread, cb)
print(f"   spread keys:    perplexity {codebook_perplexity(z, 32):5.1f} "
      f"of 32 codes")
keys_tight = 0.01 * rng.normal((512, 8)) + rng.normal((1, 8))
z = assign_batch(keys_tight, cb)
print(f"   clustered keys: perplexity {codebook_perplexity(z, 32):5.1f} "
      f"of 32 codes")
print("   training logs carry this number per layer; a slide toward 1.0\n"
      "   means the attention is reading a single averaged memory slot.")

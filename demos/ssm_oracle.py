"""One state-space channel, three views of the same operator.

Shows the structured init, the bilinear discretization (the same
``discretize`` the trained bank uses, here for a single step size), and
that stepping the recurrence one sample at a time equals both
materializing the kernel and convolving, and the blocked ``ssm_scan``
the bank trains with (here over several of its blocks). The kernel
decay plot is ASCII because that is all a terminal needs.
"""

import numpy as np

from longvq.rng import Rng
from longvq.ssm import (
    conv_causal_channels, discretize, init_s4, materialize_kernel,
    scan_recurrent, ssm_scan,
)
from longvq.tensor import Tensor, set_precision

set_precision("float64")

n = 4
a, b = init_s4(n)
print(f"structured A for N={n} (lower triangular, diag -(i+1)):")
for row in a:
    print("  " + " ".join(f"{v:7.3f}" for v in row))
print("B:", np.round(b, 3))

rng = Rng(0, "demo-ssm")
a_bar, b_bar = discretize(a, b, [0.05])
chan = (a_bar[0], b_bar[0], rng.normal((n,)))
print(f"\nbilinear discretization at dt=0.05: |eig(A_bar)| ="
      f" {np.round(np.abs(np.linalg.eigvals(chan[0])), 4)}")

L = 64
k = materialize_kernel(*chan, L)
peak = np.max(np.abs(k))
print("\nkernel magnitude (each bar is one tap, 48 cols = peak):")
for j in range(0, L, 8):
    bar = "#" * int(48 * abs(k[j]) / peak)
    print(f"  k[{j:2d}] {k[j]:+9.5f} {bar}")

steps = 300
u = rng.normal((steps,))
y_rec = scan_recurrent(*chan, u)
y_conv = conv_causal_channels(materialize_kernel(*chan, steps)[None],
                              u[None, :, None], np.zeros(1))[0, :, 0]
y_scan = ssm_scan(Tensor(chan[2][None]), Tensor([np.log(0.05)]),
                  Tensor([0.0]), Tensor(u[None, :, None])).data[0, :, 0]
print(f"\non {steps} random inputs, max abs diff to the recurrence:")
print(f"  convolution by the kernel  {np.max(np.abs(y_conv - y_rec)):.3e}")
print(f"  blocked ssm_scan           {np.max(np.abs(y_scan - y_rec)):.3e}")

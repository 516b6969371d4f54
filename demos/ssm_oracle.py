"""One state-space channel, three views of the same operator.

Shows the structured init, the bilinear discretization (the same
``discretize`` the trained bank uses, here for a single step size), and
the fact that materializing the kernel and convolving equals stepping the
recurrence one sample at a time. The kernel decay plot is ASCII because
that is all a terminal needs.
"""

import numpy as np

import longvq.tensor as T
from longvq.rng import Rng
from longvq.ssm import discretize, init_s4, materialize_kernel, scan_recurrent
from longvq.tensor import set_precision

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

u = rng.normal((L,))
y_conv = T.conv_causal_channels(T.Tensor(k[None]), T.Tensor(u[None, :, None]),
                                np.zeros(1)).data[0, :, 0]
y_scan = scan_recurrent(*chan, u)
print(f"\nconvolution vs recurrence on random input: "
      f"max abs diff {np.max(np.abs(y_conv - y_scan)):.3e}")

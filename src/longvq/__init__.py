"""Linear-time gated state-space attention with vector-quantized keys.

The package provides the layer and its exact quadratic oracle, a small
reverse-mode autodiff substrate on numpy, EMA codebook quantization,
training utilities for desk-scale tasks, and a scaling benchmark. Import
the modules directly (``longvq.tensor``, ``longvq.model``, ...); the
package itself imports no numpy, so ``python -m longvq.cli`` can still pin
BLAS threads before the first numpy import in the process.
"""

__version__ = "0.1.0"

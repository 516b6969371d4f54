"""Linear-time gated state-space attention with vector-quantized keys.

The package provides the layer and its exact quadratic oracle, a small
reverse-mode autodiff substrate on numpy, EMA codebook quantization,
training utilities for desk-scale tasks, and a scaling benchmark.

The names below load on first access, so importing the package imports
no numpy: ``python -m longvq.cli`` can still pin BLAS threads before the
first numpy import in the process.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "Tensor": "tensor", "NumericsError": "tensor", "set_precision": "tensor",
    "get_dtype": "tensor", "precision": "tensor", "no_grad": "tensor",
    "param": "tensor", "grad": "tensor", "finite_diff": "tensor",
    "Rng": "rng",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module 'longvq' has no attribute '{name}'")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                    name)
    globals()[name] = value
    return value

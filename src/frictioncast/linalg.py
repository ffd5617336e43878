"""Numerically safe sigmoid and the seeded random source.

The random source is numpy's PCG64 generator, which is bit-reproducible for a
given seed across platforms; every seed used anywhere in the package flows
through `new_rng`.
"""

from __future__ import annotations

import numpy as np


def new_rng(seed: int) -> np.random.Generator:
    """Deterministic PCG64 generator for the given 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed))


def sigmoid(v: np.ndarray) -> np.ndarray:
    # Split by sign to avoid overflow in exp for large |v|.
    out = np.empty_like(v, dtype=np.float64)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out

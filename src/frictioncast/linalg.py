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
    # exp of -|v| never overflows; for v < 0 the ratio is e^v / (1 + e^v)
    e = np.exp(np.copysign(v, -1.0))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)
